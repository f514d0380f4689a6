"""Positivity of mixed lattice-point counts, decided without computing them.

The mixed count of a tuple of lattice polytopes is positive exactly when
one can pick a lattice segment inside each polytope so that the picked
directions are linearly independent.  Edges are enough: every lattice
segment inside a polytope has its direction in the span of that
polytope's edge directions.  So are dim P edges of each P whose
directions span that space: by Rado's theorem (Oxley, Matroid Theory,
2nd ed., section 11.2) an independent pick exists exactly when every
union of the polytopes' direction sets has rank at least its number of
polytopes, and that depends on the spans alone.

Finding such a pick is a matroid intersection problem: the directions
must be independent in the linear matroid, and the partition matroid
allows at most one segment per polytope.  This module implements the
segment harvest, an exact augmenting-path intersection solver, the
positivity decision built on them, and a lower bound obtained from
products of simplex dimensions, searched one size vector at a time.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache
from math import prod
from typing import Callable, Iterable, Sequence

from .geometry import LatticeMismatch, Polytope, _common_ambient, _Frozen, _require_polytope
from .linalg import extend_echelon, int_rows, primitive
from .valuations import Valuation, cm

__all__ = [
    "Segment",
    "MatroidOracle",
    "candidate_segments",
    "direction_matroid",
    "owner_matroid",
    "matroid_intersection",
    "positivity_witness",
    "decide_positive",
    "cylinder_lower_bound",
]

LatticePoint = tuple[int, ...]


class Segment(_Frozen):
    """Lattice segment inside one member of a polytope tuple.

    `owner` is the index of the polytope the segment came from, and
    `direction` is the primitive integer vector from the first endpoint
    to the second.
    """

    __slots__ = _fields = ("owner", "endpoints", "direction")

    def __init__(
        self, owner: int, endpoints: tuple[LatticePoint, LatticePoint], direction: tuple[int, ...]
    ):
        a, b = endpoints
        if any(type(x) is not int for x in (*a, *b)):
            raise ValueError("segment endpoints must be lattice points")
        if a == b:
            raise ValueError("segment endpoints must differ")
        diff = tuple(y - x for x, y in zip(a, b, strict=True))
        if direction != primitive(diff):
            raise ValueError("direction must be the primitive endpoint difference")
        self._set(owner, endpoints, direction)


def candidate_segments(polys: Sequence[Polytope]) -> list[Segment]:
    """Edges of each polytope whose directions span its linear space, dim P
    of them, tagged with the owner index: the first edge and each later
    one whose direction leaves the span of those kept, picked once per
    polytope (Polytope.spanning_edges).

    A point polytope has no edges and contributes nothing, which makes
    every positivity query involving it fail, as it should.
    """
    out: list[Segment] = []
    for i, P in enumerate(polys):
        P = _require_polytope(P)
        if not P.is_integral:
            raise LatticeMismatch("candidate segments need integer vertices")
        out += (Segment(i, (a, b), u) for a, b, u in P.spanning_edges)
    return out


class MatroidOracle:
    """Independence oracle over a ground set indexed 0..size-1.

    The supplied test must be hereditary.  Nothing here checks the
    exchange axiom; the intersection algorithm silently relies on it.
    """

    def __init__(self, size: int, independent: Callable[[frozenset[int]], bool]):
        self.size = size
        self._test = independent

    def independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        for i in s:
            if not 0 <= i < self.size:
                raise IndexError(f"ground element {i} out of range")
        return self._test(s)


def direction_matroid(directions: Sequence[Sequence]) -> MatroidOracle:
    """Linear matroid on vectors: independent means full rational rank."""
    rows = int_rows(directions)

    @lru_cache(maxsize=1 << 14)
    def indep(subset: frozenset[int]) -> bool:
        echelon: list[tuple[int, list[int]]] = []
        return all(extend_echelon(echelon, rows[i]) for i in subset)

    return MatroidOracle(len(rows), indep)


def owner_matroid(owners: Sequence[int]) -> MatroidOracle:
    """Partition matroid: at most one element of each owner label."""
    tags = tuple(owners)

    def indep(subset: frozenset[int]) -> bool:
        return len({tags[i] for i in subset}) == len(subset)

    return MatroidOracle(len(tags), indep)


def matroid_intersection(
    m1: MatroidOracle, m2: MatroidOracle, k: int
) -> tuple[int, ...] | None:
    """Common independent set of size k, as sorted indices, or None.

    Grows the set one augmenting path at a time.  Paths live in the
    exchange graph on the ground set: elements outside the current set
    that keep it independent in m1 are sources, those that do so in m2
    are sinks, and arcs encode single-element swaps that preserve the
    respective matroid.  Augmenting along a shortest path keeps the set
    common independent; a longer path would not.
    """
    if m1.size != m2.size:
        raise ValueError("matroids must share a ground set")
    if k < 0:
        raise ValueError("target size must be nonnegative")
    chosen: set[int] = set()
    while len(chosen) < k:
        path = _augmenting_path(m1, m2, chosen)
        if path is None:
            return None
        chosen.symmetric_difference_update(path)
    return tuple(sorted(chosen))


def _augmenting_path(
    m1: MatroidOracle, m2: MatroidOracle, chosen: set[int]
) -> list[int] | None:
    base = frozenset(chosen)
    outside = [y for y in range(m1.size) if y not in chosen]
    sinks = {y for y in outside if m2.independent(base | {y})}
    parent: dict[int, int | None] = {}
    queue: deque[int] = deque()
    for y in outside:
        if m1.independent(base | {y}):
            parent[y] = None
            if y in sinks:
                return [y]
            queue.append(y)
    # breadth-first, so the first sink reached closes a shortest path
    while queue:
        v = queue.popleft()
        if v in chosen:
            for y in outside:
                if y not in parent and m1.independent((base - {v}) | {y}):
                    parent[y] = v
                    if y in sinks:
                        path = [y]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path
                    queue.append(y)
        else:
            for x in chosen:
                if x not in parent and m2.independent((base - {x}) | {v}):
                    parent[x] = v
                    queue.append(x)
    return None


def positivity_witness(polys: Sequence[Polytope]) -> tuple[Segment, ...] | None:
    """Lattice segments, one inside each polytope in order of owner, whose
    directions are linearly independent; None when no such pick exists.

    This is the segment criterion: the mixed lattice-point count of the
    tuple is positive exactly when a witness exists.
    """
    polys = [_require_polytope(P) for P in polys]
    r = len(polys)
    if r and r > _common_ambient(polys):
        return None
    segments = candidate_segments(polys)
    m1 = direction_matroid([s.direction for s in segments])
    m2 = owner_matroid([s.owner for s in segments])
    pick = matroid_intersection(m1, m2, r)
    return None if pick is None else tuple(segments[i] for i in pick)


def decide_positive(
    phi: Valuation,
    polys: Sequence[Polytope],
    *,
    ambient_dim: int | None = None,
) -> bool:
    """Whether the mixed combination of phi over polys is positive.

    For the lattice-point count (phi.segment_criterion) this runs the
    segment criterion and never evaluates phi.  Any other valuation falls
    back to computing the mixed combination and comparing with zero.
    """
    if not phi.segment_criterion or not polys:
        return cm(phi, polys, ambient_dim=ambient_dim) > 0
    return positivity_witness(polys) is not None


def cylinder_lower_bound(polys: Sequence[Polytope]) -> int:
    """Largest product of simplex dimensions over exact sub-sums.

    Chooses a simplex spanned by vertices inside each polytope so that
    the direction spans meet only in the origin, making the Minkowski
    sum of the simplices a product combinatorially, and maximizes the
    product of the dimensions.  The mixed lattice-point count of the
    tuple is at least the returned value.  Zero means no such choice
    exists, and by the segment criterion the mixed count is then zero
    as well.

    The size vectors (k1..kr), 1 <= ki <= dim Pi and sum ki <= d, are
    tried in decreasing product, and the first that admits a choice
    gives the bound; with more polytopes than dimensions there is no
    size vector and the bound is 0.  Simplices with one span are
    interchangeable here, so Pi offers one per span of its ki-simplices,
    generated as the search asks for them and kept on Pi
    (Polytope._simplex_spans).  Once an attempt fails, a size vector that
    asks some subset of the polytopes for more than the rank of their
    joint linear span is skipped, the current one included, so a tuple
    whose best vectors fail for rank reasons does not read all its spans.
    By Rado's theorem a vector passes when a matroid intersection of the
    polytopes' chart rows with the partition matroid allowing ki rows of
    Pi fills it, so no subset is listed, and the intersection runs only
    for a vector that asks some subset for more than its largest
    member's dimension, which the rank is at least.
    """
    polys = [_require_polytope(P) for P in polys]
    r = len(polys)
    if r == 0:
        return 1
    d = _common_ambient(polys)
    for P in polys:
        if not P.is_integral:
            raise LatticeMismatch("the lower bound is about lattice polytopes")

    dims = [P.dim for P in polys]
    failed = False
    # the linear matroid on the chart rows of every Pi, built when needed,
    # and the owner of each row
    spans: MatroidOracle | None = None
    owners = [i for i, k in enumerate(dims) for _ in range(k)]

    def fits(sizes: tuple[int, ...]) -> bool:
        """Rado's condition: sizes[i] independent chart rows can be picked
        from each Pi, so no subset of them asks for more than the rank of
        their joint span.  The most a subset with largest dimension t
        asks for is the sum of ki over dim Pi <= t, so most vectors pass
        without an intersection."""
        nonlocal spans
        if not failed or all(sum(k for k, e in zip(sizes, dims) if e <= t) <= t for t in dims):
            return True
        if spans is None:
            spans = direction_matroid([row for P in polys for row in P._chart[1]])
        quota = MatroidOracle(
            len(owners),
            lambda s: all(c <= sizes[i] for i, c in Counter(owners[e] for e in s).items()),
        )
        return matroid_intersection(spans, quota, sum(sizes)) is not None

    def choose(i: int, sizes: tuple[int, ...], echelon: list[tuple[int, list[int]]]) -> bool | None:
        """True on a choice, False when there is none, None when a joint
        rank rules the size vector out."""
        nonlocal failed
        if i == r:
            return True
        for basis in polys[i]._simplex_spans(sizes[i]):
            branch = list(echelon)
            if all(extend_echelon(branch, row) for row in basis):
                found = choose(i + 1, sizes, branch)
                if found is not False:
                    return found
            if not failed:
                failed = True
                if not fits(sizes):
                    return None
        return False

    for sizes in _size_vectors(dims, d):
        if fits(sizes) and choose(0, sizes, []):
            return prod(sizes)
    return 0


def _size_vectors(dims: Sequence[int], d: int) -> list[tuple[int, ...]]:
    """The (k1..kr) with 1 <= ki <= dims[i] and sum ki <= d, in decreasing
    product.  Each ki leaves one for every later entry, so only tuples
    that can be completed are built, and none at all when r > d."""
    sizes: list[tuple[int, ...]] = [()]
    for i, k in enumerate(dims):
        later = len(dims) - i - 1
        sizes = [s + (j,) for s in sizes for j in range(1, min(k, d - sum(s) - later) + 1)]
    return sorted(sizes, key=prod, reverse=True)
