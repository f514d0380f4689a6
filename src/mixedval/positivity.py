"""Positivity of mixed lattice-point counts, decided without computing them.

The mixed count of a tuple of lattice polytopes is positive exactly when
one can pick a lattice segment inside each polytope so that the picked
directions are linearly independent.  Harvesting one candidate segment
per edge is enough: every lattice segment inside a polytope has its
direction in the span of that polytope's edge directions, and the
existence of an independent pick only depends on those spans.

Finding such a pick is a matroid intersection problem: the directions
must be independent in the linear matroid, and the partition matroid
allows at most one segment per polytope.  This module implements the
segment harvest, an exact augmenting-path intersection solver, the
positivity decision built on them, and a lower bound obtained from
products of simplex dimensions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .geometry import LatticeMismatch, Polytope, _common_ambient, _require_polytope
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
    "SEGMENT_CRITERION_VALUATIONS",
]

LatticePoint = tuple[int, ...]


@dataclass(frozen=True)
class Segment:
    """Lattice segment inside one member of a polytope tuple.

    `owner` is the index of the polytope the segment came from, and
    `direction` is the primitive integer vector from the first endpoint
    to the second.
    """

    owner: int
    endpoints: tuple[LatticePoint, LatticePoint]
    direction: tuple[int, ...]

    def __post_init__(self) -> None:
        a, b = self.endpoints
        if a == b:
            raise ValueError("segment endpoints must differ")
        diff = tuple(y - x for x, y in zip(a, b, strict=True))
        if self.direction != primitive(diff):
            raise ValueError("direction must be the primitive endpoint difference")

    @classmethod
    def between(cls, owner: int, a: Sequence[int], b: Sequence[int]) -> "Segment":
        start = tuple(int(x) for x in a)
        end = tuple(int(x) for x in b)
        return cls(owner, (start, end), primitive([y - x for x, y in zip(start, end, strict=True)]))


def candidate_segments(polys: Sequence[Polytope]) -> list[Segment]:
    """One segment per edge of each polytope, tagged with its owner index.

    A point polytope has no edges and contributes nothing, which makes
    every positivity query involving it fail, as it should.
    """
    out: list[Segment] = []
    for i, P in enumerate(polys):
        P = _require_polytope(P)
        if not P.is_integral:
            raise LatticeMismatch("candidate segments need integer vertices")
        for a, b in P.edges:
            out.append(Segment.between(i, P.vertices[a], P.vertices[b]))
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


# Valuations for which positivity of the mixed combination is a purely
# geometric question, decided by the segment criterion.  The criterion
# needs nonnegativity on half-open pieces and a positive value at a
# point, which the lattice-point count has.
SEGMENT_CRITERION_VALUATIONS = frozenset({"dvol"})


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

    For the lattice-point count this runs the segment criterion and
    never evaluates phi.  Any other valuation falls back to computing
    the mixed combination and comparing with zero.
    """
    if phi.name not in SEGMENT_CRITERION_VALUATIONS or not polys:
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
    as well.  Simplices with one span are interchangeable here, so each
    polytope offers one per span (Polytope.simplex_spans).
    """
    polys = [_require_polytope(P) for P in polys]
    r = len(polys)
    if r == 0:
        return 1
    d = _common_ambient(polys)
    for P in polys:
        if not P.is_integral:
            raise LatticeMismatch("the lower bound is about lattice polytopes")
    candidates = [P.simplex_spans for P in polys]
    if any(not c for c in candidates):
        return 0
    suffix = [1] * (r + 1)
    for i in range(r - 1, -1, -1):
        suffix[i] = suffix[i + 1] * candidates[i][0][0]
    best = 0

    def search(i: int, echelon: list[tuple[int, list[int]]], prod: int) -> None:
        nonlocal best
        if i == r:
            best = max(best, prod)
            return
        if prod * suffix[i] <= best:
            return
        for k, basis in candidates[i]:
            if len(echelon) + k > d:
                continue
            branch = list(echelon)
            if all(extend_echelon(branch, row) for row in basis):
                search(i + 1, branch, prod * k)

    search(0, [], 1)
    return best
