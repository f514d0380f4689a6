"""Exact convex geometry for lattice and rational polytopes.

Conventions:

* points are tuples of Fraction at the interface; no floats anywhere,
  and internal integer arithmetic is scaled exactly, never rounded
* a facet is the inequality <normal, x> <= offset with a primitive
  integer normal, outward oriented; together with the affine-hull
  equalities the facets cut out exactly the polytope
* lower-dimensional polytopes are first class: facet normals live in
  the linear space of aff(P) and are unique there
* the empty polytope is the EMPTY sentinel, accepted only by valuation
  evaluation; geometric operations reject it

Scale expectations: ambient dimension <= 6, vertex counts in the tens.
Hull facets are found by brute-force hyperplane enumeration at that
scale.  A 3-dimensional Minkowski sum instead takes its candidate
facet normals from the summands' face directions and evaluates them in
Python int, after clearing one common denominator of the local
coordinates; only the facet offsets go back to Fraction, so the result
is as exact as the hull of the vertex sums and much faster to get.

This module owns the package's only Minkowski-sum cache.
minkowski_sum_all and scaled_sum add pairs through it, and valuations,
dissections and the CLI sum through those two, so a sum computed for
one purpose (a mixed combination, a dissection cell, a certificate
target) is reused by every other.  minkowski_sum itself stays uncached:
the self-checks that test the sum algebra call it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from .linalg import (
    Vec,
    dot,
    frac,
    integerize,
    is_convex_combination,
    is_zero,
    nullspace,
    primitive,
    primitive_signless,
    rank,
    rref,
    solve,
    span_key,
    vec,
    vadd,
    vscale,
    vsub,
)

Point = Vec


class GeometryError(ValueError):
    """Base class for geometric contract violations."""


class DimensionMismatch(GeometryError):
    pass


class EmptyPolytopeError(GeometryError):
    pass


class LatticeMismatch(GeometryError):
    pass


class InexactSum(GeometryError):
    """A Minkowski sum whose dimension is less than the sum of summand dimensions."""


class NotGeneric(GeometryError):
    """A point or direction tied with a facet hyperplane where genericity is required."""


class CertificateError(AssertionError):
    """An exact self-check (volume, count, or partition certificate) failed."""


class _Empty:
    """Sentinel for the empty polytope."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = _Empty()


@dataclass(frozen=True, order=True)
class Facet:
    """Inequality <normal, x> <= offset, outward primitive integer normal."""

    normal: tuple[int, ...]
    offset: Fraction


@dataclass(frozen=True)
class Polytope:
    """Vertex representation; vertices are extreme points in sorted order.

    Construct through convex_hull / minkowski_sum / dilate / translate.
    The raw constructor trusts its arguments.
    """

    ambient_dim: int
    vertices: tuple[Point, ...]
    lattice: str = "Z"

    # -- basic affine data -------------------------------------------------

    @cached_property
    def dim(self) -> int:
        o = self.vertices[0]
        return rank([vsub(v, o) for v in self.vertices[1:]])

    @cached_property
    def _chart(self) -> tuple[Point, tuple[Vec, ...]]:
        """(origin, basis rows) with basis a row-reduced spanning set of lin(aff P)."""
        o = self.vertices[0]
        basis = span_key([vsub(v, o) for v in self.vertices[1:]])
        return o, basis

    def to_local(self, x: Sequence[Fraction]) -> Vec | None:
        """Coordinates of x in the affine chart, or None if x is outside aff(P)."""
        o, basis = self._chart
        return solve_in_basis(basis, vsub(vec(x), o))

    def from_local(self, t: Sequence[Fraction]) -> Point:
        o, basis = self._chart
        x = o
        for c, b in zip(t, basis, strict=True):
            x = vadd(x, vscale(c, b))
        return x

    @cached_property
    def local_vertices(self) -> tuple[Vec, ...]:
        out = []
        for v in self.vertices:
            t = self.to_local(v)
            assert t is not None
            out.append(t)
        return tuple(out)

    @cached_property
    def aff_equalities(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Primitive integer pairs (e, f) with <e, x> = f on aff(P)."""
        o, basis = self._chart
        normals = nullspace(basis, ncols=self.ambient_dim)
        out = []
        for c in normals:
            e, f = integerize(c, dot(c, o))
            out.append((e, f))
        return tuple(sorted(out))

    @cached_property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    # -- facets ------------------------------------------------------------

    @cached_property
    def _facet_data(self) -> tuple[tuple[Facet, ...], tuple[frozenset[int], ...]]:
        local_facets = _facets_brute(self.local_vertices, self.dim)
        return self._assemble_facets(local_facets)

    def _assemble_facets(
        self, local_facets: Iterable[tuple[Vec, Fraction]]
    ) -> tuple[tuple[Facet, ...], tuple[frozenset[int], ...]]:
        seen: dict[Facet, frozenset[int]] = {}
        for alpha, beta in local_facets:
            a, c = self._lift_hyperplane(alpha, beta)
            f = Facet(a, c)
            if f not in seen:
                seen[f] = frozenset(
                    i for i, v in enumerate(self.vertices) if dot_int(a, v) == c
                )
        facets = tuple(sorted(seen))
        tights = tuple(seen[f] for f in facets)
        return facets, tights

    def _lift_hyperplane(self, alpha: Vec, beta: Fraction) -> tuple[tuple[int, ...], Fraction]:
        """Ambient (a, c) whose restriction to aff(P) is <alpha, t> <= beta."""
        o, basis = self._chart
        k = len(basis)
        gram = [[dot(basis[i], basis[j]) for j in range(k)] for i in range(k)]
        w = solve(gram, alpha)
        assert w is not None
        a = tuple(
            sum((w[i] * basis[i][r] for i in range(k)), start=Fraction(0))
            for r in range(self.ambient_dim)
        )
        c = beta + dot(a, o)
        return integerize(a, c)

    @property
    def facets(self) -> tuple[Facet, ...]:
        return self._facet_data[0]

    @property
    def facet_tight_sets(self) -> tuple[frozenset[int], ...]:
        return self._facet_data[1]

    @cached_property
    def facet_by_tight_set(self) -> dict[frozenset[int], int]:
        return {t: i for i, t in enumerate(self.facet_tight_sets)}

    # -- derived combinatorics ----------------------------------------------

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Vertex index pairs spanning 1-faces."""
        k = self.dim
        n = len(self.vertices)
        if k == 0:
            return ()
        if k == 1:
            return ((0, n - 1),)
        facets, tights = self._facet_data
        out = []
        for i, j in combinations(range(n), 2):
            common = [f for f, t in enumerate(tights) if i in t and j in t]
            if not common:
                continue
            if rank([vec(facets[f].normal) for f in common]) == k - 1:
                out.append((i, j))
        return tuple(out)

    @cached_property
    def edge_directions(self) -> tuple[tuple[int, ...], ...]:
        dirs = {
            primitive_signless(vsub(self.vertices[j], self.vertices[i]))
            for i, j in self.edges
        }
        return tuple(sorted(dirs))

    @cached_property
    def direction_spans(self) -> tuple[tuple[Vec, ...], ...]:
        """Spans of face directions of dimension 0..2, for sum candidates.

        Includes the zero span, every edge direction, and every 2-face
        span (facet planes in dim 3, the whole plane for a polygon).
        """
        spans: dict[tuple, tuple[Vec, ...]] = {(): ()}
        for d in self.edge_directions:
            s = (vec(d),)
            spans[span_key(s)] = s
        k = self.dim
        if k == 2:
            _, basis = self._chart
            spans[span_key(basis)] = basis
        elif k == 3:
            for t in self.facet_tight_sets:
                idx = sorted(t)
                o = self.vertices[idx[0]]
                rows = [vsub(self.vertices[i], o) for i in idx[1:]]
                b = span_key(rows)
                spans[b] = b
        return tuple(spans.values())

    # -- predicates ----------------------------------------------------------

    def contains_point(self, x: Sequence[Fraction]) -> bool:
        p = vec(x)
        if len(p) != self.ambient_dim:
            raise DimensionMismatch("point dimension does not match polytope")
        for e, f in self.aff_equalities:
            if dot_int(e, p) != f:
                return False
        return all(dot_int(fct.normal, p) <= fct.offset for fct in self.facets)

    def support(self, a: Sequence[Fraction]) -> Fraction:
        return max(dot(a, v) for v in self.vertices)

    @cached_property
    def vertex_centroid(self) -> Point:
        n = len(self.vertices)
        acc = self.vertices[0]
        for v in self.vertices[1:]:
            acc = vadd(acc, v)
        return vscale(Fraction(1, n), acc)

    @cached_property
    def bounding_box(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(
            (min(v[j] for v in self.vertices), max(v[j] for v in self.vertices))
            for j in range(self.ambient_dim)
        )

    def __repr__(self) -> str:
        return f"Polytope(dim={self.dim}, ambient={self.ambient_dim}, nverts={len(self.vertices)}, lattice={self.lattice})"


def dot_int(a: Sequence[int], x: Sequence[Fraction]) -> Fraction:
    return sum((ai * xi for ai, xi in zip(a, x, strict=True)), start=Fraction(0))


def solve_in_basis(basis: Sequence[Vec], v: Vec) -> Vec | None:
    """Coefficients t with sum t_i basis_i = v, or None if v is outside the span."""
    if not basis:
        return () if is_zero(v) else None
    d = len(v)
    rows = [[basis[i][r] for i in range(len(basis))] for r in range(d)]
    return solve(rows, v)


def _prepopulate(
    P: Polytope, facets: tuple[Facet, ...], tights: tuple[frozenset[int], ...]
) -> Polytope:
    P.__dict__["_facet_data"] = (facets, tights)
    return P


# -- hull construction -------------------------------------------------------


def _facets_brute(loc: Sequence[Vec], k: int) -> list[tuple[Vec, Fraction]]:
    """All facet hyperplanes of conv(loc) in k-dim local coordinates.

    Brute force over point subsets spanning hyperplanes; O(n^k), fine at
    desk scale.
    """
    if k == 0:
        return []
    n = len(loc)
    out: dict[tuple, tuple[Vec, Fraction]] = {}
    for combo in combinations(range(n), k):
        base = loc[combo[0]]
        rows = [vsub(loc[i], base) for i in combo[1:]]
        ns = nullspace(rows, ncols=k)
        if len(ns) != 1:
            continue
        alpha = ns[0]
        beta = dot(alpha, base)
        values = [dot(alpha, p) for p in loc]
        mx, mn = max(values), min(values)
        if mx == mn:
            continue
        if mx == beta:
            pass  # supporting, outward as computed
        elif mn == beta:
            alpha, beta = vscale(Fraction(-1), alpha), -beta
        else:
            continue  # strictly straddled: not a supporting hyperplane
        key = integerize(alpha, beta)
        out.setdefault(key, (alpha, beta))
    return list(out.values())


def _extreme_by_tight_rank(
    loc: Sequence[Vec], hyperplanes: Iterable[tuple[Vec, Fraction]], k: int
) -> list[int]:
    """Indices of points where the tight hyperplane normals have full rank."""
    tight_normals: list[list[Vec]] = [[] for _ in loc]
    for alpha, beta in hyperplanes:
        for i, p in enumerate(loc):
            if dot(alpha, p) == beta:
                tight_normals[i].append(alpha)
    return [i for i, ns in enumerate(tight_normals) if len(ns) >= k and rank(ns) == k]


def _chain_2d(loc: Sequence[Vec]) -> list[int]:
    """Extreme points of a planar point set, by monotone chain, strict turns."""
    order = sorted(range(len(loc)), key=lambda i: loc[i])
    if len(order) <= 2:
        return order

    def cross(o: Vec, a: Vec, b: Vec) -> Fraction:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(idx: list[int]) -> list[int]:
        out: list[int] = []
        for i in idx:
            while len(out) >= 2 and cross(loc[out[-2]], loc[out[-1]], loc[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = half(order)
    upper = half(order[::-1])
    return lower[:-1] + upper[:-1]


def _lattice_tag(pts: Sequence[Point], requested: str | None) -> str:
    integral = all(x.denominator == 1 for p in pts for x in p)
    if requested is None:
        return "Z" if integral else "Q"
    if requested == "Z" and not integral:
        raise LatticeMismatch("lattice tag Z requires integral vertices")
    if requested not in ("Z", "Q"):
        raise ValueError(f"unknown lattice tag {requested!r}")
    return requested


def convex_hull(points: Iterable[Sequence], lattice: str | None = None):
    """Polytope with the extreme points of `points`, or EMPTY for no input."""
    pts = sorted({vec(p) for p in points})
    if not pts:
        return EMPTY
    d = len(pts[0])
    if d < 1:
        raise DimensionMismatch("ambient dimension must be positive")
    if any(len(p) != d for p in pts):
        raise DimensionMismatch("mixed ambient dimensions in hull input")

    o = pts[0]
    basis = span_key([vsub(p, o) for p in pts[1:]])
    k = len(basis)
    if k == 0:
        return Polytope(d, (pts[0],), _lattice_tag(pts[:1], lattice))
    loc = []
    for p in pts:
        t = solve_in_basis(basis, vsub(p, o))
        assert t is not None
        loc.append(t)
    if k == 1:
        lo = min(range(len(pts)), key=lambda i: loc[i])
        hi = max(range(len(pts)), key=lambda i: loc[i])
        chosen = sorted({lo, hi})
    elif k == 2:
        chosen = _chain_2d(loc)
    else:
        if len(pts) > 40:
            # LP prefilter so the hyperplane enumeration below stays tractable
            keep = [
                i
                for i in range(len(pts))
                if not is_convex_combination(pts[i], [pts[j] for j in range(len(pts)) if j != i])
            ]
            pts = [pts[i] for i in keep]
            loc = [loc[i] for i in keep]
        hyps = _facets_brute(loc, k)
        chosen = _extreme_by_tight_rank(loc, hyps, k)
    verts = tuple(sorted(pts[i] for i in chosen))
    return Polytope(d, verts, _lattice_tag(verts, lattice))


def point_polytope(coords: Sequence) -> Polytope:
    v = vec(coords)
    tag = "Z" if all(x.denominator == 1 for x in v) else "Q"
    return Polytope(len(v), (v,), tag)


def origin_polytope(d: int) -> Polytope:
    return point_polytope((0,) * d)


def _require_polytope(P) -> Polytope:
    if P is EMPTY:
        raise EmptyPolytopeError("operation not defined on the empty polytope")
    if not isinstance(P, Polytope):
        raise TypeError(f"expected Polytope, got {type(P).__name__}")
    return P


# -- affine images ------------------------------------------------------------


def translate(P: Polytope, t: Sequence) -> Polytope:
    P = _require_polytope(P)
    tv = vec(t)
    if len(tv) != P.ambient_dim:
        raise DimensionMismatch("translation vector dimension mismatch")
    verts = tuple(vadd(v, tv) for v in P.vertices)
    integral_shift = all(x.denominator == 1 for x in tv)
    tag = "Z" if (P.lattice == "Z" and integral_shift) else _lattice_tag(verts, None)
    Q = Polytope(P.ambient_dim, verts, tag)
    if "_facet_data" in P.__dict__:
        facets, tights = P._facet_data
        moved = tuple(Facet(f.normal, f.offset + dot_int(f.normal, tv)) for f in facets)
        _prepopulate(Q, moved, tights)
    return Q


def scale(P: Polytope, c) -> Polytope:
    """Dilate by a nonnegative rational factor."""
    P = _require_polytope(P)
    c = frac(c)
    if c < 0:
        raise ValueError("scaling factor must be nonnegative")
    if c == 0:
        return origin_polytope(P.ambient_dim)
    verts = tuple(vscale(c, v) for v in P.vertices)
    tag = _lattice_tag(verts, None)
    Q = Polytope(P.ambient_dim, verts, tag)
    if "_facet_data" in P.__dict__:
        facets, tights = P._facet_data
        moved = tuple(Facet(f.normal, f.offset * c) for f in facets)
        _prepopulate(Q, moved, tights)
    return Q


def dilate(P: Polytope, n: int) -> Polytope:
    """Integer dilate nP; 0P is the origin."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("dilation factor must be a nonnegative integer")
    return scale(P, n)


# -- Minkowski sums ------------------------------------------------------------


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    """The Minkowski sum P + Q, exact for lattice and rational summands.

    Sums of dimension other than 3 go through convex_hull of the vertex
    sums.  A 3-dimensional sum (in any ambient dimension) is found from
    candidate facet normals instead: the plane normals of both summands'
    2-faces and the cross products of their edge directions.  All of it
    runs in Python int, in local coordinates scaled by one common
    denominator D; the facets and tight sets of the result are filled in
    from the same pass, with offsets converted back to Fraction.
    """
    P, Q = _require_polytope(P), _require_polytope(Q)
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatch("summands live in different ambient spaces")
    d = P.ambient_dim
    raw = sorted({vadd(p, q) for p in P.vertices for q in Q.vertices})

    _, bp = P._chart
    _, bq = Q._chart
    basis, pivots = rref(list(bp) + list(bq))
    if len(basis) != 3:
        # point, segment, polygon, or the rare higher-dimensional case:
        # generic hull on the vertex sums
        return convex_hull(raw)

    # In the row-reduced basis the local coordinates of a vector in the
    # span are its pivot entries; D clears their denominators at once.
    o = raw[0]
    loc = [tuple(p[c] - o[c] for c in pivots) for p in raw]
    D = lcm(*(x.denominator for t in loc for x in t))
    iloc = [tuple(x.numerator * (D // x.denominator) for x in t) for t in loc]

    # A facet of P + Q is F + G with the directions of faces F and G
    # spanning a plane: a 2-face of one summand (plus a parallel face of
    # the other), or an edge of each in different directions.
    candidates: set[tuple[int, ...]] = set()
    edges: list[list[tuple[int, ...]]] = []
    for V in (P, Q):
        dirs = []
        for s in V.direction_spans:
            ls = [primitive(tuple(v[c] for c in pivots)) for v in s]
            if len(ls) == 1:
                dirs.append(ls[0])
            elif len(ls) == 2:
                candidates.add(_primitive_int(_cross(*ls)))
        edges.append(dirs)
    for e in edges[0]:
        for f in edges[1]:
            c = _cross(e, f)
            if any(c):
                candidates.add(_primitive_int(c))

    # each candidate supports the sum on both sides: (normal, offset, tight)
    hyps: list[tuple[tuple[int, ...], int, list[int]]] = []
    for a in candidates:
        a0, a1, a2 = a
        vals = [a0 * x + a1 * y + a2 * z for x, y, z in iloc]
        hi, lo = max(vals), min(vals)
        hyps.append((a, hi, [i for i, v in enumerate(vals) if v == hi]))
        hyps.append(((-a0, -a1, -a2), -lo, [i for i, v in enumerate(vals) if v == lo]))

    tight_normals: list[list[tuple[int, ...]]] = [[] for _ in raw]
    for a, _, tight in hyps:
        for i in tight:
            tight_normals[i].append(a)
    chosen = {i for i, ns in enumerate(tight_normals) if _spans_3d(ns)}
    verts = tuple(sorted(raw[i] for i in chosen))
    S = Polytope(d, verts, _lattice_tag(verts, None))

    # minimal facets: candidates whose tight vertex set spans dim 2
    facet_hyps = []
    for a, beta, tight in hyps:
        pts = [iloc[i] for i in tight if i in chosen]
        if len(pts) >= 3:
            base = pts[0]
            u = _sub3(pts[1], base)
            if any(any(_cross(u, _sub3(p, base))) for p in pts[2:]):
                facet_hyps.append((a, Fraction(beta, D)))
    _prepopulate(S, *S._assemble_facets(facet_hyps))
    return S


def _sub3(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _primitive_int(v: Sequence[int]) -> tuple[int, ...]:
    """Nonzero integer vector divided by its gcd, first nonzero entry positive."""
    g = gcd(*v)
    if next(x for x in v if x != 0) < 0:
        g = -g
    return tuple(x // g for x in v)


def _spans_3d(vectors: Sequence[Sequence[int]]) -> bool:
    """Do nonzero integer 3-vectors span all of Q^3?"""
    if len(vectors) < 3:
        return False
    v0 = vectors[0]
    c = next((c for c in (_cross(v0, v) for v in vectors[1:]) if any(c)), None)
    if c is None:
        return False
    return any(c[0] * v[0] + c[1] * v[1] + c[2] * v[2] for v in vectors)


_cached_sum = lru_cache(maxsize=1 << 16)(minkowski_sum)


def minkowski_sum_all(polys: Sequence[Polytope]) -> Polytope:
    """P1 + ... + Pr, added left to right through the sum cache."""
    if not polys:
        raise ValueError("need at least one summand")
    acc = polys[0]
    for Q in polys[1:]:
        acc = _cached_sum(acc, Q)
    return acc


def scaled_sum(polys: Sequence[Polytope], n: Sequence[int]) -> Polytope:
    """n1 P1 + ... + nr Pr; the origin when every ni is 0."""
    if not polys or len(n) != len(polys):
        raise ValueError("need at least one polytope and one scale for each")
    d = _common_ambient(polys)
    parts = [dilate(P, k) for P, k in zip(polys, n) if k]
    return minkowski_sum_all(parts) if parts else origin_polytope(d)


def _common_ambient(polys: Sequence[Polytope]) -> int:
    """The ambient dimension shared by a nonempty family."""
    d = polys[0].ambient_dim
    for P in polys[1:]:
        if P.ambient_dim != d:
            raise DimensionMismatch("summands live in different ambient spaces")
    return d


# -- containment ---------------------------------------------------------------


def contains(P: Polytope, Q: Polytope) -> bool:
    """Is Q a subset of P?"""
    P, Q = _require_polytope(P), _require_polytope(Q)
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatch("containment needs a common ambient space")
    return all(P.contains_point(v) for v in Q.vertices)


# -- triangulation and volume ---------------------------------------------------


def placing_cells(loc: Sequence[Vec], order: Sequence[int]) -> list[tuple[int, ...]]:
    """Placing triangulation of conv(loc), processing points in `order`.

    Returns top-dimensional simplices as index tuples.  Points inside
    the hull of their predecessors contribute nothing.  Exact arithmetic
    throughout; a point exactly on a boundary hyperplane is not beyond it.
    """
    cells: list[tuple[int, ...]] = []
    basis: list[Vec] = []
    origin: Vec | None = None
    local: dict[int, Vec] = {}
    hyperplane_cache: dict[frozenset[int], tuple[Vec, Fraction]] = {}

    def relocalize(idx: int) -> None:
        t = solve_in_basis(basis, vsub(loc[idx], origin))
        assert t is not None
        local[idx] = t

    for idx in order:
        p = loc[idx]
        if origin is None:
            origin = p
            cells = [(idx,)]
            local[idx] = ()
            continue
        t = solve_in_basis(basis, vsub(p, origin))
        if t is None:
            basis.append(vsub(p, origin))
            hyperplane_cache.clear()
            for j in list(local):
                relocalize(j)
            relocalize(idx)
            cells = [c + (idx,) for c in cells]
            continue
        local[idx] = t
        k = len(basis)
        if k == 0:
            continue  # duplicate of the first point
        # boundary facets: (k-1)-simplices owned by exactly one cell
        seen: dict[frozenset[int], tuple[int, int]] = {}
        for c in cells:
            for drop in range(len(c)):
                f = frozenset(c[:drop] + c[drop + 1 :])
                if f in seen:
                    cnt, apex = seen[f]
                    seen[f] = (cnt + 1, apex)
                else:
                    seen[f] = (1, c[drop])
        new_cells = []
        for f, (cnt, apex) in seen.items():
            if cnt != 1:
                continue
            hp = hyperplane_cache.get(f)
            if hp is None:
                pts = [local[i] for i in sorted(f)]
                ns = nullspace([vsub(q, pts[0]) for q in pts[1:]], ncols=k)
                assert len(ns) == 1
                hp = (ns[0], dot(ns[0], pts[0]))
                hyperplane_cache[f] = hp
            alpha, beta = hp
            s_apex = dot(alpha, local[apex])
            s_new = dot(alpha, t)
            if (s_apex < beta and s_new > beta) or (s_apex > beta and s_new < beta):
                new_cells.append(tuple(sorted(f | {idx})))
        cells.extend(new_cells)
    return cells


def _simplex_volume(loc: Sequence[Vec], cell: Sequence[int]) -> Fraction:
    from .linalg import det

    k = len(cell) - 1
    rows = [vsub(loc[i], loc[cell[0]]) for i in cell[1:]]
    v = det(rows)
    f = 1
    for i in range(2, k + 1):
        f *= i
    return abs(v) / f


def exact_volume(P: Polytope) -> Fraction:
    """d-dimensional Lebesgue volume; 0 for lower-dimensional polytopes."""
    P = _require_polytope(P)
    if P.dim < P.ambient_dim:
        return Fraction(0)
    return volume_in_chart(P)


def volume_in_chart(P: Polytope) -> Fraction:
    """Volume of P measured in its own affine chart coordinates."""
    if P.dim == 0:
        return Fraction(0)
    loc = P.local_vertices
    cells = placing_cells(loc, range(len(loc)))
    return sum((_simplex_volume(loc, c) for c in cells), start=Fraction(0))


# -- faces ----------------------------------------------------------------------


@dataclass(frozen=True)
class Face:
    dim: int
    vertex_indices: frozenset[int]
    facet_indices: frozenset[int]
    polytope: Polytope


@dataclass(frozen=True)
class FaceLattice:
    polytope: Polytope
    faces: tuple[Face, ...]

    def of_dim(self, k: int) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if f.dim == k)

    @property
    def f_vector(self) -> tuple[int, ...]:
        out = [0] * (self.polytope.dim + 1)
        for f in self.faces:
            out[f.dim] += 1
        return tuple(out)


def face_lattice(P: Polytope) -> FaceLattice:
    """All nonempty faces of P, including P itself, via facet intersections."""
    P = _require_polytope(P)
    facets, tights = P._facet_data
    nv = len(P.vertices)
    all_v = frozenset(range(nv))
    seen: dict[frozenset[int], frozenset[int]] = {
        all_v: frozenset(i for i, t in enumerate(tights) if t == all_v)
    }
    queue = [all_v]
    while queue:
        V = queue.pop()
        for i, t in enumerate(tights):
            W = V & t
            if W and W != V and W not in seen:
                seen[W] = frozenset(j for j, tj in enumerate(tights) if W <= tj)
                queue.append(W)
    faces = []
    for V, I in seen.items():
        verts = tuple(sorted(P.vertices[i] for i in V))
        sub = Polytope(P.ambient_dim, verts, _lattice_tag(verts, None))
        faces.append(Face(sub.dim, V, I, sub))
    faces.sort(key=lambda f: (f.dim, sorted(f.vertex_indices)))
    return FaceLattice(P, tuple(faces))


# -- halfspace cuts ---------------------------------------------------------------


def cut_halfspace(P: Polytope, a: Sequence, beta):
    """P intersected with {<a, x> <= beta}; EMPTY if nothing survives."""
    P = _require_polytope(P)
    av, b = vec(a), frac(beta)
    vals = [dot(av, v) - b for v in P.vertices]
    if all(s <= 0 for s in vals):
        return P
    keep = [v for v, s in zip(P.vertices, vals) if s <= 0]
    pts = list(keep)
    for i, j in P.edges:
        si, sj = vals[i], vals[j]
        if (si < 0 < sj) or (sj < 0 < si):
            lam = si / (si - sj)
            pts.append(vadd(P.vertices[i], vscale(lam, vsub(P.vertices[j], P.vertices[i]))))
    if not pts:
        return EMPTY
    return convex_hull(pts)


def hyperplane_section(P: Polytope, a: Sequence, beta):
    """P intersected with the hyperplane <a, x> = beta."""
    half = cut_halfspace(P, a, beta)
    if half is EMPTY:
        return EMPTY
    av = vec(a)
    return cut_halfspace(half, vscale(Fraction(-1), av), -frac(beta))
