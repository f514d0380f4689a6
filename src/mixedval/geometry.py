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

One routine, _hull, finds the vertices, the facets and their tight sets
of every polytope in every dimension, by beneath-beyond.  It runs in
Python int: the points are written in the affine chart whose basis is
the row-reduced basis of their directions, where local coordinates are
pivot entries, and scaled by one common denominator D; only the facet
offsets go back to Fraction.  convex_hull runs it on its input, a
Polytope built with the raw constructor runs it on its own vertices,
and a Minkowski sum is the convex_hull of the vertex sums.

Volume, too, is integer: placing_cells triangulates the same chart
coordinates with integer side tests, and volume_in_chart divides the
sum of the cells' Bareiss determinants by k! D^k in one Fraction.

Scale expectations: ambient dimension <= 6, vertex counts in the tens.
A hull of 30 random lattice points in Q^4 takes about 0.02 s (Intel
Xeon, 2 vCPUs, Python 3.11.7).

This module owns the package's only Minkowski-sum cache.
minkowski_sum_all and scaled_sum add pairs through it, and valuations,
dissections and the CLI sum through those two, so a sum computed for
one purpose (a mixed combination, a dissection cell, a certificate
target) is reused by every other.  minkowski_sum itself stays uncached:
the self-checks that test the sum algebra call it directly.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .linalg import (
    Vec,
    cofactor_normal,
    det,
    dot,
    frac,
    integerize,
    is_zero,
    nullspace,
    primitive,
    primitive_signless,
    rref,
    solve,
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
        return len(self._chart[1])

    @cached_property
    def _chart(self) -> tuple[Point, tuple[Vec, ...], tuple[int, ...]]:
        """(origin, basis rows, pivot columns), basis the row-reduced basis of lin(aff P)."""
        return _affine_chart(self.vertices)

    @cached_property
    def aff_equalities(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Primitive integer pairs (e, f) with <e, x> = f on aff(P)."""
        o, basis, _ = self._chart
        normals = nullspace(basis, ncols=self.ambient_dim)
        return tuple(sorted(integerize(c, dot(c, o)) for c in normals))

    @cached_property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    # -- facets ------------------------------------------------------------

    @cached_property
    def _facet_data(self) -> tuple[tuple[Facet, ...], tuple[frozenset[int], ...]]:
        if self.dim == 0:
            return (), ()
        D, loc = _integer_chart(self.vertices, self._chart)
        _, facets = _hull(loc, self.dim)
        return self._assemble_facets(facets, D)

    @cached_property
    def _lift(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(M, L): L times the matrix that lifts chart normals to lin(aff P).

        The lift of alpha is the a in lin(aff P) with <a, b_i> = alpha_i
        for every basis row b_i, that is B^T (B B^T)^-1 alpha; M is the
        identity when P is full-dimensional.
        """
        _, basis, _ = self._chart
        k, d = len(basis), self.ambient_dim
        if k == d:
            return tuple(tuple(int(i == j) for j in range(d)) for i in range(d)), 1
        gram = [[dot(bi, bj) for bj in basis] for bi in basis]
        inv = [solve(gram, [int(i == j) for i in range(k)]) for j in range(k)]
        m = [[dot(w, [b[r] for b in basis]) for w in inv] for r in range(d)]
        L = lcm(*(x.denominator for row in m for x in row))
        return tuple(tuple(int(x * L) for x in row) for row in m), L

    def _assemble_facets(
        self, chart_facets: Iterable[tuple[tuple[int, ...], int, frozenset[int]]], D: int
    ) -> tuple[tuple[Facet, ...], tuple[frozenset[int], ...]]:
        """Sorted ambient facets and their tight sets from facets
        <alpha, u> <= beta of the integer chart scaled by D."""
        o, _, _ = self._chart
        E = lcm(*(x.denominator for x in o))
        oe = [x.numerator * (E // x.denominator) for x in o]
        M, L = self._lift
        out = []
        for alpha, beta, tight in chart_facets:
            a = [sum(map(mul, row, alpha)) for row in M]
            g = gcd(*a)
            a = tuple(x // g for x in a)
            # <a, x> <= L beta / (D g) + <a, o>
            c = Fraction(L * beta * E + D * g * sum(map(mul, a, oe)), D * g * E)
            out.append((Facet(a, c), tight))
        out.sort(key=lambda ft: ft[0])
        return tuple(f for f, _ in out), tuple(t for _, t in out)

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
            if _rank([facets[f].normal for f in common]) == k - 1:
                out.append((i, j))
        return tuple(out)

    @cached_property
    def edge_directions(self) -> tuple[tuple[int, ...], ...]:
        dirs = {
            primitive_signless(vsub(self.vertices[j], self.vertices[i]))
            for i, j in self.edges
        }
        return tuple(sorted(dirs))

    # -- predicates ----------------------------------------------------------

    def contains_point(self, x: Sequence[Fraction]) -> bool:
        p = vec(x)
        if len(p) != self.ambient_dim:
            raise DimensionMismatch("point dimension does not match polytope")
        for e, f in self.aff_equalities:
            if dot(e, p) != f:
                return False
        return all(dot(fct.normal, p) <= fct.offset for fct in self.facets)

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


def solve_in_basis(basis: Sequence[Vec], v: Vec) -> Vec | None:
    """Coefficients t with sum t_i basis_i = v, or None if v is outside the span."""
    if not basis:
        return () if is_zero(v) else None
    return solve([[b[r] for b in basis] for r in range(len(v))], v)


def _prepopulate(
    P: Polytope, facets: tuple[Facet, ...], tights: tuple[frozenset[int], ...]
) -> Polytope:
    P.__dict__["_facet_data"] = (facets, tights)
    return P


# -- hull construction -------------------------------------------------------


def _affine_chart(points: Sequence[Point]) -> tuple[Point, tuple[Vec, ...], tuple[int, ...]]:
    """(points[0], basis, pivots): the row-reduced basis of the directions of aff(points).

    Only the directions that integer elimination finds independent are
    row-reduced: the reduced form depends on the span alone.
    """
    o = points[0]
    rows: list[tuple[int, list[int]]] = []
    directions = []
    for p in points[1:]:
        if len(rows) == len(o):
            break
        v = vsub(p, o)
        s = lcm(*(x.denominator for x in v))
        if _extend(rows, [x.numerator * (s // x.denominator) for x in v]):
            directions.append(v)
    basis, pivots = rref(directions)
    return o, basis, pivots


def _integer_chart(
    points: Sequence[Point], chart: tuple[Point, tuple[Vec, ...], tuple[int, ...]]
) -> tuple[int, list[tuple[int, ...]]]:
    """(D, coordinates): the points in the chart, scaled by one common denominator D.

    In a row-reduced basis the local coordinates of a vector in the span
    are its pivot entries, so no system is solved; D clears all their
    denominators at once.
    """
    o, _, pivots = chart
    loc = [[p[c] - o[c] for c in pivots] for p in points]
    D = lcm(*(x.denominator for t in loc for x in t))
    return D, [tuple(x.numerator * (D // x.denominator) for x in t) for t in loc]


def _extend(rows: list[tuple[int, list[int]]], v: Sequence[int]) -> bool:
    """Reduce integer v fraction-free by the echelon rows, (pivot column,
    row) pairs with pivots ascending; insert what is left as a primitive
    row and return True, or return False if v is in their span."""
    for c, r in rows:
        if v[c]:
            v = [r[c] * x - v[c] * y for x, y in zip(v, r)]
    c = next((c for c, x in enumerate(v) if x), None)
    if c is None:
        return False
    g = gcd(*v)
    insort(rows, (c, [x // g for x in v]))
    return True


def _rank(vectors: Iterable[Sequence[int]]) -> int:
    """Rank of integer vectors, by fraction-free elimination."""
    rows: list[tuple[int, list[int]]] = []
    return sum(_extend(rows, v) for v in vectors)


def _affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of integer points; -1 for no points."""
    if not points:
        return -1
    o = points[0]
    return _rank([[x - y for x, y in zip(p, o)] for p in points[1:]])


def _hull(
    points: Sequence[tuple[int, ...]], k: int
) -> tuple[list[int], list[tuple[tuple[int, ...], int, frozenset[int]]]]:
    """Vertices and facets of the integer points, which affinely span Q^k, k >= 1.

    Beneath-beyond (Joswig, "Beneath-and-Beyond Revisited", 2003): start
    from a k-simplex of the input and add the other points one at a time.
    A point beyond some facets replaces them by its cones over the horizon
    ridges, the (k-2)-faces shared by a facet it sees and one it does not;
    a point on the hyperplane of a facet joins that facet.  Every facet is
    (alpha, beta, tight): <alpha, x> <= beta on all points, with equality
    exactly on the points indexed by tight.  A vertex is a point whose
    tight normals have rank k.  Everything is Python int.
    """
    simplex = [0]
    for i in range(1, len(points)):
        if len(simplex) <= k and _affine_rank([points[j] for j in simplex + [i]]) == len(simplex):
            simplex.append(i)
    facets: list[tuple[tuple[int, ...], int, set[int]]] = []
    for i in simplex:
        on = [points[j] for j in simplex if j != i]
        alpha = primitive(cofactor_normal([vsub(q, on[0]) for q in on[1:]]))
        beta = sum(map(mul, alpha, on[0]))
        if sum(map(mul, alpha, points[i])) > beta:
            alpha, beta = tuple(-a for a in alpha), -beta
        facets.append((alpha, beta, {j for j in simplex if j != i}))

    for i, p in enumerate(points):
        if i in simplex:
            continue
        seen, kept = [], []
        for f in facets:
            h = sum(map(mul, f[0], p)) - f[1]
            if h > 0:
                seen.append((f, h))
            else:
                if h == 0:
                    f[2].add(i)
                kept.append((f, h))
        if not seen:
            continue
        cones = []
        for (a_g, b_g, t_g), h_g in kept:
            if h_g == 0:
                continue  # p extends this facet rather than cutting past it
            for (a_f, b_f, t_f), h_f in seen:
                ridge = t_f & t_g
                if len(ridge) >= k - 1 and _affine_rank([points[j] for j in ridge]) == k - 2:
                    # the hyperplane through the ridge and p, a positive
                    # combination of the two facet inequalities
                    alpha = [h_f * y - h_g * x for x, y in zip(a_f, a_g)]
                    beta = h_f * b_g - h_g * b_f
                    g = gcd(*alpha, beta)
                    cones.append((tuple(x // g for x in alpha), beta // g, ridge | {i}))
        facets = [f for f, _ in kept] + cones

    normals: dict[int, list[tuple[int, ...]]] = {}
    for alpha, _, tight in facets:
        for i in tight:
            normals.setdefault(i, []).append(alpha)
    vertices = sorted(i for i, ns in normals.items() if len(ns) >= k and _rank(ns) == k)
    return vertices, [(alpha, beta, frozenset(tight)) for alpha, beta, tight in facets]


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
    """Polytope with the extreme points of `points`, or EMPTY for no input.

    One beneath-beyond pass over the points in integer chart coordinates
    (_hull) gives the vertices, the facets and their tight sets; facets
    are filled in from the same pass.
    """
    pts = sorted({vec(p) for p in points})
    if not pts:
        return EMPTY
    d = len(pts[0])
    if d < 1:
        raise DimensionMismatch("ambient dimension must be positive")
    if any(len(p) != d for p in pts):
        raise DimensionMismatch("mixed ambient dimensions in hull input")

    chart = _affine_chart(pts)
    k = len(chart[2])
    if k == 0:
        return Polytope(d, (pts[0],), _lattice_tag(pts[:1], lattice))
    D, loc = _integer_chart(pts, chart)
    chosen, facets = _hull(loc, k)
    verts = tuple(pts[i] for i in chosen)
    P = Polytope(d, verts, _lattice_tag(verts, lattice))
    # pts[0] is the least point, hence P's first vertex, and the row-reduced
    # basis depends on the span alone: P's own chart is this one
    P.__dict__["_chart"] = chart
    position = {i: n for n, i in enumerate(chosen)}
    on_vertices = [
        (alpha, beta, frozenset(position[i] for i in tight if i in position))
        for alpha, beta, tight in facets
    ]
    return _prepopulate(P, *P._assemble_facets(on_vertices, D))


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
        moved = tuple(Facet(f.normal, f.offset + dot(f.normal, tv)) for f in facets)
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
    """The Minkowski sum P + Q: convex_hull of the vertex sums.

    Exact for lattice and rational summands in every dimension.
    """
    P, Q = _require_polytope(P), _require_polytope(Q)
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatch("summands live in different ambient spaces")
    return convex_hull(vadd(p, q) for p in P.vertices for q in Q.vertices)


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


def placing_cells(loc: Sequence[Sequence], order: Sequence[int]) -> list[tuple[int, ...]]:
    """Placing triangulation of conv(loc), processing points in `order`.

    Returns top-dimensional simplices as index tuples.  Points inside
    the hull of their predecessors contribute nothing; a point beyond a
    boundary simplex lies strictly opposite its apex, not on it.

    Integer contract: the int or Fraction points are scaled once by one
    common denominator; all else is Python int.  The chart is the
    projection onto the pivot columns of an integer echelon of the span,
    injective there, and a hyperplane is a cofactor normal.
    """
    D = lcm(*(x.denominator for p in loc for x in p))
    pts = [tuple(x.numerator * (D // x.denominator) for x in p) for p in loc]
    cells: list[tuple[int, ...]] = []
    rows: list[tuple[int, list[int]]] = []
    origin: tuple[int, ...] | None = None
    local: list[list[int]] = []
    # per span: (k-1)-simplex -> (number of cells on it, apex in the first),
    # and boundary simplex -> (normal, offset, side of its apex)
    faces: dict[frozenset[int], tuple[int, int]] = {}
    hyperplanes: dict[frozenset[int], tuple[tuple[int, ...], int, int]] = {}

    def add_faces(new: list[tuple[int, ...]]) -> None:
        for c in new:
            for drop in range(len(c)):
                f = frozenset(c[:drop] + c[drop + 1 :])
                cnt, apex = faces.get(f, (0, c[drop]))
                faces[f] = (cnt + 1, apex)

    for idx in order:
        p = pts[idx]
        if origin is None:
            origin = p
            cells = [(idx,)]
            continue
        if _extend(rows, [x - y for x, y in zip(p, origin)]):
            local = [[q[c] for c, _ in rows] for q in pts]
            cells = [c + (idx,) for c in cells]
            faces.clear()
            hyperplanes.clear()
            add_faces(cells)
            continue
        if not rows:
            continue  # duplicate of the first point
        new_cells = []
        for f, (cnt, apex) in faces.items():
            if cnt != 1:
                continue  # not on the boundary
            hp = hyperplanes.get(f)
            if hp is None:
                first, *rest = (local[i] for i in sorted(f))
                alpha = cofactor_normal([[x - y for x, y in zip(q, first)] for q in rest])
                beta = sum(map(mul, alpha, first))
                hp = hyperplanes[f] = (alpha, beta, sum(map(mul, alpha, local[apex])) - beta)
            alpha, beta, side = hp
            if side * (sum(map(mul, alpha, local[idx])) - beta) < 0:
                new_cells.append(tuple(sorted(f | {idx})))
        cells.extend(new_cells)
        add_faces(new_cells)
    return cells


def exact_volume(P: Polytope) -> Fraction:
    """d-dimensional Lebesgue volume; 0 for lower-dimensional polytopes."""
    P = _require_polytope(P)
    if P.dim < P.ambient_dim:
        return Fraction(0)
    return volume_in_chart(P)


def volume_in_chart(P: Polytope) -> Fraction:
    """Volume of P in its chart: sum |det| over placing cells / (k! D^k)."""
    k = P.dim
    if k == 0:
        return Fraction(0)
    D, loc = _integer_chart(P.vertices, P._chart)
    total = 0
    for c in placing_cells(loc, range(len(loc))):
        o = loc[c[0]]
        total += abs(det([[x - y for x, y in zip(loc[i], o)] for i in c[1:]]))
    return Fraction(total, factorial(k) * D**k)


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
