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
of a point set in every dimension, by beneath-beyond.  It runs in
Python int on the points scaled by one common denominator D, in the
affine chart whose basis is the reduced int echelon of their directions,
where local coordinates are pivot entries; only the vertices and the
facet offsets go back to Fraction.  convex_hull runs it on its input and
a raw-constructed Polytope on its own vertices.

A Minkowski sum scales both summands by one D.  When the sum's affine
hull is a plane, whatever the ambient dimension, its chart is read off
the summands' charts and the sum runs no hull: the two edge cycles,
points and segments included, are merged by slope with int cross
products in O(|V(P)| + |V(Q)|) after sorting each (de Berg, Cheong, van
Kreveld & Overmars, Computational Geometry, 3rd ed., section 13.3), and
the merge gives the vertices, each edge's normal and its two-vertex
tight set.  A sum of two 3-polytopes in Q^3 runs no hull either: its
normal fan is the common refinement of theirs (Ziegler, Lectures on
Polytopes, Prop. 7.12), so its facet normals are those of the summands
and the normals of e x f for the edge pairs whose normal cones cross,
tested by int dot products on each summand's edges and the two facets
through each, which are kept on the summand (Fukuda, J. Symb. Comput.
38, 2004).  Any other sum, and a raw point set, hulls the distinct int
points.  A scaled sum n1 P1 + ... + nr Pr with every ni > 0 runs none of
these: it has the normal fan of P1 + ... + Pr and is read off that sum's
facets.

Volume reads the hull's own facets: volume_in_chart pulls on P's facet
tight sets and divides the simplices' Bareiss determinants over the same
chart coordinates by k! D^k in one Fraction.

Scale expectations: ambient dimension <= 6, vertex counts in the tens.
A hull of 30 random lattice points in Q^4 takes about 0.02 s (Intel
Xeon, 2 vCPUs, Python 3.11.7).

This module owns the package's only Minkowski-sum cache.
minkowski_sum_all adds pairs through it and scaled_sum rescales the
plain sums it keeps, so no dilate enters it; valuations, dissections and
the CLI sum through those two, so a sum computed for one purpose (a mixed
combination, a dissection cell, a certificate target at any dilation) is
reused by every other.  minkowski_sum itself stays uncached: the
self-checks that test the sum algebra call it directly.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache, total_ordering
from itertools import combinations
from math import factorial, gcd, lcm
from operator import add, itemgetter, mul, sub
from typing import Iterable, Iterator, Sequence

from .linalg import (
    Vec,
    cofactor_normal,
    det,
    dot,
    extend_echelon,
    frac,
    primitive,
    rank,
    rational,
    reduced_echelon,
    span_key,
    vec,
    vadd,
    vscale,
    vsub,
)

Point = Vec
# (int basis rows of lin(aff P), their pivot columns)
Span = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]
# (origin, *span)
Chart = tuple[Point, tuple[tuple[int, ...], ...], tuple[int, ...]]


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
    """An exact self-check (volume, count, or partition certificate) failed.

    The dilation and difference certificates also set `dilation`, the
    vector checked, and `expected` and `actual`, the two totals; other
    checks leave them None."""

    def __init__(self, message: str, *, dilation=None, expected=None, actual=None):
        super().__init__(message)
        self.dilation, self.expected, self.actual = dilation, expected, actual


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


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in `_fields`, in constructor order, and
    its __init__ stores them with object.__setattr__ (or _set).  Equality
    and hashing go over the field tuple, equality only between instances
    of one class; repr shows every field; assigning or deleting an
    attribute raises AttributeError.  Classes on the hot paths write
    __eq__ and __hash__ over their own tuples; Polytope, which writes its
    repr too, lists no _fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # pickle and copy restore the attributes here, past __setattr__;
        # a class with __slots__ passes (None, slot values)
        if isinstance(state, tuple):
            state = state[1]
        for name, value in state.items():
            object.__setattr__(self, name, value)


@total_ordering
class Facet(_Frozen):
    """Inequality <normal, x> <= offset, outward primitive integer normal.

    Facets order by (normal, offset)."""

    __slots__ = _fields = ("normal", "offset")

    def __init__(self, normal: tuple[int, ...], offset: Fraction):
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.normal, self.offset) == (other.normal, other.offset)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.normal, self.offset))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.normal, self.offset) < (other.normal, other.offset)
        return NotImplemented


class Polytope(_Frozen):
    """Vertex representation; vertices are extreme points in sorted order.

    Construct through convex_hull / minkowski_sum / dilate / translate.
    The raw constructor trusts its arguments.  Equal and hashed over
    (ambient_dim, vertices, lattice); derived data is cached on the
    instance.
    """

    def __init__(self, ambient_dim: int, vertices: tuple[Point, ...], lattice: str = "Z"):
        d = self.__dict__
        d["ambient_dim"], d["vertices"], d["lattice"] = ambient_dim, vertices, lattice

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ambient_dim, self.vertices, self.lattice) == (
                other.ambient_dim,
                other.vertices,
                other.lattice,
            )
        return NotImplemented

    # -- basic affine data -------------------------------------------------

    @cached_property
    def dim(self) -> int:
        return len(self._chart[1])

    @cached_property
    def _chart(self) -> Chart:
        """(origin, basis rows, pivot columns): the basis of lin(aff P) is the
        reduced int echelon of its directions, primitive rows with positive
        pivots, each zero in the other pivot columns."""
        return (self.vertices[0], *_span_basis(_scaled(self.vertices)[1]))

    @cached_property
    def aff_equalities(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Primitive integer pairs (e, f) with <e, x> = f on aff(P), one per
        free column j of the chart basis: e_j = L and e_c = -r_j L / r_c for
        each basis row r with pivot c, L the lcm of the pivot entries."""
        o, basis, pivots = self._chart
        L = lcm(*(r[c] for r, c in zip(basis, pivots)))
        out = []
        for j in sorted(set(range(self.ambient_dim)).difference(pivots)):
            e = [0] * self.ambient_dim
            e[j] = L
            for r, c in zip(basis, pivots):
                e[c] = -r[j] * (L // r[c])
            g = gcd(*e)
            e = tuple(x // g for x in e)
            out.append((e, dot(e, o)))
        return tuple(sorted(out))

    @cached_property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    # -- facets ------------------------------------------------------------

    @cached_property
    def _facet_data(self) -> tuple[tuple[Facet, ...], tuple[frozenset[int], ...]]:
        if self.dim == 0:
            return (), ()
        _, loc = _integer_chart(self.vertices, self._chart)
        _, facets = _hull(loc, self.dim)
        normals = ((alpha, tight) for alpha, _, tight in facets)
        return self._assemble_facets(normals, *_scaled(self.vertices))

    @cached_property
    def _lift(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(M, L): L times the matrix that lifts chart normals to lin(aff P),
        shared by every polytope with the same span (_span_lift)."""
        _, C, pivots = self._chart
        d = self.ambient_dim
        return _identity_lift(d) if len(C) == d else _span_lift(C, pivots, d)

    def _assemble_facets(
        self,
        chart_facets: Iterable[tuple[tuple[int, ...], frozenset[int]]],
        D: int,
        ints: Sequence[tuple[int, ...]],
    ) -> tuple[tuple[Facet, ...], tuple[frozenset[int], ...]]:
        """Sorted ambient facets and their tight sets from the outward
        normals alpha of the facets in the chart and their tight sets, for
        ints the vertices times D: the lifted normal, made primitive, takes
        its offset at a vertex of the facet."""
        M, _ = self._lift
        out = []
        for alpha, tight in chart_facets:
            a = [sum(map(mul, row, alpha)) for row in M]
            g = gcd(*a)
            out.append((tuple(x // g for x in a), tight))
        out.sort(key=itemgetter(0))  # facet normals are distinct
        return (
            tuple(Facet(a, rational(sum(map(mul, a, ints[min(t)])), D)) for a, t in out),
            tuple(t for _, t in out),
        )

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
        if k == 3:
            return tuple(sorted((i, j) for i, j, _, _ in self._ridges))
        facets, tights = self._facet_data
        out = []
        for i, j in combinations(range(n), 2):
            common = [f for f, t in enumerate(tights) if i in t and j in t]
            if not common:
                continue
            if rank([facets[f].normal for f in common]) == k - 1:
                out.append((i, j))
        return tuple(out)

    @cached_property
    def _ridges(self) -> tuple[tuple[int, int, int, int], ...]:
        """(i, j, a, b) for each edge of a 3-polytope: its vertices i < j and
        the facets a < b that meet in it.  Two facets of a 3-polytope meet
        in an edge exactly when their tight sets share two vertices, and
        those are its ends."""
        through: list[list[int]] = [[] for _ in self.vertices]
        for a, tight in enumerate(self.facet_tight_sets):
            for i in tight:
                through[i].append(a)
        ends: dict[tuple[int, int], list[int]] = {}
        for i, facets in enumerate(through):
            for pair in combinations(facets, 2):
                ends.setdefault(pair, []).append(i)
        return tuple((*ij, *pair) for pair, ij in ends.items() if len(ij) == 2)

    @cached_property
    def _edge_cones(self) -> tuple[tuple[tuple[int, int], tuple[int, ...], int, int], ...]:
        """((i, j), e, a, b) for each edge of a 3-polytope in Q^3: e a
        positive multiple of +-(v_j - v_i) in int and a, b its two facets,
        whose normals na, nb span its normal cone, ordered so that
        <e, na x nb> > 0."""
        _, pts = _scaled(self.vertices)
        normals = [f.normal for f in self.facets]
        out = []
        for i, j, a, b in self._ridges:
            e = tuple(map(sub, pts[j], pts[i]))
            if sum(map(mul, e, _cross(normals[a], normals[b]))) < 0:
                a, b = b, a
            out.append(((i, j), e, a, b))
        return tuple(out)

    @cached_property
    def integer_edges(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
        """(start, end, primitive direction) of each edge, on the int-scaled vertices."""
        _, pts = _scaled(self.vertices)
        return tuple((pts[i], pts[j], primitive(vsub(pts[j], pts[i]))) for i, j in self.edges)

    @cached_property
    def spanning_edges(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
        """The first of integer_edges and each later one whose direction
        leaves the span of those kept: dim P edges that span lin(aff P)."""
        echelon: list[tuple[int, list[int]]] = []
        out = []
        for a, b, u in self.integer_edges:
            if len(echelon) == self.dim:
                break
            if extend_echelon(echelon, u):
                out.append((a, b, u))
        return tuple(out)

    @cached_property
    def _span_search(self) -> dict[int, tuple[list, set, Iterator]]:
        """k -> (spans found, the same as a set, the (k+1)-subsets not yet read)."""
        return {}

    def _simplex_spans(self, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        """The distinct direction spans of the k-simplices on the vertices,
        1 <= k <= dim, as span keys: the chart basis for k = dim, else in
        the order of their first (k+1)-subset of the int-scaled vertices.
        They are found as they are asked for and kept, so a later or a
        nested iteration reads them again and resumes the search."""
        if k == self.dim:
            yield self._chart[1]
            return
        if k not in self._span_search:
            self._span_search[k] = ([], set(), combinations(_scaled(self.vertices)[1], k + 1))
        found, seen, subsets = self._span_search[k]
        i = 0
        while True:
            while i == len(found):
                sub = next(subsets, None)
                if sub is None:
                    return
                key = span_key([[x - y for x, y in zip(p, sub[0])] for p in sub[1:]])
                if len(key) == k and key not in seen:
                    seen.add(key)
                    found.append(key)
            yield found[i]
            i += 1

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
    def _hash(self) -> int:  # once: every cache lookup hashes P
        return hash((self.ambient_dim, self.vertices, self.lattice))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Polytope(dim={self.dim}, ambient={self.ambient_dim}, nverts={len(self.vertices)}, lattice={self.lattice})"


@lru_cache(maxsize=None)
def _identity_lift(d: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The lift of a full-dimensional polytope, one shared object per d."""
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d)), 1


@lru_cache(maxsize=1 << 12)
def _span_lift(
    C: tuple[tuple[int, ...], ...], pivots: tuple[int, ...], d: int
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, L) for the chart basis C of a lower-dimensional span and its
    pivots in Q^d.

    Chart coordinates (pivot entries) are coefficients in B = S^-1 C,
    for C the int basis rows of the chart and S the diagonal of their
    pivot entries.  The lift of alpha is the a in lin(aff P) with
    <a, b_i> = alpha_i for every row b_i of B, that is
    B^T (B B^T)^-1 alpha.  B^T (B B^T)^-1 = C^T G^-1 S with G = C C^T, and
    one elimination of [G | I] reduces its rows to (p_i e_i | p_i
    (G^-1)_i).  The cells of one dissection share their span, so they
    share this elimination.
    """
    k = len(C)
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    inv = reduced_echelon([sum(map(mul, a, b)) for b in C] + e for a, e in zip(C, eye))
    L = lcm(*(r[c] for c, r in inv))
    W = [[x * (L // r[c]) * C[j][pivots[j]] for j, x in enumerate(r[k:])] for c, r in inv]
    m = [[sum(c[col] * w[j] for c, w in zip(C, W)) for j in range(k)] for col in range(d)]
    g = gcd(L, *(x for row in m for x in row))
    return tuple(tuple(x // g for x in row) for row in m), L // g


def _prepopulate(
    P: Polytope, facets: tuple[Facet, ...], tights: tuple[frozenset[int], ...]
) -> Polytope:
    P.__dict__["_facet_data"] = (facets, tights)
    return P


# -- hull construction -------------------------------------------------------


def _scaled(points: Sequence[Sequence[Fraction]]) -> tuple[int, list[tuple[int, ...]]]:
    """(D, the points times D) for the common denominator D of the points."""
    D = lcm(*(x.denominator for p in points for x in p))
    return D, [tuple(x.numerator * (D // x.denominator) for x in p) for p in points]


def _span_basis(
    points: Sequence[Sequence[int]],
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The reduced int echelon of the directions of aff(int points) and its
    pivots, from the echelon of the directions that leave the span."""
    o = points[0]
    rows: list[tuple[int, list[int]]] = []
    for p in points[1:]:
        if len(rows) == len(o):
            break
        extend_echelon(rows, [x - y for x, y in zip(p, o)])
    ech = reduced_echelon(r for _, r in rows)
    return tuple(tuple(r) for _, r in ech), tuple(c for c, _ in ech)


def _integer_chart(points: Sequence[Point], chart: Chart) -> tuple[int, list[tuple[int, ...]]]:
    """(D, coordinates): the points and the chart origin scaled by one common
    denominator D, subtracted in int; local coordinates are pivot entries."""
    o, _, pivots = chart
    D, (oi, *pts) = _scaled([o, *points])
    return D, [tuple(p[c] - oi[c] for c in pivots) for p in pts]


def _affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of integer points; -1 for no points."""
    if not points:
        return -1
    o = points[0]
    rows: list[tuple[int, list[int]]] = []
    return sum(extend_echelon(rows, [x - y for x, y in zip(p, o)]) for p in points[1:])


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
    exactly on the points indexed by tight.  A vertex is the one point the
    (exact) tight sets of the facets through it share.  All in Python int.
    """
    simplex, rows, o = [0], [], points[0]
    for i in range(1, len(points)):
        if len(simplex) > k:
            break
        if extend_echelon(rows, [x - y for x, y in zip(points[i], o)]):
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
                # for k <= 3, k-1 points on two facet hyperplanes span a ridge
                if len(ridge) >= k - 1 and (k <= 3 or _affine_rank([points[j] for j in ridge]) == k - 2):
                    # the hyperplane through the ridge and p, a positive
                    # combination of the two facet inequalities
                    alpha = [h_f * y - h_g * x for x, y in zip(a_f, a_g)]
                    beta = h_f * b_g - h_g * b_f
                    g = gcd(*alpha, beta)
                    cones.append((tuple(x // g for x in alpha), beta // g, ridge | {i}))
        facets = [f for f, _ in kept] + cones

    face: dict[int, set[int]] = {}
    for _, _, tight in facets:
        for i in tight:
            face[i] = face[i] & tight if i in face else set(tight)
    vertices = sorted(i for i, f in face.items() if len(f) == 1)
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
    """Polytope with the extreme points of `points`, or EMPTY for no input."""
    pts = sorted({vec(p) for p in points})
    if not pts:
        return EMPTY
    d = len(pts[0])
    if d < 1:
        raise DimensionMismatch("ambient dimension must be positive")
    if any(len(p) != d for p in pts):
        raise DimensionMismatch("mixed ambient dimensions in hull input")
    return _hull_polytope(*_scaled(pts), lattice)


def _hull_polytope(D: int, points: Sequence[tuple[int, ...]], lattice: str | None) -> Polytope:
    """The polytope conv(points) / D of distinct int points in sorted order.

    One beneath-beyond pass over the points in integer chart coordinates
    (_hull) gives the vertices, the facets and their tight sets.
    """
    basis, pivots = _span_basis(points)
    k = len(pivots)
    o = points[0]
    loc = [tuple(p[c] - o[c] for c in pivots) for p in points]
    chosen, facets = _hull(loc, k) if k else ([0], [])
    position = {i: n for n, i in enumerate(chosen)}
    on_vertices = [
        (alpha, frozenset(position[i] for i in tight if i in position))
        for alpha, _, tight in facets
    ]
    return _assembled(D, [points[i] for i in chosen], (basis, pivots), on_vertices, lattice)


def _assembled(
    D: int,
    vertices: Sequence[tuple[int, ...]],
    span: Span,
    chart_facets: Iterable[tuple[tuple[int, ...], frozenset[int]]],
    lattice: str | None = None,
) -> Polytope:
    """The polytope with the sorted distinct int vertices over D, the chart
    basis and pivots of its span, and the outward chart normals of its
    facets with their tight sets on the vertex positions; Fraction is
    built only for the vertices and the facet offsets.  The least vertex
    is the chart origin, and the reduced echelon depends on the span
    alone, so this is P's own chart."""
    verts = tuple(tuple(rational(x, D) for x in v) for v in vertices)
    P = Polytope(len(verts[0]), verts, _lattice_tag(verts, lattice))
    P.__dict__["_chart"] = (verts[0], *span)
    return _prepopulate(P, *P._assemble_facets(chart_facets, D, vertices))


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
    """The Minkowski sum P + Q.

    Exact for lattice and rational summands in every dimension.  Both
    summands are scaled by one common denominator D.  A sum of two
    3-polytopes in Q^3 is read off their normal fans (_fan_sum), a sum
    whose affine hull is a plane merges the two edge cycles (_plane_sum),
    and any other hulls the distinct int vertex sums as they are, D > 0
    keeping their order.
    """
    P, Q = _require_polytope(P), _require_polytope(Q)
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatch("summands live in different ambient spaces")
    D, ints = _scaled(P.vertices + Q.vertices)
    n = len(P.vertices)
    if P.ambient_dim == P.dim == Q.dim == 3:
        return _fan_sum(D, P, Q, ints[:n], ints[n:])
    span = _plane_span(P, Q)
    if span is not None:
        return _plane_sum(D, ints[:n], ints[n:], span)
    sums = sorted({tuple(map(add, p, q)) for p in ints[:n] for q in ints[n:]})
    return _hull_polytope(D, sums, None)


def _plane_span(P: Polytope, Q: Polytope) -> Span | None:
    """The chart basis and pivots of lin(aff P) + lin(aff Q) when that is a
    plane, else None."""
    if P.dim < Q.dim:
        P, Q = Q, P
    if P.dim > 2 or P.dim + Q.dim < 2:
        return None
    _, basis, pivots = P._chart
    if P.dim == 2:
        rows = [(c, list(r)) for r, c in zip(basis, pivots)]
        return None if any(extend_echelon(rows, r) for r in Q._chart[1]) else (basis, pivots)
    ech = reduced_echelon(basis + Q._chart[1])
    return (tuple(tuple(r) for _, r in ech), tuple(c for c, _ in ech)) if len(ech) == 2 else None


def _plane_sum(
    D: int,
    ps: Sequence[tuple[int, ...]],
    qs: Sequence[tuple[int, ...]],
    span: Span,
) -> Polytope:
    """conv(ps) + conv(qs) over D, for int points whose sum spans a plane
    with the chart basis and pivots `span`: the two counterclockwise edge
    cycles are merged by slope (de Berg, Cheong, van Kreveld & Overmars,
    Computational Geometry, 3rd ed., 2008, section 13.3).

    Chart coordinates are the pivot entries (a, b).  Each cycle starts at
    its least point in (b, a) order, so its edge directions rise in angle
    from the a axis over [0, 2 pi); the sum's cycle starts at the sum of
    the two starts and takes the edge of smaller angle next, both edges
    at once when they are parallel (a zero cross product in one half
    plane), so no vertex of the sum lies inside an edge.  An edge e of
    the sum has the outward chart normal (e_b, -e_a) and tight set its
    two ends.  A point cycle has no edges and a segment two."""
    a, b = span[1]
    cp, cq = _plane_cycle(ps, a, b), _plane_cycle(qs, a, b)
    ep, eq = _cycle_edges(cp, a, b), _cycle_edges(cq, a, b)
    ring, steps = [], []
    i = j = 0
    while i < len(ep) or j < len(eq):
        ring.append(tuple(map(add, cp[i % len(cp)], cq[j % len(cq)])))
        if j == len(eq):
            order = -1
        elif i == len(ep):
            order = 1
        else:
            order = _angle_order(ep[i], eq[j])
        if order <= 0:
            step, i = ep[i], i + 1
            if order == 0:
                step, j = tuple(map(add, step, eq[j])), j + 1
        else:
            step, j = eq[j], j + 1
        steps.append(step)
    vertices = sorted(ring)
    position = {v: k for k, v in enumerate(vertices)}
    facets = [
        ((eb, -ea), frozenset((position[v], position[w])))
        for v, w, (ea, eb) in zip(ring, ring[1:] + ring[:1], steps)
    ]
    return _assembled(D, vertices, span, facets)


def _plane_cycle(points: Sequence[tuple[int, ...]], a: int, b: int) -> list[tuple[int, ...]]:
    """The extreme points of int points on a plane where the pivot columns
    a, b are coordinates, counterclockwise in (a, b) from the least in
    (b, a) order: Andrew's monotone chain, sweeping in that order."""
    pts = sorted(set(points), key=lambda p: (p[b], p[a]))
    if len(pts) == 1:
        return pts
    cycle: list[tuple[int, ...]] = []
    for sweep in (pts, pts[::-1]):
        start = len(cycle)
        for p in sweep:
            while len(cycle) >= start + 2:
                o, q = cycle[-2], cycle[-1]
                if (q[a] - o[a]) * (p[b] - o[b]) - (q[b] - o[b]) * (p[a] - o[a]) > 0:
                    break
                cycle.pop()
            cycle.append(p)
        cycle.pop()
    return cycle


def _cycle_edges(cycle: Sequence[tuple[int, ...]], a: int, b: int) -> list[tuple[int, int]]:
    """The chart edge vectors of a counterclockwise cycle; none for a point."""
    if len(cycle) == 1:
        return []
    return [(q[a] - p[a], q[b] - p[b]) for p, q in zip(cycle, [*cycle[1:], cycle[0]])]


def _angle_order(u: tuple[int, int], v: tuple[int, int]) -> int:
    """-1, 0 or 1 as the angle of u from the first axis, in [0, 2 pi), is
    less than, equal to or greater than that of v."""
    hu = u[1] < 0 or (u[1] == 0 and u[0] < 0)
    hv = v[1] < 0 or (v[1] == 0 and v[0] < 0)
    if hu != hv:
        return 1 if hu else -1
    cross = u[0] * v[1] - u[1] * v[0]
    return (cross < 0) - (cross > 0)


def _fan_sum(
    D: int, P: Polytope, Q: Polytope, ps: Sequence[tuple[int, ...]], qs: Sequence[tuple[int, ...]]
) -> Polytope:
    """P + Q over D for two 3-polytopes in Q^3, ps and qs their vertices
    times D, from the two normal fans: the fan of P + Q is their common
    refinement (Ziegler, Lectures on Polytopes, Prop. 7.12), so its facet
    normals are those of P, those of Q, and one normal of e x f for each
    edge e of P and f of Q whose normal cones cross (Fukuda, J. Symb.
    Comput. 38, 2004).

    The facet with normal u is P^u + Q^u: a facet of P or of Q plus the
    argmax vertices of the other, or the parallelogram e + f.  A sum of a
    vertex of P and one of Q on three or more of these facets is a vertex
    of P + Q, since a point inside an edge lies on exactly two.  Pairs
    whose cones meet only on their boundary give a facet normal of P or
    of Q, found as such."""
    faces: dict[tuple[int, ...], tuple[Iterable[int], Iterable[int]]] = {}
    on_q = dict(zip((f.normal for f in Q.facets), Q.facet_tight_sets))
    for f, tight in zip(P.facets, P.facet_tight_sets):
        faces[f.normal] = (tight, on_q.get(f.normal) or _argmax(f.normal, qs))
    for u, tight in on_q.items():
        if u not in faces:
            faces[u] = (_argmax(u, ps), tight)
    for u, ends_p, ends_q in _crossings(P, Q):
        faces[u] = (ends_p, ends_q)
    m = len(qs)
    on = Counter(i * m + j for tp, tq in faces.values() for i in tp for j in tq)
    tops = sorted((tuple(map(add, ps[k // m], qs[k % m])), k) for k, c in on.items() if c >= 3)
    position = {k: n for n, (_, k) in enumerate(tops)}
    facets = [
        (u, frozenset(position[i * m + j] for i in tp for j in tq if i * m + j in position))
        for u, (tp, tq) in faces.items()
    ]
    return _assembled(D, [v for v, _ in tops], P._chart[1:], facets)


def _argmax(u: tuple[int, ...], points: Sequence[tuple[int, ...]]) -> list[int]:
    """The indices of the points on which <u, .> is largest."""
    values = [sum(map(mul, u, p)) for p in points]
    top = max(values)
    return [i for i, x in enumerate(values) if x == top]


def _cross(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    """a x b, that is linalg.cofactor_normal([a, b]), in closed form: the
    fan route takes one per crossing edge pair, and the general minors
    cost bernstein-3d about a tenth of its items per second."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _crossings(P: Polytope, Q: Polytope) -> Iterator[tuple]:
    """(u, ends of e, ends of f) for each edge e of P and f of Q, two
    3-polytopes in Q^3, whose normal cones cross inside both: u is the
    primitive one of +-(e x f) inside both.

    Each edge e comes from _edge_cones with its facet normals na, nb
    ordered so that K = <e, na x nb> > 0.  A w orthogonal to e is
    w = l na + m nb, and <w, e x na> = m K, <w, nb x e> = l K: w lies in
    the cone of e iff both are positive, or on its boundary iff one is 0.
    For w = e x f they are |e|^2 <f, na> and -|e|^2 <f, nb>, and for f
    with normals nc, nd they are -|f|^2 <e, nc> and |f|^2 <e, nd>.  So
    the tests read the signs of each edge on the other polytope's facet
    normals, and u = w or -w as the signs say.  A zero sign puts u on a
    facet normal of P or of Q, and parallel edges give only zeros."""
    cones_p, cones_q = P._edge_cones, Q._edge_cones
    normals_p, normals_q = [f.normal for f in P.facets], [f.normal for f in Q.facets]
    f_on_p = [[sum(map(mul, f, n)) for n in normals_p] for _, f, _, _ in cones_q]
    e_on_q = [[sum(map(mul, e, n)) for n in normals_q] for _, e, _, _ in cones_p]
    for (ends_p, e, a, b), signs_e in zip(cones_p, e_on_q):
        for (ends_q, f, c, d), signs_f in zip(cones_q, f_on_p):
            if signs_f[a] > 0 > signs_f[b] and signs_e[c] < 0 < signs_e[d]:
                w = _cross(e, f)
            elif signs_f[a] < 0 < signs_f[b] and signs_e[c] > 0 > signs_e[d]:
                w = _cross(f, e)
            else:
                continue
            g = gcd(*w)
            yield tuple(x // g for x in w), ends_p, ends_q


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
    """n1 P1 + ... + nr Pr; the origin when every ni is 0.  The summands
    with ni = 0 drop out; the rest are summed once through the cache and
    the sum rescaled along its normal fan, with no hull (_rescaled)."""
    polys = [_require_polytope(P) for P in polys]
    if not polys:
        raise ValueError("need at least one polytope and one scale for each")
    n = _dilation_vector(n, len(polys))
    d = _common_ambient(polys)
    parts = [(P, k) for P, k in zip(polys, n) if k]
    if not parts:
        return origin_polytope(d)
    S = minkowski_sum_all([P for P, _ in parts])
    return S if all(k == 1 for _, k in parts) else _rescaled(S, parts)


def _rescaled(S: Polytope, parts: Sequence[tuple[Polytope, int]]) -> Polytope:
    """n1 P1 + ... + nr Pr, every ni > 0, from S = P1 + ... + Pr, in int on
    one common denominator D.  The sum c of the normals of the facets
    through a vertex of S is inside its normal cone, so <c, .> has one
    maximizer on each Pi; the new vertex is the sum of ni times those.
    Normals, facet order, tight sets (on the new vertex order), the chart
    basis, _lift and the equality normals carry over; the offsets are
    taken at the new vertices."""
    d, (facets, tights) = S.ambient_dim, S._facet_data
    D, ints = _scaled([v for P, _ in parts for v in P.vertices])
    it = iter(ints)
    blocks = [([next(it) for _ in P.vertices], k) for P, k in parts]
    cones = [[0] * d for _ in S.vertices]
    for f, tight in zip(facets, tights):
        for j in tight:
            cones[j] = list(map(add, cones[j], f.normal))
    points = []
    for c in cones:
        tops = [(k, max(pts, key=lambda v: sum(map(mul, c, v)))) for pts, k in blocks]
        points.append([sum(k * v[j] for k, v in tops) for j in range(d)])
    order = sorted(range(len(points)), key=points.__getitem__)
    position = {j: i for i, j in enumerate(order)}
    verts = tuple(tuple(rational(x, D) for x in points[j]) for j in order)
    T = Polytope(d, verts, _lattice_tag(verts, None))
    o = points[order[0]]
    T.__dict__.update(
        _chart=(verts[0], *S._chart[1:]),
        _lift=S._lift,
        aff_equalities=tuple((e, rational(sum(map(mul, e, o)), D)) for e, _ in S.aff_equalities),
    )
    offsets = [rational(sum(map(mul, f.normal, points[min(t)])), D) for f, t in zip(facets, tights)]
    return _prepopulate(
        T,
        tuple(Facet(f.normal, c) for f, c in zip(facets, offsets)),
        tuple(frozenset(position[j] for j in t) for t in tights),
    )


def _dilation_vector(n: Sequence[int], r: int) -> tuple[int, ...]:
    """n as r dilation factors, each a nonnegative int (not a bool)."""
    n = tuple(n)
    if len(n) != r:
        raise ValueError(f"need one dilation factor for each of the {r} polytopes, got {len(n)}")
    if any(type(k) is not int or k < 0 for k in n):
        raise ValueError(f"dilation factors must be nonnegative integers, got {n}")
    return n


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


def placing_cells(loc: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Placing triangulation of conv(loc), placing the points in list order.

    Returns top-dimensional simplices as index tuples.  Points inside
    the hull of their predecessors contribute nothing; a point beyond a
    boundary simplex lies strictly opposite its apex, not on it.

    Integer contract: the int or Fraction points are scaled once by one
    common denominator; all else is Python int.  The chart is the
    projection onto the pivot columns of an integer echelon of the span,
    injective there, and a hyperplane is a cofactor normal.
    """
    _, pts = _scaled(loc)
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

    for idx, p in enumerate(pts):
        if origin is None:
            origin = p
            cells = [(idx,)]
            continue
        if extend_echelon(rows, [x - y for x, y in zip(p, origin)]):
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
    """Volume of P in its chart by a pulling triangulation (Bueler, Enge &
    Fukuda, "Exact volume computation for polytopes", 2000): a face S
    pulls its least vertex v and recurses into its facets that miss v,
    and a simplex face (an edge at the latest) closes one simplex, the
    pulled apexes and its vertices; a simplex P is its own base case.
    The facets of S are the inclusion-maximal S & t other than S and the
    empty set, t over P's facet tight sets: some facet G of P holds a
    facet Q of S but not S, and S & G = Q.  No side test runs, nor a hull
    once P's facets are known; sum |det| over the int chart / (k! D^k)."""
    k = P.dim
    if k == 0:
        return Fraction(0)
    D, loc = _integer_chart(P.vertices, P._chart)

    def pull(S: frozenset[int], apexes: tuple[int, ...]) -> int:
        if len(S) + len(apexes) == k + 1:  # S is a simplex face
            o, *rest = (loc[i] for i in (*apexes, *S))
            return abs(det([[x - y for x, y in zip(q, o)] for q in rest]))
        v, facets, total = min(S), [], 0
        for F in sorted({S & t for t in P.facet_tight_sets} - {S, frozenset()}, key=len, reverse=True):
            if not any(F < G for G in facets):
                facets.append(F)
                if v not in F:
                    total += pull(F, (*apexes, v))
        return total

    return Fraction(pull(frozenset(range(len(loc))), ()), factorial(k) * D**k)


# -- faces ----------------------------------------------------------------------


class Face(_Frozen):
    __slots__ = _fields = ("dim", "vertex_indices", "polytope")

    def __init__(self, dim: int, vertex_indices: frozenset[int], polytope: Polytope):
        self._set(dim, vertex_indices, polytope)


def face_lattice(P: Polytope) -> tuple[Face, ...]:
    """All nonempty faces of P, including P itself, via facet intersections,
    sorted by dimension and then by vertex indices."""
    P = _require_polytope(P)
    all_v = frozenset(range(len(P.vertices)))
    seen = {all_v}
    queue = [all_v]
    while queue:
        V = queue.pop()
        for t in P.facet_tight_sets:
            W = V & t
            if W and W != V and W not in seen:
                seen.add(W)
                queue.append(W)
    faces = []
    for V in seen:
        verts = tuple(sorted(P.vertices[i] for i in V))
        sub = Polytope(P.ambient_dim, verts, _lattice_tag(verts, None))
        faces.append(Face(sub.dim, V, sub))
    faces.sort(key=lambda f: (f.dim, sorted(f.vertex_indices)))
    return tuple(faces)


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
