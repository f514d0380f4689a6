"""Half-open machinery and dissections.

A dissection covers a polytope by full-dimensional cells meeting only in
boundaries.  Making each cell half-open (dropping the facets visible
from a fixed generic point) turns the cover into an exact partition of
lattice points, which is what every certificate here counts.  Cells are
remembered as Minkowski sums, and a cell rescaled summand-wise by n is
counted without building it, from the support table of counting._Support
(once per cell and once per certificate target).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .counting import HalfOpenPolytope, _Support, count_half_open
from .geometry import (
    CertificateError,
    DimensionMismatch,
    GeometryError,
    InexactSum,
    NotGeneric,
    Polytope,
    _common_ambient,
    _dilation_vector,
    _lattice_tag,
    _require_polytope,
    _scaled,
    contains,
    convex_hull,
    dilate,
    minkowski_sum_all,
    placing_cells,
    translate,
)
from .linalg import dot, is_zero, vadd, vec
from .samplers import random_relint_point

# -- half-open operators ------------------------------------------------------


def half_open_by_point(P: Polytope, q: Sequence) -> HalfOpenPolytope:
    """Remove the facets of P visible from q.

    q must lie in the affine hull of P and on no facet hyperplane; with
    q inside P nothing is removed.
    """
    P = _require_polytope(P)
    qv = vec(q)
    if len(qv) != P.ambient_dim:
        raise DimensionMismatch("opening point has the wrong dimension")
    for e, f0 in P.aff_equalities:
        if dot(e, qv) != f0:
            raise GeometryError("opening point must lie in the affine hull")
    removed = set()
    for i, f in enumerate(P.facets):
        s = dot(f.normal, qv)
        if s == f.offset:
            raise NotGeneric("opening point lies on a facet hyperplane")
        if s > f.offset:
            removed.add(i)
    return HalfOpenPolytope(P, frozenset(removed))


def half_open_by_direction(P: Polytope, u: Sequence) -> HalfOpenPolytope:
    """Remove the facets whose outer normal makes a positive pairing
    with u; the direction must be parallel to aff(P) and parallel to no
    facet hyperplane."""
    P = _require_polytope(P)
    uv = vec(u)
    if len(uv) != P.ambient_dim:
        raise DimensionMismatch("direction has the wrong dimension")
    if is_zero(uv):
        raise NotGeneric("direction must be nonzero")
    for e, _ in P.aff_equalities:
        if dot(e, uv) != 0:
            raise NotGeneric("direction must be parallel to the affine hull")
    removed = set()
    for i, f in enumerate(P.facets):
        s = dot(f.normal, uv)
        if s == 0:
            raise NotGeneric("direction is parallel to a facet hyperplane")
        if s > 0:
            removed.add(i)
    return HalfOpenPolytope(P, frozenset(removed))


# -- mixed cells and dissections ------------------------------------------------


def _face_index(P: Polytope, a: tuple[int, ...]) -> int:
    """Index of the facet of P whose vertex set maximizes <a, .>; the
    maximizing face must actually be a facet."""
    _, pts = _scaled(P.vertices)
    vals = [sum(map(mul, a, v)) for v in pts]
    mx = max(vals)
    tight = frozenset(t for t, v in enumerate(vals) if v == mx)
    idx = P.facet_by_tight_set.get(tight)
    if idx is None:
        raise CertificateError("maximizing face is not a facet")
    return idx


@dataclass(frozen=True)
class MixedCell:
    """A dissection cell remembered as a Minkowski sum.

    `cell` is the sum of `summands`; `removed` indexes into cell.facets
    and records the half-open state.  The sum is exact: the cell
    dimension equals the total of the summand dimensions, which makes
    every facet attributable to exactly one summand.
    """

    summands: tuple[Polytope, ...]
    cell: Polytope
    removed: frozenset[int] = frozenset()

    @property
    def cylinder_rank(self) -> int:
        """How many summands have positive dimension."""
        return sum(1 for R in self.summands if R.dim > 0)

    @property
    def is_exact(self) -> bool:
        return self.cell.dim == sum(R.dim for R in self.summands)

    @cached_property
    def _rescaling(self) -> _Support:
        return _Support(self.summands, self.cell, self.removed)

    def half_open(self) -> HalfOpenPolytope:
        return HalfOpenPolytope(self.cell, self.removed)

    def count(self) -> int:
        return count_half_open(self.half_open())

    def with_removed(self, removed: frozenset[int]) -> "MixedCell":
        return MixedCell(self.summands, self.cell, removed)

    def summand_half_open(self, j: int) -> HalfOpenPolytope:
        """Summand j carrying the removed facets attributed to it: a facet
        of the cell belongs to the one summand whose face in its direction
        is proper, the one on which its normal is not constant."""
        idx = set()
        for i in self.removed:
            a = self.cell.facets[i].normal
            moving = [k for k, R in enumerate(self.summands) if len({dot(a, v) for v in R.vertices}) > 1]
            if len(moving) != 1:
                raise InexactSum(f"facet attribution {'is ambiguous' if moving else 'failed'}")
            if moving[0] == j:
                idx.add(_face_index(self.summands[j], a))
        return HalfOpenPolytope(self.summands[j], frozenset(idx))


@dataclass(frozen=True)
class Dissection:
    """Interior-disjoint cells covering a target polytope.

    `opener`, when set, is the generic point whose visibility fixed each
    cell's removed facets.  `factors`, when set, records the polytopes
    whose Minkowski sum is dissected; every cell then carries one
    summand per factor, contained in it, and can be rescaled.
    """

    target: Polytope
    cells: tuple[MixedCell, ...]
    opener: tuple[Fraction, ...] | None = None
    factors: tuple[Polytope, ...] | None = None

    def cell_counts(self) -> list[int]:
        return [c.count() for c in self.cells]

    @cached_property
    def _target_rescaling(self) -> _Support:
        """Counts of n1 P1 + ... + nr Pr for the factors Pi."""
        return _Support(self.factors, minkowski_sum_all(self.factors))


def _sides(c: MixedCell, Dq: int, qi: Sequence[int]) -> list[int]:
    """For each facet <a, x> <= b of the cell, the sign of <a, q> - b for
    the point q = qi / Dq, as <a, qi> den(b) - num(b) Dq in int."""
    return [
        sum(map(mul, f.normal, qi)) * f.offset.denominator - f.offset.numerator * Dq
        for f in c.cell.facets
    ]


def _has_tie(cells: Sequence[MixedCell], q: Sequence[Fraction]) -> bool:
    Dq, (qi,) = _scaled([q])
    return any(0 in _sides(c, Dq, qi) for c in cells)


def generic_opener(
    target: Polytope,
    cells: Sequence[MixedCell],
    *,
    seed: int = 0,
    from_polytope: Polytope | None = None,
) -> tuple[Fraction, ...]:
    """A seeded point in the relative interior of `from_polytope` (the
    target by default) avoiding every cell facet hyperplane.  Candidates
    with exact ties are rejected and re-drawn with growing weights."""
    src = from_polytope if from_polytope is not None else target
    rng = random.Random(seed)
    for attempt in range(256):
        q = random_relint_point(rng, src, weight_bound=97 + 31 * attempt)
        if not _has_tie(cells, q):
            return tuple(q)
    raise NotGeneric("no generic opener found; target may be degenerate")


def open_dissection(
    D: Dissection, q: Sequence | None = None, *, seed: int = 0
) -> Dissection:
    """Give every cell the half-open state induced by visibility from q.

    Without q a seeded generic interior point of the target is drawn,
    making the half-open target closed, so the cell counts add up to the
    plain lattice-point count.  An explicit q must have the target's
    ambient dimension; one on any cell facet hyperplane raises NotGeneric.
    """
    if q is None:
        qv = vec(generic_opener(D.target, D.cells, seed=seed))
    else:
        qv = vec(q)
        if len(qv) != D.target.ambient_dim:
            raise DimensionMismatch("opening point has the wrong dimension")
    Dq, (qi,) = _scaled([qv])
    cells = []
    for c in D.cells:
        sides = _sides(c, Dq, qi)
        if 0 in sides:
            raise NotGeneric("opening point lies on a cell facet hyperplane")
        cells.append(c.with_removed(frozenset(i for i, s in enumerate(sides) if s > 0)))
    return Dissection(D.target, tuple(cells), tuple(qv), D.factors)


def certify_dissection(D: Dissection) -> int:
    """Check the lattice-count certificate: half-open cell counts must
    add up to the count of the half-open target, as seen from the same
    opener.  Returns the certified total."""
    if D.opener is None:
        raise CertificateError("dissection has no half-open state")
    total = sum(c.count() for c in D.cells)
    expect = count_half_open(half_open_by_point(D.target, D.opener))
    if total != expect:
        raise CertificateError(
            f"cells count {total} lattice points, the target {expect}"
        )
    return total


def dilated_cell_counts(D: Dissection, n: Sequence[int]) -> list[int]:
    """Half-open lattice counts of every cell rescaled summand-wise by n.

    Needs a factored, opened dissection.  The counts add up to the
    lattice-point count of n1 P1 + ... + nr Pr.  No rescaled cell is
    built: each cell counts from its int support numbers.
    """
    if D.factors is None:
        raise ValueError("dissection does not track factors")
    if D.opener is None:
        raise ValueError("dissection has no half-open state; open it first")
    n = _dilation_vector(n, len(D.factors))
    return [c._rescaling.count(n) for c in D.cells]


def certify_dilations(D: Dissection, samples: Iterable[Sequence[int]]) -> None:
    """Check the rescaled certificate at every sample vector; a failure
    carries the dilation and the expected and actual totals."""
    for n in samples:
        n = tuple(n)
        total = sum(dilated_cell_counts(D, n))
        expect = D._target_rescaling.count(n)
        if total != expect:
            raise CertificateError(
                f"scaled cells count {total} at {n}, the target {expect}",
                dilation=n,
                expected=expect,
                actual=total,
            )


# -- box cells ------------------------------------------------------------------


def order_simplex(d: int) -> Polytope:
    """The simplex 0 <= x_1 <= ... <= x_d <= 1."""
    if d < 1:
        raise ValueError("need d >= 1")
    verts = [tuple(1 if i >= d - t else 0 for i in range(d)) for t in range(d + 1)]
    return convex_hull(verts)


def boxcell_dissection(d: int, n: int, *, seed: int = 0) -> Dissection:
    """Dissect the n-th dilate of the order simplex into half-open
    cylinders, one per weakly increasing base vector in {0..n-1}^d.

    A cell is its base point plus one order simplex per constant block
    of the base vector, so a cell with k blocks is a k-cylinder.
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    target = dilate(order_simplex(d), n)
    cells = []
    for base in itertools.combinations_with_replacement(range(n), d):
        blocks = []
        start = 0
        for i in range(1, d + 1):
            if i == d or base[i] != base[i - 1]:
                blocks.append((start, i))
                start = i
        summands = []
        for s, e in blocks:
            verts = [
                tuple(1 if s <= i < e and i >= e - t else 0 for i in range(d))
                for t in range(e - s + 1)
            ]
            summands.append(convex_hull(verts))
        summands[0] = translate(summands[0], base)
        cells.append(MixedCell(tuple(summands), minkowski_sum_all(summands)))
    return open_dissection(Dissection(target, tuple(cells)), seed=seed)


def boxcell_census(D: Dissection) -> dict[int, int]:
    """Cell counts grouped by cylinder rank."""
    out: dict[int, int] = {}
    for c in D.cells:
        out[c.cylinder_rank] = out.get(c.cylinder_rank, 0) + 1
    return dict(sorted(out.items()))


# -- staircases -------------------------------------------------------------------


def staircase_dissection(S1: Polytope, S2: Polytope) -> Dissection:
    """Dissect the exact sum of two simplices into binom(p+q, p)
    simplices, one per monotone path through the vertex grid."""
    S1, S2 = _require_polytope(S1), _require_polytope(S2)
    for S in (S1, S2):
        if len(S.vertices) != S.dim + 1:
            raise GeometryError("staircases are built from simplices")
    total = minkowski_sum_all((S1, S2))
    p, q = S1.dim, S2.dim
    if total.dim != p + q:
        raise InexactSum("summands do not add dimensions")
    u, v = S1.vertices, S2.vertices
    cells = []
    for rights in itertools.combinations(range(p + q), p):
        rset = set(rights)
        i = j = 0
        path = [vadd(u[0], v[0])]
        for step in range(p + q):
            if step in rset:
                i += 1
            else:
                j += 1
            path.append(vadd(u[i], v[j]))
        verts = tuple(sorted(path))
        simplex = Polytope(total.ambient_dim, verts, _lattice_tag(verts, None))
        if simplex.dim != p + q:
            raise InexactSum("degenerate staircase cell")
        cells.append(MixedCell((simplex,), simplex))
    return Dissection(total, tuple(cells))


def staircase_refine(
    cell: MixedCell, i: int, j: int, q: Sequence
) -> tuple[MixedCell, ...]:
    """Split a cylinder cell by staircasing summands i and j into single
    simplices, then re-open every piece by visibility from q.

    The pieces have one summand fewer, and their half-open counts add up
    to the count of the original cell opened from the same q.
    """
    if i == j:
        raise ValueError("pick two distinct summands")
    i, j = min(i, j), max(i, j)
    sub = staircase_dissection(cell.summands[i], cell.summands[j])
    pieces = []
    for piece in sub.cells:
        summands = (
            cell.summands[:i]
            + (piece.cell,)
            + cell.summands[i + 1 : j]
            + cell.summands[j + 1 :]
        )
        pieces.append(MixedCell(summands, minkowski_sum_all(summands)))
    refined = open_dissection(Dissection(cell.cell, tuple(pieces)), q)
    return refined.cells


# -- Cayley embeddings -------------------------------------------------------------


def _cayley_points(polys: Sequence[Polytope]) -> list[tuple]:
    """The vertices of factor i lifted to height 1 in extra coordinate i."""
    r = len(polys)
    return [
        tuple(v) + tuple(1 if t == i else 0 for t in range(r))
        for i, P in enumerate(polys)
        for v in P.vertices
    ]


def cayley_polytope(polys: Sequence[Polytope]) -> Polytope:
    """The hull of the factors embedded at unit heights in r extra
    coordinates; slicing it at equal heights 1/r recovers the sum scaled
    by 1/r.  The Cayley dissections place the embedded points directly
    and never build this hull."""
    polys = tuple(_require_polytope(P) for P in polys)
    if not polys:
        raise ValueError("need at least one factor")
    _common_ambient(polys)
    return convex_hull(_cayley_points(polys))


# -- placing triangulations ----------------------------------------------------------


def placing_triangulation(P: Polytope) -> Dissection:
    """Triangulate by placing the vertices one at a time in their stored
    order, coning each new vertex over the boundary faces it sees.

    The vertices go to placing_cells as they are; it charts them itself.
    """
    P = _require_polytope(P)
    cells = []
    for c in placing_cells(P.vertices):
        verts = tuple(sorted(P.vertices[t] for t in c))
        simplex = Polytope(P.ambient_dim, verts, _lattice_tag(verts, None))
        cells.append(MixedCell((simplex,), simplex))
    return Dissection(P, tuple(cells))


# -- fine mixed dissections ------------------------------------------------------------


def _pull_back(
    point_cell: Sequence[tuple], d: int, r: int
) -> MixedCell:
    """Cayley-trick pull-back: group a simplex's vertices by height
    label, sum the per-label hulls of their base parts."""
    groups: dict[int, list] = {i: [] for i in range(r)}
    for p in point_cell:
        i = next(t for t in range(r) if p[d + t] == 1)
        groups[i].append(tuple(p[:d]))
    summands = []
    for i in range(r):
        g = tuple(sorted(groups[i]))
        if not g:
            raise CertificateError("a maximal cell misses a factor")
        summands.append(Polytope(d, g, _lattice_tag(g, None)))
    mc = MixedCell(tuple(summands), minkowski_sum_all(summands))
    if not mc.is_exact:
        raise InexactSum("pulled-back cell is not an exact sum")
    return mc


def _cayley_cells(
    pts: Sequence[tuple], d: int, r: int
) -> tuple[list[tuple[int, ...]], tuple[MixedCell, ...]]:
    """The Cayley trick (Huber, Rambau & Santos, JEMS 2, 2000): a placing
    triangulation of the Cayley points `pts`, placed in list order, as
    index cells, and each maximal simplex pulled back to a mixed cell of
    the sum.  No hull of the points is built."""
    index_cells = placing_cells(pts)
    return index_cells, tuple(_pull_back([pts[t] for t in c], d, r) for c in index_cells)


def fine_mixed_dissection(
    polys: Sequence[Polytope], *, opener_seed: int = 0
) -> Dissection:
    """Dissect the Minkowski sum of the factors into exact mixed cells.

    Places the Cayley points in sorted order, the vertex order of the
    Cayley polytope, with no hull, and pulls every maximal simplex back
    through the equal-height slice; cells are opened from a seeded
    generic interior point of the sum.
    """
    polys = tuple(_require_polytope(P) for P in polys)
    if not polys:
        raise ValueError("need at least one factor")
    d = _common_ambient(polys)
    _, cells = _cayley_cells(sorted(_cayley_points(polys)), d, len(polys))
    D = Dissection(minkowski_sum_all(polys), cells, factors=polys)
    return open_dissection(D, seed=opener_seed)


# -- mixed differences ----------------------------------------------------------------


@dataclass(frozen=True)
class DifferenceCertificate:
    """A fine mixed dissection of the outer sum whose leading cells
    dissect the inner sum; the rest tile the difference half-openly."""

    inner_factors: tuple[Polytope, ...]
    outer_factors: tuple[Polytope, ...]
    dissection: Dissection
    inner_cells: tuple[int, ...]
    difference_cells: tuple[int, ...]

    @cached_property
    def inner_dissection(self) -> Dissection:
        cells = tuple(self.dissection.cells[k] for k in self.inner_cells)
        return Dissection(
            minkowski_sum_all(self.inner_factors),
            cells,
            self.dissection.opener,
            self.inner_factors,
        )


def mixed_difference_certificate(
    inner: Sequence[Polytope],
    outer: Sequence[Polytope],
    *,
    opener_seed: int = 0,
) -> DifferenceCertificate:
    """Dissect the outer sum so a sub-family of cells dissects the inner
    sum exactly, with the leftover half-open cells tiling the difference.

    Componentwise containment and equal sum dimensions are required.
    The inner Cayley points are placed first, which confines the inner
    sum's triangulation to a closed sub-complex; the opener is drawn
    from the relative interior of the inner sum.
    """
    inner = tuple(_require_polytope(P) for P in inner)
    outer = tuple(_require_polytope(P) for P in outer)
    if len(inner) != len(outer) or not inner:
        raise ValueError("families must have equal positive length")
    d = _common_ambient(inner + outer)
    for P, Q in zip(inner, outer):
        if not contains(Q, P):
            raise GeometryError("an inner polytope escapes its outer partner")
    target_in = minkowski_sum_all(inner)
    target_out = minkowski_sum_all(outer)
    if target_in.dim != target_out.dim:
        raise DimensionMismatch("inner and outer sums must have equal dimension")
    r = len(outer)

    # the inner points first, then the outer points not among them
    inner_pts = _cayley_points(inner)
    n_inner = len(inner_pts)
    pts = list(dict.fromkeys(inner_pts + _cayley_points(outer)))

    index_cells, built = _cayley_cells(pts, d, r)
    inner_idx = tuple(k for k, c in enumerate(index_cells) if max(c) < n_inner)
    diff_idx = tuple(k for k, c in enumerate(index_cells) if max(c) >= n_inner)
    q = generic_opener(
        target_out, built, seed=opener_seed, from_polytope=target_in
    )
    D = open_dissection(Dissection(target_out, built, factors=outer), q)
    return DifferenceCertificate(inner, outer, D, inner_idx, diff_idx)


def difference_counts(
    cert: DifferenceCertificate, n: Sequence[int]
) -> list[int]:
    """Rescaled half-open counts of the difference cells."""
    n = _dilation_vector(n, len(cert.outer_factors))
    cells = cert.dissection.cells
    return [cells[k]._rescaling.count(n) for k in cert.difference_cells]


def certify_difference(
    cert: DifferenceCertificate, samples: Iterable[Sequence[int]]
) -> None:
    """Check that the difference cells count exactly the lattice points
    the outer scaled sum has over the inner one, at every sample; a
    failure carries the dilation and the expected and actual totals."""
    for n in samples:
        n = tuple(n)
        total = sum(difference_counts(cert, n))
        outer = cert.dissection._target_rescaling.count(n)
        expect = outer - cert.inner_dissection._target_rescaling.count(n)
        if total != expect:
            raise CertificateError(
                f"difference cells count {total} at {n}, expected {expect}",
                dilation=n,
                expected=expect,
                actual=total,
            )
