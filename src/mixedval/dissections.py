"""Half-open machinery and dissections.

A dissection covers a polytope by full-dimensional cells meeting only in
boundaries.  Making each cell half-open (dropping the facets visible
from a fixed generic point) turns the cover into an exact partition of
lattice points, which is what every certificate here counts.

Every cell is an exact Minkowski sum of simplices, so an affine image of
their product, and is built from its simplices with no hull: one integer
inverse of the edge matrix gives the vertices, the facets, labelled by
(summand, vertex), and their tight sets (_SimplexProduct).  A cell
rescaled summand-wise by n counts in closed form, a sum of products of
binomials over the lattice points of its fundamental parallelepiped,
which Hermite normal forms enumerate (_CellCounts); no rescaled cell is
built or scanned.  A certificate target counts from the support table of
counting._Support, so every certificate compares two independent routes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .counting import HalfOpenPolytope, _refuse_scan, _Support, count_half_open
from .geometry import (
    CertificateError,
    DimensionMismatch,
    GeometryError,
    InexactSum,
    NotGeneric,
    Polytope,
    _assembled,
    _Frozen,
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
from .linalg import adjugate, dot, hermite, is_zero, reduced_echelon, vadd, vec
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


class _SimplexProduct:
    """An exact sum of simplices S1 + ... + Sr as the affine image of their
    product (the Cayley trick: Huber, Rambau & Santos, JEMS 2, 2000), built
    from one integer inverse and no hull.

    The vertices are scaled by their common denominator D, and the edges
    vj,v - vj,0 (v >= 1) of each Sj by the least Dj that makes them
    integral; E is the k x k matrix of those edges in the pivot columns of
    their span.  A point of n1 S1 + ... + nr Sr is o(n) + mu E, o(n) the
    sum of the nj vj,0 and mu in the product of the simplices {mu_j >= 0,
    sum mu_j <= nj / Dj}.  The edges are independent exactly when the
    summands are simplices whose dimensions add up: that rank test is the
    exactness check.  Faces of a product are products of faces (Ziegler,
    Lectures on Polytopes, section 0.1), so the vertices are the sums over
    the index tuples, and the facets are the pairs (j, v) with kj = dim Sj
    >= 1, mu_j,v >= 0 for v >= 1 and sum mu_j at its top for v = 0, each
    tight on the tuples whose j-th index is not v.  In chart coordinates
    y, mu = y adj(E) / det E, so every normal is a column of the adjugate
    or the sum of block j's columns.  `blocks` holds (j, kj, the position
    of Sj's first edge, Dj) for kj >= 1, and `labels` the (j, v) of each
    facet of `cell`, in its facet order.
    """

    def __init__(self, summands: Sequence[Polytope]):
        D, ints = _scaled([v for S in summands for v in S.vertices])
        blocks, at = [], 0
        for S in summands:
            blocks.append(ints[at : at + len(S.vertices)])
            at += len(S.vertices)
        # each summand's edges over the least Dj that makes them integral
        edges, self.blocks = [], []
        for j, b in enumerate(blocks):
            rows = [[x - y for x, y in zip(p, b[0])] for p in b[1:]]
            if rows:
                g = gcd(D, *(x for row in rows for x in row))
                self.blocks.append((j, len(rows), len(edges), D // g))
                edges += [[x // g for x in row] for row in rows]
        ech = reduced_echelon(edges)
        if len(ech) < len(edges):
            raise InexactSum("summands are not simplices whose dimensions add up")
        self.basis, self.pivots = tuple(tuple(r) for _, r in ech), tuple(c for c, _ in ech)
        self.edges = [[e[c] for c in self.pivots] for e in edges]
        self.det, self.adj = adjugate(self.edges)
        self.D, self.origins = D, [b[0] for b in blocks]

        tuples = list(itertools.product(*(range(len(b)) for b in blocks)))
        sums = [tuple(map(sum, zip(*(b[i] for b, i in zip(blocks, t))))) for t in tuples]
        order = sorted(range(len(sums)), key=sums.__getitem__)
        position = [0] * len(order)
        for n, t in enumerate(order):
            position[t] = n
        s = 1 if self.det > 0 else -1
        columns = list(zip(*self.adj))
        facets, labels = [], {}
        for j, k, at, _ in self.blocks:
            cols = columns[at : at + k]
            normals = [tuple(s * sum(x) for x in zip(*cols))] + [tuple(-s * x for x in c) for c in cols]
            for v, alpha in enumerate(normals):
                tight = frozenset(position[n] for n, t in enumerate(tuples) if t[j] != v)
                facets.append((alpha, tight))
                labels[tight] = (j, v)
        self.cell = _assembled(D, [sums[t] for t in order], (self.basis, self.pivots), facets)
        self.labels = tuple(labels[t] for t in self.cell.facet_tight_sets)

    @cached_property
    def group(self) -> tuple[list[int], int, list[list[int]], list[list[int]]]:
        """(free, L, solver, reps): the lattice points of the sum's affine
        hull and a set of representatives of the finite group G, the image
        of aff(cell) & Z^d under E^-1 taken mod Z^k, |G| of them, from
        Hermite normal forms and no box scan.

        A point of the affine hull through o(c), with pivot coordinates y
        and o = D o(c), has integral free coordinates f exactly when
        y A = b(o) mod DL, with A_if = D r_if L / r_ip for the chart rows
        r, pivots p and L the lcm of the pivot entries.  The HNF of the
        rows (A_i | e_i) and (DL e_f | 0) splits in two: the `solver`
        rows, pivoting on the free columns, find a solution y0 whenever
        one exists, and the rest, B, is a basis of the homogeneous
        solutions, which contain the edge rows: E = U B.  So G is
        Z^k / Z^k U, represented by the z of the box under the HNF
        diagonal of U; `reps` holds their mu = z B adj(E) / det E as
        numerators over Q = D |det E|, reduced mod Q.  More than
        counting.MAX_SCAN of them are refused before any is listed.
        """
        basis, pivots, D, adj = self.basis, self.pivots, self.D, self.adj
        k = len(pivots)
        free = [f for f in range(self.cell.ambient_dim) if f not in pivots]
        L = lcm(*(r[p] for r, p in zip(basis, pivots)))
        m = len(free)
        rows = [
            [D * r[f] * (L // r[p]) for f in free] + [int(i == j) for j in range(k)]
            for i, (r, p) in enumerate(zip(basis, pivots))
        ]
        rows += [[D * L * (f == g) for g in range(m)] + [0] * k for f in range(m)]
        H = hermite(rows)
        solver = [h for h in H if any(h[:m])]
        B = [h[m:] for h in H if not any(h[:m])]
        # U: the edges in the basis B, upper triangular with pivots on the diagonal
        U = []
        for e in self.edges:
            e, z = list(e), []
            for i, b in enumerate(B):
                z.append(e[i] // b[i])
                e = [x - z[-1] * y for x, y in zip(e, b)]
            U.append(z)
        diagonal = [h[i] for i, h in enumerate(hermite(U))]
        _refuse_scan(prod(diagonal), "parallelepiped points")
        Q, s = D * abs(self.det), 1 if self.det > 0 else -1
        BA = [[s * D * sum(x * y for x, y in zip(b, col)) for col in zip(*adj)] for b in B]
        reps = [
            [sum(x * row[i] for x, row in zip(z, BA)) % Q for i in range(k)]
            for z in itertools.product(*(range(h) for h in diagonal))
        ]
        return free, L, solver, reps


class _CellCounts:
    """Half-open lattice counts of a cell n1 S1 + ... + nr Sr for every
    n >= 0, in closed form (Koeppe & Verdoolaege, Electron. J. Combin. 15,
    2008; Beck & Robins, Computing the Continuous Discretely, ch. 3).

    The lattice points of the rescaled cell are o(n) + mu E with mu = rho +
    m: rho runs over the representatives in [0, 1)^k of G shifted by a
    lattice point of the affine hull, and m over the integer points of the
    product of the simplices {m_j >= l_j, sum m_j <= N_j}, the strict rows
    made integral: l_j,v is 1 where (j, v) is removed and rho_j,v = 0, and
    N_j is the floor of nj / Dj - sum rho_j, or one less than its ceiling
    when (j, 0) is removed.  So the count is the sum over rho of the
    product over j of binom(N_j - sum l_j + kj, kj).  The shift depends on
    n only through c = n mod D, since o(n) - o(c) is integral, and N_j =
    (D / Dj) (nj // D) + e_j with e_j read at c: one table per class c
    maps the tuples (e_j) to their multiplicities.  A summand with nj = 0
    leaves m_j = 0 alone, and a strict row on it makes its factor 0.
    """

    def __init__(self, P: _SimplexProduct, removed: frozenset[int]):
        self.product = P
        self.removed = frozenset(P.labels[i] for i in removed)
        self._tables: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def count(self, n: Sequence[int]) -> int:
        """The count at a checked dilation vector n."""
        P = self.product
        c = tuple(x % P.D for x in n)
        table = self._tables.get(c)
        if table is None:
            table = self._tables[c] = self._table(c)
        total = 0
        for key, term in table.items():
            for (j, k, _, Dj), e in zip(P.blocks, key):
                t = P.D // Dj * (n[j] // P.D) + e
                if t < 0:
                    break
                term *= comb(t + k, k)
            else:
                total += term
        return total

    def _table(self, c: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """The tuples (e_j) over the representatives at the class c, with
        their multiplicities; empty when aff(c1 S1 + ... + cr Sr) holds no
        lattice point."""
        P, removed = self.product, self.removed
        free, L, solver, reps = P.group
        o = [sum(map(mul, c, col)) for col in zip(*P.origins)]
        rhs = [sum(o[p] * r[f] * (L // r[p]) for r, p in zip(P.basis, P.pivots)) - L * o[f] for f in free]
        y = [0] * len(P.pivots)
        for h in solver:
            i = next(i for i, x in enumerate(h) if x)
            q, rest = divmod(rhs[i], h[i])
            if rest:
                return {}
            rhs = [x - q * z for x, z in zip(rhs, h)]
            y = [x + q * z for x, z in zip(y, h[len(free) :])]
        Q, s = P.D * abs(P.det), 1 if P.det > 0 else -1
        start = [P.D * x - o[p] for x, p in zip(y, P.pivots)]
        shift = [s * sum(map(mul, start, col)) for col in zip(*P.adj)]
        table: dict[tuple[int, ...], int] = {}
        for rep in reps:
            rho = [(x + t) % Q for x, t in zip(rep, shift)]
            key = []
            for j, k, at, Dj in P.blocks:
                part = rho[at : at + k]
                num = c[j] * (Q // Dj) - sum(part)
                e = -(-num // Q) - 1 if (j, 0) in removed else num // Q
                key.append(e - sum(1 for v, x in enumerate(part, 1) if not x and (j, v) in removed))
            key = tuple(key)
            table[key] = table.get(key, 0) + 1
        return table


class MixedCell(_Frozen):
    """A dissection cell remembered as an exact Minkowski sum of simplices.

    `cell` is the sum of `summands`; `removed` indexes into cell.facets
    and records the half-open state.  The summands are simplices whose
    dimensions add up to the cell's, so the cell is an affine image of
    their product: each facet is a pair (j, v), the side of summand j
    opposite its vertex v (_SimplexProduct), and the cell counts rescaled
    summand-wise in closed form (_CellCounts).  The package builds cells
    with _simplex_cell, which hulls nothing and passes the `product` in; a
    cell constructed without one works it out of its summands when first
    counted, and checks it against `cell`.  The product is neither
    compared, hashed nor shown.
    """

    _fields = ("summands", "cell", "removed")

    def __init__(
        self,
        summands: tuple[Polytope, ...],
        cell: Polytope,
        removed: frozenset[int] = frozenset(),
        product: _SimplexProduct | None = None,
    ):
        d = self.__dict__
        d["summands"], d["cell"], d["removed"], d["product"] = summands, cell, removed, product

    @property
    def cylinder_rank(self) -> int:
        """How many summands have positive dimension."""
        return sum(1 for R in self.summands if R.dim > 0)

    @cached_property
    def _product(self) -> _SimplexProduct:
        if self.product is not None:
            return self.product
        P = _SimplexProduct(self.summands)
        if P.cell.vertices != self.cell.vertices:
            raise InexactSum("cell is not the sum of its summands")
        return P

    @cached_property
    def _rescaling(self) -> _CellCounts:
        return _CellCounts(self._product, self.removed)

    def half_open(self) -> HalfOpenPolytope:
        return HalfOpenPolytope(self.cell, self.removed)

    def count(self) -> int:
        return self._rescaling.count((1,) * len(self.summands))

    def with_removed(self, removed: frozenset[int]) -> "MixedCell":
        return MixedCell(self.summands, self.cell, removed, self.product)

    def summand_half_open(self, j: int) -> HalfOpenPolytope:
        """Summand j carrying the removed facets labelled (j, v): each is the
        facet of Sj that misses its vertex v."""
        S = self.summands[j]
        every = frozenset(range(len(S.vertices)))
        labels = [self._product.labels[i] for i in self.removed]
        return HalfOpenPolytope(S, frozenset(S.facet_by_tight_set[every - {v}] for i, v in labels if i == j))


def _simplex_cell(summands: Sequence[Polytope]) -> MixedCell:
    """The closed cell S1 + ... + Sr of simplices, with no hull; InexactSum
    when the summands are not simplices whose dimensions add up."""
    P = _SimplexProduct(summands)
    return MixedCell(tuple(summands), P.cell, product=P)


class Dissection(_Frozen):
    """Interior-disjoint cells covering a target polytope.

    `opener`, when set, is the generic point whose visibility fixed each
    cell's removed facets.  `factors`, when set, records the polytopes
    whose Minkowski sum is dissected; every cell then carries one
    summand per factor, contained in it, and can be rescaled.
    """

    _fields = ("target", "cells", "opener", "factors")

    def __init__(
        self,
        target: Polytope,
        cells: tuple[MixedCell, ...],
        opener: tuple[Fraction, ...] | None = None,
        factors: tuple[Polytope, ...] | None = None,
    ):
        self._set(target, cells, opener, factors)

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
    built: each cell counts in closed form (_CellCounts).
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
            verts = sorted(
                vec(1 if s <= i < e and i >= e - t else 0 for i in range(d))
                for t in range(e - s + 1)
            )
            summands.append(Polytope(d, tuple(verts), "Z"))
        summands[0] = translate(summands[0], base)
        cells.append(_simplex_cell(summands))
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
    total = _SimplexProduct((S1, S2)).cell
    p, q = S1.dim, S2.dim
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
        cells.append(_simplex_cell((simplex,)))
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
        pieces.append(_simplex_cell(summands))
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
        cells.append(_simplex_cell((simplex,)))
    return Dissection(P, tuple(cells))


# -- fine mixed dissections ------------------------------------------------------------


def _pull_back(
    point_cell: Sequence[tuple], d: int, r: int
) -> MixedCell:
    """Cayley-trick pull-back: group a simplex's vertices by height
    label; the base parts of each group span a simplex, and the cell is
    their sum."""
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
    return _simplex_cell(summands)


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


class DifferenceCertificate(_Frozen):
    """A fine mixed dissection of the outer sum whose leading cells
    dissect the inner sum; the rest tile the difference half-openly."""

    _fields = ("inner_factors", "outer_factors", "dissection", "inner_cells", "difference_cells")

    def __init__(
        self,
        inner_factors: tuple[Polytope, ...],
        outer_factors: tuple[Polytope, ...],
        dissection: Dissection,
        inner_cells: tuple[int, ...],
        difference_cells: tuple[int, ...],
    ):
        self._set(inner_factors, outer_factors, dissection, inner_cells, difference_cells)

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
