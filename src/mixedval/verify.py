"""Seeded property suites behind the `verify` command.

Each suite draws random instances and checks one exact identity or
containment the library promises.  Instance sizes grow with the trial
index, so the first counterexample a failing suite reports tends to be
a small one.  All arithmetic is exact; a suite never passes because a
discrepancy was below some tolerance.

Suites are registered with a relative cost so that a trial budget of N
runs roughly the same wall-clock time regardless of which suites are
selected: a suite of cost c runs N // c instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Sequence

from .counting import (
    count_half_open,
    count_lattice_points,
    euler_relint_value,
    half_open_points,
    relint_points,
)
from .dissections import (
    MixedCell,
    _simplex_cell,
    boxcell_census,
    boxcell_dissection,
    certify_dissection,
    fine_mixed_dissection,
    generic_opener,
    half_open_by_direction,
    half_open_by_point,
    open_dissection,
    placing_triangulation,
    staircase_dissection,
    staircase_refine,
)
from .geometry import (
    NotGeneric,
    Polytope,
    _Frozen,
    contains,
    convex_hull,
    cut_halfspace,
    dilate,
    exact_volume,
    face_lattice,
    hyperplane_section,
    minkowski_sum,
    minkowski_sum_all,
    origin_polytope,
    translate,
)
from .jsonio import dissection_from_json, dissection_to_json
from .linalg import ONE, ZERO, frac, solve, vec, vsub
from .positivity import (
    cylinder_lower_bound,
    decide_positive,
    direction_matroid,
    matroid_intersection,
    owner_matroid,
)
from .samplers import (
    random_lattice_box,
    random_lattice_polytope,
    random_lattice_simplex,
    random_nested_pair,
    random_rational_polytope,
)
from .valuations import (
    builtin_valuations,
    check_valuation,
    cm,
    h_star_vector,
    mixed_polynomial,
    shift_valuation,
    weak_hstar_monotone_check,
)

__all__ = ["SuiteResult", "SUITES", "available_suites", "run_suite", "run_suites"]


class SuiteResult(_Frozen):
    """Outcome of one property suite."""

    __slots__ = _fields = ("name", "passed", "checked", "counterexample", "error")

    def __init__(
        self,
        name: str,
        passed: bool,
        checked: int,
        counterexample: str | None = None,
        error: str | None = None,
    ):
        self._set(name, passed, checked, counterexample, error)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        msg = f"{status}  {self.name}  ({self.checked} checked)"
        if self.counterexample:
            msg += f"\n      counterexample: {self.counterexample}"
        if self.error:
            msg += f"\n      error: {self.error}"
        return msg


SuiteBody = Callable[[random.Random, Sequence[int], int], tuple[int, str | None]]

SUITES: dict[str, tuple[SuiteBody, int]] = {}


def _suite(name: str, cost: int = 1):
    def register(body: SuiteBody) -> SuiteBody:
        SUITES[name] = (body, cost)
        return body

    return register


def available_suites() -> list[str]:
    return list(SUITES)


def run_suite(
    name: str,
    *,
    dims: Sequence[int] = (1, 2, 3),
    trials: int = 200,
    seed: int = 42,
) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    body, cost = SUITES[name]
    rng = random.Random(f"{seed}:{name}")
    budget = max(1, trials // cost)
    try:
        checked, cex = body(rng, tuple(dims), budget)
    except Exception as exc:  # a crashing suite is a failing suite
        return SuiteResult(name, False, 0, error=f"{type(exc).__name__}: {exc}")
    return SuiteResult(name, cex is None, checked, counterexample=cex)


def run_suites(
    *,
    dims: Sequence[int] = (1, 2, 3),
    trials: int = 200,
    seed: int = 42,
) -> list[SuiteResult]:
    return [run_suite(n, dims=dims, trials=trials, seed=seed) for n in SUITES]


# -- generators ----------------------------------------------------------------


def _bound(t: int, budget: int) -> int:
    """Coordinate bound growing 1 -> 3 over the trial budget."""
    return 1 + (2 * t) // max(1, budget)


def _dim(rng: random.Random, dims: Sequence[int]) -> int:
    return rng.choice(list(dims))


def _poly(rng, d, t, budget, *, max_vertices=5) -> Polytope:
    return random_lattice_polytope(
        rng, d, max_vertices=max_vertices, bound=_bound(t, budget)
    )


def _fmt(polys: Sequence[Polytope]) -> str:
    def point(p):
        return "(" + ",".join(str(c) for c in p) + ")"

    return "; ".join("[" + " ".join(point(v) for v in P.vertices) + "]" for P in polys)


def _exact_simplex_tuple(
    rng: random.Random, d: int, r: int
) -> list[Polytope] | None:
    """r simplices whose direction spans meet only in 0, or None."""
    dims = []
    left = d
    for others in range(r - 1, -1, -1):
        k = rng.randint(1, max(1, left - others))
        k = min(k, left)
        dims.append(k)
        left -= k
    for _ in range(24):
        simplices = [random_lattice_simplex(rng, d, dim=k, bound=2) for k in dims]
        total = minkowski_sum_all(simplices)
        if total.dim == sum(dims):
            return simplices
    return None


def _opened_cell(
    rng: random.Random, simplices: list[Polytope]
) -> tuple[MixedCell, tuple[Fraction, ...]]:
    mc = _simplex_cell(simplices)
    q = generic_opener(mc.cell, [mc], seed=rng.randrange(1 << 16))
    return mc.with_removed(half_open_by_point(mc.cell, q).removed), q


# -- exact geometry suites -----------------------------------------------------


@_suite("hull-idempotent")
def _hull_idempotent(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        P = (
            _poly(rng, d, t, budget)
            if rng.random() < 0.5
            else random_rational_polytope(rng, d, max_vertices=5, bound=2)
        )
        Q = convex_hull(P.vertices, lattice=P.lattice)
        if Q.vertices != P.vertices:
            return t, _fmt([P])
    return budget, None


# LP membership, independent of the facets: the oracle of the next suite
def feasible_nonneg(
    rows: Sequence[Sequence], rhs: Sequence
) -> list[Fraction] | None:
    """Exact LP feasibility: some z >= 0 with (rows) z = rhs, or None.

    Phase-one simplex with Bland's rule; small systems only.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [[frac(v) for v in row] for row in rows]
    b = [frac(v) for v in rhs]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    # tableau with one artificial per row
    T = [A[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    ncols = n + m
    # objective: minimize the sum of artificials
    z = [ZERO] * (ncols + 1)
    for i in range(m):
        z = [zi + ti for zi, ti in zip(z, T[i])]
    while True:
        col = next((j for j in range(n) if z[j] > 0), None)
        if col is None:
            break
        best = None
        for i in range(m):
            if T[i][col] > 0:
                ratio = T[i][ncols] / T[i][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break
        _, row = best
        piv = T[row][col]
        T[row] = [v / piv for v in T[row]]
        for i in range(m):
            if i != row and T[i][col] != 0:
                f = T[i][col]
                T[i] = [v - f * w for v, w in zip(T[i], T[row])]
        f = z[col]
        z = [v - f * w for v, w in zip(z, T[row])]
        basis[row] = col
    if z[ncols] != 0:
        return None
    out = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            out[bi] = T[i][ncols]
    return out


def is_convex_combination(x: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> bool:
    """Is x a convex combination of `points`?  Exact."""
    if not points:
        return False
    d = len(x)
    n = len(points)
    # rows: sum_i l_i * p_i = x, sum_i l_i = 1; variables l_i >= 0
    rows = [[frac(points[j][i]) for j in range(n)] for i in range(d)]
    rows.append([ONE] * n)
    rhs = [frac(xi) for xi in x] + [ONE]
    return feasible_nonneg(rows, rhs) is not None


@_suite("hull-membership-consistent")
def _hull_membership(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        P = _poly(rng, d, t, budget)
        x = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)
        )
        by_facets = P.contains_point(x)
        by_hull = is_convex_combination(vec(x), [vec(v) for v in P.vertices])
        if by_facets != by_hull:
            return t, f"{_fmt([P])} point ({','.join(map(str, x))})"
    return budget, None


@_suite("sum-algebra", cost=2)
def _sum_algebra(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        A, B, C = (_poly(rng, d, t, budget, max_vertices=4) for _ in range(3))
        if minkowski_sum(A, B).vertices != minkowski_sum(B, A).vertices:
            return t, _fmt([A, B])
        left = minkowski_sum(minkowski_sum(A, B), C)
        right = minkowski_sum(A, minkowski_sum(B, C))
        if left.vertices != right.vertices:
            return t, _fmt([A, B, C])
        if minkowski_sum(A, origin_polytope(d)).vertices != A.vertices:
            return t, _fmt([A])
    return budget, None


@_suite("dilation-additive")
def _dilation_additive(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        P = _poly(rng, d, t, budget)
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        lhs = dilate(P, m + n)
        rhs = minkowski_sum(dilate(P, m), dilate(P, n))
        if lhs.vertices != rhs.vertices:
            return t, f"{_fmt([P])} m={m} n={n}"
    return budget, None


@_suite("euler-relation")
def _euler_relation(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        P = _poly(rng, d, t, budget)
        total = sum((-1) ** F.dim for F in face_lattice(P))
        if total != 1:
            return t, f"{_fmt([P])} alternating face sum {total}"
    return budget, None


def _translation_invariant(measure: Callable[[Polytope], object]) -> SuiteBody:
    """The suite that measure(P + t) == measure(P) for integer shifts t."""

    def body(rng, dims, budget):
        for t in range(budget):
            d = _dim(rng, dims)
            P = _poly(rng, d, t, budget)
            shift = [rng.randint(-5, 5) for _ in range(d)]
            if measure(translate(P, shift)) != measure(P):
                return t, f"{_fmt([P])} shift {shift}"
        return budget, None

    return body


_suite("volume-translation-invariant")(_translation_invariant(exact_volume))


# -- lattice enumeration suites --------------------------------------------------


@_suite("relint-alternating-sum", cost=2)
def _relint_alternating(rng, dims, budget):
    dvol = builtin_valuations()["dvol"]
    for t in range(budget):
        d = _dim(rng, dims)
        P = _poly(rng, d, t, budget, max_vertices=4)
        direct = len(relint_points(P))
        via_faces = euler_relint_value(dvol, P)
        if via_faces != direct:
            return t, f"{_fmt([P])} faces {via_faces} direct {direct}"
    return budget, None


@_suite("half-open-additive", cost=3)
def _half_open_additive(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        P = _poly(rng, d, t, budget, max_vertices=5)
        D = open_dissection(placing_triangulation(P), seed=rng.randrange(1 << 16))
        assert D.opener is not None
        whole = count_half_open(half_open_by_point(P, D.opener))
        parts = sum(cell.count() for cell in D.cells)
        if parts != whole:
            return t, f"{_fmt([P])} parts {parts} whole {whole}"
    return budget, None


@_suite("count-monotone")
def _count_monotone(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        P, Q = random_nested_pair(rng, d, bound=_bound(t, budget) + 1)
        if count_lattice_points(P) > count_lattice_points(Q):
            return t, _fmt([P, Q])
    return budget, None


_suite("count-translation-invariant")(_translation_invariant(count_lattice_points))


# -- valuation suites ------------------------------------------------------------


@_suite("mixed-symmetric", cost=2)
def _mixed_symmetric(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        r = rng.randint(1, min(3, d + 1))
        polys = [_poly(rng, d, t, budget, max_vertices=4) for _ in range(r)]
        perm = list(range(r))
        rng.shuffle(perm)
        for name, phi in builtin_valuations().items():
            a = cm(phi, polys)
            b = cm(phi, [polys[i] for i in perm])
            if a != b:
                return t, f"{name} {_fmt(polys)} perm {perm}: {a} vs {b}"
    return budget, None


@_suite("mixed-additive-in-argument", cost=3)
def _mixed_additive(rng, dims, budget):
    for t in range(budget):
        d = max(2, _dim(rng, dims))
        box = random_lattice_box(rng, d, bound=3)
        extents = [(int(min(c)), int(max(c))) for c in zip(*box.vertices)]
        axis, (lo, hi) = max(enumerate(extents), key=lambda t: t[1][1] - t[1][0])
        if hi - lo < 2:
            continue
        c = rng.randint(lo + 1, hi - 1)
        normal = tuple(1 if i == axis else 0 for i in range(d))
        left = cut_halfspace(box, normal, Fraction(c))
        right = cut_halfspace(box, tuple(-a for a in normal), Fraction(-c))
        middle = hyperplane_section(box, normal, Fraction(c))
        rest = [_poly(rng, d, t, budget, max_vertices=4)]
        for name, phi in builtin_valuations().items():
            whole = cm(phi, [box] + rest)
            split = (
                cm(phi, [left] + rest)
                + cm(phi, [right] + rest)
                - cm(phi, [middle] + rest)
            )
            if whole != split:
                return t, f"{name} box {_fmt([box])} cut x{axis}={c}: {whole} vs {split}"
    return budget, None


@_suite("vanishing-above-dimension", cost=2)
def _vanishing(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        r = d + rng.choice([1, 2])
        polys = [_poly(rng, d, t, budget, max_vertices=3) for _ in range(r)]
        for name, phi in builtin_valuations().items():
            val = cm(phi, polys)
            if val != 0:
                return t, f"{name} r={r} d={d} {_fmt(polys)}: {val}"
    return budget, None


def _mixed_monotone(valuation: str) -> SuiteBody:
    """The suite that 0 <= CM(small) <= CM(big) for the named builtin
    valuation on componentwise nested lattice families."""

    def body(rng, dims, budget):
        phi = builtin_valuations()[valuation]
        for t in range(budget):
            d = _dim(rng, dims)
            r = rng.randint(1, d)
            small, big = [], []
            for _ in range(r):
                P, Q = random_nested_pair(rng, d, bound=2)
                small.append(P)
                big.append(Q)
            lo, hi = cm(phi, small), cm(phi, big)
            if not 0 <= lo <= hi:
                return t, f"{_fmt(small)} vs {_fmt(big)}: {lo}, {hi}"
        return budget, None

    return body


_suite("nested-monotone-nonnegative", cost=2)(_mixed_monotone("dvol"))


@_suite("bernstein-identity", cost=3)
def _bernstein(rng, dims, budget):
    names = builtin_valuations()
    dvol, vol = names["dvol"], names["vol"]
    for t in range(budget):
        d = rng.choice([x for x in dims if x >= 2] or [2])
        polys = [_poly(rng, d, t, budget, max_vertices=4) for _ in range(d)]
        a, b = cm(dvol, polys), cm(vol, polys)
        if a != b:
            return t, f"{_fmt(polys)}: dvol {a} vol {b}"
    return budget, None


@_suite("difference-degree-bound", cost=2)
def _degree_bound(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        P = _poly(rng, d, t, budget, max_vertices=4)
        D = P.dim
        for name, phi in builtin_valuations().items():
            values = [phi(dilate(P, n)) for n in range(D + 2)]
            delta = sum(
                (-1) ** (D + 1 - j) * comb(D + 1, j) * values[j] for j in range(D + 2)
            )
            if delta != 0:
                return t, f"{name} {_fmt([P])}: top difference {delta}"
    return budget, None


@_suite("planar-proportionality", cost=2)
def _planar_proportionality(rng, dims, budget):
    names = builtin_valuations()
    dvol, vol = names["dvol"], names["vol"]
    for t in range(budget):
        polys = [_poly(rng, 2, t, budget, max_vertices=5) for _ in range(2)]
        a, b = cm(dvol, polys), cm(vol, polys)
        if a != b:
            return t, f"{_fmt(polys)}: dvol {a} vol {b}"
    return budget, None


_suite("volume-mixed-monotone", cost=2)(_mixed_monotone("vol"))


@_suite("binomial-reconstruction", cost=4)
def _binomial_reconstruction(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        r = rng.randint(1, 2)
        polys = [_poly(rng, d, t, budget, max_vertices=4) for _ in range(r)]
        for name, phi in builtin_valuations().items():
            # construction re-evaluates the grid and one point beyond it
            mixed_polynomial(phi, polys)
    return budget, None


@_suite("shift-identity", cost=3)
def _shift_identity(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        r = rng.randint(1, 2)
        polys = [_poly(rng, d, t, budget, max_vertices=4) for _ in range(r)]
        Q = _poly(rng, d, t, budget, max_vertices=4)
        for name, phi in builtin_valuations().items():
            shifted = cm(shift_valuation(phi, Q), polys)
            direct = cm(phi, polys + [Q]) + cm(phi, polys)
            if shifted != direct:
                return t, f"{name} {_fmt(polys)} shift {_fmt([Q])}: {shifted} vs {direct}"
    return budget, None


@_suite("hstar-consistency", cost=2)
def _hstar_consistency(rng, dims, budget):
    names = builtin_valuations()
    for t in range(budget):
        d = _dim(rng, dims)
        P = _poly(rng, d, t, budget, max_vertices=4)
        for name in ("dvol", "euler"):
            phi = names[name]
            h = h_star_vector(phi, P)
            for n in range(P.dim + 3):
                if h.evaluate(n) != phi(dilate(P, n)):
                    return t, f"{name} {_fmt([P])} at n={n}"
    return budget, None


@_suite("weak-monotone-count", cost=4)
def _weak_monotone_count(rng, dims, budget):
    dvol = builtin_valuations()["dvol"]
    checked = 0
    for t in range(max(1, budget // 5)):
        d = rng.choice([x for x in dims if x <= 2] or [2])
        report = weak_hstar_monotone_check(
            dvol, trials=10, ambient_dim=d, seed=rng.randrange(1 << 16)
        )
        checked += report.checked
        if not report.ok:
            v = report.violations[0]
            return checked, f"simplex {v.simplex_vertices} value {v.value}"
    return checked, None


@_suite("valuation-conformance", cost=4)
def _valuation_conformance(rng, dims, budget):
    checked = 0
    for t in range(max(1, budget // 10)):
        d = rng.choice([x for x in dims if x >= 2] or [2])
        for name, phi in builtin_valuations().items():
            report = check_valuation(
                phi, ambient_dim=d, trials=5, seed=rng.randrange(1 << 16)
            )
            checked += report.translation_checks + report.additivity_checks
            if not report.ok:
                return checked, f"{name}: {report.failures[0]}"
    return checked, None


# -- dissection suites -----------------------------------------------------------


@_suite("half-open-partition", cost=4)
def _half_open_partition(rng, dims, budget):
    for t in range(budget):
        d = rng.choice([x for x in dims if x >= 2] or [2])
        r = rng.randint(1, 2)
        polys = [_poly(rng, d, t, budget, max_vertices=4) for _ in range(r)]
        D = fine_mixed_dissection(polys, opener_seed=rng.randrange(1 << 16))
        assert D.opener is not None
        whole = sorted(half_open_points(half_open_by_point(D.target, D.opener)))
        pieces: list[tuple] = []
        for cell in D.cells:
            pieces.extend(half_open_points(cell.half_open()))
        if sorted(pieces) != whole:
            return t, f"{_fmt(polys)}: cells do not partition the target"
    return budget, None


@_suite("cylinder-factorization", cost=3)
def _cylinder_factorization(rng, dims, budget):
    # Two routes to the summand half-open states must agree: attributing
    # each removed facet of the cell to the summand that owns it, and
    # splitting the opener through the product structure of the exact
    # sum, then opening every summand from its own component.
    checked = 0
    for t in range(budget):
        d = rng.choice([x for x in dims if x >= 2] or [2])
        r = rng.randint(1, min(3, d))
        simplices = _exact_simplex_tuple(rng, d, r)
        if simplices is None:
            continue
        mc, q = _opened_cell(rng, simplices)
        basis, owners_of_col = [], []
        for j, S in enumerate(simplices):
            for v in S.vertices[1:]:
                basis.append(vsub(v, S.vertices[0]))
                owners_of_col.append(j)
        rel = vsub(vec(q), vec([sum(S.vertices[0][i] for S in simplices) for i in range(d)]))
        coeffs = solve([[w[i] for w in basis] for i in range(d)], rel)
        if coeffs is None:
            return checked, f"{_fmt(simplices)}: opener outside the sum's affine hull"
        checked += 1
        for j, S in enumerate(simplices):
            qj = list(S.vertices[0])
            for c, w, owner in zip(coeffs, basis, owners_of_col):
                if owner == j:
                    for i in range(d):
                        qj[i] += c * w[i]
            direct = half_open_by_point(S, qj).removed
            attributed = mc.summand_half_open(j).removed
            if direct != attributed:
                return checked, f"{_fmt(simplices)}: summand {j} states disagree"
    return checked, None


@_suite("boxcell-census", cost=3)
def _boxcell_census(rng, dims, budget):
    # Opening every cell along one fixed direction makes cells with the
    # same block pattern exact translates with equal counts, which is
    # what turns the rank-k totals into binom(n, k) times a constant.
    checked = 0
    for t in range(budget):
        d = rng.choice([x for x in dims if x <= 3])
        n, n2 = rng.sample([1, 2, 3, 4], 2)
        u = tuple(3**i for i in range(d))
        ranked: dict[int, dict[int, int]] = {}
        for nn in (n, n2):
            D = boxcell_dissection(d, nn, seed=rng.randrange(1 << 16))
            census = boxcell_census(D)
            for k, cnt in census.items():
                if cnt != comb(nn, k) * comb(d - 1, k - 1):
                    return checked, f"d={d} n={nn} rank {k}: {cnt} cells"
            totals: dict[int, int] = {}
            whole = 0
            for cell in D.cells:
                opened = cell.with_removed(
                    half_open_by_direction(cell.cell, u).removed
                )
                totals[cell.cylinder_rank] = (
                    totals.get(cell.cylinder_rank, 0) + opened.count()
                )
                whole += opened.count()
            target_count = count_half_open(half_open_by_direction(D.target, u))
            if whole != target_count:
                return checked, f"d={d} n={nn}: cells {whole} target {target_count}"
            ranked[nn] = totals
        for k in set(ranked[n]) | set(ranked[n2]):
            zs = []
            for nn in (n, n2):
                if k <= nn:
                    total = ranked[nn].get(k, 0)
                    if total % comb(nn, k):
                        return checked, f"d={d} n={nn} rank {k} total {total}"
                    zs.append(total // comb(nn, k))
            if len(zs) == 2 and zs[0] != zs[1]:
                return checked, f"d={d} rank {k}: z={zs[0]} vs z={zs[1]}"
        checked += 1
    return checked, None


@_suite("staircase-volume", cost=2)
def _staircase_volume(rng, dims, budget):
    checked = 0
    for t in range(budget):
        d = rng.choice([x for x in dims if x >= 2] or [2])
        pair = _exact_simplex_tuple(rng, d, 2)
        if pair is None:
            continue
        S1, S2 = pair
        D = staircase_dissection(S1, S2)
        total = minkowski_sum(S1, S2)
        if sum(exact_volume(c.cell) for c in D.cells) != exact_volume(total):
            return checked, _fmt(pair)
        if any(c.cell.dim != total.dim or not contains(total, c.cell) for c in D.cells):
            return checked, _fmt(pair)
        checked += 1
    return checked, None


@_suite("placing-covers", cost=2)
def _placing_covers(rng, dims, budget):
    for t in range(budget):
        d = _dim(rng, dims)
        P = _poly(rng, d, t, budget, max_vertices=6)
        D = placing_triangulation(P)
        if sum(exact_volume(c.cell) for c in D.cells) != exact_volume(P):
            return t, _fmt([P])
        allowed = set(P.vertices)
        for c in D.cells:
            if len(c.cell.vertices) != c.cell.dim + 1:
                return t, f"{_fmt([P])}: non-simplex cell"
            if not set(c.cell.vertices) <= allowed:
                return t, f"{_fmt([P])}: cell invents vertices"
    return budget, None


@_suite("staircase-chain", cost=3)
def _staircase_chain(rng, dims, budget):
    checked = 0
    for t in range(budget):
        d = rng.choice([x for x in dims if x >= 2] or [2])
        r = rng.randint(2, min(3, d))
        simplices = _exact_simplex_tuple(rng, d, r)
        if simplices is None or any(S.dim == 0 for S in simplices):
            continue
        # The opener must also miss the walls the refinement inserts, so
        # resample until it does.
        pieces = None
        for _ in range(24):
            mc, q = _opened_cell(rng, simplices)
            try:
                pieces = staircase_refine(mc, 0, 1, q)
            except NotGeneric:
                continue
            break
        if pieces is None:
            continue
        if any(p.cylinder_rank != r - 1 for p in pieces):
            return checked, f"{_fmt(simplices)}: rank not lowered"
        if sum(p.count() for p in pieces) != mc.count():
            return checked, f"{_fmt(simplices)}: counts disagree"
        checked += 1
    return checked, None


@_suite("dissection-roundtrip", cost=3)
def _dissection_roundtrip(rng, dims, budget):
    for t in range(budget):
        d = rng.choice([x for x in dims if x >= 2] or [2])
        r = rng.randint(1, 2)
        polys = [_poly(rng, d, t, budget, max_vertices=4) for _ in range(r)]
        D = fine_mixed_dissection(polys, opener_seed=rng.randrange(1 << 16))
        back = dissection_from_json(dissection_to_json(D))
        if back.cell_counts() != D.cell_counts():
            return t, _fmt(polys)
        if certify_dissection(back) != certify_dissection(D):
            return t, _fmt(polys)
    return budget, None


# -- positivity suites -----------------------------------------------------------


@_suite("segment-criterion-equivalence", cost=4)
def _segment_equivalence(rng, dims, budget):
    dvol = builtin_valuations()["dvol"]
    for t in range(budget):
        d = rng.choice([x for x in dims if x >= 2] or [2])
        r = rng.randint(1, d)
        polys = [_poly(rng, d, t, budget, max_vertices=4) for _ in range(r)]
        decision = decide_positive(dvol, polys)
        value = cm(dvol, polys)
        if decision != (value > 0):
            return t, f"{_fmt(polys)}: decision {decision} value {value}"
        if decision and value < 1:
            return t, f"{_fmt(polys)}: positive but below 1 ({value})"
    return budget, None


@_suite("cylinder-bound-sound", cost=4)
def _cylinder_bound(rng, dims, budget):
    dvol = builtin_valuations()["dvol"]
    for t in range(budget):
        d = rng.choice([x for x in dims if x >= 2] or [2])
        r = rng.randint(1, d)
        polys = [_poly(rng, d, t, budget, max_vertices=4) for _ in range(r)]
        bound = cylinder_lower_bound(polys)
        value = cm(dvol, polys)
        if value < bound:
            return t, f"{_fmt(polys)}: value {value} bound {bound}"
    return budget, None


@_suite("matroid-brute-agreement", cost=2)
def _matroid_brute(rng, dims, budget):
    for t in range(budget):
        n = rng.randint(0, 9)
        d = rng.randint(1, 4)
        dirs = []
        for _ in range(n):
            v = tuple(rng.randint(-2, 2) for _ in range(d))
            dirs.append(v if any(v) else (1,) + (0,) * (d - 1))
        owners = [rng.randint(0, 3) for _ in range(n)]
        m1, m2 = direction_matroid(dirs), owner_matroid(owners)
        for k in range(min(n, 4) + 1):
            got = matroid_intersection(m1, m2, k)
            brute = next(
                (
                    sub
                    for sub in combinations(range(n), k)
                    if m1.independent(sub) and m2.independent(sub)
                ),
                None,
            )
            if (got is None) != (brute is None):
                return t, f"dirs {dirs} owners {owners} k={k}"
            if got is not None and not (
                len(got) == k and m1.independent(got) and m2.independent(got)
            ):
                return t, f"dirs {dirs} owners {owners} k={k}: invalid {got}"
    return budget, None


@_suite("positivity-monotone", cost=3)
def _positivity_monotone(rng, dims, budget):
    dvol = builtin_valuations()["dvol"]
    for t in range(budget):
        d = rng.choice([x for x in dims if x >= 2] or [2])
        P, Q = random_nested_pair(rng, d, bound=2)
        partner = _poly(rng, d, t, budget, max_vertices=4)
        if decide_positive(dvol, [P, partner]) and not decide_positive(
            dvol, [Q, partner]
        ):
            return t, f"{_fmt([P, Q, partner])}"
    return budget, None
