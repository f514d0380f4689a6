"""Mixed combinations, dilation polynomials, h-vectors, conformance."""

import random
from fractions import Fraction
from math import comb
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedval import (
    DimensionMismatch,
    HStarVector,
    LatticeMismatch,
    ReconstructionError,
    Valuation,
    builtin_valuations,
    check_valuation,
    cm,
    cm_terms,
    count_lattice_points,
    count_relint_points,
    dilate,
    h_star_vector,
    minkowski_sum_all,
    mixed_polynomial,
    point_polytope,
    scale,
    shift_valuation,
    translate,
    weak_hstar_monotone_check,
)
from mixedval.samplers import random_lattice_polytope

from .conftest import hull
from .fraction_linalg import solve
from .strategies import lattice_polytopes, polytope_families

F = Fraction
BUILTINS = builtin_valuations()
DVOL = BUILTINS["dvol"]
VOL = BUILTINS["vol"]
EULER = BUILTINS["euler"]
INTERIOR = BUILTINS["interior"]


def test_builtin_values_on_standard_bodies(unit_square, unit_triangle):
    seg = hull((0, 0), (2, 0))
    pt = point_polytope((1, 1))
    assert [DVOL(P) for P in (unit_square, unit_triangle, seg, pt)] == [4, 3, 3, 1]
    assert [VOL(P) for P in (unit_square, unit_triangle, seg, pt)] == [1, F(1, 2), 0, 0]
    assert [EULER(P) for P in (unit_square, unit_triangle, seg, pt)] == [1, 1, 1, 1]
    # Signed interior count: (-1)^dim times the relative-interior count.
    assert INTERIOR(dilate(unit_triangle, 3)) == 1
    assert INTERIOR(seg) == -1
    assert INTERIOR(pt) == 1


def test_lattice_valuations_reject_rational_polytopes(unit_square):
    half = scale(unit_square, F(1, 2))
    with pytest.raises(LatticeMismatch):
        DVOL(half)
    assert VOL(half) == F(1, 4)


def test_cm_of_orthogonal_segments(e1_segment, e2_segment):
    assert cm(DVOL, [e1_segment, e2_segment]) == 1
    assert cm(VOL, [e1_segment, e2_segment]) == 1


def test_cm_of_a_segment_with_itself(e1_segment):
    assert cm(DVOL, [e1_segment, e1_segment]) == 0


def test_cm_of_square_with_itself(unit_square):
    # 9 - 2*4 + 1
    assert cm(DVOL, [unit_square, unit_square]) == 2


def test_cm_single_argument_drops_the_origin_term(unit_triangle):
    assert cm(DVOL, [unit_triangle]) == 2
    assert cm(EULER, [unit_triangle]) == 0


def test_cm_vanishes_above_the_dimension(unit_square, unit_triangle, e1_segment):
    family = [unit_square, unit_triangle, e1_segment]
    for phi in BUILTINS.values():
        assert cm(phi, family) == 0


def test_cm_vanishes_on_point_arguments(unit_square):
    assert cm(DVOL, [unit_square, point_polytope((3, 1))]) == 0


def test_cm_is_translation_invariant(unit_square, unit_triangle):
    moved = translate(unit_triangle, (5, -2))
    assert cm(DVOL, [unit_square, moved]) == cm(DVOL, [unit_square, unit_triangle])


def test_cm_with_no_polytopes_needs_a_dimension():
    assert cm(DVOL, [], ambient_dim=2) == 1
    with pytest.raises(ValueError):
        cm(DVOL, [])


def test_an_ambient_dim_against_the_polytopes_is_a_dimension_mismatch(unit_square, unit_triangle):
    polys = [unit_square, unit_triangle]
    assert cm(DVOL, polys, ambient_dim=2) == cm(DVOL, polys)
    for phi in (cm, cm_terms):
        with pytest.raises(DimensionMismatch, match="ambient_dim 3"):
            phi(DVOL, polys, ambient_dim=3)


@pytest.mark.parametrize("phi", [DVOL, VOL, EULER, INTERIOR])
def test_cm_is_the_sum_of_its_terms(phi, unit_square, unit_triangle, e1_segment):
    for polys in (
        [unit_square, unit_triangle],
        [unit_triangle, e1_segment, translate(unit_square, (1, 2))],
        [e1_segment],
        [],
    ):
        r = len(polys)
        terms = cm_terms(phi, polys, ambient_dim=2)
        assert [mask for mask, _, _ in terms] == list(range(1 << r))
        for mask, sign, value in terms:
            chosen = [P for i, P in enumerate(polys) if mask >> i & 1]
            part = minkowski_sum_all(chosen) if chosen else point_polytope((0, 0))
            assert sign == (-1) ** (r - len(chosen))
            assert value == phi(part)
        assert sum(sign * value for _, sign, value in terms) == cm(phi, polys, ambient_dim=2)


def test_mixed_polynomial_of_triangle(unit_triangle):
    poly = mixed_polynomial(DVOL, [unit_triangle])
    assert poly.arity == 1
    assert [poly.coefficients[(k,)] for k in range(3)] == [1, 2, 1]
    assert poly.evaluate((10,)) == DVOL(dilate(unit_triangle, 10)) == 66


def test_mixed_polynomial_of_square(unit_square):
    poly = mixed_polynomial(DVOL, [unit_square])
    assert [poly.coefficients[(k,)] for k in range(3)] == [1, 3, 2]


def test_mixed_polynomial_cross_coefficient(unit_triangle, e1_segment):
    poly = mixed_polynomial(DVOL, [unit_triangle, e1_segment])
    # The pure mixed coefficient equals cm of the pair.
    assert poly.coefficients[(1, 1)] == cm(DVOL, [unit_triangle, e1_segment])
    assert all(sum(alpha) <= 2 for alpha in poly.coefficients)


def test_charac_recursion_on_builtins(unit_square, unit_triangle, e1_segment):
    # cm(P1, P2, R) = cm(P1 + P2, R) - cm(P1, R) - cm(P2, R)
    P1, P2, R = unit_square, unit_triangle, e1_segment
    for phi in (DVOL, VOL, EULER):
        assert cm(phi, [P1, P2, R]) == (
            cm(phi, [minkowski_sum_all([P1, P2]), R]) - cm(phi, [P1, R]) - cm(phi, [P2, R])
        )


def test_shift_identity(unit_square, unit_triangle, e1_segment):
    shifted = shift_valuation(DVOL, e1_segment)
    left = cm(shifted, [unit_square, unit_triangle])
    right = cm(DVOL, [unit_square, unit_triangle, e1_segment]) + cm(
        DVOL, [unit_square, unit_triangle]
    )
    assert left == right


def test_h_star_of_standard_bodies(unit_square, unit_triangle):
    assert h_star_vector(DVOL, unit_triangle).entries == (1, 0, 0)
    assert h_star_vector(DVOL, unit_square).entries == (1, 1, 0)
    assert h_star_vector(DVOL, hull((0, 0), (2, 0))).entries == (1, 1)
    assert h_star_vector(EULER, unit_triangle).entries == (1, -2, 1)


def test_h_star_evaluates_beyond_the_fit(unit_square):
    hs = h_star_vector(DVOL, unit_square)
    for n in (3, 4, 7):
        assert hs.evaluate(n) == DVOL(dilate(unit_square, n))


def _h_star_by_solving(phi, P):
    """Reference: solve the binomial system phi(nP), n = 0..r, by elimination."""
    r = P.dim
    vals = [phi(dilate(P, n)) for n in range(r + 2)]
    rows = [[comb(n + r - i, r) for i in range(r + 1)] for n in range(r + 1)]
    h = HStarVector(solve(rows, vals[: r + 1]))
    if h.evaluate(r + 1) != vals[r + 1]:
        raise ReconstructionError(
            f"{phi.name} on dilates of this polytope is not a degree-{r} "
            "polynomial in the binomial basis"
        )
    return h


def _h_star_polytopes():
    """Seeded lattice polytopes: full-dimensional in Q^1..Q^3, and
    lower-dimensional in Q^2..Q^4 (spanned by one or two random
    directions from a random point)."""
    rng = random.Random(4242)
    for d in (1, 2, 3, 4):
        for t in range(16):
            if d == 4 or (d > 1 and t % 2):
                o = [rng.randint(-1, 1) for _ in range(d)]
                e = rng.randint(1, min(d - 1, 2))
                gens = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(e)]
                combos = [[int(i == j) for j in range(e)] for i in range(e)]
                combos += [[rng.randint(0, 2) for _ in range(e)] for _ in range(2)]
                yield hull(o, *([x + sum(map(mul, cs, col)) for x, col in zip(o, zip(*gens))] for cs in combos))
            else:
                yield random_lattice_polytope(rng, d, bound=1, max_vertices=d + 2, full_dim=True)


def test_h_star_closed_form_matches_solving_the_system():
    polytopes = list(_h_star_polytopes())
    assert len(polytopes) >= 60
    assert any(P.dim < P.ambient_dim for P in polytopes)
    for P in polytopes:
        for phi in (DVOL, VOL, INTERIOR):
            h = h_star_vector(phi, P)
            assert h == _h_star_by_solving(phi, P), (phi.name, P.vertices)
            assert all(type(x) is Fraction for x in h.entries)


def test_h_star_rejects_a_valuation_that_is_not_polynomial(unit_triangle):
    exponential = Valuation("exponential", lambda P: 2 ** int(max(x for v in P.vertices for x in v)))
    with pytest.raises(ReconstructionError) as got:
        h_star_vector(exponential, unit_triangle)
    with pytest.raises(ReconstructionError) as expected:
        _h_star_by_solving(exponential, unit_triangle)
    assert str(got.value) == str(expected.value)


def test_weak_monotone_holds_for_dvol():
    report = weak_hstar_monotone_check(DVOL, trials=40, seed=5)
    assert report.ok
    assert report.checked > 0


def test_weak_monotone_flags_a_synthetic_violator():
    bad = Valuation("count-minus-two", lambda P: F(count_lattice_points(P) - 2), "Z")
    report = weak_hstar_monotone_check(bad, trials=40, seed=5)
    assert not report.ok
    assert report.violations


def test_conformance_of_builtins():
    for phi in BUILTINS.values():
        report = check_valuation(phi, trials=12, seed=3)
        assert report.ok, report.failures


def test_conformance_rejects_unsigned_interior_count():
    # Without the dimension sign the relint count fails additivity.
    bad = Valuation("relint-unsigned", lambda P: F(count_relint_points(P)), "Z")
    report = check_valuation(bad, trials=12, seed=3)
    assert not report.ok


@given(polytope_families(arity=2, dim=2))
def test_cm_is_symmetric(polys):
    assert cm(DVOL, polys) == cm(DVOL, list(reversed(polys)))


@given(polytope_families(arity=3, dim=2))
def test_cm_vanishes_above_dimension_property(polys):
    assert cm(DVOL, polys) == 0
    assert cm(VOL, polys) == 0


@given(polytope_families(arity=2, dim=2))
def test_lattice_and_volume_mixed_agree_at_top_arity(polys):
    assert cm(DVOL, polys) == cm(VOL, polys)


@given(lattice_polytopes(dim=2), st.integers(0, 4))
def test_dilation_polynomial_extrapolates(P, n):
    poly = mixed_polynomial(DVOL, [P])
    assert poly.evaluate((n,)) == DVOL(dilate(P, n))
