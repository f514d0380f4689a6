"""Exact linear algebra over the rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedval.linalg import (
    SMALL,
    ZERO,
    adjugate,
    det,
    hermite,
    dot,
    frac,
    is_zero,
    primitive,
    rank,
    rational,
    reduced_echelon,
    solve,
    span_key,
    vadd,
    vec,
    vscale,
    vsub,
)

from . import fraction_linalg as ref

F = Fraction


def test_frac_accepts_ints_fractions_and_strings():
    assert frac(3) == F(3)
    assert frac(F(2, 4)) == F(1, 2)
    assert frac("7/2") == F(7, 2)


def test_vector_arithmetic():
    a, b = vec([1, 2, 3]), vec([4, 5, 6])
    assert vadd(a, b) == (F(5), F(7), F(9))
    assert vsub(b, a) == (F(3), F(3), F(3))
    assert vscale(F(1, 2), a) == (F(1, 2), F(1), F(3, 2))
    assert dot(a, b) == F(32)
    assert is_zero(vsub(a, a))


def test_rank_of_nothing_is_zero():
    assert rank([]) == 0
    assert rank([vec([0, 0])]) == 0


def test_rank_basics():
    assert rank([vec([1, 0]), vec([0, 1])]) == 2
    assert rank([vec([1, 2]), vec([2, 4])]) == 1
    assert rank([vec([1, 0, 0]), vec([1, 1, 0]), vec([0, 1, 0])]) == 2


def test_span_key_identifies_spans():
    assert span_key([vec([1, 2])]) == span_key([vec([-3, -6])])
    assert span_key([vec([1, 0])]) != span_key([vec([0, 1])])


def test_solve_exact_and_inconsistent():
    rows = [vec([2, 1]), vec([1, -1])]
    x = solve(rows, vec([5, 1]))
    assert x == (F(2), F(1))
    assert solve([vec([1, 1]), vec([2, 2])], vec([1, 3])) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    x = solve([vec([1, 1, 1])], vec([4]))
    assert x is not None
    assert dot(vec([1, 1, 1]), x) == F(4)


def test_solve_round_trip_of_basis_coefficients():
    # coefficients t with t_1 (1, 1) + t_2 (0, 2) = (3, 7): the basis as columns
    basis = [(F(1), F(1)), (F(0), F(2))]
    coeffs = solve([[b[r] for b in basis] for r in range(2)], (F(3), F(7)))
    assert coeffs == (F(3), F(2))


def test_det_small_cases():
    assert det([vec([1, 2]), vec([3, 4])]) == F(-2)
    assert det([vec([2, 0, 0]), vec([0, 3, 0]), vec([0, 0, 4])]) == F(24)
    assert det([vec([1, 2]), vec([2, 4])]) == 0


def test_primitive_preserves_direction():
    assert primitive(vec([4, -6])) == (2, -3)
    assert primitive(vec([F(1, 2), F(1, 3)])) == (3, 2)


small_vec = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(vec)


@given(st.lists(small_vec, max_size=4))
def test_rank_bounded_by_shape(rows):
    rows = [r + (F(0),) * (4 - len(r)) for r in rows]
    assert 0 <= rank(rows) <= min(len(rows), 4) if rows else rank(rows) == 0


@given(small_vec.filter(lambda v: not is_zero(v)), st.integers(1, 6))
def test_primitive_ignores_positive_scaling(v, c):
    assert primitive(vscale(F(c), v)) == primitive(v)


@given(st.lists(small_vec.filter(lambda v: len(v) == 3), min_size=1, max_size=3))
def test_solve_result_satisfies_system(rows):
    rhs = vec([sum(r) for r in rows])  # consistent by construction: x = 1
    x = solve(rows, rhs)
    assert x is not None
    for row, b in zip(rows, rhs):
        assert dot(row, x) == b


def _matrices():
    """Seeded matrices: int, rational and mixed entries; zero, duplicate
    and dependent rows; wide, tall, square and empty shapes."""
    rng = random.Random(8181)
    entry = {
        "int": lambda: rng.randint(-4, 4),
        "rational": lambda: F(rng.randint(-6, 6), rng.randint(1, 5)),
        "mixed": lambda: rng.choice([rng.randint(-3, 3), F(rng.randint(-6, 6), rng.randint(1, 4))]),
    }
    for t in range(1500):
        kind = ("int", "rational", "mixed")[t % 3]
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        rows = [[entry[kind]() for _ in range(n)] for _ in range(m)]
        if m >= 1 and rng.random() < 0.3:
            rows[rng.randrange(m)] = [0] * n
        if m >= 2 and rng.random() < 0.3:
            i, j = rng.sample(range(m), 2)
            rows[i] = [rng.choice([1, -2, F(1, 3)]) * x for x in rows[j]]
        if m >= 3 and rng.random() < 0.3:
            i, j, k = rng.sample(range(m), 3)
            a, b = rng.randint(-2, 2), F(rng.randint(-3, 3), 2)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        yield kind, rows, n, rng


def _shared(x):
    """A Fraction, and the shared one when it is a small integer."""
    return type(x) is Fraction and (x.denominator != 1 or x is SMALL.get(x.numerator, x))


def test_rational_shares_small_integers():
    assert rational(6, 3) is SMALL[2] and rational(0, 5) is ZERO and rational(-7) is SMALL[-7]
    assert rational(1, 3) == F(1, 3) and rational(-4, 6) == F(-2, 3)
    assert rational(10**9, 2) == 5 * 10**8 and type(rational(10**9)) is Fraction


def test_elimination_matches_the_fraction_reference():
    shapes = {"empty": 0, "wide": 0, "tall": 0, "square": 0}
    kinds = {}
    singular = 0
    for kind, rows, n, rng in _matrices():
        kinds[kind] = kinds.get(kind, 0) + 1
        m = len(rows)
        shapes["empty" if not m else "wide" if m < n else "tall" if m > n else "square"] += 1
        basis, pivots = ref.rref(rows)
        singular += len(pivots) < m
        assert rank(rows) == len(pivots), rows
        # the span key is each reduced row as a primitive int row with a positive pivot
        assert span_key(rows) == tuple(primitive(r) for r in basis), rows
        if not m:
            continue
        x0 = [rng.randint(-2, 2) for _ in range(n)]
        consistent = [sum(a * x for a, x in zip(r, x0)) for r in rows]
        arbitrary = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)]
        for rhs in (consistent, arbitrary):
            x = solve(rows, rhs)
            assert x == ref.solve(rows, rhs), (rows, rhs)
            assert x is None or all(_shared(t) for t in x), (rows, rhs)
    assert sum(kinds.values()) >= 1000 and min(kinds.values()) >= 300, kinds
    assert min(shapes.values()) >= 50 and singular >= 300, (shapes, singular)


def test_span_key_is_the_same_for_every_generating_set():
    rng = random.Random(99)
    for kind, rows, n, _ in _matrices():
        if len(rows) < 2:
            continue
        mixed = [vscale(F(rng.choice([-3, -1, 2, F(1, 2)])), r) for r in rows]
        rng.shuffle(mixed)
        combined = [[x + y for x, y in zip(mixed[0], mixed[1])], *mixed[1:]]
        assert span_key(combined) == span_key(rows), rows


@pytest.mark.parametrize("routine", [rank, reduced_echelon, span_key])
def test_rows_of_unequal_length_are_rejected(routine):
    with pytest.raises(ValueError, match="unequal length"):
        routine([(1, 0), (0, 1, 2)])


def test_solve_rejects_a_ragged_system():
    with pytest.raises(ValueError, match="unequal length"):
        solve([(1, 0), (0, 1, 2)], (1, 1))


def test_floats_are_rejected_on_the_integer_paths():
    with pytest.raises(TypeError):
        primitive([0.5, 1])
    with pytest.raises(TypeError):
        rank([(1, 0), (0.5, 1)])


def test_adjugate_inverts_against_the_fraction_solve():
    rng = random.Random(31)
    singular = 0
    for _ in range(400):
        n = rng.randint(0, 5)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            M[-1] = [x - 2 * y for x, y in zip(M[0], M[1])]
        value, adj = adjugate(M)
        assert value == det(M)
        if value == 0:
            singular += 1
            continue
        for j in range(n):
            # column j of adj / det solves M x = e_j
            e = [int(i == j) for i in range(n)]
            assert ref.solve(M, e) == tuple(Fraction(row[j], value) for row in adj)
    assert singular >= 40


def _in_lattice(v, basis):
    for h in basis:
        c = next(i for i, x in enumerate(h) if x)
        q, r = divmod(v[c], h[c])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, h)]
    return not any(v)


def test_hermite_is_the_echelon_basis_of_the_row_lattice():
    rng = random.Random(32)
    for _ in range(400):
        width = rng.randint(1, 5)
        rows = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(width)] for _ in range(rng.randint(0, 6))]
        H = hermite(rows)
        pivots = [next(c for c, x in enumerate(h) if x) for h in H]
        assert pivots == sorted(set(pivots))
        assert len(H) == (rank(rows) if rows else 0)
        for i, (h, c) in enumerate(zip(H, pivots)):
            assert h[c] > 0 and all(0 <= g[c] < h[c] for g in H[:i])
        # the same lattice: every row is in the span of H, and H is in the
        # lattice of the rows (adding an H row changes no HNF)
        assert all(_in_lattice(r, H) for r in rows)
        assert all(hermite(rows + [h]) == H for h in H)
