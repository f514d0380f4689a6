"""Exact linear algebra over the rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedval.linalg import (
    ONE,
    SMALL,
    ZERO,
    det,
    dot,
    feasible_nonneg,
    frac,
    integerize,
    is_convex_combination,
    is_zero,
    nullspace,
    primitive,
    primitive_signless,
    rank,
    rational,
    rref,
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


def test_rref_is_canonical():
    # Two generating sets of the same plane reduce to the same basis.
    basis1, _ = rref([vec([1, 1, 0]), vec([0, 0, 1])])
    basis2, _ = rref([vec([2, 2, 2]), vec([0, 0, 5]), vec([1, 1, 3])])
    assert basis1 == basis2


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


def test_nullspace_dimension():
    kernel = nullspace([vec([1, 1, 1])])
    assert len(kernel) == 2
    for v in kernel:
        assert dot(vec([1, 1, 1]), v) == 0


def test_det_small_cases():
    assert det([vec([1, 2]), vec([3, 4])]) == F(-2)
    assert det([vec([2, 0, 0]), vec([0, 3, 0]), vec([0, 0, 4])]) == F(24)
    assert det([vec([1, 2]), vec([2, 4])]) == 0


def test_primitive_preserves_direction():
    assert primitive(vec([4, -6])) == (2, -3)
    assert primitive(vec([F(1, 2), F(1, 3)])) == (3, 2)
    assert primitive_signless(vec([-2, 4])) == (1, -2)
    assert primitive_signless(vec([2, -4])) == (1, -2)


def test_integerize_clears_denominators():
    normal, offset = integerize(vec([F(1, 2), F(1, 3)]), F(5, 6))
    assert normal == (3, 2)
    assert offset == F(5)


def test_feasible_nonneg():
    # x + y = 1 has a nonnegative solution; x + y = -1 does not.
    good = feasible_nonneg([vec([1, 1])], vec([1]))
    assert good is not None
    assert all(c >= 0 for c in good)
    assert dot(vec([1, 1]), good) == 1
    assert feasible_nonneg([vec([1, 1])], vec([-1])) is None


def test_is_convex_combination():
    triangle = [vec([0, 0]), vec([2, 0]), vec([0, 2])]
    assert is_convex_combination(vec([F(1, 2), F(1, 2)]), triangle)
    assert not is_convex_combination(vec([2, 2]), triangle)


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
        got = rref(rows)
        assert got == (basis, pivots), rows
        assert all(_shared(x) for r in got[0] for x in r), rows
        # the span key is each reduced row as a primitive int row with a positive pivot
        assert span_key(rows) == tuple(primitive(r) for r in basis), rows
        kernel = nullspace(rows, ncols=n)
        assert kernel == ref.nullspace(rows, n), rows
        assert all(_shared(x) for v in kernel for x in v), rows
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


@pytest.mark.parametrize("routine", [rank, rref, span_key, lambda rows: nullspace(rows, 3)])
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
