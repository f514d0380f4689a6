"""Seeded random generators used by the self-checks and experiments."""

import random
from fractions import Fraction

from mixedval import contains, convex_hull
from mixedval.samplers import (
    random_direction,
    random_lattice_box,
    random_lattice_polytope,
    random_lattice_simplex,
    random_nested_pair,
    random_rational_polytope,
    random_relint_point,
)


def test_samplers_are_deterministic():
    a = random_lattice_polytope(random.Random(7), 2)
    b = random_lattice_polytope(random.Random(7), 2)
    assert a == b


def test_lattice_polytope_contract(rng):
    for _ in range(20):
        P = random_lattice_polytope(rng, 3, bound=2)
        assert P.is_integral
        assert P.ambient_dim == 3
        assert all(abs(c) <= 2 for v in P.vertices for c in v)


def test_full_dim_request(rng):
    for _ in range(10):
        P = random_lattice_polytope(rng, 2, full_dim=True)
        assert P.dim == 2


def test_simplex_has_affinely_independent_vertices(rng):
    for _ in range(20):
        S = random_lattice_simplex(rng, 3)
        assert len(S.vertices) == S.dim + 1


def test_box_is_full_dimensional(rng):
    B = random_lattice_box(rng, 3)
    assert B.dim == 3
    assert len(B.vertices) == 8


def test_rational_polytope_denominators(rng):
    P = random_rational_polytope(rng, 2)
    assert P.ambient_dim == 2


def test_nested_pair_is_nested(rng):
    for _ in range(20):
        inner, outer = random_nested_pair(rng, 2)
        assert contains(outer, inner)


def test_relint_point_lies_inside(rng):
    for _ in range(20):
        P = random_lattice_polytope(rng, 2, full_dim=True)
        q = random_relint_point(rng, P)
        assert P.contains_point(q)
        # Strictly inside: no facet is tight.
        assert all(
            sum(a * x for a, x in zip(f.normal, q)) != f.offset for f in P.facets
        )


def _fraction_relint_point(rng, P, weight_bound):
    """The Fraction formula: sum w_t v_t / sum w_t, Fraction weights."""
    weights = [Fraction(rng.randint(1, weight_bound)) for _ in P.vertices]
    total = sum(weights)
    return tuple(sum(w * v[i] for w, v in zip(weights, P.vertices)) / total for i in range(P.ambient_dim))


def test_relint_point_matches_the_fraction_formula():
    rng = random.Random(2718)
    kinds = set()
    for t in range(600):
        d = rng.randint(1, 4)
        if t % 3 == 0:
            P = random_lattice_polytope(rng, d, max_vertices=d + 3, bound=3)
        elif t % 3 == 1:
            P = random_rational_polytope(rng, d, max_vertices=d + 3, bound=2, max_denominator=5)
        else:  # on a rational hyperplane of Q^(d+1)
            Q = random_rational_polytope(rng, d, max_vertices=d + 3, bound=2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            P = convex_hull([(*v, sum(v) / 2 + c) for v in Q.vertices])
        kinds.add((P.is_integral, P.dim < P.ambient_dim))
        bound = rng.choice([97, 128, 1000])
        seed = rng.random()
        got = random_relint_point(random.Random(seed), P, weight_bound=bound)
        expect = _fraction_relint_point(random.Random(seed), P, bound)
        assert got == expect and all(type(x) is Fraction for x in got), (P.vertices, bound)
    assert kinds == {(True, False), (False, False), (True, True), (False, True)}, kinds


def test_direction_is_nonzero(rng):
    for _ in range(20):
        u = random_direction(rng, 3)
        assert any(u)
