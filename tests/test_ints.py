"""Polytope._ints, (D, the vertices times D), against the Fraction vertices
on every route that builds a polytope: the hull, the plane, fan and hull
sums, the rescaled sum, the simplex-product cells, translate, scale and
the raw constructor.  A wrong entry that _assembled writes is caught."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from mixedval import Polytope, convex_hull, minkowski_sum, scale, scaled_sum, translate
from mixedval import geometry
from mixedval.dissections import _simplex_cell
from mixedval.linalg import rational
from mixedval.samplers import random_lattice_polytope, random_lattice_simplex, random_rational_polytope

from .test_fan_sum import _solid_pairs
from .test_plane_sum import _plane_pairs
from .test_scaled_sum import _families, _lower

F = Fraction

# the routes that build from int points keep them; the others scale on first use
FILLED = {"hull", "plane sum", "fan sum", "hull sum", "scaled sum", "cell"}


def _summand(rng, d):
    kind = rng.randrange(3)
    if kind == 0:
        return random_lattice_polytope(rng, d, max_vertices=5, bound=2)
    if kind == 1:
        return random_rational_polytope(rng, d, max_vertices=4, bound=2)
    return _lower(rng, d)


def _routes(seed):
    """(route, P) for seeded polytopes of every construction route, each
    yielded as soon as it is built."""
    rng = random.Random(seed)
    for _ in range(120):
        yield "hull", _summand(rng, rng.randint(1, 4))
    for P, Q in _plane_pairs(count=120, seed=seed):
        yield "plane sum", minkowski_sum(P, Q)
    for P, Q in _solid_pairs(count=60, seed=seed, most=6):
        yield "fan sum", minkowski_sum(P, Q)
    hull_sums = 0
    while hull_sums < 80:
        d = rng.randint(3, 4)
        P, Q = _summand(rng, d), _summand(rng, d)
        if geometry._plane_span(P, Q) is None and not (d == P.dim == Q.dim == 3):
            hull_sums += 1
            yield "hull sum", minkowski_sum(P, Q)
    for polys, n in _families(count=120, seed=seed):
        yield "scaled sum", scaled_sum(polys, n)
    for _ in range(120):
        d = rng.randint(1, 4)
        k = rng.randint(1, d)
        first = random_lattice_simplex(rng, d, dim=k, bound=2)
        half = scale(random_lattice_simplex(rng, d, dim=d - k, bound=2), F(1, rng.randint(1, 3)))
        try:
            yield "cell", _simplex_cell([first, half]).cell
        except geometry.InexactSum:
            continue
    for _ in range(120):
        d = rng.randint(1, 4)
        P = _summand(rng, d)
        yield "translate", translate(P, [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)])
        yield "scale", scale(P, F(rng.randint(1, 7), rng.randint(1, 4)))
        yield "raw", Polytope(P.ambient_dim, P.vertices, P.lattice)


def _check_routes(seed, log):
    """Every route's ints are tuples of int tuples over a common denominator
    D, and D times the Fraction vertices; returns the routes seen and how
    many kept a D above the least.  Each (route, P) goes to `log` before
    it is checked."""
    seen, above_least = Counter(), 0
    for route, P in _routes(seed):
        log.append((route, P))
        assert ("_ints" in P.__dict__) == (route in FILLED), (route, P.vertices)
        D, ints = P._ints
        assert type(D) is int and D > 0, (route, P.vertices)
        assert type(ints) is tuple and len(ints) == len(P.vertices), (route, P.vertices)
        for v, w in zip(ints, P.vertices):
            assert type(v) is tuple and len(v) == P.ambient_dim, (route, P.vertices)
            assert all(type(x) is int and rational(x, D) == y for x, y in zip(v, w)), (route, P.vertices)
        seen[route] += 1
        above_least += D != lcm(*(x.denominator for v in P.vertices for x in v))
    return seen, above_least


@pytest.mark.parametrize("seed", [61, 62])
def test_ints_are_the_vertices_times_d_on_every_route(seed):
    seen, above_least = _check_routes(seed, [])
    assert set(seen) == FILLED | {"translate", "scale", "raw"}, seen
    assert min(seen.values()) >= 40, seen
    # a sum keeps its family's denominator even where its own is smaller
    assert above_least >= 5, above_least


def test_a_wrong_int_written_by_assembled_is_caught(monkeypatch):
    real = geometry._assembled
    built = []

    def one_wrong(*args, **kwargs):
        P = real(*args, **kwargs)
        built.append(P)
        if len(built) == 1:
            D, ints = P._ints
            P.__dict__["_ints"] = (D, ((ints[0][0] + 1, *ints[0][1:]), *ints[1:]))
        return P

    monkeypatch.setattr(geometry, "_assembled", one_wrong)
    log = []
    with pytest.raises(AssertionError):
        _check_routes(61, log)
    # the check stops at the first polytope built, a hull with the wrong entry
    assert log == [("hull", built[0])] and log[0][1] is built[0]
