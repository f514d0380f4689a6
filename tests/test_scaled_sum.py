"""Scaled Minkowski sums read off the plain sum's normal fan, against
the dilate-and-hull path and the brute-force hull; the dilation-vector
contract; the cached Polytope hash."""

import random
from fractions import Fraction
from itertools import product

import pytest

from mixedval import (
    EMPTY,
    EmptyPolytopeError,
    Polytope,
    convex_hull,
    difference_counts,
    dilated_cell_counts,
    fine_mixed_dissection,
    minkowski_sum,
    minkowski_sum_all,
    mixed_difference_certificate,
    scaled_sum,
)
from mixedval import geometry
from mixedval.samplers import random_lattice_polytope, random_rational_polytope

from .conftest import hull
from .hull_reference import brute_hull, sum_of_dilates

F = Fraction


def _lower(rng, d):
    """Hull of points in a seeded affine subspace of dimension < d."""
    e = rng.randint(0, d - 1)
    gens = [[F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(d)] for _ in range(e)]
    o = [F(rng.randint(-3, 3), rng.choice([1, 3])) for _ in range(d)]
    pts = []
    for _ in range(rng.randint(1, 5)):
        c = [rng.randint(-1, 2) for _ in range(e)]
        pts.append(tuple(o[j] + sum(ci * g[j] for ci, g in zip(c, gens)) for j in range(d)))
    return convex_hull(pts)


def _families(count=2100, seed=909):
    """Seeded (polys, n): d 1..4, r 1..3, each summand lattice, rational
    or lower-dimensional, n in {0..3}^r with zeros and at least one
    factor above 1."""
    rng = random.Random(seed)
    makers = (
        lambda d: random_lattice_polytope(rng, d, max_vertices=5, bound=2),
        lambda d: random_rational_polytope(rng, d, max_vertices=4, bound=2),
        lambda d: _lower(rng, d),
    )
    out = []
    while len(out) < count:
        d = rng.randint(1, 4)
        r = rng.randint(1, 3 if d < 4 else 2)
        polys = [rng.choice(makers)(d) for _ in range(r)]
        n = tuple(rng.randint(0, 3) for _ in range(r))
        if max(n) > 1:
            out.append((polys, n))
    return out


def _state(P):
    return P, P.dim, P.facets, P.facet_tight_sets, P.aff_equalities, P._chart, P._lift


def test_scaled_sums_match_the_sum_of_dilates():
    families = _families()
    kinds = {(polys[0].ambient_dim, min(P.dim for P in polys) < polys[0].ambient_dim) for polys, _ in families}
    assert len(kinds) == 8  # every d, with and without a lower-dimensional summand
    assert any(not P.is_integral for polys, _ in families for P in polys)
    assert any(0 in n and len(n) > 1 for _, n in families)
    for polys, n in families:
        expect = sum_of_dilates(polys, n)
        # a fresh raw copy computes chart, lift and equalities on its own
        fresh = Polytope(expect.ambient_dim, expect.vertices, expect.lattice)
        got = scaled_sum(polys, n)
        assert _state(got) == _state(expect) == _state(fresh), (polys, n)


def test_scaled_sums_match_the_brute_force_hull():
    checked = 0
    for polys, n in _families(count=300, seed=77):
        sums = [()]
        for P, k in zip(polys, n):
            sums = [s + (tuple(k * x for x in v),) for s in sums for v in P.vertices]
        points = {tuple(map(sum, zip(*s))) for s in sums}
        if len(points) > 12:
            continue
        got = scaled_sum(polys, n)
        verts, facets, tights = brute_hull(points)
        assert got.vertices == verts, (polys, n)
        assert tuple((f.normal, f.offset) for f in got.facets) == facets, (polys, n)
        assert got.facet_tight_sets == tights, (polys, n)
        checked += 1
    assert checked >= 100


def test_positive_rescaling_calls_no_hull(monkeypatch):
    rng = random.Random(3)
    polys = [random_rational_polytope(rng, 3, max_vertices=5), random_lattice_polytope(rng, 3)]
    polys.append(convex_hull([(0, 0, 0), (1, 2, F(1, 2))]))
    minkowski_sum_all(polys).facets  # the plain sum, cached with its facets
    calls = []
    real = geometry._hull
    monkeypatch.setattr(geometry, "_hull", lambda *a: calls.append(a) or real(*a))
    sums = geometry._cached_sum.cache_info().misses
    for n in product(range(1, 4), repeat=3):
        scaled_sum(polys, n).facets
    assert calls == [] and geometry._cached_sum.cache_info().misses == sums
    scaled_sum(polys, (2, 0, 1)).facets  # a zero factor sums fewer summands
    assert geometry._cached_sum.cache_info().misses > sums


@pytest.mark.parametrize("polys, n", [([EMPTY, None], (1, 0)), ([EMPTY, None], (1, 1)), ([EMPTY], (0,))])
def test_scaled_sum_rejects_the_empty_polytope(polys, n, unit_square):
    polys = [unit_square if P is None else P for P in polys]
    with pytest.raises(EmptyPolytopeError):
        scaled_sum(polys, n)


@pytest.mark.parametrize("bad", [(F(3, 2), 1), (2.7, 1), ("2", 1), (-1, 1), (True, 1), (1,), (1, 1, 1)])
def test_dilation_vectors_are_nonnegative_ints(bad, unit_triangle, e1_segment):
    D = fine_mixed_dissection([unit_triangle, e1_segment], opener_seed=3)
    cert = mixed_difference_certificate([unit_triangle, e1_segment], [unit_triangle, e1_segment])
    with pytest.raises(ValueError):
        scaled_sum([unit_triangle, e1_segment], bad)
    with pytest.raises(ValueError):
        dilated_cell_counts(D, bad)
    with pytest.raises(ValueError):
        difference_counts(cert, bad)
    assert dilated_cell_counts(D, [2, 1]) == dilated_cell_counts(D, (2, 1))


def test_equal_polytopes_hash_equal(unit_square, e1_segment, e2_segment):
    raw = Polytope(2, unit_square.vertices, "Z")
    summed = minkowski_sum(e1_segment, e2_segment)
    listed = hull((1, 1), (0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2)))
    assert raw == summed == listed == unit_square
    assert len({hash(P) for P in (raw, summed, listed, unit_square)}) == 1
    assert hash(unit_square) == hash((2, unit_square.vertices, "Z"))
    assert unit_square != Polytope(2, unit_square.vertices, "Q")
