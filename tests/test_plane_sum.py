"""Minkowski sums with a 2-dimensional affine hull, built by merging the
summands' edge cycles, against the hull of all vertex sums and the
brute-force hull."""

import random
from fractions import Fraction
from itertools import product

from mixedval import Polytope, convex_hull, minkowski_sum, planar_translation_classes
from mixedval import geometry
from mixedval.linalg import rank

from .hull_reference import brute_hull, sum_mismatches, sum_state, vertex_sums

F = Fraction


def _census_pairs():
    reps = planar_translation_classes(2)
    return [(reps[i], reps[j]) for i in range(len(reps)) for j in range(i, len(reps))]


def _plane_summand(rng, origin, gens):
    """A point, a segment or a polygon in the plane origin + span(gens),
    with rational coordinates."""
    d = len(origin)
    shift = [F(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(2)]
    count = rng.choice([1, 2, rng.randint(3, 7)])
    pts = []
    for _ in range(count):
        c = [s + F(rng.randint(-3, 3), rng.choice([1, 1, 2])) for s in shift]
        pts.append(tuple(origin[j] + c[0] * gens[0][j] + c[1] * gens[1][j] for j in range(d)))
    return convex_hull(pts)


def _plane_pairs(count=1200, seed=2024):
    """Seeded pairs whose sum spans a plane in Q^2, Q^3 or Q^4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice([2, 3, 3, 4, 4])
        gens = [[F(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(d)] for _ in range(2)]
        if rank(gens) < 2:
            continue
        origin = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(d)]
        P, Q = _plane_summand(rng, origin, gens), _plane_summand(rng, origin, gens)
        if geometry._plane_span(P, Q) is not None:
            out.append((P, Q))
    return out


def test_census_sums_match_the_hull_of_the_vertex_sums():
    pairs = _census_pairs()
    assert len(pairs) == 8778
    # all but the 29 sums of points and parallel segments, which are hulled
    assert sum(geometry._plane_span(P, Q) is not None for P, Q in pairs) == 8749
    assert sum_mismatches(pairs) == []


def test_seeded_plane_sums_match_the_hull_of_the_vertex_sums():
    pairs = _plane_pairs()
    kinds = {(P.ambient_dim, min(P.dim, Q.dim)) for P, Q in pairs}
    assert kinds == set(product((2, 3, 4), (0, 1, 2)))  # point, segment and polygon summands
    sums = [minkowski_sum(P, Q) for P, Q in pairs]
    assert sum(not S.is_integral for S in sums) >= 1000
    assert sum_mismatches(pairs) == []
    # a raw copy works out its chart, facets and lift on its own
    assert all(sum_state(S) == sum_state(Polytope(S.ambient_dim, S.vertices, S.lattice)) for S in sums)
    assert all(sum_state(minkowski_sum(Q, P)) == sum_state(S) for (P, Q), S in zip(pairs, sums))


def test_seeded_plane_sums_match_the_brute_force_hull():
    checked = 0
    for P, Q in _plane_pairs(count=400, seed=77):
        points = vertex_sums(P, Q)
        if len(points) > 12:
            continue
        S = minkowski_sum(P, Q)
        verts, facets, tights = brute_hull(points)
        assert S.vertices == verts, (P, Q)
        assert tuple((f.normal, f.offset) for f in S.facets) == facets, (P, Q)
        assert S.facet_tight_sets == tights, (P, Q)
        checked += 1
    assert checked >= 150


def test_only_plane_sums_take_the_merge(monkeypatch):
    e1, e2 = convex_hull([(0, 0, 0), (1, 0, 0)]), convex_hull([(0, 0, 0), (0, 1, 0)])
    e3 = convex_hull([(0, 0, 0), (0, 0, 1)])
    square = minkowski_sum(e1, e2)
    merged = []
    real = geometry._plane_sum
    monkeypatch.setattr(geometry, "_plane_sum", lambda *a: merged.append(a) or real(*a))
    assert minkowski_sum(e1, e1).dim == 1 and minkowski_sum(square, e3).dim == 3
    assert not merged
    assert minkowski_sum(square, e1).dim == 2 and len(merged) == 1


def test_an_unmerged_slope_tie_is_caught(monkeypatch):
    # parallel edges taken one after the other leave a vertex inside an edge
    real = geometry._angle_order
    monkeypatch.setattr(geometry, "_angle_order", lambda u, v: real(u, v) or -1)
    assert sum_mismatches(_census_pairs()[:300])
    assert sum_mismatches(_plane_pairs(count=100))
