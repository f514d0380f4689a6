"""Minkowski sums of two 3-polytopes in Q^3, read off their normal fans,
against the hull of all vertex sums and the brute-force hull."""

import random
from fractions import Fraction
from itertools import combinations, product

from mixedval import Polytope, convex_hull, minkowski_sum
from mixedval import geometry
from mixedval.linalg import rank

from .hull_reference import brute_hull, sum_mismatches, sum_state, vertex_sums

F = Fraction


def _bernstein_families(seed, count=80):
    """c01 families: three hulls of 5 random points of {0..3}^3."""
    rng = random.Random(seed)
    return [
        [convex_hull([tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(5)]) for _ in range(3)]
        for _ in range(count)
    ]


def _solid(rng, most, denominators):
    """A 3-polytope, the hull of 4 to `most` random points of [-3, 3]^3
    with the given denominators."""
    while True:
        pts = []
        for _ in range(rng.randint(4, most)):
            q = rng.choice(denominators)
            pts.append(tuple(F(rng.randint(-3 * q, 3 * q), q) for _ in range(3)))
        P = convex_hull(pts)
        if P.dim == 3:
            return P


def _solid_pairs(count=1500, seed=909, most=7):
    """Seeded pairs of 3-polytopes in Q^3, lattice and rational by turns."""
    rng = random.Random(seed)
    kinds = ((1,), (1, 2, 3))
    return [(_solid(rng, most, kinds[k % 2]), _solid(rng, most, kinds[k % 2])) for k in range(count)]


def test_bernstein_pair_and_triple_sums_match_the_hull_of_the_vertex_sums():
    fanned = 0
    for seed in (5, 6, 7):
        for A, B, C in _bernstein_families(seed):
            pairs = [(A, B), (A, C), (B, C), (minkowski_sum(A, B), C)]
            fanned += sum(P.dim == Q.dim == 3 for P, Q in pairs)
            assert sum_mismatches(pairs) == [], seed
    assert fanned >= 800


def test_seeded_solid_sums_match_the_hull_of_the_vertex_sums():
    pairs = _solid_pairs()
    sums = [minkowski_sum(P, Q) for P, Q in pairs]
    assert sum(not S.is_integral for S in sums) >= 700
    assert sum_mismatches(pairs) == []
    # a raw copy works out its chart, facets and lift on its own
    assert all(sum_state(S) == sum_state(Polytope(3, S.vertices, S.lattice)) for S in sums[:300])
    assert all(sum_state(minkowski_sum(Q, P)) == sum_state(S) for (P, Q), S in zip(pairs[:300], sums))


def test_seeded_solid_sums_match_the_brute_force_hull():
    checked = 0
    for P, Q in _solid_pairs(count=16, seed=313, most=4):
        points = vertex_sums(P, Q)
        S = minkowski_sum(P, Q)
        verts, facets, tights = brute_hull(points)
        assert S.vertices == verts, (P, Q)
        assert tuple((f.normal, f.offset) for f in S.facets) == facets, (P, Q)
        assert S.facet_tight_sets == tights, (P, Q)
        checked += 1
    assert checked == 16


def _lifted(P):
    """P in the hyperplane x4 = x1 - 2 x2 + 1/2 of Q^4."""
    return convex_hull([(x, y, z, x - 2 * y + F(1, 2)) for x, y, z in P.vertices])


def test_edges_of_3_polytopes_are_the_pairs_on_two_facets():
    # Oracle: the vertex pairs whose common facet normals have rank 2.
    def rank_edges(P):
        out = []
        for i, j in combinations(range(len(P.vertices)), 2):
            common = [f.normal for f, t in zip(P.facets, P.facet_tight_sets) if i in t and j in t]
            if common and rank(common) == 2:
                out.append((i, j))
        return tuple(out)

    solids = [P for pair in _solid_pairs(count=100, seed=17) for P in (*pair, minkowski_sum(*pair))]
    for P in solids + [_lifted(P) for P in solids[:60]]:
        assert P.edges == rank_edges(P), P.vertices
        assert len(P.vertices) - len(P.edges) + len(P.facets) == 2


def test_only_two_3_polytopes_in_q3_take_the_fan(monkeypatch):
    cube = convex_hull(product((0, 1), repeat=3))
    tetra = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    square = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    segment = convex_hull([(0, 0, 0), (1, 2, 3)])
    fanned = []
    real = geometry._fan_sum
    monkeypatch.setattr(geometry, "_fan_sum", lambda *a: fanned.append(a) or real(*a))
    assert minkowski_sum(cube, segment).dim == 3 and minkowski_sum(square, segment).dim == 3
    assert minkowski_sum(_lifted(cube), _lifted(tetra)).dim == 3
    assert convex_hull(vertex_sums(cube, tetra)).dim == 3
    assert not fanned
    assert minkowski_sum(cube, tetra).dim == 3 and len(fanned) == 1


def test_a_flipped_edge_orientation_is_caught(monkeypatch):
    # swapping an edge's two facets flips the orientation of its cone test
    real = geometry.Polytope._edge_cones.func
    flipped = property(lambda P: tuple((ends, e, b, a) for ends, e, a, b in real(P)))
    monkeypatch.setattr(geometry.Polytope, "_edge_cones", flipped)
    assert sum_mismatches(_solid_pairs(count=100))
    assert sum_mismatches([(A, B) for A, B, _ in _bernstein_families(5, count=40)])


def test_dropped_edge_pair_candidates_are_caught(monkeypatch):
    real = geometry._crossings
    monkeypatch.setattr(geometry, "_crossings", lambda P, Q: list(real(P, Q))[1:])
    assert sum_mismatches(_solid_pairs(count=100))
    assert sum_mismatches([(A, B) for A, B, _ in _bernstein_families(5, count=40)])
