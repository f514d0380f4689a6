"""Convex hulls, faces, Minkowski sums, and exact volumes."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given

from mixedval import (
    EMPTY,
    DimensionMismatch,
    Polytope,
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
    point_polytope,
    scale,
    scaled_sum,
    translate,
)
from mixedval.linalg import dot, primitive, vadd, vsub
from mixedval.samplers import random_lattice_polytope, random_rational_polytope

from . import fraction_linalg as ref
from .conftest import hull
from .hull_reference import brute_hull
from .strategies import lattice_polytopes

F = Fraction


def test_hull_drops_non_vertices():
    P = hull((0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0))
    assert len(P.vertices) == 4
    assert P.dim == 2
    assert P.is_integral


def test_hull_of_collinear_points_is_a_segment():
    P = hull((0, 0), (1, 1), (3, 3))
    assert P.dim == 1
    assert set(P.vertices) == {(F(0), F(0)), (F(3), F(3))}


def test_hull_of_nothing_is_empty():
    assert convex_hull([], lattice="Z") is EMPTY


def test_mixed_dimension_points_rejected():
    with pytest.raises(DimensionMismatch):
        convex_hull([(0, 0), (1, 0, 0)], lattice="Z")


def test_face_lattice_of_square(unit_square):
    counts = Counter(f.dim for f in face_lattice(unit_square))
    assert counts == {0: 4, 1: 4, 2: 1}


def test_face_lattice_euler_relation(unit_square, unit_triangle):
    for P in (unit_square, unit_triangle):
        assert sum((-1) ** f.dim for f in face_lattice(P)) == 1


def _signless(u):
    # u or -u, whichever has its first nonzero entry positive
    return max(u, tuple(-x for x in u))


def test_edges_and_directions(unit_square, unit_triangle):
    assert len(unit_square.edges) == 4
    assert {_signless(u) for _, _, u in unit_square.integer_edges} == {(0, 1), (1, 0)}
    assert len(unit_triangle.edges) == 3
    assert {_signless(u) for _, _, u in unit_triangle.integer_edges} == {(0, 1), (1, 0), (1, -1)}


def test_minkowski_sum_of_square_and_diagonal(unit_square):
    S = hull((0, 0), (1, 1))
    hexagon = minkowski_sum(unit_square, S)
    assert len(hexagon.vertices) == 6
    # area(P) + area(S) + normalized mixed area: 1 + 0 + 2
    assert exact_volume(hexagon) == F(3)


def test_minkowski_sum_with_point_translates(unit_triangle):
    moved = minkowski_sum(unit_triangle, point_polytope((5, 7)))
    assert moved == translate(unit_triangle, (5, 7))


def test_dilate_matches_repeated_sum(unit_triangle):
    assert dilate(unit_triangle, 3) == minkowski_sum_all([unit_triangle] * 3)
    assert dilate(unit_triangle, 0) == origin_polytope(2)


def test_scale_by_a_fraction_leaves_the_lattice(unit_square):
    half = scale(unit_square, F(1, 2))
    assert not half.is_integral
    assert exact_volume(half) == F(1, 4)


def test_containment(unit_square):
    inner = hull((0, 0), (1, 0), (0, 1))
    assert contains(unit_square, inner)
    assert not contains(inner, unit_square)
    assert contains(unit_square, unit_square)


def test_cut_halfspace_keeps_the_below_side(unit_square):
    left = cut_halfspace(unit_square, (1, 0), F(1, 2))
    assert max(v[0] for v in left.vertices) == F(1, 2)
    assert exact_volume(left) == F(1, 2)
    assert cut_halfspace(unit_square, (1, 0), F(-1)) is EMPTY


def test_hyperplane_section(unit_square):
    middle = hyperplane_section(unit_square, (1, 0), F(1, 2))
    assert middle.dim == 1
    assert exact_volume(middle) == 0
    assert hyperplane_section(unit_square, (1, 0), F(9)) is EMPTY


def test_exact_volumes():
    assert exact_volume(hull((0, 0), (1, 0), (0, 1))) == F(1, 2)
    assert exact_volume(hull((0, 0), (1, 0), (0, 1), (1, 1))) == F(1)
    cube = hull(*[(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    assert exact_volume(cube) == F(1)
    # Lower-dimensional bodies have zero ambient volume.
    assert exact_volume(hull((0, 0), (5, 0))) == 0
    assert exact_volume(point_polytope((1, 2))) == 0


def _assert_matches(P, reference, label):
    verts, facets, tights = reference
    assert P.vertices == verts, label
    assert tuple((f.normal, f.offset) for f in P.facets) == facets, label
    assert P.facet_tight_sets == tights, label


def _reference_cases():
    """Seeded point sets in dimensions 1..5: lattice, rational, with
    interior, collinear and coplanar points (from a small grid), and
    lower-dimensional ones (in an affine subspace of smaller dimension)."""
    rng = random.Random(5150)
    cases = []
    for d in range(1, 6):
        n = {1: 5, 2: 9, 3: 9, 4: 8, 5: 7}[d]
        for _ in range(5):
            cases.append((d, "lattice", [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)]))
            cases.append((d, "rational", [
                tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(d)) for _ in range(n)
            ]))
            cases.append((d, "grid", [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(n + 3)]))
            if d > 1:
                e = rng.randint(1, d - 1)
                gens = [[F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(d)] for _ in range(e)]
                o = [F(rng.randint(-2, 2), 3) for _ in range(d)]
                pts = []
                for _ in range(n):
                    c = [rng.randint(-1, 2) for _ in range(e)]
                    pts.append(tuple(o[j] + sum(ci * g[j] for ci, g in zip(c, gens)) for j in range(d)))
                cases.append((d, "lower", pts))
    return rng, cases


def test_hull_matches_the_brute_force_reference():
    rng, cases = _reference_cases()
    for d, kind, pts in cases:
        label = (d, kind, pts)
        reference = brute_hull(pts)
        H = convex_hull(pts)
        _assert_matches(H, reference, label)
        # the raw constructor enumerates its facets on its own
        _assert_matches(Polytope(d, H.vertices, H.lattice), reference, label)
        if len(H.vertices) <= 6:
            Q = convex_hull([rng.choice(pts), tuple(F(1, 2) for _ in range(d))])
            sums = [vadd(p, q) for p in H.vertices for q in Q.vertices]
            _assert_matches(minkowski_sum(H, Q), brute_hull(sums), label)


def _chart_corpus(count=1200, seed=6161):
    """Seeded polytopes with d = 1..4: lattice, rational, and lower-dimensional
    ones in Q^(d+1), the hull of rational points on a seeded d-flat."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 4)
        kind = ("lattice", "rational", "lower")[len(out) % 3]
        if kind == "lattice":
            P = random_lattice_polytope(rng, d, max_vertices=6, bound=3)
        elif kind == "rational":
            P = random_rational_polytope(rng, d, max_vertices=6, bound=2)
        else:
            Q = random_rational_polytope(rng, d, max_vertices=5, bound=2)
            a = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(d)]
            j, c = rng.randint(0, d), F(rng.randint(-2, 2), 3)
            P = convex_hull([(*v[:j], dot(a, v) + c, *v[j:]) for v in Q.vertices])
        out.append((kind, P))
    return out


def _reference_lift(basis, d):
    """B^T (B B^T)^-1 in Fraction for the row-reduced basis B."""
    k = len(basis)
    G = [[dot(a, b) for b in basis] for a in basis]
    cols = [ref.solve(G, [int(i == j) for i in range(k)]) for j in range(k)]
    return [[sum(basis[t][i] * cols[j][t] for t in range(k)) for j in range(k)] for i in range(d)]


def test_int_chart_matches_the_fraction_reference():
    # Oracle: Fraction rref and nullspace of the vertex directions.
    corpus = _chart_corpus()
    kinds = Counter((kind, P.dim < P.ambient_dim) for kind, P in corpus)
    assert kinds[("lower", True)] >= 400 and kinds[("lattice", False)] >= 100, kinds
    assert kinds[("rational", False)] >= 100, kinds
    for kind, H in corpus:
        d = H.ambient_dim
        # the raw constructor builds its chart from its own vertices
        for P in (H, Polytope(d, H.vertices, H.lattice)):
            label = (kind, P.vertices)
            o, basis, pivots = P._chart
            B, ref_pivots = ref.rref([vsub(v, o) for v in P.vertices[1:]])
            assert o == P.vertices[0] and pivots == ref_pivots, label
            assert all(type(x) is int for r in basis for x in r), label
            assert basis == tuple(primitive(b) for b in B), label
            equalities = [primitive(n) for n in ref.nullspace(B, d)]
            assert P.aff_equalities == tuple(sorted((e, dot(e, o)) for e in equalities)), label
            assert all(dot(e, v) == f for e, f in P.aff_equalities for v in P.vertices), label
            M, L = P._lift
            X = _reference_lift(B, d)
            assert L > 0 and gcd(L, *(x for row in M for x in row)) == 1, label
            assert all(m == L * x for mr, xr in zip(M, X, strict=True) for m, x in zip(mr, xr, strict=True)), label


def test_full_dimensional_polytopes_share_one_identity_lift():
    rng = random.Random(31)
    for d in (1, 2, 3, 4):
        P = random_lattice_polytope(rng, d, max_vertices=d + 3, bound=2, full_dim=True)
        Q = convex_hull([tuple(x + 1 for x in v) for v in P.vertices])
        assert P._lift is Q._lift
        assert P._lift == (tuple(tuple(int(i == j) for j in range(d)) for i in range(d)), 1)


def _three_dimensional_sum_pairs():
    """Seeded summand pairs whose Minkowski sum is 3-dimensional."""
    rng = random.Random(4141)
    pairs = {"lattice": [], "rational": [], "ambient4": []}

    def lift(P):
        # into the hyperplane x4 = 2 x1 - x2 + 1/3 of Q^4
        return convex_hull([(x, y, z, 2 * x - y + F(1, 3)) for x, y, z in P.vertices])

    makers = {
        "lattice": lambda: random_lattice_polytope(rng, 3, max_vertices=5, bound=2),
        "rational": lambda: random_rational_polytope(rng, 3, max_vertices=5, bound=2),
        "ambient4": lambda: lift(random_rational_polytope(rng, 3, max_vertices=5, bound=2)),
    }
    for kind, make in makers.items():
        while len(pairs[kind]) < 8:
            P, Q = make(), make()
            if minkowski_sum(P, Q).dim == 3:
                pairs[kind].append((P, Q))
    return pairs


def test_three_dimensional_sum_matches_hull_of_vertex_sums():
    # Oracle: the brute-force reference hull of all pairwise vertex sums.
    pairs = _three_dimensional_sum_pairs()
    assert any(not P.is_integral for P, _ in pairs["rational"])
    for kind, found in pairs.items():
        for P, Q in found:
            S = minkowski_sum(P, Q)
            assert S.ambient_dim == (4 if kind == "ambient4" else 3)
            sums = [vadd(p, q) for p in P.vertices for q in Q.vertices]
            _assert_matches(S, brute_hull(sums), (kind, P, Q))


def test_scaled_sum_is_the_sum_of_dilates():
    rng = random.Random(11)
    for d in (2, 3):
        polys = [
            random_lattice_polytope(rng, d),
            random_rational_polytope(rng, d),
            random_lattice_polytope(rng, d),
        ]
        for n in [(2, 0, 1), (0, 3, 0), (1, 1, 2), (0, 0, 0)]:
            S = scaled_sum(polys, n)
            expect = minkowski_sum_all([dilate(P, k) for P, k in zip(polys, n)])
            assert S == expect
            assert S.facets == expect.facets
        assert scaled_sum(polys, (0, 0, 0)) == origin_polytope(d)
        with pytest.raises(ValueError):
            scaled_sum(polys, (1, 1))


@given(lattice_polytopes())
def test_hull_is_idempotent(P):
    assert convex_hull(P.vertices, lattice="Z") == P


@given(lattice_polytopes())
def test_doubling_is_self_sum(P):
    assert dilate(P, 2) == minkowski_sum(P, P)


@given(lattice_polytopes(dim=2))
def test_volume_is_translation_invariant(P):
    assert exact_volume(translate(P, (11, -7))) == exact_volume(P)


@given(lattice_polytopes(dim=2), lattice_polytopes(dim=2))
def test_sum_contains_translates_of_both(P, Q):
    # P + q0 and p0 + Q both sit inside P + Q.
    total = minkowski_sum(P, Q)
    assert contains(total, translate(P, Q.vertices[0]))
    assert contains(total, translate(Q, P.vertices[0]))
