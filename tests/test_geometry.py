"""Convex hulls, faces, Minkowski sums, and exact volumes."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

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
from mixedval.geometry import solve_in_basis
from mixedval.linalg import dot, primitive, vadd, vec, vsub
from mixedval.samplers import random_lattice_polytope, random_rational_polytope

from .conftest import hull
from .fraction_linalg import nullspace, rank
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
    counts = Counter(f.dim for f in face_lattice(unit_square).faces)
    assert counts == {0: 4, 1: 4, 2: 1}


def test_face_lattice_euler_relation(unit_square, unit_triangle):
    for P in (unit_square, unit_triangle):
        assert sum((-1) ** f.dim for f in face_lattice(P).faces) == 1


def test_edges_and_directions(unit_square, unit_triangle):
    assert len(unit_square.edges) == 4
    assert set(unit_square.edge_directions) == {(0, 1), (1, 0)}
    assert len(unit_triangle.edges) == 3
    assert set(unit_triangle.edge_directions) == {(0, 1), (1, 0), (1, -1)}


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


def test_solve_in_basis_round_trip():
    basis = [(F(1), F(1)), (F(0), F(2))]
    coeffs = solve_in_basis(basis, (F(3), F(7)))
    assert coeffs == (F(3), F(2))


def _brute_hull(points):
    """Reference hull: (vertices, facets, tight sets) of conv(points).

    Independent of the package's hull: every hyperplane of aff(points)
    through k affinely independent points is tried in Fraction, in
    ambient coordinates, and kept when all points lie on one side of it;
    a vertex is a point whose tight normals have rank k.  Facets are
    sorted (normal, offset) pairs with primitive normals in the linear
    space of aff(points), and tight sets index the vertices.
    """
    pts = sorted({vec(p) for p in points})
    d = len(pts[0])
    diffs = [vsub(p, pts[0]) for p in pts[1:]]
    k = rank(diffs)
    if k == 0:
        return tuple(pts), (), ()
    equations = nullspace(diffs, ncols=d)
    tight = {}
    for combo in combinations(range(len(pts)), k):
        base = pts[combo[0]]
        ns = nullspace(equations + [vsub(pts[i], base) for i in combo[1:]], ncols=d)
        if len(ns) != 1:
            continue
        a = primitive(ns[0])
        values = [dot(a, p) for p in pts]
        beta = values[combo[0]]
        if min(values) == beta:
            a, beta, values = tuple(-x for x in a), -beta, [-x for x in values]
        if max(values) == beta:
            tight[(a, beta)] = frozenset(i for i, x in enumerate(values) if x == beta)
    normals = [[a for (a, _), t in tight.items() if i in t] for i in range(len(pts))]
    chosen = [i for i, ns in enumerate(normals) if ns and rank([vec(a) for a in ns]) == k]
    position = {i: n for n, i in enumerate(chosen)}
    facets = sorted(tight)
    tights = tuple(frozenset(position[i] for i in tight[f] if i in position) for f in facets)
    return tuple(pts[i] for i in chosen), tuple(facets), tights


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
        reference = _brute_hull(pts)
        H = convex_hull(pts)
        _assert_matches(H, reference, label)
        # the raw constructor enumerates its facets on its own
        _assert_matches(Polytope(d, H.vertices, H.lattice), reference, label)
        if len(H.vertices) <= 6:
            Q = convex_hull([rng.choice(pts), tuple(F(1, 2) for _ in range(d))])
            sums = [vadd(p, q) for p in H.vertices for q in Q.vertices]
            _assert_matches(minkowski_sum(H, Q), _brute_hull(sums), label)


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
            _assert_matches(S, _brute_hull(sums), (kind, P, Q))


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
