"""Half-open dissections, staircases, box cells, Cayley constructions."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedval import (
    GeometryError,
    InexactSum,
    MixedCell,
    boxcell_census,
    boxcell_dissection,
    cayley_polytope,
    certify_difference,
    certify_dilations,
    certify_dissection,
    count_half_open,
    count_lattice_points,
    difference_counts,
    dilate,
    dilated_cell_counts,
    exact_volume,
    fine_mixed_dissection,
    generic_opener,
    half_open_by_direction,
    half_open_points,
    lattice_points,
    minkowski_sum,
    mixed_difference_certificate,
    open_dissection,
    order_simplex,
    placing_triangulation,
    point_polytope,
    staircase_dissection,
    staircase_refine,
)

from .conftest import hull
from .strategies import lattice_polytopes

F = Fraction


def test_order_simplex_is_unimodular():
    S = order_simplex(3)
    assert S.dim == 3
    assert exact_volume(S) == F(1, 6)
    assert count_lattice_points(S) == 4


def test_half_open_by_direction_keeps_the_sink_corner(unit_square):
    # Facets whose outer normal has positive pairing with u are removed.
    H = half_open_by_direction(unit_square, (1, 1))
    assert len(H.removed) == 2
    assert count_half_open(H) == 1
    assert list(half_open_points(H)) == [(0, 0)]


def test_half_open_by_direction_rejects_a_tied_normal(unit_square):
    with pytest.raises(GeometryError):
        half_open_by_direction(unit_square, (1, 0))


def test_placing_triangulation_of_square(unit_square):
    D = placing_triangulation(unit_square)
    assert len(D.cells) == 2
    assert sum(exact_volume(c.cell) for c in D.cells) == exact_volume(unit_square)
    # Cells are simplices on the square's own vertices.
    verts = set(unit_square.vertices)
    for c in D.cells:
        assert c.cell.dim == 2
        assert set(c.cell.vertices) <= verts


def test_placing_triangulation_of_hexagon():
    hexagon = hull((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1))
    D = placing_triangulation(hexagon)
    assert len(D.cells) == 4
    assert sum(exact_volume(c.cell) for c in D.cells) == exact_volume(hexagon)


def test_open_dissection_partitions_the_count(unit_square):
    D = open_dissection(placing_triangulation(unit_square), seed=9)
    assert certify_dissection(D) == 4
    assert sum(D.cell_counts()) == 4


def test_opened_cells_partition_point_by_point(unit_square):
    big = dilate(unit_square, 2)
    D = open_dissection(placing_triangulation(big), seed=9)
    covered = sorted(
        tuple(pt) for cell in D.cells for pt in half_open_points(cell.half_open())
    )
    assert covered == sorted(tuple(p) for p in lattice_points(big))


def test_generic_opener_is_deterministic_and_interior(unit_square):
    D = placing_triangulation(unit_square)
    q1 = generic_opener(unit_square, D.cells, seed=4)
    q2 = generic_opener(unit_square, D.cells, seed=4)
    assert q1 == q2
    assert unit_square.contains_point(q1)


def test_boxcell_line():
    D = boxcell_dissection(1, 3)
    assert sorted(D.cell_counts()) == [1, 1, 2]
    assert certify_dissection(D) == 4


def test_boxcell_plane():
    D = boxcell_dissection(2, 2)
    assert len(D.cells) == 3
    assert boxcell_census(D) == {1: 2, 2: 1}
    assert certify_dissection(D) == count_lattice_points(dilate(order_simplex(2), 2))
    assert sum(D.cell_counts()) == 6


def test_boxcell_census_sizes():
    # The number of rank-k cells counts weak patterns: binom(n,k)*binom(d-1,k-1).
    from math import comb

    for d, n in ((2, 3), (3, 2)):
        census = boxcell_census(boxcell_dissection(d, n))
        assert census == {
            k: comb(n, k) * comb(d - 1, k - 1)
            for k in range(1, min(d, n) + 1)
        }


def test_staircase_of_two_segments(e1_segment, e2_segment):
    D = staircase_dissection(e1_segment, e2_segment)
    assert len(D.cells) == 2
    assert [exact_volume(c.cell) for c in D.cells] == [F(1, 2), F(1, 2)]
    assert sum(exact_volume(c.cell) for c in D.cells) == exact_volume(D.target)


def test_staircase_of_triangle_and_segment():
    tri = hull((0, 0, 0), (1, 0, 0), (0, 1, 0))
    seg = hull((0, 0, 0), (0, 0, 1))
    D = staircase_dissection(tri, seg)
    assert len(D.cells) == 3
    assert all(exact_volume(c.cell) == F(1, 6) for c in D.cells)


def test_staircase_needs_an_exact_pair(unit_triangle):
    diag = hull((0, 0), (1, 1))
    with pytest.raises(InexactSum):
        staircase_dissection(unit_triangle, diag)


def test_staircase_refine_lowers_the_rank(e1_segment, e2_segment):
    square = minkowski_sum(e1_segment, e2_segment)
    mc = MixedCell((e1_segment, e2_segment), square, frozenset())
    q = (F(1, 3), F(1, 5))
    pieces = staircase_refine(mc, 0, 1, q)
    assert [p.cylinder_rank for p in pieces] == [1, 1]
    # Opened from the same q, the pieces partition the cell's count.
    assert sorted(p.count() for p in pieces) == [1, 3]
    assert sum(p.count() for p in pieces) == mc.count()


def test_cayley_embedding_shape(e1_segment, e2_segment):
    C = cayley_polytope([e1_segment, e2_segment])
    assert C.ambient_dim == 4
    assert C.dim == 3
    assert len(C.vertices) == 4


def test_fine_mixed_of_orthogonal_segments(e1_segment, e2_segment):
    D = fine_mixed_dissection([e1_segment, e2_segment], opener_seed=3)
    assert len(D.cells) == 1
    cell = D.cells[0]
    assert cell.cylinder_rank == 2
    assert cell.cell.dim == sum(S.dim for S in cell.summands)
    assert D.cell_counts() == [4]
    assert dilated_cell_counts(D, (2, 3)) == [12]
    assert certify_dissection(D) == 4


def test_fine_mixed_of_triangle_and_segment(unit_triangle, e1_segment):
    D = fine_mixed_dissection([unit_triangle, e1_segment], opener_seed=3)
    assert len(D.cells) == 2
    assert certify_dissection(D) == 5
    certify_dilations(D, [(1, 1), (2, 1), (2, 3)])


def test_fine_mixed_with_a_point_factor_translates(unit_triangle):
    D = fine_mixed_dissection([unit_triangle, point_polytope((2, 2))], opener_seed=3)
    assert len(D.cells) == 1
    assert certify_dissection(D) == 3


def test_difference_certificate_of_nested_segments(e2_segment):
    inner = hull((0, 0), (1, 0))
    outer = hull((0, 0), (2, 0))
    cert = mixed_difference_certificate([inner, e2_segment], [outer, e2_segment], opener_seed=1)
    assert len(cert.difference_cells) == 1
    assert difference_counts(cert, (1, 1)) == [2]
    certify_difference(cert, [(1, 1), (2, 1), (2, 2)])


def test_difference_certificate_of_equal_families(unit_triangle, e1_segment):
    cert = mixed_difference_certificate(
        [unit_triangle, e1_segment], [unit_triangle, e1_segment], opener_seed=1
    )
    assert cert.difference_cells == ()
    certify_difference(cert, [(1, 1), (3, 2)])


def test_difference_certificate_triangle_in_square(unit_square, unit_triangle):
    cert = mixed_difference_certificate([unit_triangle], [unit_square], opener_seed=1)
    assert sum(difference_counts(cert, (1,))) == 1  # the corner (1,1)
    certify_difference(cert, [(1,), (2,), (3,)])
    inner = cert.inner_dissection
    assert certify_dissection(inner) == 3


def test_difference_rejects_escaping_inner(unit_square):
    far = hull((5, 5), (6, 5))
    with pytest.raises(GeometryError):
        mixed_difference_certificate([far], [unit_square])


@given(lattice_polytopes(dim=2, max_vertices=4, bound=2), st.integers(0, 5))
def test_random_placing_dissections_certify(P, seed):
    D = open_dissection(placing_triangulation(P), seed=seed)
    assert certify_dissection(D) == count_lattice_points(P)


@given(
    lattice_polytopes(dim=2, max_vertices=3, bound=2),
    lattice_polytopes(dim=2, max_vertices=3, bound=2),
    st.integers(0, 3),
)
def test_random_fine_mixed_dissections_certify(P, Q, seed):
    D = fine_mixed_dissection([P, Q], opener_seed=seed)
    assert certify_dissection(D) == count_lattice_points(minkowski_sum(P, Q))
