"""Lattice-point enumeration for closed and half-open polytopes."""

import time
from fractions import Fraction

import pytest
from hypothesis import given

from mixedval import (
    HalfOpenPolytope,
    builtin_valuations,
    count_half_open,
    count_lattice_points,
    count_relint_points,
    dilate,
    euler_relint_value,
    h_star_vector,
    lattice_points,
    point_polytope,
    relint_points,
    translate,
)
from mixedval import counting
from mixedval.counting import ScanTooLarge
from mixedval.dissections import half_open_by_point
from mixedval.linalg import dot

from .conftest import hull
from .strategies import lattice_polytopes

F = Fraction


def test_counts_of_standard_bodies(unit_square, unit_triangle):
    assert count_lattice_points(unit_square) == 4
    assert count_lattice_points(unit_triangle) == 3
    assert count_lattice_points(dilate(unit_square, 2)) == 9
    assert count_lattice_points(hull((0, 0), (3, 0))) == 4
    assert count_lattice_points(point_polytope((2, 5))) == 1


def test_points_of_rational_polytope():
    # Quarter-scale square: only the origin survives.
    P = hull((0, 0), (1, 0), (0, 1), (1, 1))
    from mixedval import scale

    quarter = scale(P, F(1, 4))
    assert count_lattice_points(quarter) == 1
    assert list(lattice_points(quarter)) == [(0, 0)]


def test_relint_counts(unit_triangle):
    assert count_relint_points(dilate(unit_triangle, 3)) == 1
    assert count_relint_points(dilate(unit_triangle, 2)) == 0
    # The relative interior of a segment ignores the ambient dimension.
    assert count_relint_points(hull((0, 0), (2, 0))) == 1
    assert list(relint_points(hull((0, 0), (2, 0)))) == [(1, 0)]
    assert count_relint_points(point_polytope((0, 0))) == 1


def test_euler_relint_matches_direct_interior_count(unit_square):
    big = dilate(unit_square, 2)
    assert euler_relint_value(count_lattice_points, big) == 1
    assert euler_relint_value(count_lattice_points, big) == count_relint_points(big)
    seg = hull((0, 0), (3, 0))
    assert euler_relint_value(count_lattice_points, seg) == count_relint_points(seg)


def test_half_open_square_keeps_one_corner(unit_square):
    # Removing the two facets through (1,1) leaves points with x=0 or y=0.
    removed = frozenset(
        i
        for i, facet in enumerate(unit_square.facets)
        if sum(facet.normal) > 0
    )
    H = HalfOpenPolytope(unit_square, removed)
    assert count_half_open(H) == 1
    assert H.base == unit_square


@pytest.mark.parametrize("index", [0.5, True])
def test_removed_facet_indices_are_ints(index):
    # 0.5 would remove nothing and True would remove facet 1
    triangle = hull((0, 0), (2, 0), (0, 2))
    with pytest.raises(ValueError, match="out of range"):
        HalfOpenPolytope(triangle, frozenset({index}))


def test_half_open_from_interior_point_removes_nothing(unit_square):
    H = half_open_by_point(unit_square, (F(1, 2), F(1, 3)))
    assert H.removed == frozenset()
    assert count_half_open(H) == 4


def test_half_open_from_outside_removes_visible_facets(unit_square):
    # From far along the diagonal both far facets are visible.
    H = half_open_by_point(unit_square, (F(9), F(10)))
    assert len(H.removed) == 2
    assert count_half_open(H) == 1


@given(lattice_polytopes(dim=2))
def test_count_is_translation_invariant(P):
    assert count_lattice_points(translate(P, (-4, 9))) == count_lattice_points(P)


@given(lattice_polytopes(dim=2))
def test_half_open_count_never_exceeds_closed(P):
    # The opening point must lie in the affine hull; the centroid does.
    q = [sum(xs) / len(P.vertices) for xs in zip(*P.vertices)]
    H = half_open_by_point(P, q)
    assert 0 <= count_half_open(H) <= count_lattice_points(P)


@given(lattice_polytopes(dim=2))
def test_relint_points_lie_inside(P):
    strict = [
        q for q in lattice_points(P) if all(dot(f.normal, q) < f.offset for f in P.facets)
    ]
    assert relint_points(P) == strict
    assert count_relint_points(P) == len(strict)


def test_an_oversized_scan_is_refused_before_it_starts():
    started = time.perf_counter()
    with pytest.raises(ScanTooLarge, match="2000000002 fibers"):
        count_lattice_points(hull((0, 0, 0), (10**9, 1, 0)))
    assert time.perf_counter() - started < 1


def test_the_scan_limit_keeps_the_largest_known_instance():
    # the sixth dilate of this 5-simplex scans 1 696 909 fibers
    simplex = hull(
        (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
        (3, 5, 7, 11, 562),
    )
    dvol = builtin_valuations()["dvol"]
    assert h_star_vector(dvol, simplex).entries == (1, 0, 108, 345, 108, 0)


def test_the_scan_limit_counts_fibers(monkeypatch):
    # the 3 x 2 rectangle scans its three columns
    rectangle = hull((0, 0), (2, 0), (0, 1), (2, 1))
    monkeypatch.setattr(counting, "MAX_SCAN", 3)
    assert len(lattice_points(rectangle)) == 6
    monkeypatch.setattr(counting, "MAX_SCAN", 2)
    with pytest.raises(ScanTooLarge, match="3 fibers"):
        lattice_points(rectangle)
