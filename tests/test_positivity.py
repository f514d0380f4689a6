"""Segment criterion, matroid intersection, and the cylinder bound."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedval import (
    DimensionMismatch,
    LatticeMismatch,
    SEGMENT_CRITERION_VALUATIONS,
    MatroidOracle,
    Segment,
    builtin_valuations,
    candidate_segments,
    cm,
    cylinder_lower_bound,
    decide_positive,
    direction_matroid,
    matroid_intersection,
    owner_matroid,
    point_polytope,
    positivity_witness,
    scale,
)
from mixedval.linalg import rank, vec

from .conftest import hull
from .strategies import polytope_families

F = Fraction
DVOL = builtin_valuations()["dvol"]


def test_allowlist_is_just_the_lattice_count():
    assert SEGMENT_CRITERION_VALUATIONS == frozenset({"dvol"})


def test_segment_construction():
    seg = Segment.between(0, (0, 0), (2, 4))
    assert seg.direction == (1, 2)
    with pytest.raises(ValueError):
        Segment.between(0, (1, 1), (1, 1))


def test_candidate_segments_of_standard_bodies(unit_square, unit_triangle):
    tri_segs = candidate_segments([unit_triangle])
    assert len(tri_segs) == 3
    assert {s.direction for s in tri_segs} == {(0, 1), (1, 0), (1, -1)}
    sq_segs = candidate_segments([unit_square])
    assert len(sq_segs) == 4
    assert {s.direction for s in sq_segs} == {(0, 1), (1, 0)}
    assert candidate_segments([point_polytope((1, 2))]) == []


def test_candidate_segments_need_lattice_polytopes(unit_square):
    with pytest.raises(LatticeMismatch):
        candidate_segments([scale(unit_square, F(1, 2))])


def test_matroid_intersection_finds_orthogonal_pair():
    directions = ((1, 0), (0, 1))
    owners = (0, 1)
    pick = matroid_intersection(direction_matroid(directions), owner_matroid(owners), 2)
    assert pick == (0, 1)


def test_matroid_intersection_fails_on_parallel_directions():
    directions = ((1, 0), (2, 0), (1, 0))
    owners = (0, 1, 1)
    assert matroid_intersection(direction_matroid(directions), owner_matroid(owners), 2) is None


def test_matroid_intersection_of_size_zero_is_empty():
    assert matroid_intersection(direction_matroid(()), owner_matroid(()), 0) == ()


def test_matroid_oracle_validates_range():
    m = MatroidOracle(3, lambda s: len(s) <= 1)
    with pytest.raises(IndexError):
        m.independent((5,))


def test_mixed_ambient_dimensions_are_rejected(unit_triangle):
    spatial = hull((0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(DimensionMismatch):
        cylinder_lower_bound([unit_triangle, spatial])
    with pytest.raises(DimensionMismatch):
        decide_positive(DVOL, [unit_triangle, spatial])
    with pytest.raises(DimensionMismatch):
        positivity_witness([unit_triangle, spatial])
    with pytest.raises(ValueError):
        direction_matroid([(1, 0), (0, 1, 2)])


def test_direction_matroid_rejects_floats():
    with pytest.raises(TypeError):
        direction_matroid([(1, 0), (0.5, 1)])


def test_matroid_intersection_matches_brute_force():
    directions = ((1, 0), (1, 1), (0, 1), (2, 2), (1, 0))
    owners = (0, 0, 1, 1, 2)
    m1, m2 = direction_matroid(directions), owner_matroid(owners)
    for k in range(4):
        found = matroid_intersection(m1, m2, k)
        brute = any(
            m1.independent(c) and m2.independent(c)
            for c in itertools.combinations(range(5), k)
        )
        assert (found is not None) == brute
        if found is not None:
            assert len(found) == k
            assert m1.independent(found) and m2.independent(found)


def test_decide_positive_frozen_cases(unit_square, unit_triangle, e1_segment, e2_segment):
    diag = hull((0, 0), (1, 1))
    assert decide_positive(DVOL, [unit_triangle, e1_segment])
    assert decide_positive(DVOL, [e1_segment, e2_segment])
    assert not decide_positive(DVOL, [e1_segment, e1_segment])
    assert not decide_positive(DVOL, [unit_square, point_polytope((5, 5))])
    assert decide_positive(DVOL, [unit_square, diag])
    # Arity above the ambient dimension is never positive.
    assert not decide_positive(DVOL, [unit_square, unit_triangle, e1_segment])


def test_positivity_witness_picks_independent_segments(unit_square, unit_triangle, e1_segment):
    cube = hull(*[(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    families = [
        [unit_triangle, e1_segment],
        [unit_square, hull((0, 0), (1, 1))],
        [cube, cube, hull((0, 0, 0), (1, 2, 3))],
    ]
    for polys in families:
        witness = positivity_witness(polys)
        assert [s.owner for s in witness] == list(range(len(polys)))
        for s in witness:
            assert all(polys[s.owner].contains_point(p) for p in s.endpoints)
        assert rank([vec(s.direction) for s in witness]) == len(polys)
    assert positivity_witness([e1_segment, e1_segment]) is None
    assert positivity_witness([unit_square, unit_triangle, e1_segment]) is None


def test_decide_positive_falls_back_to_evaluation(unit_triangle, e1_segment):
    vol = builtin_valuations()["vol"]
    euler = builtin_valuations()["euler"]
    assert decide_positive(vol, [unit_triangle, e1_segment])
    # cm of euler is identically zero for nonempty arity.
    assert not decide_positive(euler, [unit_triangle, e1_segment])


def test_decision_agrees_with_the_value(unit_square, unit_triangle, e1_segment):
    diag = hull((0, 0), (1, 1))
    families = [
        [unit_triangle, e1_segment],
        [e1_segment, e1_segment],
        [unit_square, diag],
        [unit_square, unit_square],
        [e1_segment, diag],
    ]
    for polys in families:
        assert decide_positive(DVOL, polys) == (cm(DVOL, polys) > 0)


def test_cylinder_lower_bound_frozen_cases(unit_square, unit_triangle, e1_segment):
    cube = hull(*[(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    assert cylinder_lower_bound([unit_square, unit_square]) == 1
    assert cylinder_lower_bound([unit_triangle, e1_segment]) == 1
    assert cylinder_lower_bound([e1_segment, e1_segment]) == 0
    assert cylinder_lower_bound([unit_square]) == 2
    assert cylinder_lower_bound([cube]) == 3
    assert cylinder_lower_bound([]) == 1
    assert cylinder_lower_bound([unit_square, unit_triangle, e1_segment]) == 0


def test_cylinder_bound_is_sound_on_frozen_cases(unit_square, unit_triangle, e1_segment):
    for polys in ([unit_square, unit_square], [unit_triangle, e1_segment], [unit_square], [e1_segment]):
        assert cylinder_lower_bound(polys) <= cm(DVOL, polys, ambient_dim=2)


@given(polytope_families(arity=2, dim=2, max_vertices=4, bound=2))
def test_criterion_matches_positivity(polys):
    assert decide_positive(DVOL, polys) == (cm(DVOL, polys) > 0)


@given(polytope_families(arity=2, dim=2, max_vertices=4, bound=2))
def test_bound_never_exceeds_the_value(polys):
    value = cm(DVOL, polys)
    assert cylinder_lower_bound(polys) <= value
    if decide_positive(DVOL, polys):
        assert value >= 1


@given(st.data())
def test_random_matroid_instances_match_brute_force(data):
    n = data.draw(st.integers(0, 6))
    directions = tuple(
        data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
        for _ in range(n)
    )
    owners = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    k = data.draw(st.integers(0, 3))
    m1, m2 = direction_matroid(directions), owner_matroid(owners)
    found = matroid_intersection(m1, m2, k)
    brute = any(
        m1.independent(c) and m2.independent(c)
        for c in itertools.combinations(range(n), k)
    )
    assert (found is not None) == brute
