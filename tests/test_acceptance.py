"""Acceptance gate: eleven criteria, one test and one pass/fail line each.

Every check is exact; there are no tolerances anywhere.  The planar
corpus used by criteria 4, 5, and 10 enumerates all sub-polytopes of
the 3x3 lattice square up to translation, so the positivity criterion
is checked against ground truth exhaustively, not just on samples.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from mixedval import (
    boxcell_census,
    boxcell_dissection,
    builtin_valuations,
    certify_dilations,
    certify_dissection,
    cm,
    convex_hull,
    cylinder_lower_bound,
    decide_positive,
    dilate,
    direction_matroid,
    fine_mixed_dissection,
    matroid_intersection,
    minkowski_sum_all,
    mixed_polynomial,
    owner_matroid,
    planar_translation_classes,
    shift_valuation,
)
from mixedval.samplers import random_lattice_polytope, random_nested_pair

from .positivity_reference import edge_segments

F = Fraction
BUILTINS = builtin_valuations()
DVOL = BUILTINS["dvol"]
VOL = BUILTINS["vol"]


def _report(name: str, detail: str) -> None:
    print(f"acceptance {name}: PASS ({detail})")


def _random_family(rng: random.Random, d: int, r: int, *, bound: int, max_vertices: int):
    return [
        random_lattice_polytope(rng, d, bound=bound, max_vertices=max_vertices)
        for _ in range(r)
    ]


def test_c01_lattice_and_volume_mixed_agree():
    # >= 200 full-arity tuples with vertices in [0,3]^d, d in {2,3},
    # finished inside a minute.
    rng = random.Random(101)
    started = time.monotonic()
    checked = 0
    per_dim = {}
    for d, trials in ((2, 120), (3, 80)):
        d_started = time.monotonic()
        for _ in range(trials):
            polys = [
                convex_hull(
                    [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 2)],
                    lattice="Z",
                )
                for _ in range(d)
            ]
            assert cm(DVOL, polys) == cm(VOL, polys), polys
            checked += 1
        per_dim[d] = time.monotonic() - d_started
    elapsed = time.monotonic() - started
    assert checked >= 200
    split = ", ".join(f"d={d}: {t:.1f}s" for d, t in per_dim.items())
    assert elapsed < 60.0, f"c01 took {elapsed:.1f}s ({split})"
    _report("c01", f"{checked} tuples in {elapsed:.1f}s ({split})")


def test_c02_mixed_combinations_vanish_above_the_dimension():
    rng = random.Random(202)
    checked = 0
    for d in (1, 2, 3):
        for extra in (1, 2):
            for _ in range(18):
                polys = _random_family(rng, d, d + extra, bound=2, max_vertices=4)
                for phi in BUILTINS.values():
                    assert cm(phi, polys) == 0, (phi.name, polys)
                checked += 1
    assert checked >= 100
    _report("c02", f"{checked} families, all four valuations")


def test_c03_nested_families_give_sandwiched_nonnegative_values():
    rng = random.Random(303)
    checked = 0
    while checked < 200:
        d = rng.randint(1, 3)
        r = rng.randint(1, d)
        pairs = [random_nested_pair(rng, d) for _ in range(r)]
        inner = [p for p, _ in pairs]
        outer = [q for _, q in pairs]
        small = cm(DVOL, inner)
        big = cm(DVOL, outer)
        assert 0 <= small <= big, (inner, outer)
        checked += 1
    _report("c03", f"{checked} nested families")


@pytest.fixture(scope="module")
def planar_corpus():
    """All sub-polytopes of the 3x3 lattice square up to translation,
    with the mixed value of every unordered pair."""
    started = time.monotonic()
    reps = planar_translation_classes(2)
    pairs = []
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            polys = [reps[i], reps[j]]
            pairs.append((polys, cm(DVOL, polys)))
    return reps, pairs, time.monotonic() - started


def test_c04_positivity_criterion_matches_ground_truth(planar_corpus):
    started = time.monotonic()
    reps, pairs, build_seconds = planar_corpus
    assert len(reps) == 132
    assert len(pairs) == 8778
    for polys, value in pairs:
        assert decide_positive(DVOL, polys) == (value > 0), polys

    rng = random.Random(404)
    extra = 0
    for _ in range(100):
        polys = _random_family(rng, 3, 3, bound=1, max_vertices=4)
        assert decide_positive(DVOL, polys) == (cm(DVOL, polys) > 0), polys
        extra += 1
    elapsed = build_seconds + (time.monotonic() - started)
    assert elapsed < 300.0
    _report("c04", f"{len(pairs)} exhaustive pairs + {extra} spatial triples in {elapsed:.1f}s")


def test_c05_cylinder_bound_is_a_sound_lower_bound(planar_corpus):
    _, pairs, _ = planar_corpus
    positives = 0
    for polys, value in pairs:
        assert cylinder_lower_bound(polys) <= value, polys
        if value > 0:
            assert value >= 1
            positives += 1
    assert positives > 0
    _report("c05", f"{len(pairs)} pairs, {positives} positive")


def test_c06_boxcell_dissections_partition_and_count():
    cells_seen = 0
    for d in (1, 2, 3):
        for n in (1, 2, 3, 4):
            D = boxcell_dissection(d, n)
            total = certify_dissection(D)  # exact partition check inside
            assert total == sum(D.cell_counts())
            census = boxcell_census(D)
            assert census == {
                k: comb(n, k) * comb(d - 1, k - 1)
                for k in range(1, min(d, n) + 1)
            }, (d, n)
            cells_seen += len(D.cells)
    _report("c06", f"12 dissections, {cells_seen} cells")


def test_c07_fine_mixed_dissections_certify_under_dilation():
    rng = random.Random(707)
    instances = 0
    while instances < 50:
        d = rng.randint(2, 3)
        r = rng.randint(1, min(d, 2))
        polys = _random_family(rng, d, r, bound=1, max_vertices=d + 1)
        D = fine_mixed_dissection(polys, opener_seed=rng.randrange(1 << 16))
        vectors = [(1,) * r, (2,) + (1,) * (r - 1), (3,) * r]
        certify_dilations(D, vectors)
        instances += 1
    _report("c07", f"{instances} instances x 3 dilation vectors")


def test_c08_binomial_reconstruction_interpolates_every_builtin():
    rng = random.Random(808)
    checked = 0
    while checked < 100:
        d = rng.randint(1, 3)
        r = rng.randint(1, 2)
        polys = _random_family(rng, d, r, bound=2, max_vertices=4)
        for phi in BUILTINS.values():
            poly = mixed_polynomial(phi, polys)
            probe = tuple(rng.randint(d + 2, d + 4) for _ in range(r))
            direct = phi(minkowski_sum_all([dilate(P, k) for P, k in zip(polys, probe)]))
            assert poly.evaluate(probe) == direct, (phi.name, polys, probe)
            checked += 1
    _report("c08", f"{checked} fits probed outside the grid")


def test_c09_shift_identity():
    rng = random.Random(909)
    checked = 0
    while checked < 100:
        d = rng.randint(1, 3)
        r = rng.randint(1, 2)
        polys = _random_family(rng, d, r, bound=2, max_vertices=4)
        Q = random_lattice_polytope(rng, d, bound=2, max_vertices=4)
        for phi in BUILTINS.values():
            left = cm(shift_valuation(phi, Q), polys)
            right = cm(phi, polys + [Q]) + cm(phi, polys)
            assert left == right, (phi.name, polys, Q)
            checked += 1
    _report("c09", f"{checked} shifted evaluations")


def test_c10_matroid_search_matches_brute_force(planar_corpus):
    _, pairs, _ = planar_corpus
    checked = 0
    for polys, _ in pairs:
        # one segment per edge: the matroids see parallel and dependent
        # edges, which the package's own ground set leaves out
        segments = edge_segments(polys)
        if len(segments) > 12:
            continue
        m1 = direction_matroid(tuple(s.direction for s in segments))
        m2 = owner_matroid(tuple(s.owner for s in segments))
        found = matroid_intersection(m1, m2, 2)
        brute = any(
            m1.independent(c) and m2.independent(c)
            for c in itertools.combinations(range(len(segments)), 2)
        )
        assert (found is not None) == brute, polys
        if found is not None:
            assert m1.independent(found) and m2.independent(found)
        checked += 1
        if checked >= 2000:
            break
    assert checked >= 300
    _report("c10", f"{checked} ground sets up to 12 segments")


def test_c11_planar_mixed_values_match_volume_values():
    rng = random.Random(1111)
    checked = 0
    while checked < 200:
        polys = _random_family(rng, 2, 2, bound=3, max_vertices=5)
        assert cm(DVOL, polys) == cm(VOL, polys), polys
        checked += 1
    _report("c11", f"{checked} planar pairs")
