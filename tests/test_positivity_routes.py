"""The positivity layer's spanning ground set and size-vector search
against the per-edge ground set and the search over every simplex span."""

import random
import time
from collections import Counter

from mixedval import (
    builtin_valuations,
    convex_hull,
    cylinder_lower_bound,
    decide_positive,
    point_polytope,
    positivity,
    positivity_witness,
)
from mixedval.samplers import random_lattice_polytope

from .positivity_reference import edge_witness, exhaustive_bound, simplex_spans

DVOL = builtin_valuations()["dvol"]


def _flat(rng, d):
    """Lattice points in a random affine sublattice of dimension 1 or 2."""
    gens = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(rng.randint(1, min(2, d - 1)))]
    o = [rng.randint(-2, 2) for _ in range(d)]
    count = rng.randint(1, 6)
    return convex_hull(
        [tuple(o[j] + sum(rng.randint(-1, 2) * g[j] for g in gens) for j in range(d)) for _ in range(count)]
    )


def _tuples(count, seed):
    """Seeded lattice tuples, d 1..4, r 1..d and now and then d + 1: full,
    lower-dimensional and point factors, and one factor met twice."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 4)
        r = rng.randint(1, d) + (rng.random() < 0.1)
        shared = random_lattice_polytope(rng, d, max_vertices=6, bound=2)
        polys = []
        for _ in range(r):
            x = rng.random()
            if x < 0.45:
                polys.append(random_lattice_polytope(rng, d, max_vertices=6, bound=2))
            elif x < 0.75 and d > 1:
                polys.append(_flat(rng, d))
            elif x < 0.9:
                polys.append(shared)
            else:
                polys.append(point_polytope([rng.randint(-2, 2) for _ in range(d)]))
        out.append(polys)
    return out


def _coverage(tuples):
    dims = Counter()
    for polys in tuples:
        d = polys[0].ambient_dim
        dims.update((d, "point" if P.dim == 0 else "lower" if P.dim < d else "full") for P in polys)
    return dims


def test_the_spanning_ground_set_gives_the_per_edge_witness():
    tuples = _tuples(2200, seed=11)
    dims = _coverage(tuples)
    assert all(dims[(d, kind)] >= 20 for d in (2, 3, 4) for kind in ("point", "lower", "full"))
    found = Counter()
    for polys in tuples:
        witness = positivity_witness(polys)
        assert witness == edge_witness(polys), polys
        assert decide_positive(DVOL, polys) == (witness is not None)
        found[witness is not None] += 1
    assert found[True] >= 500 and found[False] >= 500


def test_size_vectors_give_the_exhaustive_bound():
    tuples = _tuples(600, seed=12)
    values = Counter()
    for polys in tuples:
        bound = cylinder_lower_bound(polys)
        assert bound == exhaustive_bound(polys), polys
        values[bound] += 1
    assert set(values) == {0, 1, 2, 3, 4}, values


def test_a_skipped_size_vector_is_caught(monkeypatch):
    real = positivity._size_vectors
    monkeypatch.setattr(positivity, "_size_vectors", lambda dims, d: real(dims, d)[1:])
    assert any(cylinder_lower_bound(polys) != exhaustive_bound(polys) for polys in _tuples(100, seed=12))


def test_spans_are_found_once_and_kept_on_the_polytope():
    P = random_lattice_polytope(random.Random(5), 3, max_vertices=8, bound=2, full_dim=True)
    ones = P._simplex_spans(1)
    first = next(ones)
    nested = list(P._simplex_spans(1))  # reads what the outer one found, then resumes
    assert [first, *ones] == nested == list(P._simplex_spans(1))
    expect = {k: {key for j, key in simplex_spans(P) if j == k} for k in (1, 2, 3)}
    assert {k: set(P._simplex_spans(k)) for k in (1, 2, 3)} == expect
    assert len(nested) == len(expect[1]) and list(P._simplex_spans(3)) == [P._chart[1]]


def test_more_factors_than_dimensions_are_settled_at_once():
    rng = random.Random(3)
    polys = [random_lattice_polytope(rng, 4, max_vertices=6, bound=2, full_dim=True) for _ in range(16)]
    simplices = [convex_hull([(0,) * 8, *((0,) * i + (1,) + (0,) * (7 - i) for i in range(j + 1))]) for j in range(8)]
    started = time.monotonic()
    assert cylinder_lower_bound(polys) == 0
    assert cylinder_lower_bound(simplices) == 1  # (1, ..., 1) is the one size vector
    assert time.monotonic() - started < 1.0


def test_a_27_and_32_vertex_pair_gets_its_bound_in_under_a_second():
    rng = random.Random(0)
    points = [tuple(rng.randint(0, 6) for _ in range(4)) for _ in range(47)]
    P, Q = convex_hull(points[:37]), convex_hull(points)
    assert (len(P.vertices), len(Q.vertices)) == (27, 32)
    started = time.monotonic()
    bound = cylinder_lower_bound([P, Q])
    assert time.monotonic() - started < 1.0
    # 2 * 2 is the largest product of sizes that sum to at most 4, so the
    # exhaustive search, which takes minutes here, finds it too
    assert bound == 4


def test_sizes_beyond_the_joint_rank_are_skipped():
    # two 3-polytopes on the moment curves (t, t^2, +-t^3, 0): their sum
    # spans only 3 dimensions, so (2, 2), (3, 1) and (1, 3) ask for rank 4
    P = convex_hull([(t, t * t, t**3, 0) for t in range(20)])
    Q = convex_hull([(t, t * t, -(t**3), 0) for t in range(20)])
    assert (len(P.vertices), len(Q.vertices), P.dim, Q.dim) == (20, 20, 3, 3)
    started = time.monotonic()
    assert cylinder_lower_bound([P, Q]) == 2
    assert time.monotonic() - started < 1.0


def test_many_segments_in_a_hyperplane_are_pruned_in_polynomial_time():
    # 20 segments in Q^20 whose directions (1, t, ..., t^18, 0) lie in general
    # position in x20 = 0: every 19 of them are independent, so only the full
    # set asks for more than its rank, and a prune that tried each of the
    # 2^20 subsets would take minutes
    d = 20
    segments = [convex_hull([(0,) * d, tuple(t**i for i in range(d - 1)) + (0,)]) for t in range(1, d + 1)]
    started = time.monotonic()
    assert cylinder_lower_bound(segments) == 0
    assert cylinder_lower_bound(segments[1:]) == 1
    assert time.monotonic() - started < 1.0
