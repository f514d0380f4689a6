"""The Cayley-trick cell builder against reference routes that hull the
points and place them on the hull's chart: fine mixed dissections,
difference certificates and placing triangulations come out cell for
cell as on those routes, and neither Cayley builder hulls its points."""

import random
from collections import Counter

import pytest

from mixedval import (
    DimensionMismatch,
    Polytope,
    cayley_polytope,
    convex_hull,
    fine_mixed_dissection,
    minkowski_sum_all,
    mixed_difference_certificate,
    placing_triangulation,
)
from mixedval import dissections
from mixedval.dissections import (
    Dissection,
    MixedCell,
    _cayley_points,
    _pull_back,
    generic_opener,
    open_dissection,
)
from mixedval.geometry import _integer_chart, _lattice_tag, placing_cells
from mixedval.samplers import random_lattice_polytope, random_rational_polytope

from .test_placing import _volume_corpus
from .test_scaled_sum import _lower


def _charted_cells(pts, chart):
    """Placing cells of the points in list order, on their coordinates
    in the chart of their hull."""
    return placing_cells(_integer_chart(pts, chart)[1])


def _charted_triangulation(P):
    """placing_triangulation through P's chart."""
    cells = []
    for c in _charted_cells(P.vertices, P._chart):
        verts = tuple(sorted(P.vertices[t] for t in c))
        simplex = Polytope(P.ambient_dim, verts, _lattice_tag(verts, None))
        cells.append(MixedCell((simplex,), simplex))
    return Dissection(P, tuple(cells))


def _hull_route_dissection(polys, seed):
    """fine_mixed_dissection through the Cayley polytope's hull and its
    charted placing triangulation."""
    d, r = polys[0].ambient_dim, len(polys)
    tri = _charted_triangulation(cayley_polytope(polys))
    cells = tuple(_pull_back(c.cell.vertices, d, r) for c in tri.cells)
    return open_dissection(Dissection(minkowski_sum_all(polys), cells, factors=tuple(polys)), seed=seed)


def _hull_route_certificate(inner, outer, seed):
    """(dissection, inner cells, difference cells) of
    mixed_difference_certificate through the hull of the Cayley points
    and its chart."""
    d, r = outer[0].ambient_dim, len(outer)
    inner_pts = _cayley_points(inner)
    pts = list(dict.fromkeys(inner_pts + _cayley_points(outer)))
    index_cells = _charted_cells(pts, convex_hull(pts)._chart)
    cells = tuple(_pull_back([pts[t] for t in c], d, r) for c in index_cells)
    target_in, target_out = minkowski_sum_all(inner), minkowski_sum_all(outer)
    q = generic_opener(target_out, cells, seed=seed, from_polytope=target_in)
    D = open_dissection(Dissection(target_out, cells, factors=tuple(outer)), q)
    inner_idx = tuple(k for k, c in enumerate(index_cells) if max(c) < len(inner_pts))
    diff_idx = tuple(k for k, c in enumerate(index_cells) if max(c) >= len(inner_pts))
    return D, inner_idx, diff_idx


def _factor(rng, d, kind):
    nv = 6 if d < 3 else 5 if d == 3 else 4
    if kind == "lattice":
        return random_lattice_polytope(rng, d, max_vertices=nv, bound=2 if d < 4 else 1)
    if kind == "rational":
        return random_rational_polytope(rng, d, max_vertices=nv, bound=1, max_denominator=2)
    if kind == "point":
        return convex_hull([tuple(rng.randint(-2, 2) for _ in range(d))])
    return _lower(rng, d)


def _families(count, seed):
    """Seeded (kinds, factors): d 1..4, r 1..3, each factor lattice,
    rational, lower-dimensional or, more rarely, a point."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 4)
        r = rng.randint(1, 3)
        kinds = rng.choices(("lattice", "rational", "lower", "point"), (3, 3, 2, 1), k=r)
        yield rng, d, kinds, [_factor(rng, d, k) for k in kinds]


def _nested(rng, P):
    """A sub-polytope of P, in turn: P, the hull of some of its vertices,
    or P shrunk by half towards one of them."""
    t = rng.randrange(3)
    if t == 0:
        return P
    if t == 1:
        return convex_hull(rng.sample(P.vertices, rng.randint(1, len(P.vertices))))
    o = rng.choice(P.vertices)
    return convex_hull([tuple((x + y) / 2 for x, y in zip(v, o)) for v in P.vertices])


def test_fine_mixed_cells_match_the_cayley_hull_route():
    seen = Counter()
    for rng, d, kinds, polys in _families(320, 5151):
        seed = rng.randrange(100)
        D = fine_mixed_dissection(polys, opener_seed=seed)
        assert D == _hull_route_dissection(polys, seed), polys
        seen[(d, len(polys))] += 1
        seen.update(kinds)
        seen["several cells"] += len(D.cells) > 1
    assert all(seen[(d, r)] >= 10 for d in range(1, 5) for r in range(1, 4)), seen
    assert min(seen["lattice"], seen["rational"], seen["lower"], seen["point"]) >= 50, seen
    assert seen["several cells"] >= 100, seen


def test_difference_certificates_match_the_cayley_hull_route():
    certificates = Counter()
    for rng, d, kinds, outer in _families(300, 5252):
        inner = [_nested(rng, P) for P in outer]
        seed = rng.randrange(100)
        try:
            cert = mixed_difference_certificate(inner, outer, opener_seed=seed)
        except DimensionMismatch:
            continue  # the inner sum is lower-dimensional
        D, inner_idx, diff_idx = _hull_route_certificate(inner, outer, seed)
        assert cert.dissection == D, (inner, outer)
        assert (cert.inner_cells, cert.difference_cells) == (inner_idx, diff_idx), (inner, outer)
        certificates["all"] += 1
        certificates["with difference"] += bool(diff_idx)
    assert certificates["all"] >= 200 and certificates["with difference"] >= 100, certificates


def test_placing_triangulation_matches_the_charted_route():
    corpus = [P for _, P in _volume_corpus(count=600, seed=8313)]
    corpus += [Polytope(P.ambient_dim, P.vertices, P.lattice) for P in corpus]
    assert len(corpus) >= 1000
    for P in corpus:
        assert placing_triangulation(P) == _charted_triangulation(P), P.vertices


def test_the_cayley_builders_hull_no_cayley_points(monkeypatch):
    rng = random.Random(5353)
    cases = []
    for d, r in ((1, 3), (2, 2), (3, 2), (2, 3), (4, 1)):
        outer = [_factor(rng, d, "lattice") for _ in range(r)]
        inner = [_nested(rng, P) for P in outer]
        while minkowski_sum_all(inner).dim != minkowski_sum_all(outer).dim:
            inner = [_nested(rng, P) for P in outer]
        cases.append((inner, outer))

    def refuse(*args, **kwargs):
        raise AssertionError("a Cayley builder called a hull route")

    for name in ("convex_hull", "cayley_polytope", "placing_triangulation"):
        monkeypatch.setattr(dissections, name, refuse)
    assert not hasattr(dissections, "_integer_chart")
    for inner, outer in cases:
        assert fine_mixed_dissection(outer).cells
        assert mixed_difference_certificate(inner, outer).dissection.cells
    with pytest.raises(AssertionError, match="hull route"):
        dissections.cayley_polytope(outer)
