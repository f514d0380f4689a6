"""The cell builders against reference routes that hull: fine mixed
dissections and difference certificates come out cell for cell as when
the Cayley points are hulled and placed on the hull's chart and every
cell is the hull of its summands' sum, and placing triangulations as on
the charted route.  Neither Cayley builder hulls its points, no builder
hulls a cell, and a wrong adjugate column is caught."""

import random
from collections import Counter

import pytest

from mixedval import (
    DimensionMismatch,
    GeometryError,
    Polytope,
    boxcell_dissection,
    cayley_polytope,
    certify_difference,
    certify_dilations,
    certify_dissection,
    convex_hull,
    count_half_open,
    dilate,
    fine_mixed_dissection,
    minkowski_sum_all,
    mixed_difference_certificate,
    order_simplex,
    placing_triangulation,
    staircase_dissection,
)
from mixedval import counting, dissections, geometry
from mixedval.dissections import (
    Dissection,
    MixedCell,
    _cayley_points,
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


def _hull_pull_back(point_cell, d, r):
    """The mixed cell of a Cayley simplex, hulled: the sum of the groups of
    its base parts by height label, through the sum cache."""
    groups = [sorted(p[:d] for p in point_cell if p[d + i] == 1) for i in range(r)]
    summands = tuple(Polytope(d, tuple(g), _lattice_tag(g, None)) for g in groups)
    return MixedCell(summands, minkowski_sum_all(summands))


def _hull_route_dissection(polys, seed):
    """fine_mixed_dissection through the Cayley polytope's hull and its
    charted placing triangulation, every cell hulled."""
    d, r = polys[0].ambient_dim, len(polys)
    tri = _charted_triangulation(cayley_polytope(polys))
    cells = tuple(_hull_pull_back(c.cell.vertices, d, r) for c in tri.cells)
    return open_dissection(Dissection(minkowski_sum_all(polys), cells, factors=tuple(polys)), seed=seed)


def _hull_route_certificate(inner, outer, seed):
    """(dissection, inner cells, difference cells) of
    mixed_difference_certificate through the hull of the Cayley points
    and its chart."""
    d, r = outer[0].ambient_dim, len(outer)
    inner_pts = _cayley_points(inner)
    pts = list(dict.fromkeys(inner_pts + _cayley_points(outer)))
    index_cells = _charted_cells(pts, convex_hull(pts)._chart)
    cells = tuple(_hull_pull_back([pts[t] for t in c], d, r) for c in index_cells)
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


def test_building_a_dissection_hulls_only_its_target(monkeypatch):
    hulls, tables = [], []
    real_hull, real_table = geometry._hull, counting._Support.__init__
    monkeypatch.setattr(geometry, "_hull", lambda points, k: hulls.append(len(points)) or real_hull(points, k))
    monkeypatch.setattr(
        counting._Support, "__init__", lambda self, S, T, removed=frozenset(): tables.append(T) or real_table(self, S, T, removed)
    )

    def hulled(build):
        """What build returns, and the hulls it runs from a cold sum cache."""
        geometry._cached_sum.cache_clear()
        hulls.clear()
        return build(), list(hulls)

    rng = random.Random(5454)
    built = []
    for _, d, kinds, polys in _families(40, 5454):
        D, calls = hulled(lambda: fine_mixed_dissection(polys, opener_seed=3))
        assert calls == hulled(lambda: minkowski_sum_all(polys))[1], polys
        inner = [_nested(rng, P) for P in polys]
        if minkowski_sum_all(inner).dim == D.target.dim:
            cert, calls = hulled(lambda: mixed_difference_certificate(inner, polys))
            assert calls == hulled(lambda: [minkowski_sum_all(inner), minkowski_sum_all(polys)])[1]
            built.append((cert.dissection, cert))
        built.append((D, None))
    for d, n in ((1, 3), (2, 3), (3, 2), (4, 2)):
        D, calls = hulled(lambda: boxcell_dissection(d, n))
        assert calls == hulled(lambda: dilate(order_simplex(d), n))[1] == [d + 1]
        built.append((D, None))
    for p, q in ((1, 1), (2, 1), (2, 2), (3, 1)):
        S = convex_hull([(0,) * 4, *((0,) * i + (1,) + (0,) * (3 - i) for i in range(p))])
        T = convex_hull([(0,) * 4, *((0,) * i + (2,) + (0,) * (3 - i) for i in range(p, p + q))])
        D, calls = hulled(lambda: open_dissection(staircase_dissection(S, T)))
        assert calls == []  # the target is a sum of simplices too
        built.append((D, None))

    assert not tables
    for D, _ in built:
        D.cell_counts()
    assert not tables  # no cell counts from a support table
    for D, cert in built:
        targets = [D.target]
        certify_dissection(D)
        if D.factors is not None:
            certify_dilations(D, [(2,) * len(D.factors)])
        if cert is not None:
            certify_difference(cert, [(2,) * len(D.factors)])
            targets.append(cert.inner_dissection.target)
        assert all(T in targets for T in tables)
        tables.clear()


def test_a_wrong_adjugate_column_is_caught(monkeypatch):
    real = dissections.adjugate

    def wrong(rows):
        # the first column of the adjugate picks up the last one
        det, adj = real(rows)
        return det, [[row[0] + row[-1], *row[1:]] for row in adj]

    monkeypatch.setattr(dissections, "adjugate", wrong)
    caught = 0
    for rng, d, kinds, polys in _families(60, 5151):
        seed = rng.randrange(100)
        reference = _hull_route_dissection(polys, seed)
        try:
            D = fine_mixed_dissection(polys, opener_seed=seed)
        except GeometryError:
            caught += 1
            continue
        counts = [count_half_open(c.half_open()) for c in reference.cells]
        caught += D != reference or D.cell_counts() != counts
    assert caught >= 20, caught
