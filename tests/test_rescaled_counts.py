"""Rescaled cell and target counts from int support numbers, against the
route that builds every rescaled polytope; opening points in int; the
fields of a failed dilation or difference certificate."""

import random
from collections import Counter
from fractions import Fraction
from itertools import chain, product
from operator import mul

import pytest

from mixedval import (
    CertificateError,
    DimensionMismatch,
    GeometryError,
    certify_difference,
    certify_dilations,
    convex_hull,
    count_half_open,
    count_lattice_points,
    difference_counts,
    dilated_cell_counts,
    fine_mixed_dissection,
    mixed_difference_certificate,
    open_dissection,
    placing_triangulation,
    scaled_sum,
)
from mixedval import dissections, geometry
from mixedval.counting import HalfOpenPolytope
from mixedval.linalg import dot
from mixedval.samplers import random_lattice_polytope, random_rational_polytope

from .conftest import hull
from .test_scaled_sum import _lower

F = Fraction


def _face_index(P, a):
    """The facet of P maximizing <a, .>, by Fraction dots over P's vertices."""
    vals = [dot(a, v) for v in P.vertices]
    tight = frozenset(t for t, v in enumerate(vals) if v == max(vals))
    idx = P.facet_by_tight_set.get(tight)
    if idx is None:
        raise CertificateError("maximizing face is not a facet")
    return idx


def _owners(cell):
    out = []
    for f in cell.cell.facets:
        moving = [j for j, R in enumerate(cell.summands) if len({dot(f.normal, v) for v in R.vertices}) > 1]
        assert len(moving) == 1
        out.append(moving[0])
    return out


def scaled_half_open(cell, n):
    """The reference route: the cell rescaled summand-wise by n as a
    polytope (scaled_sum), its removed facets found again on it, or None
    when a removed facet's owner collapses to a point."""
    owners = _owners(cell)
    if any(n[owners[i]] == 0 for i in cell.removed):
        return None
    scaled = scaled_sum(cell.summands, n)
    removed = frozenset(_face_index(scaled, cell.cell.facets[i].normal) for i in cell.removed)
    return HalfOpenPolytope(scaled, removed)


def _reference_count(cell, n):
    H = scaled_half_open(cell, n)
    return 0 if H is None else count_half_open(H)


def _factor(rng, d, kind):
    nv = 6 if d < 3 else 5 if d == 3 else 4
    if kind == "lattice":
        return random_lattice_polytope(rng, d, max_vertices=nv, bound=2 if d < 4 else 1)
    if kind == "rational":
        return random_rational_polytope(rng, d, max_vertices=nv, bound=1, max_denominator=2)
    return _lower(rng, d)


def _vectors(rng, r):
    """Dilation vectors in {0..3}^r: all of them for r <= 2, a sample
    with zeros and without for r = 3."""
    every = list(product(range(4), repeat=r))
    return every if r <= 2 else [n for n in every if rng.random() < 0.35]


def _families(count, seed):
    """Seeded (kinds, factors): d 1..4, r 1..3 (r <= 2 for d = 4), each
    factor lattice, rational or lower-dimensional."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 4)
        r = rng.randint(1, 3 if d < 4 else 2)
        kinds = [rng.choice(("lattice", "rational", "lower")) for _ in range(r)]
        yield rng, d, kinds, [_factor(rng, d, k) for k in kinds]


def _flat_families(count, seed):
    """Seeded families in one affine flat of dimension < d, with rational
    generators and origin: cells whose affine hull meets the lattice in a
    coarse lattice, or at some dilations not at all."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(2, 4)
        e = rng.randint(1, d - 1)
        gens = [[F(rng.randint(-2, 2), rng.choice([1, 1, 2])) for _ in range(d)] for _ in range(e)]
        o = [F(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(d)]
        polys = []
        for _ in range(rng.randint(1, min(3, e + 1))):
            points = [[rng.randint(-1, 2) for _ in range(e)] for _ in range(rng.randint(1, e + 2))]
            polys.append(convex_hull([tuple(o[j] + sum(map(mul, c, (g[j] for g in gens))) for j in range(d)) for c in points]))
        yield rng, d, ["flat"] * len(polys), polys


def test_cell_and_target_counts_match_the_rescaled_polytopes():
    seen = Counter()
    for rng, d, kinds, polys in chain(_families(110, 4141), _flat_families(60, 4343)):
        D = fine_mixed_dissection(polys, opener_seed=rng.randrange(100))
        for c in D.cells:
            seen["|G| > 1"] += len(c._product.group[3]) > 1
            seen["lower cells"] += c.cell.dim < d
            seen["rational cells"] += c._product.D > 1
        for n in _vectors(rng, len(polys)):
            expect = [_reference_count(c, n) for c in D.cells]
            assert dilated_cell_counts(D, n) == expect, (polys, n)
            target = count_lattice_points(scaled_sum(polys, n))
            assert D._target_rescaling.count(n) == target == sum(expect), (polys, n)
            certify_dilations(D, [n])
            seen["case"] += 1
            seen["zero"] += 0 in n
            seen["removed"] += any(c.removed for c in D.cells)
        seen[(d, len(polys))] += 1
        seen.update(kinds)
    assert seen["case"] >= 1000 and seen["zero"] >= 300 and seen["removed"] >= 300, seen
    assert all(seen[(d, r)] for d in range(1, 5) for r in range(1, 4 if d < 4 else 3)), seen
    assert min(seen["lattice"], seen["rational"], seen["lower"]) >= 30, seen
    assert seen["|G| > 1"] >= 200 and seen["lower cells"] >= 100 and seen["rational cells"] >= 100, seen


def _mismatches(families):
    """The (cell, n) cases where the closed form and the reference route
    disagree, over the dilation vectors of each family."""
    bad = 0
    for rng, d, kinds, polys in families:
        D = fine_mixed_dissection(polys, opener_seed=rng.randrange(100))
        for n in _vectors(rng, len(polys)):
            bad += sum(x != _reference_count(c, n) for x, c in zip(dilated_cell_counts(D, n), D.cells))
    return bad


def _fault_corpus():
    return chain(_families(30, 4141), _flat_families(20, 4343))


def test_a_removed_first_vertex_side_counted_closed_is_caught(monkeypatch):
    real = dissections._CellCounts.__init__

    def closed_first_side(self, P, removed):
        real(self, P, removed)
        self.removed = frozenset((j, v) for j, v in self.removed if v)

    monkeypatch.setattr(dissections._CellCounts, "__init__", closed_first_side)
    assert _mismatches(_fault_corpus()) >= 20


def test_a_shift_taken_at_n_not_n_mod_D_is_caught(monkeypatch):
    count, table = dissections._CellCounts.count, dissections._CellCounts._table

    def at_n(self, n):
        # rational cells read their table at n for the class of n mod D
        D = self.product.D
        if D > 1:
            self._tables[tuple(x % D for x in n)] = table(self, tuple(n))
        return count(self, n)

    monkeypatch.setattr(dissections._CellCounts, "count", at_n)
    assert _mismatches(_fault_corpus()) >= 20


def _nested(rng, P):
    """A sub-polytope of P: the hull of some of its vertices, or P."""
    if rng.random() < 0.3:
        return P
    return convex_hull(rng.sample(P.vertices, rng.randint(1, len(P.vertices))))


def test_difference_counts_match_the_rescaled_polytopes():
    cases = certificates = 0
    for rng, d, kinds, outer in _families(120, 4242):
        inner = [_nested(rng, P) for P in outer]
        try:
            cert = mixed_difference_certificate(inner, outer, opener_seed=rng.randrange(100))
        except DimensionMismatch:
            continue  # the inner sum is lower-dimensional
        certificates += 1
        cells = cert.dissection.cells
        for n in _vectors(rng, len(outer)):
            expect = [_reference_count(cells[k], n) for k in cert.difference_cells]
            assert difference_counts(cert, n) == expect, (inner, outer, n)
            outside = count_lattice_points(scaled_sum(outer, n)) - count_lattice_points(scaled_sum(inner, n))
            assert sum(expect) == outside, (inner, outer, n)
            certify_difference(cert, [n])
            cases += 1
    assert certificates >= 60 and cases >= 600, (certificates, cases)


def test_certifying_dilations_builds_no_polytope(monkeypatch):
    rng = random.Random(12)
    built = []
    for d, r in ((2, 2), (3, 2), (2, 3), (4, 1)):
        polys = [random_rational_polytope(rng, d, max_vertices=d + 1, bound=1) for _ in range(r)]
        D = fine_mixed_dissection(polys, opener_seed=5)
        while True:
            try:
                cert = mixed_difference_certificate([_nested(rng, P) for P in polys], polys)
                break
            except DimensionMismatch:
                continue
        built.append((D, cert, r))
    calls = Counter()
    for name in ("_rescaled", "_hull"):
        real = getattr(geometry, name)
        monkeypatch.setattr(geometry, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    for D, cert, r in built:
        vectors = list(product(range(4), repeat=r))
        certify_dilations(D, vectors)
        certify_difference(cert, vectors)
    assert not calls


def _two_cell_dissection():
    return fine_mixed_dissection([hull((0, 0), (1, 0), (0, 1)), hull((0, 0), (1, 0))], opener_seed=3)


@pytest.mark.parametrize("q", [(F(1, 3),), (F(1, 3), F(1, 5), F(1, 7))])
def test_an_opening_point_of_the_wrong_length_is_a_dimension_mismatch(q):
    D = _two_cell_dissection()
    with pytest.raises(DimensionMismatch, match="wrong dimension"):
        open_dissection(D, q)


def test_int_opening_matches_the_fraction_sides():
    rng = random.Random(17)
    checked = ties = 0
    for _ in range(150):
        d = rng.randint(1, 3)
        P = random_rational_polytope(rng, d, max_vertices=d + 3, bound=2)
        T = placing_triangulation(P)
        q = tuple(F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6])) for _ in range(d))
        sides = [[dot(f.normal, q) - f.offset for f in c.cell.facets] for c in T.cells]
        if any(s == 0 for row in sides for s in row):
            with pytest.raises(GeometryError, match="cell facet hyperplane"):
                open_dissection(T, q)
            ties += 1
            continue
        opened = open_dissection(T, q)
        assert [c.removed for c in opened.cells] == [
            frozenset(i for i, s in enumerate(row) if s > 0) for row in sides
        ]
        checked += 1
    assert checked >= 100 and ties >= 5, (checked, ties)


def test_a_failed_certificate_carries_its_dilation_and_counts(monkeypatch):
    D = _two_cell_dissection()
    square = hull((0, 0), (1, 0), (1, 1), (0, 1))
    cert = mixed_difference_certificate([hull((0, 0), (1, 0), (0, 1))], [square])
    real = dissections._CellCounts.count
    # every half-open cell counts one point too many; the targets stay right
    monkeypatch.setattr(dissections._CellCounts, "count", lambda self, n: real(self, n) + bool(self.removed))
    with pytest.raises(CertificateError) as err:
        certify_dilations(D, [(1, 1), (2, 1)])
    expect = count_lattice_points(scaled_sum(D.factors, (1, 1)))
    assert str(err.value) == f"scaled cells count {expect + 1} at (1, 1), the target {expect}"
    assert (err.value.dilation, err.value.expected, err.value.actual) == ((1, 1), expect, expect + 1)
    with pytest.raises(CertificateError) as err:
        certify_difference(cert, [[2]])
    assert str(err.value) == "difference cells count 4 at (2,), expected 3"
    assert (err.value.dilation, err.value.expected, err.value.actual) == ((2,), 3, 4)
    assert CertificateError("a partition check").dilation is None
