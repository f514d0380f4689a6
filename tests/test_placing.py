"""The integer placing triangulation and the pulling volume against a
Fraction reference."""

import random
from collections import Counter
from fractions import Fraction
from math import factorial

from mixedval import (
    Polytope,
    convex_hull,
    exact_volume,
    minkowski_sum_all,
    placing_triangulation,
    scaled_sum,
)
from mixedval import geometry
from mixedval.geometry import _scaled, placing_cells, volume_in_chart
from mixedval.linalg import det, dot, is_zero, vec, vsub
from mixedval.samplers import random_lattice_polytope, random_rational_polytope

from .fraction_linalg import nullspace, solve

F = Fraction


def _fraction_det(rows):
    """Reference determinant: Gaussian elimination in Fraction."""
    work = [list(map(F, r)) for r in rows]
    n = len(work)
    sign, result = 1, F(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pr is None:
            return F(0)
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            sign = -sign
        result *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return sign * result


def _coefficients(basis, v):
    """t with sum t_i basis_i = v, or None outside the span."""
    if not basis:
        return () if is_zero(v) else None
    return solve([[b[r] for b in basis] for r in range(len(v))], v)


def _reference_cells(loc, order):
    """Reference placing triangulation in Fraction.

    Points are kept as coefficients in the basis of the differences that
    grew the span, re-solved whenever it grows; the hyperplane through a
    boundary simplex is a nullspace vector of its difference rows.
    """
    cells, basis, origin, local = [], [], None, {}
    for idx in order:
        p = loc[idx]
        if origin is None:
            origin, cells, local[idx] = p, [(idx,)], ()
            continue
        t = _coefficients(basis, vsub(p, origin))
        if t is None:
            basis.append(vsub(p, origin))
            for j in [*local, idx]:
                local[j] = _coefficients(basis, vsub(loc[j], origin))
            cells = [c + (idx,) for c in cells]
            continue
        local[idx] = t
        k = len(basis)
        if k == 0:
            continue
        seen = {}
        for c in cells:
            for drop in range(len(c)):
                f = frozenset(c[:drop] + c[drop + 1 :])
                cnt, apex = seen.get(f, (0, c[drop]))
                seen[f] = (cnt + 1, apex)
        new_cells = []
        for f, (cnt, apex) in seen.items():
            if cnt != 1:
                continue
            pts = [local[i] for i in sorted(f)]
            (alpha,) = nullspace([vsub(q, pts[0]) for q in pts[1:]], ncols=k)
            beta = dot(alpha, pts[0])
            s_apex, s_new = dot(alpha, local[apex]), dot(alpha, t)
            if (s_apex < beta < s_new) or (s_apex > beta > s_new):
                new_cells.append(tuple(sorted(f | {idx})))
        cells.extend(new_cells)
    return cells


def _reference_volume(loc, cells, k):
    """Sum of the cells' volumes, a Fraction determinant each; 0 for a point."""
    if k == 0:
        return F(0)
    total = sum(abs(_fraction_det([vsub(loc[i], loc[c[0]]) for i in c[1:]])) for c in cells)
    return total / factorial(k)


def _point_sets():
    """Seeded point sets in dimensions 1..5, in shuffled orders: lattice,
    rational, grid (with interior, collinear and coplanar points), and
    lower-dimensional ones embedded in a rational affine subspace."""
    rng = random.Random(6101)
    for d, count in {1: 150, 2: 150, 3: 120, 4: 50, 5: 30}.items():
        for _ in range(count):
            n = rng.randint(d + 1, d + (5 if d < 4 else 3))
            yield d, "lattice", [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)]
            yield d, "rational", [
                tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3, 5])) for _ in range(d))
                for _ in range(n)
            ]
            yield d, "grid", [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(n + 2)]
            e = rng.randint(1, max(1, d - 1))
            gens = [[F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(d + 1)] for _ in range(e)]
            o = [F(rng.randint(-2, 2), 3) for _ in range(d + 1)]
            pts = []
            for _ in range(n):
                c = [rng.randint(-1, 2) for _ in range(e)]
                pts.append(tuple(o[j] + sum(ci * g[j] for ci, g in zip(c, gens)) for j in range(d + 1)))
            yield d, "lower", pts


def test_placing_cells_and_volume_match_the_fraction_reference():
    rng = random.Random(77)
    kinds = {}
    for d, kind, pts in _point_sets():
        kinds[kind] = kinds.get(kind, 0) + 1
        loc = [vec(p) for p in pts]
        order = list(range(len(loc)))
        rng.shuffle(order)
        label = (d, kind, pts, order)
        cells = _reference_cells(loc, order)
        # placed in list order: permute the points, map the cells back
        placed = [tuple(sorted(order[t] for t in c)) for c in placing_cells([pts[i] for i in order])]
        assert len(placed) == len(cells) and set(placed) == {tuple(sorted(c)) for c in cells}, label
        P = convex_hull(pts)
        if P.dim < len(loc[0]):
            # the volume in P's own chart (pivot entries of the row-reduced
            # basis), from the reference cells there
            o, _, pivots = P._chart
            loc = [tuple(v[c] - o[c] for c in pivots) for v in P.vertices]
            cells = _reference_cells(loc, range(len(loc)))
        assert volume_in_chart(P) == _reference_volume(loc, cells, P.dim), label
    assert sum(kinds.values()) >= 2000 and set(kinds) == {"lattice", "rational", "grid", "lower"}


def _volume_corpus(count=1200, seed=8311):
    """Seeded polytopes with d = 1..5, in turn: lattice and rational hulls,
    Minkowski sums, scaled sums (tight sets from the rescaling), copies
    built by the raw constructor (facets from their own hull) and
    lower-dimensional hulls in Q^(d+1) on a seeded d-flat."""
    rng = random.Random(seed)
    kinds = ("lattice", "rational", "sum", "scaled", "raw", "lower")
    out = []
    while len(out) < count:
        d = rng.randint(1, 5)
        nv, r = (5, 3) if d <= 2 else (4, 2)
        kind = kinds[len(out) % len(kinds)]

        def summand(nv=nv):
            if rng.random() < 0.5:
                return random_lattice_polytope(rng, d, max_vertices=nv, bound=3)
            return random_rational_polytope(rng, d, max_vertices=nv, bound=2)

        if kind == "lattice":
            P = random_lattice_polytope(rng, d, max_vertices=d + 4, bound=3)
        elif kind == "rational":
            P = random_rational_polytope(rng, d, max_vertices=d + 4, bound=2)
        elif kind == "sum":
            P = minkowski_sum_all([summand() for _ in range(rng.randint(2, r))])
        elif kind == "scaled":
            parts = [summand() for _ in range(rng.randint(2, r))]
            P = scaled_sum(parts, [rng.randint(1, 3) for _ in parts])
        elif kind == "raw":
            H = summand(d + 3)
            P = Polytope(H.ambient_dim, H.vertices, H.lattice)
        else:
            Q = summand()
            a = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(d)]
            j, c = rng.randint(0, d), F(rng.randint(-2, 2), 3)
            P = convex_hull([(*v[:j], dot(a, v) + c, *v[j:]) for v in Q.vertices])
        out.append((kind, P))
    return out


def _fraction_chart(points, chart):
    """The chart coordinates by Fraction differences, scaled afterwards."""
    o, _, pivots = chart
    return _scaled([[p[c] - o[c] for c in pivots] for p in points])


def test_pulling_volume_matches_the_fraction_placing_reference():
    corpus = _volume_corpus()
    kinds = Counter((kind, P.dim < P.ambient_dim) for kind, P in corpus)
    assert all(kinds[(kind, False)] >= 80 for kind in ("lattice", "rational", "sum", "scaled", "raw"))
    assert kinds[("lower", True)] >= 150, kinds
    assert sum(1 for _, P in corpus if P.dim >= 4) >= 150
    for kind, P in corpus:
        label = (kind, P.vertices)
        o, _, pivots = P._chart
        loc = [tuple(v[c] - o[c] for c in pivots) for v in P.vertices]
        expected = _reference_volume(loc, _reference_cells(loc, range(len(loc))), P.dim)
        assert volume_in_chart(P) == expected, label
        assert exact_volume(P) == (expected if P.dim == P.ambient_dim else 0), label


def test_volume_of_a_sum_with_cached_facets_runs_no_placing_and_no_hull(monkeypatch):
    rng = random.Random(5)
    sums = []
    for d in (2, 3, 4):
        parts = [random_lattice_polytope(rng, d, max_vertices=5, bound=2, full_dim=True) for _ in range(2)]
        sums += [minkowski_sum_all(parts), scaled_sum(parts, [2, 3])]
    calls = Counter()

    def counted(name):
        original = getattr(geometry, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(geometry, "placing_cells", counted("placing_cells"))
    monkeypatch.setattr(geometry, "_hull", counted("_hull"))
    assert all(exact_volume(S) > 0 for S in sums)
    assert not calls
    # the counters do see a raw-constructed polytope hull its own vertices
    S = sums[-1]
    assert exact_volume(Polytope(S.ambient_dim, S.vertices, S.lattice)) == exact_volume(S)
    assert calls == {"_hull": 1}


def test_the_volume_of_a_raw_simplex_is_one_determinant(monkeypatch):
    """A raw-constructed k-simplex (a dissection cell) needs no facets."""
    rng = random.Random(9191)
    simplices = []
    while len(simplices) < 400:
        d = rng.randint(1, 5)
        k = rng.randint(1, d)
        if len(simplices) % 2:
            pts = {
                tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(d))
                for _ in range(k + 1)
            }
        else:
            pts = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k + 1)}
        verts = tuple(sorted(vec(p) for p in pts))
        S = Polytope(d, verts, "Z" if all(x.denominator == 1 for v in verts for x in v) else "Q")
        if len(verts) == k + 1 and S.dim == k:
            simplices.append(S)
    assert sum(S.dim < S.ambient_dim for S in simplices) >= 100
    calls = Counter()
    real = geometry._hull
    monkeypatch.setattr(geometry, "_hull", lambda *a: calls.update(["_hull"]) or real(*a))
    for S in simplices:
        o, _, pivots = S._chart
        loc = [tuple(v[c] - o[c] for c in pivots) for v in S.vertices]
        expected = _reference_volume(loc, _reference_cells(loc, range(len(loc))), S.dim)
        assert volume_in_chart(S) == expected, S.vertices
    assert not calls


def test_int_chart_coordinates_give_the_fraction_chart_results(monkeypatch):
    corpus = _volume_corpus(count=300, seed=8312)

    def results():
        out = []
        for _, P in corpus:
            R = Polytope(P.ambient_dim, P.vertices, P.lattice)
            cells = [c.cell.vertices for c in placing_triangulation(R).cells]
            out.append((R.facets, R.facet_tight_sets, volume_in_chart(R), cells))
        return out

    int_chart = results()
    monkeypatch.setattr(geometry, "_integer_chart", _fraction_chart)
    assert int_chart == results()


def test_det_matches_fraction_elimination():
    rng = random.Random(404)
    for _ in range(400):
        n = rng.randint(0, 6)
        rows = [
            [F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])) for _ in range(n)] for _ in range(n)
        ]
        if n >= 2 and rng.random() < 0.4:
            # singular: one row a rational combination of two others
            a, b = F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 5)
            i, j, k = rng.sample(range(n), 3) if n >= 3 else (0, 1, 1)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        assert det(rows) == _fraction_det(rows), rows
        ints = [[int(x * 210) for x in r] for r in rows]
        assert det(ints) == _fraction_det(ints) and isinstance(det(ints), int), ints
