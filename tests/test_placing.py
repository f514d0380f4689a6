"""The integer placing triangulation and volume against a Fraction reference."""

import random
from fractions import Fraction
from math import factorial

from mixedval import convex_hull
from mixedval.geometry import placing_cells, volume_in_chart
from mixedval.linalg import det, dot, is_zero, nullspace, solve, vec, vsub

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
        assert placing_cells(pts, order) == cells, label
        P = convex_hull(pts)
        if P.dim < len(loc[0]):
            # the volume in P's own chart (pivot entries of the row-reduced
            # basis), from the reference cells there
            o, _, pivots = P._chart
            loc = [tuple(v[c] - o[c] for c in pivots) for v in P.vertices]
            cells = _reference_cells(loc, range(len(loc)))
        assert volume_in_chart(P) == _reference_volume(loc, cells, P.dim), label
    assert sum(kinds.values()) >= 2000 and set(kinds) == {"lattice", "rational", "grid", "lower"}


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
