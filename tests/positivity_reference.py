"""Reference positivity routes: the per-edge matroid ground set and the
search over every simplex span, as the package ran them before it took
a spanning subset of the edges and tried size vectors in turn."""

from itertools import combinations

from mixedval import (
    Segment,
    direction_matroid,
    matroid_intersection,
    owner_matroid,
)
from mixedval.geometry import _scaled
from mixedval.linalg import extend_echelon, span_key


def edge_segments(polys):
    """One segment per edge of each polytope, tagged with its owner index."""
    return [Segment(i, (a, b), u) for i, P in enumerate(polys) for a, b, u in P.integer_edges]


def edge_witness(polys):
    """positivity_witness on the per-edge ground set."""
    r = len(polys)
    if r > polys[0].ambient_dim:
        return None
    segments = edge_segments(polys)
    m1 = direction_matroid([s.direction for s in segments])
    m2 = owner_matroid([s.owner for s in segments])
    pick = matroid_intersection(m1, m2, r)
    return None if pick is None else tuple(segments[i] for i in pick)


def simplex_spans(P):
    """Distinct direction spans of simplices on the vertices, dim >= 1, as
    (dimension, span_key) pairs, largest first: every (k+1)-subset tried."""
    _, pts = _scaled(P.vertices)
    found = {}
    for k in range(1, P.dim + 1):
        for sub in combinations(pts, k + 1):
            key = span_key([[x - y for x, y in zip(p, sub[0])] for p in sub[1:]])
            if len(key) == k:
                found.setdefault(key, k)
    return sorted(((k, key) for key, k in found.items()), key=lambda t: -t[0])


def exhaustive_bound(polys):
    """cylinder_lower_bound by a branch-and-bound over every simplex span
    of every polytope."""
    r = len(polys)
    if r == 0:
        return 1
    d = polys[0].ambient_dim
    candidates = [simplex_spans(P) for P in polys]
    if any(not c for c in candidates):
        return 0
    suffix = [1] * (r + 1)
    for i in range(r - 1, -1, -1):
        suffix[i] = suffix[i + 1] * candidates[i][0][0]
    best = 0

    def search(i, echelon, prod):
        nonlocal best
        if i == r:
            best = max(best, prod)
            return
        if prod * suffix[i] <= best:
            return
        for k, basis in candidates[i]:
            if len(echelon) + k > d:
                continue
            branch = list(echelon)
            if all(extend_echelon(branch, row) for row in basis):
                search(i + 1, branch, prod * k)

    search(0, [], 1)
    return best
