"""Reference hulls that share no code path with the package's fast ones."""

from itertools import combinations

from mixedval import convex_hull, minkowski_sum, minkowski_sum_all, origin_polytope
from mixedval.geometry import dilate
from mixedval.linalg import dot, primitive, vadd, vec, vsub

from .fraction_linalg import nullspace, rank


def brute_hull(points):
    """Reference hull: (vertices, facets, tight sets) of conv(points).

    Independent of the package's hull: every hyperplane of aff(points)
    through k affinely independent points is tried in Fraction, in
    ambient coordinates, and kept when all points lie on one side of it;
    a vertex is a point whose tight normals have rank k.  Facets are
    sorted (normal, offset) pairs with primitive normals in the linear
    space of aff(points), and tight sets index the vertices.
    """
    pts = sorted({vec(p) for p in points})
    d = len(pts[0])
    diffs = [vsub(p, pts[0]) for p in pts[1:]]
    k = rank(diffs)
    if k == 0:
        return tuple(pts), (), ()
    equations = nullspace(diffs, ncols=d)
    tight = {}
    for combo in combinations(range(len(pts)), k):
        base = pts[combo[0]]
        ns = nullspace(equations + [vsub(pts[i], base) for i in combo[1:]], ncols=d)
        if len(ns) != 1:
            continue
        a = primitive(ns[0])
        values = [dot(a, p) for p in pts]
        beta = values[combo[0]]
        if min(values) == beta:
            a, beta, values = tuple(-x for x in a), -beta, [-x for x in values]
        if max(values) == beta:
            tight[(a, beta)] = frozenset(i for i, x in enumerate(values) if x == beta)
    normals = [[a for (a, _), t in tight.items() if i in t] for i in range(len(pts))]
    chosen = [i for i, ns in enumerate(normals) if ns and rank([vec(a) for a in ns]) == k]
    position = {i: n for n, i in enumerate(chosen)}
    facets = sorted(tight)
    tights = tuple(frozenset(position[i] for i in tight[f] if i in position) for f in facets)
    return tuple(pts[i] for i in chosen), tuple(facets), tights


def sum_of_dilates(polys, n):
    """n1 P1 + ... + nr Pr by dilating every summand and hulling their sum."""
    parts = [dilate(P, k) for P, k in zip(polys, n) if k]
    return minkowski_sum_all(parts) if parts else origin_polytope(polys[0].ambient_dim)


def sum_state(P):
    """Everything a Minkowski sum carries: its vertices, lattice, facets,
    tight sets, chart, lift and equalities."""
    return P, P.lattice, P.dim, P.facets, P.facet_tight_sets, P._chart, P._lift, P.aff_equalities


def vertex_sums(P, Q):
    return {vadd(p, q) for p in P.vertices for q in Q.vertices}


def sum_mismatches(pairs):
    """The pairs whose sum differs from the hull of its vertex sums."""
    return [
        (P, Q) for P, Q in pairs if sum_state(minkowski_sum(P, Q)) != sum_state(convex_hull(vertex_sums(P, Q)))
    ]
