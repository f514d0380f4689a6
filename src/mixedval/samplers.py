"""Seeded random generators for lattice and rational polytopes, and the
exhaustive planar corpus.

Every random function takes an explicit ``random.Random`` so that
callers own reproducibility; nothing here touches global random state.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import mul

from .counting import lattice_points
from .geometry import Polytope, convex_hull
from .linalg import Vec, rational


def random_lattice_polytope(
    rng: random.Random,
    ambient_dim: int,
    *,
    max_vertices: int = 6,
    bound: int = 3,
    full_dim: bool = False,
) -> Polytope:
    """Hull of a few random integer points in [-bound, bound]^d."""
    while True:
        n = rng.randint(1, max_vertices)
        pts = [
            tuple(rng.randint(-bound, bound) for _ in range(ambient_dim))
            for _ in range(n)
        ]
        P = convex_hull(pts)
        if not full_dim or P.dim == ambient_dim:
            return P


def random_lattice_simplex(
    rng: random.Random,
    ambient_dim: int,
    *,
    dim: int | None = None,
    bound: int = 4,
) -> Polytope:
    """A k-dimensional lattice simplex; k is random in 0..ambient_dim if unset."""
    k = rng.randint(0, ambient_dim) if dim is None else dim
    if not 0 <= k <= ambient_dim:
        raise ValueError("simplex dimension out of range")
    while True:
        pts = [
            tuple(rng.randint(-bound, bound) for _ in range(ambient_dim))
            for _ in range(k + 1)
        ]
        P = convex_hull(pts)
        if P.dim == k and len(P.vertices) == k + 1:
            return P


def random_lattice_box(
    rng: random.Random, ambient_dim: int, *, bound: int = 3
) -> Polytope:
    """Product of integer intervals; may be lower-dimensional."""
    intervals = []
    for _ in range(ambient_dim):
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        intervals.append((min(a, b), max(a, b)))
    return convex_hull(itertools.product(*intervals))


def planar_translation_classes(k: int) -> list[Polytope]:
    """One polytope per translation class of the lattice polytopes with
    vertices in {0..k}^2, the first hull met over the nonempty subsets of
    the grid by size, then lexicographically; k = 2 gives 132 classes."""
    grid = [(x, y) for x in range(k + 1) for y in range(k + 1)]
    classes: dict[tuple, Polytope] = {}
    for size in range(1, len(grid) + 1):
        for subset in itertools.combinations(grid, size):
            P = convex_hull(list(subset), lattice="Z")
            lo = tuple(min(v[i] for v in P.vertices) for i in range(2))
            key = tuple(sorted(tuple(c - l for c, l in zip(v, lo)) for v in P.vertices))
            classes.setdefault(key, P)
    return list(classes.values())


def random_rational_polytope(
    rng: random.Random,
    ambient_dim: int,
    *,
    max_vertices: int = 6,
    bound: int = 3,
    max_denominator: int = 3,
) -> Polytope:
    n = rng.randint(1, max_vertices)
    pts = []
    for _ in range(n):
        coords = []
        for _ in range(ambient_dim):
            q = rng.randint(1, max_denominator)
            coords.append(Fraction(rng.randint(-bound * q, bound * q), q))
        pts.append(tuple(coords))
    return convex_hull(pts)


def random_nested_pair(
    rng: random.Random,
    ambient_dim: int,
    *,
    bound: int = 2,
    max_vertices: int = 6,
) -> tuple[Polytope, Polytope]:
    """A lattice polytope Q and a lattice subpolytope P spanned by some of
    its lattice points."""
    Q = random_lattice_polytope(
        rng, ambient_dim, max_vertices=max_vertices, bound=bound
    )
    pts = lattice_points(Q)
    P = convex_hull(rng.sample(pts, rng.randint(1, len(pts))))
    return P, Q


def random_relint_point(
    rng: random.Random, P: Polytope, *, weight_bound: int = 97
) -> Vec:
    """A random point in the relative interior of P, exact.

    Positive convex combinations of all vertices stay strictly inside
    every proper face, so no rejection is needed.  The combination is
    summed in int over P's int vertices (Polytope._ints).
    """
    weights = [rng.randint(1, weight_bound) for _ in P.vertices]
    D, pts = P._ints
    total = sum(weights) * D
    return tuple(rational(sum(map(mul, weights, col)), total) for col in zip(*pts))


def random_direction(
    rng: random.Random, ambient_dim: int, *, bound: int = 9
) -> tuple[int, ...]:
    """A nonzero integer vector."""
    while True:
        u = tuple(rng.randint(-bound, bound) for _ in range(ambient_dim))
        if any(u):
            return u
