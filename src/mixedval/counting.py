"""Lattice point enumeration for closed and half-open polytopes.

One fiber scanner serves counts, enumeration and relative interiors.
It scans the integer bounding box fiber by fiber: the first d-1
coordinates are enumerated and the last coordinate's feasible interval
is solved from the integerized constraint system.  A count adds up the
fiber lengths (and is cached), an enumeration expands each fiber.
Everything is exact integer arithmetic; boxes stay small at desk scale
(<= 10^6 points).

A half-open polytope is a base polytope with a subset of facets removed,
i.e. those inequalities become strict.  The relative interior is the
half-open polytope with every facet removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul
from typing import Callable, Iterator, Sequence

from .geometry import (
    Polytope,
    _require_polytope,
    _scaled,
    face_lattice,
)
from .linalg import dot, vec

# (coefficients, rhs): sum a_i x_i <= b over the integers
Constraint = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class HalfOpenPolytope:
    """base minus the union of the facets indexed by `removed`."""

    base: Polytope
    removed: frozenset[int]

    def __post_init__(self):
        n = len(self.base.facets)
        if any(i < 0 or i >= n for i in self.removed):
            raise ValueError("removed facet index out of range")

    @property
    def proper(self) -> bool:
        """True when at least one facet is removed (the set is not closed)."""
        return bool(self.removed)

    def contains_point(self, x: Sequence) -> bool:
        p = vec(x)
        base = self.base
        for e, f in base.aff_equalities:
            if dot(e, p) != f:
                return False
        for i, fct in enumerate(base.facets):
            v = dot(fct.normal, p)
            if i in self.removed:
                if v >= fct.offset:
                    return False
            elif v > fct.offset:
                return False
        return True


def closed(P: Polytope) -> HalfOpenPolytope:
    return HalfOpenPolytope(P, frozenset())


def _constraints(H: HalfOpenPolytope) -> list[Constraint] | None:
    """Integerized constraint system, or None when no lattice point can exist."""
    base = H.base
    out: list[Constraint] = []
    for e, f in base.aff_equalities:
        if f.denominator != 1:
            return None
        fi = int(f)
        out.append((e, fi))
        out.append((tuple(-c for c in e), -fi))
    for i, fct in enumerate(base.facets):
        b = fct.offset
        if i in H.removed:
            # a.x < b over integers: a.x <= ceil(b) - 1
            rhs = -((-b.numerator) // b.denominator) - 1
        else:
            rhs = b.numerator // b.denominator  # floor(b)
        out.append((fct.normal, rhs))
    return out


def _box(P: Polytope) -> list[tuple[int, int]] | None:
    """The integer box: ceil(min / D) and floor(max / D) per coordinate
    of the vertices scaled by their common denominator D."""
    D, pts = _scaled(P.vertices)
    out = []
    for col in zip(*pts):
        lo, hi = -(-min(col) // D), max(col) // D
        if lo > hi:
            return None
        out.append((lo, hi))
    return out


def _fibers(H: HalfOpenPolytope) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Nonempty fibers (prefix, lo, hi) of H, lexicographic order: the
    lattice points of H are prefix + (x,) for lo <= x <= hi."""
    cons = _constraints(H)
    if cons is None:
        return
    box = _box(H.base)
    if box is None:
        return
    prefix_ranges = [range(lo, hi + 1) for lo, hi in box[:-1]]
    last_lo, last_hi = box[-1]
    split = [(a[:-1], a[-1], b) for a, b in cons]
    for prefix in product(*prefix_ranges):
        lo, hi = last_lo, last_hi
        for head, ad, b in split:
            r = b - sum(map(mul, head, prefix))
            if ad == 0:
                if r < 0:
                    break
            elif ad > 0:
                q = r // ad
                if q < hi:
                    hi = q
            else:
                q = -(r // (-ad))  # ceil(r / ad) with ad < 0
                if q > lo:
                    lo = q
            if lo > hi:
                break
        else:
            yield prefix, lo, hi


def _relint(P: Polytope) -> HalfOpenPolytope:
    P = _require_polytope(P)
    return HalfOpenPolytope(P, frozenset(range(len(P.facets))))


def half_open_points(H: HalfOpenPolytope) -> list[tuple[int, ...]]:
    """Lattice points of a half-open polytope, lexicographic order."""
    return [prefix + (x,) for prefix, lo, hi in _fibers(H) for x in range(lo, hi + 1)]


def lattice_points(P: Polytope) -> list[tuple[int, ...]]:
    """Lattice points of a closed polytope, lexicographic order."""
    return half_open_points(closed(_require_polytope(P)))


def relint_points(P: Polytope) -> list[tuple[int, ...]]:
    """Lattice points in the relative interior (all facets strict)."""
    return half_open_points(_relint(P))


@lru_cache(maxsize=1 << 18)
def count_half_open(H: HalfOpenPolytope) -> int:
    """Number of lattice points of a half-open polytope (cached)."""
    return sum(hi - lo + 1 for _, lo, hi in _fibers(H))


def count_lattice_points(P: Polytope) -> int:
    return count_half_open(closed(_require_polytope(P)))


def count_relint_points(P: Polytope) -> int:
    return count_half_open(_relint(P))


def euler_relint_value(phi: Callable[[Polytope], Fraction], P: Polytope) -> Fraction:
    """Inclusion-exclusion value of phi on the relative interior of P.

    Alternating sum of phi over all nonempty faces, weighted by
    (-1)^(dim P - dim F).  For the lattice point count this equals the
    number of interior lattice points.
    """
    P = _require_polytope(P)
    total = Fraction(0)
    for f in face_lattice(P).faces:
        total += (-1) ** (P.dim - f.dim) * Fraction(phi(f.polytope))
    return total
