"""Lattice point enumeration for closed and half-open polytopes.

One fiber scanner serves counts, enumeration and relative interiors.
It takes an integer constraint system and an integer box, and scans the
box fiber by fiber: the first d-1 coordinates are enumerated and the
last coordinate's feasible interval is solved from the constraints.  A
count adds up the fiber lengths, an enumeration expands each fiber.
_system builds the constraint system and the box of a half-open
polytope from its facets and vertices, and count_half_open caches its
counts; the dissections build both for rescaled cells from int support
numbers and run the same scanner.  Everything is exact integer
arithmetic; boxes stay small at desk scale (<= 10^6 points).

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

# (head, last, rhs): <head, prefix> + last * x <= rhs over the integers,
# for x the last coordinate and prefix the others
Constraint = tuple[tuple[int, ...], int, int]
Box = list[tuple[int, int]]


@dataclass(frozen=True)
class HalfOpenPolytope:
    """base minus the union of the facets indexed by `removed`."""

    base: Polytope
    removed: frozenset[int]

    def __post_init__(self):
        n = len(self.base.facets)
        if any(type(i) is not int or i < 0 or i >= n for i in self.removed):
            raise ValueError("removed facet index out of range")


def closed(P: Polytope) -> HalfOpenPolytope:
    return HalfOpenPolytope(P, frozenset())


def _system(H: HalfOpenPolytope) -> tuple[list[Constraint], Box] | None:
    """The integerized constraint system of H and its integer box, or None
    when no lattice point can exist."""
    base = H.base
    out: list[Constraint] = []
    for e, f in base.aff_equalities:
        if f.denominator != 1:
            return None
        fi = f.numerator
        out.append((e[:-1], e[-1], fi))
        out.append((tuple(-c for c in e[:-1]), -e[-1], -fi))
    for i, fct in enumerate(base.facets):
        b, a = fct.offset, fct.normal
        if i in H.removed:
            # a.x < b over integers: a.x <= ceil(b) - 1
            rhs = -((-b.numerator) // b.denominator) - 1
        else:
            rhs = b.numerator // b.denominator  # floor(b)
        out.append((a[:-1], a[-1], rhs))
    box = _box(base)
    return None if box is None else (out, box)


def _box(P: Polytope) -> Box | None:
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


def _fibers(cons: Sequence[Constraint], box: Box) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Nonempty fibers (prefix, lo, hi) of the lattice points of the box
    that satisfy cons, lexicographic order: those points are prefix + (x,)
    for lo <= x <= hi."""
    prefix_ranges = [range(lo, hi + 1) for lo, hi in box[:-1]]
    last_lo, last_hi = box[-1]
    for prefix in product(*prefix_ranges):
        lo, hi = last_lo, last_hi
        for head, ad, b in cons:
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


def _fiber_count(cons: Sequence[Constraint], box: Box) -> int:
    """Number of lattice points of the box that satisfy cons."""
    return sum(hi - lo + 1 for _, lo, hi in _fibers(cons, box))


def _relint(P: Polytope) -> HalfOpenPolytope:
    P = _require_polytope(P)
    return HalfOpenPolytope(P, frozenset(range(len(P.facets))))


def half_open_points(H: HalfOpenPolytope) -> list[tuple[int, ...]]:
    """Lattice points of a half-open polytope, lexicographic order."""
    system = _system(H)
    if system is None:
        return []
    return [prefix + (x,) for prefix, lo, hi in _fibers(*system) for x in range(lo, hi + 1)]


def lattice_points(P: Polytope) -> list[tuple[int, ...]]:
    """Lattice points of a closed polytope, lexicographic order."""
    return half_open_points(closed(_require_polytope(P)))


def relint_points(P: Polytope) -> list[tuple[int, ...]]:
    """Lattice points in the relative interior (all facets strict)."""
    return half_open_points(_relint(P))


@lru_cache(maxsize=1 << 18)
def count_half_open(H: HalfOpenPolytope) -> int:
    """Number of lattice points of a half-open polytope (cached)."""
    system = _system(H)
    return 0 if system is None else _fiber_count(*system)


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
    for f in face_lattice(P):
        total += (-1) ** (P.dim - f.dim) * Fraction(phi(f.polytope))
    return total
