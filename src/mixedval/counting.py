"""Lattice point enumeration for closed and half-open polytopes.

One fiber scanner serves counts, enumeration and relative interiors.
It takes an integer constraint system and an integer box, and scans the
box fiber by fiber: the first d-1 coordinates are enumerated and the
last coordinate's feasible interval is solved from the constraints.  A
count adds up the fiber lengths, an enumeration expands each fiber.
One support table, _Support, builds every constraint system the scanner
takes: a half-open polytope's own, from its facet offsets, and those of
the rescaled certificate targets, from int support numbers of their
summands.  Dissection cells no longer take this route: they count in
closed form (dissections._CellCounts), so every certificate compares two
independent counts.  count_half_open caches its counts.
Everything is exact integer arithmetic.  A scan costs one interval solve
per fiber (a point of the box with the last coordinate dropped): the
10^6 fibers of a 1000 x 1000 x 4 box take 1.9 s (Intel Xeon, 2 vCPUs,
Python 3.11.7).  The scanner takes at most MAX_SCAN = 10^7 fibers, and
the closed-form cell counts of dissections at most 10^7 parallelepiped
points per cell; a larger one is refused with ScanTooLarge before
anything is scanned or laid out, so a box of 10^9 fibers fails at once
instead of exhausting memory.  The limit is set above the largest
instance known to finish: the h* vector of the 5-simplex
conv(0, e1, ..., e4, (3, 5, 7, 11, 562)) scans 1.7 * 10^6 fibers at its
sixth dilate and takes 8 s.

A half-open polytope is a base polytope with a subset of facets removed,
i.e. those inequalities become strict.  The relative interior is the
half-open polytope with every facet removed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from operator import mul
from typing import Callable, Iterator, Sequence

from .geometry import (
    GeometryError,
    Polytope,
    _Frozen,
    _family,
    _require_polytope,
    face_lattice,
)

# (head, last, rhs): <head, prefix> + last * x <= rhs over the integers,
# for x the last coordinate and prefix the others
Constraint = tuple[tuple[int, ...], int, int]
Box = list[tuple[int, int]]

MAX_SCAN = 10**7


class ScanTooLarge(GeometryError):
    """A lattice-point enumeration of more than MAX_SCAN fibers or points,
    or a box-cell dissection over its cell limit."""


def _refuse_scan(size: int, what: str) -> None:
    if size > MAX_SCAN:
        raise ScanTooLarge(f"a lattice-point enumeration over {size} {what} exceeds the limit of {MAX_SCAN}")


class HalfOpenPolytope(_Frozen):
    """base minus the union of the facets indexed by `removed`."""

    __slots__ = _fields = ("base", "removed")

    def __init__(self, base: Polytope, removed: frozenset[int]):
        n = len(base.facets)
        if any(type(i) is not int or i < 0 or i >= n for i in removed):
            raise ValueError("removed facet index out of range")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "removed", removed)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.removed) == (other.base, other.removed)
        return NotImplemented

    def __hash__(self) -> int:  # the count cache hashes it
        return hash((self.base, self.removed))


def closed(P: Polytope) -> HalfOpenPolytope:
    return HalfOpenPolytope(P, frozenset())


class _Support:
    """The constraint systems of n1 S1 + ... + nr Sr for every n >= 0, from
    the int support numbers of the summands S1..Sr on the rows of their
    plain sum T, half-open on the facets `removed` of T.

    geometry._family puts the summands' int vertices on one common
    denominator D.  For each facet normal a of T the table keeps <a, .>'s
    max on each summand, for each equality row e of aff(T) its value on
    each summand, and for each coordinate its min and max on each summand;
    rows are split as the scanner takes them, the last coefficient apart.  In T's own table,
    summands (T,), the max on a facet is D times its offset and the value
    on an equality row D times its right-hand side, read off without a
    pass over the vertices, and no block is split off.

    One table serves zero factors too.  T's normal fan refines the fan of
    every sub-sum (Ziegler, Lectures on Polytopes, Prop. 7.12), so each
    summand's support function is linear on each normal cone of T, and T's
    facet and equality rows with right-hand sides sum nj hj / D, cut by the
    n-combined box, are exactly n1 S1 + ... + nr Sr even when some nj = 0.
    """

    def __init__(
        self, summands: Sequence[Polytope], T: Polytope, removed: frozenset[int] = frozenset()
    ):
        D, blocks = _family(summands)
        self.D, self.removed = D, removed
        if len(summands) == 1 and summands[0] is T:
            highs = [(f.offset.numerator * (D // f.offset.denominator),) for f in T.facets]
            values = [(f.numerator * (D // f.denominator),) for _, f in T.aff_equalities]
            self.box = [((min(c),), (max(c),)) for c in zip(*blocks[0])]
        else:
            highs = [tuple(max(sum(map(mul, f.normal, v)) for v in pts) for pts in blocks) for f in T.facets]
            values = [tuple(sum(map(mul, e, pts[0])) for pts in blocks) for e, _ in T.aff_equalities]
            cols = [list(zip(*pts)) for pts in blocks]
            self.box = [(tuple(map(min, c)), tuple(map(max, c))) for c in zip(*cols)]
        self.facets = [(f.normal[:-1], f.normal[-1], h) for f, h in zip(T.facets, highs)]
        self.equalities = [
            (e[:-1], e[-1], tuple(-x for x in e[:-1]), v) for (e, _), v in zip(T.aff_equalities, values)
        ]

    def system(self, n: Sequence[int]) -> tuple[list[Constraint], Box] | None:
        """The constraints and box at a checked dilation vector n, or None
        when no lattice point can exist: each facet row is <a, x> <=
        sum ni h_i / D, strict on the removed facets, each equality row
        <e, x> = sum ni e_i / D (no lattice point unless D divides it),
        and the box is the n-combination of the summands'."""
        D, removed = self.D, self.removed
        cons = []
        for head, last, neg, vals in self.equalities:
            s, r = divmod(sum(map(mul, n, vals)), D)
            if r:
                return None
            cons += ((head, last, s), (neg, -last, -s))
        for i, (head, last, highs) in enumerate(self.facets):
            s = sum(map(mul, n, highs))
            # a.x < s / D over integers: a.x <= ceil(s / D) - 1
            cons.append((head, last, -(-s // D) - 1 if i in removed else s // D))
        box = []
        for lows, highs in self.box:
            lo, hi = -(-sum(map(mul, n, lows)) // D), sum(map(mul, n, highs)) // D
            if lo > hi:
                return None
            box.append((lo, hi))
        return cons, box

    def count(self, n: Sequence[int]) -> int:
        """The count at a checked dilation vector n."""
        system = self.system(n)
        return 0 if system is None else _fiber_count(*system)


def _fibers(cons: Sequence[Constraint], box: Box) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Nonempty fibers (prefix, lo, hi) of the lattice points of the box
    that satisfy cons, lexicographic order: those points are prefix + (x,)
    for lo <= x <= hi.  Refuses a box of more than MAX_SCAN fibers before
    product() lays out its ranges."""
    _refuse_scan(prod(hi - lo + 1 for lo, hi in box[:-1]), "fibers")
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
    system = _Support((H.base,), H.base, H.removed).system((1,))
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
    return _Support((H.base,), H.base, H.removed).count((1,))


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
