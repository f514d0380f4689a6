"""Lattice counts and enumerations of closed, relative-interior and
half-open polytopes against a brute-force reference that tests every
integer point of the bounding box in Fraction."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, floor

from mixedval import (
    HalfOpenPolytope,
    NotGeneric,
    count_half_open,
    half_open_by_point,
    half_open_points,
    lattice_points,
    relint_points,
)
from mixedval import counting
from mixedval.samplers import random_lattice_polytope, random_rational_polytope

from .test_scaled_sum import _lower

F = Fraction


def brute_points(P, states):
    """For each removed-facet set in `states`, the integer points of the
    bounding box of P on every equality of aff(P) and every facet, strict
    on the removed ones, lexicographic order."""
    box = [range(ceil(min(c)), floor(max(c)) + 1) for c in zip(*P.vertices)]
    out = [[] for _ in states]
    for x in product(*box):
        if any(sum(a * b for a, b in zip(e, x)) != f for e, f in P.aff_equalities):
            continue
        # for each facet: None off the polytope, True strictly inside it
        inside = []
        for fct in P.facets:
            s = sum(a * b for a, b in zip(fct.normal, x))
            inside.append(None if s > fct.offset else s < fct.offset)
        if None in inside:
            continue
        for pts, removed in zip(out, states):
            if all(inside[i] for i in removed):
                pts.append(x)
    return out


def _opener(rng, P):
    """A point of aff(P) off every facet hyperplane, inside or outside P,
    or None when the draws keep hitting one."""
    v0 = P.vertices[0]
    for _ in range(20):
        c = [F(rng.randint(-30, 30), rng.choice([7, 11, 13])) for _ in P.vertices[1:]]
        q = [x + sum(ci * (v[j] - v0[j]) for ci, v in zip(c, P.vertices[1:])) for j, x in enumerate(v0)]
        try:
            return half_open_by_point(P, q).removed
        except NotGeneric:
            continue
    return None


def _corpus(count=1200, seed=2718):
    """Seeded polytopes with d = 1..4 in turn, each lattice, rational or
    lower-dimensional, with their removed-facet sets: closed, relative
    interior and visibility from an opener."""
    rng = random.Random(seed)
    kinds = ("lattice", "rational", "lower")
    for k in range(count):
        d, kind = 1 + k % 4, kinds[(k // 4) % 3]
        if kind == "lattice":
            P = random_lattice_polytope(rng, d, max_vertices=d + 3, bound=3 if d < 4 else 2)
        elif kind == "rational":
            P = random_rational_polytope(rng, d, max_vertices=d + 3, bound=2, max_denominator=3)
        else:
            P = _lower(rng, d)
        states = [frozenset(), frozenset(range(len(P.facets)))]
        opened = _opener(rng, P)
        if opened is not None:
            states.append(opened)
        yield d, kind, P, states


def _mismatches(corpus):
    """(P, removed) for every state where the scanner and the reference
    disagree, counting from a cleared count cache."""
    count_half_open.cache_clear()
    found = []
    for _, _, P, states in corpus:
        expect = brute_points(P, states)
        if lattice_points(P) != expect[0] or relint_points(P) != expect[1]:
            found.append((P, None))
        for removed, pts in zip(states, expect):
            H = HalfOpenPolytope(P, removed)
            if half_open_points(H) != pts or count_half_open(H) != len(pts):
                found.append((P, removed))
    count_half_open.cache_clear()
    return found


def test_counts_and_points_match_the_brute_force_reference():
    corpus = list(_corpus())
    seen = Counter()
    for d, kind, P, states in corpus:
        seen[d, kind] += 1
        seen["full" if P.dim == d else "lower" if P.dim else "point"] += 1
        seen["opened"] += len(states) == 3 and bool(states[2]) and states[2] != states[1]
        seen["points"] += bool(brute_points(P, states[-1:])[0])
    assert all(seen[d, kind] >= 100 for d in range(1, 5) for kind in ("lattice", "rational", "lower")), seen
    assert seen["full"] >= 400 and seen["lower"] >= 300, seen
    assert seen["opened"] >= 500 and seen["points"] >= 500, seen
    assert _mismatches(corpus) == []


def test_an_off_by_one_on_a_removed_row_fails_the_comparison(monkeypatch):
    real = counting._Support.system

    def loosened(self, n):
        # every strict row a.x <= ceil(s / D) - 1 loses its - 1
        system = real(self, n)
        if system is None:
            return None
        cons, box = system
        first = len(cons) - len(self.facets)
        cons = [(h, l, b + (i - first in self.removed)) for i, (h, l, b) in enumerate(cons)]
        return cons, box

    corpus = [case for case, _ in zip(_corpus(), range(200))]
    monkeypatch.setattr(counting._Support, "system", loosened)
    assert _mismatches(corpus)
