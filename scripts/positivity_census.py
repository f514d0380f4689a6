#!/usr/bin/env python3
"""Census of mixed values over all planar sub-polytopes of a grid square.

Enumerates every polytope with vertices in {0..k}^2 up to translation,
evaluates the lattice mixed value of every unordered pair, and tabulates
how the segment-criterion decision and the cylinder lower bound relate
to the exact value.  With --grid 2 this reproduces the exhaustive corpus
used by the acceptance gate (132 classes, 8778 pairs).
"""

from __future__ import annotations

import argparse
from collections import Counter

from mixedval import (
    builtin_valuations,
    cm,
    cylinder_lower_bound,
    decide_positive,
    planar_translation_classes,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=2, help="vertices range over {0..grid}^2")
    args = parser.parse_args()

    dvol = builtin_valuations()["dvol"]
    reps = planar_translation_classes(args.grid)
    print(f"{len(reps)} translation classes on the {args.grid + 1}x{args.grid + 1} grid")

    values = Counter()
    slack = Counter()
    decisions_checked = 0
    mismatches = 0
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            polys = [reps[i], reps[j]]
            value = int(cm(dvol, polys))
            values[value] += 1
            if decide_positive(dvol, polys) != (value > 0):
                mismatches += 1
            slack[value - cylinder_lower_bound(polys)] += 1
            decisions_checked += 1

    print(f"{decisions_checked} unordered pairs, {mismatches} criterion mismatches")
    print("\nmixed value distribution:")
    for v in sorted(values)[:12]:
        print(f"  cm = {v:3}: {values[v]} pairs")
    if len(values) > 12:
        print(f"  ... {len(values) - 12} larger values")
    print("\nvalue minus cylinder bound (0 = tight):")
    for s in sorted(slack)[:12]:
        print(f"  slack {s:3}: {slack[s]} pairs")
    if len(slack) > 12:
        print(f"  ... {len(slack) - 12} larger slacks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
