"""One pass of a workload in a fresh interpreter; prints one JSON result line.

Usage: python3 bench/worker.py --workload NAME --seed N --trace 0|1
           [--items N] [--setup-only]

Set-up (interpreter start, the package import and input generation)
ends at the ``ready`` timestamp.  The timed phase then runs the items of
one pass (the workload's own number, or N) in a closed loop, one
caller.  Every output is checked against its oracle after the phase.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

# mixedval is run from its source tree, not installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def host_speed() -> float:
    """Seconds for a fixed pure-Python Fraction loop (diagnostic only)."""
    start = time.monotonic()
    x = Fraction(0)
    for i in range(1, 20000):
        x += Fraction(i % 7 + 1, i % 11 + 1)
    return time.monotonic() - start


def run_phase(wl, tr: Tracer):
    """Closed loop over the items of one pass; returns per-item records."""
    records = []  # (input, output or None, error or None, latency)
    start = time.monotonic()
    for inp in wl.items:
        t0 = time.monotonic()
        try:
            with tr.item(len(records)):
                out, err = wl.run(inp), None
        except Exception as exc:  # a failing item is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        records.append((inp, out, err, time.monotonic() - t0))
    return records, time.monotonic() - start


def check_records(wl, records) -> list[str]:
    failures = []
    for inp, out, err, _ in records:
        msg = err
        if msg is None:
            try:
                msg = wl.check(inp, out)
            except Exception as exc:  # malformed output: the oracle could not read it
                msg = f"oracle raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append(msg)
    return failures


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tr = Tracer(bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, tr, args.items)
    ready = time.monotonic()
    result = {"pid": os.getpid(), "ready": ready}
    try:
        if not args.setup_only:
            before = host_speed()
            records, phase = run_phase(wl, tr)
            # the commands of cli-session are the workload's own processes
            result["peak_rss_mb"] = peak_rss_mb(args.workload == "cli-session")
            after = host_speed()
            failures = check_records(wl, records)
            result.update(
                phase_s=phase,
                latencies=[rec[3] for rec in records],
                failures=failures,
                host_speed_s=[before, after],
                spans=tr.spans,
                counts=tr.counts,
            )
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
