"""mixedval benchmark: four cold-start workloads, end to end and by layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads (closed loop, one caller, no threads):

  bernstein-3d     c01 stream: cm(dvol) == cm(vol) on triples of hulls of
                   5 random points in [0,3]^3.  Almost no reuse; 3D
                   Minkowski sums dominate.
  planar-census    pairs of the 132 translation classes on {0,1,2}^2,
                   in a seeded order without repetition: cm(dvol),
                   decide_positive and cylinder_lower_bound.  The same
                   polytopes recur; 2D sums are cheap.
  dissect-certify  c07: fine_mixed_dissection, then certify_dilations at
                   (1,..), (2,1,..) and (3,..).  Many small half-open cells.
  cli-session      one `python -m mixedval.cli ... --json` process per
                   command: cm, positivity, ehrhart, dissect --mode
                   cayley and verify --trials 5, on seeded instance files.

A run is a series of passes over the same fixed items (PASS_ITEMS in
bench/workloads.py), each pass in its own fresh interpreter
(bench/worker.py), since the package's module-level caches outlive calls
within one process and users pay the cold cost on every call.  Passes
start while the next would end less than half a pass past --seconds,
and at least MIN_PASSES run.  items_per_s is the pass size over the median pass time,
item_p50_ms and item_tail_ms are taken over the latencies of all passes,
and peak_rss_mb is the median over passes; medians over passes of fixed
work keep a slow spell of the host from moving the run.  Set-up is timed
from the spawn of an interpreter to the end of input generation, and
taken as the median over the passes and extra spawns, SETUP_SAMPLES in
all.  Every item is checked against an exact oracle after the timed
phase of its pass.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
on passes with spans around each layer call and half on untraced passes
over the same items, and prints the per-layer metrics of the traced
pass with the median traced total, with the tracing overhead against
the median untraced pass.  That pass's spans go to
.bench_out/spans-<workload>-seed<N>.json.
The last line of stdout is one JSON object; the exit code is 1 when any
item failed its oracle and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ITEM, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

WORKLOADS = ("bernstein-3d", "planar-census", "dissect-certify", "cli-session")
SETUP_SAMPLES = 7
MIN_PASSES = 3
TAIL_BEYOND = 10
# a pass takes seconds; a hung one is stopped well inside the run's own limit
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# verify suites at the time the benchmark was defined; a suite added later
# is reported under verify.other_s
SUITES = (
    "hull-idempotent", "hull-membership-consistent", "sum-algebra",
    "dilation-additive", "euler-relation", "volume-translation-invariant",
    "relint-alternating-sum", "half-open-additive", "count-monotone",
    "count-translation-invariant", "mixed-symmetric",
    "mixed-additive-in-argument", "vanishing-above-dimension",
    "nested-monotone-nonnegative", "bernstein-identity",
    "difference-degree-bound", "planar-proportionality",
    "volume-mixed-monotone", "binomial-reconstruction", "shift-identity",
    "hstar-consistency", "weak-monotone-count", "valuation-conformance",
    "half-open-partition", "cylinder-factorization", "boxcell-census",
    "staircase-volume", "placing-covers", "staircase-chain",
    "dissection-roundtrip", "segment-criterion-equivalence",
    "cylinder-bound-sound", "matroid-brute-agreement", "positivity-monotone",
)
CLI_COMMANDS = ("cm", "positivity", "ehrhart", "dissect", "verify")

# Span name -> metric reporting the span's self time.  These metrics and
# trace.unattributed_s (the self time of the item spans) partition
# trace.total_s.  The self time of a cm span is the time spent outside
# the valuation, which is the Minkowski sums and their cache lookups.
SELF_TIME_METRICS = {
    "geometry.hull": "geometry.hull_s",
    "geometry.facets": "geometry.facets_s",
    "valuations.cm": "geometry.msum_s",
    "geometry.volume": "geometry.volume_s",
    "counting.count": "counting.count_s",
    "positivity.decide": "positivity.decide_s",
    "positivity.cylinder": "positivity.cylinder_s",
    "dissections.build": "dissections.build_s",
    "dissections.cell_count": "dissections.cell_count_s",
    "dissections.target_count": "dissections.target_count_s",
    "cli.import": "cli.import_s",
    **{f"cli.{c}": f"cli.{c}_s" for c in CLI_COMMANDS},
    **{f"verify.{s}": f"verify.{s}_s" for s in SUITES},
    ITEM: "trace.unattributed_s",
}
CALL_METRICS = {
    "geometry.hull": "geometry.hull_calls",
    "geometry.volume": "geometry.volume_calls",
    "counting.count": "counting.count_calls",
    "valuations.cm": "valuations.cm_calls",
}
TRACE_NOTES = {
    "planar-census": "decide_positive is traced as its public pieces "
    "(candidate_segments, direction_matroid, owner_matroid, "
    "matroid_intersection) so that oracle calls can be counted",
    "dissect-certify": "the traced run also calls cayley_polytope beside "
    "fine_mixed_dissection (counted in geometry.hull), and replaces "
    "certify_dilations by dilated_cell_counts and the count of the "
    "scaled sum",
    "cli-session": "traced commands run through bench/cli_child.py, which "
    "times the import and wraps mixedval.verify.run_suite per suite",
}
COUNT_METRICS = ("counting.points", "positivity.segments", "positivity.oracle_calls", "dissections.cells")


def per_layer_units() -> dict[str, str]:
    units = {m: "s" for m in SELF_TIME_METRICS.values()}
    units["verify.other_s"] = "s"
    units.update({m: "count" for m in CALL_METRICS.values()})
    units.update({m: "count" for m in COUNT_METRICS})
    units.update(
        {
            "geometry.msum_vertices": "count",
            "valuations.cm_s": "s",
            "trace.total_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an oracle failure)."""


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[dict, float]:
    """Run the worker in a fresh interpreter; return its result and spawn time."""
    spawned = time.monotonic()
    # its own process group, so that a timeout also stops the commands
    # that cli-session starts
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1]), spawned


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest percentile with at least TAIL_BEYOND items beyond it.

    Returns (value, percentile).  With TAIL_BEYOND items or fewer, no
    item has that many beyond it and the maximum is reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    k = n - TAIL_BEYOND  # the k-th smallest item has TAIL_BEYOND beyond it
    return ordered[k - 1], (100 * k) // n


def layer_metrics(spans: list, counts: dict) -> dict[str, float]:
    summary = summarize(spans)
    out = {m: 0.0 for m in per_layer_units()}
    for name, row in summary.items():
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] += row["self"]
        elif name.startswith("verify."):
            out["verify.other_s"] += row["self"]
        else:
            raise BenchError(f"span {name!r} has no metric")
        if name in CALL_METRICS:
            out[CALL_METRICS[name]] = row["calls"]
    out["valuations.cm_s"] = summary.get("valuations.cm", {}).get("total", 0.0)
    out["trace.total_s"] = summary.get(ITEM, {}).get("total", 0.0)
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    calls = counts.get("valuation.calls", 0)
    out["geometry.msum_vertices"] = counts.get("valuation.vertices", 0) / calls if calls else 0.0
    return out


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_passes(args: list[str], seconds: float, min_passes: int) -> list[tuple[dict, float]]:
    """Passes in fresh interpreters, at least `min_passes`, and more while
    the next would end less than half a mean pass past `seconds`."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_child(args))
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and elapsed * (1 + 0.5 / len(passes)) >= seconds:
            return passes


def median_pass(results: list[dict]) -> dict:
    """The traced pass with the median traced total (the lower middle one)."""
    totals = [summarize(res["spans"]).get(ITEM, {}).get("total", 0.0) for res in results]
    order = sorted(range(len(results)), key=totals.__getitem__)
    return results[order[(len(results) - 1) // 2]]


def run_workload(name: str, seed: int, seconds: float, trace: bool, items: int | None = None) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    if items is not None:
        common += ["--items", str(items)]
    if trace:
        # half the time traced and half untraced, so that a traced run
        # takes as long as an untraced one
        passes = run_passes([*common, "--trace", "1"], seconds / 2, 1)
        replays = run_passes([*common, "--trace", "0"], seconds / 2, 1)
    else:
        passes = run_passes([*common, "--trace", "0"], seconds, MIN_PASSES)
        replays = []
    setups = [res["ready"] - spawned for res, spawned in passes + replays]
    pids = [res["pid"] for res, _ in passes + replays]
    while len(setups) < SETUP_SAMPLES:
        probe, spawned = run_child([*common, "--setup-only"])
        setups.append(probe["ready"] - spawned)
        pids.append(probe["pid"])

    results = [res for res, _ in passes]
    lat = [x for res in results for x in res["latencies"]]
    value, pct = tail(lat)
    everything = results + [res for res, _ in replays]
    report = {
        "workload": name,
        "pids": pids,
        "passes": len(results),
        "pass_items": len(results[0]["latencies"]),
        "attempted": sum(len(res["latencies"]) for res in everything),
        "failures": [msg for res in everything for msg in res["failures"]],
        "tail_percentile": pct,
        "host_speed_s": [statistics.median(res["host_speed_s"][i] for res in everything) for i in (0, 1)],
        "metrics": {
            "items_per_s": len(results[0]["latencies"]) / statistics.median(res["phase_s"] for res in results),
            "item_p50_ms": statistics.median(lat) * 1000,
            "item_tail_ms": value * 1000,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        },
    }
    if trace:
        chosen = median_pass(results)
        layers = layer_metrics(chosen["spans"], chosen["counts"])
        report["replays"] = len(replays)
        untraced = statistics.median(sum(res["latencies"]) for res, _ in replays)
        layers["trace.overhead_s"] = layers["trace.total_s"] - untraced
        report["layers"] = layers
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{name}-seed{seed}.json").write_text(json.dumps(chosen["spans"]))
    return report


def print_report(rep: dict, trace: bool) -> None:
    n = rep["attempted"]
    print(
        f"== {rep['workload']}  ({rep['passes']} passes of {rep['pass_items']} items, each in a fresh"
        f" interpreter; {n} items attempted; closed loop, 1 caller)"
    )
    print(f"   failed_frac {len(rep['failures']) / n:.4f} ({len(rep['failures'])}/{n})")
    for msg in rep["failures"][:5]:
        print(f"   FAILED: {msg}")
    for metric, value in rep["metrics"].items():
        extra = {
            "items_per_s": f"  (median pass of {rep['pass_items']} items)",
            "item_p50_ms": f"  (of {rep['passes'] * rep['pass_items']} items)",
            "item_tail_ms": f"  (p{rep['tail_percentile']})",
            "setup_s": f"  (median of {SETUP_SAMPLES})",
            "peak_rss_mb": f"  (median of {rep['passes']} passes)",
        }[metric]
        print(f"   {metric:<14} {value:12.4f} {END_TO_END_UNITS[metric]}{extra}")
    before, after = rep["host_speed_s"]
    print(
        f"   host speed (fixed Fraction loop, diagnostic; median over passes):"
        f" {before * 1000:.1f} ms before, {after * 1000:.1f} ms after"
    )
    if not trace:
        return
    layers = rep["layers"]
    total = layers["trace.total_s"]
    parts = {m: layers[m] for m in [*SELF_TIME_METRICS.values(), "verify.other_s"] if layers[m]}
    print(f"   traced pass with the median total, {total:.4f} s; self time by layer:")
    for metric, value in sorted(parts.items(), key=lambda kv: -kv[1]):
        print(f"     {metric:<40} {value:10.4f} s  {100 * value / total:5.1f}%")
    print(f"   layers + unattributed = {sum(parts.values()):.4f} s (traced total {total:.4f} s)")
    print(
        f"   tracing overhead: {layers['trace.overhead_s']:.4f} s against the median of"
        f" {rep['replays']} untraced passes over the same items"
    )
    if rep["workload"] in TRACE_NOTES:
        print(f"   note: {TRACE_NOTES[rep['workload']]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "mixedval" / "__init__.py").is_file():
        print(f"bench: no mixedval source tree under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(
        f"mixedval benchmark  seed {args.seed}  {args.seconds:g} s per workload  "
        f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  commit {git_commit()}"
    )
    reports = []
    try:
        for name in names:
            reports.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_report(reports[-1], bool(args.trace))
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for rep in reports:
        if args.trace:
            values, units = rep["layers"], per_layer_units()
        else:
            values, units = rep["metrics"], END_TO_END_UNITS
        prefix = "" if len(reports) == 1 else rep["workload"] + "."
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    failed = sum(len(rep["failures"]) for rep in reports)
    result = {
        "correct": failed == 0,
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
