"""Tests of the benchmark itself: oracles, fresh processes, span arithmetic.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mixedval import CertificateError  # noqa: E402

import run  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402
from worker import check_records, run_phase  # noqa: E402
from workloads import (  # noqa: E402
    Bernstein3D,
    DissectCertify,
    PlanarCensus,
    check_cli_report,
    planar_classes,
    planar_mixed_count,
)


def test_bernstein_oracle_rejects_unequal_values():
    wl = Bernstein3D(1, Tracer(False), 1)
    inp = wl.items[0]
    assert wl.check(inp, (Fraction(3), Fraction(3))) is None
    assert wl.check(inp, (Fraction(3), Fraction(4))) is not None


def test_planar_oracle_rejects_each_wrong_output():
    wl = PlanarCensus(1, Tracer(False), 1)
    inp = wl.items[0]
    value, positive, bound = wl.run(inp)
    assert wl.check(inp, (value, positive, bound)) is None
    assert wl.check(inp, (value + 1, value + 1 > 0, bound)) is not None
    assert wl.check(inp, (value, not positive, bound)) is not None
    assert wl.check(inp, (value, positive, value + 1)) is not None


def test_planar_oracle_counts_lattice_points_not_sumsets():
    classes = planar_classes()
    assert len(classes) == 132
    e1, e2 = ((0, 0), (1, 0)), ((0, 0), (0, 1))
    assert planar_mixed_count(e1, e2) == 1
    # (P + Q) has 6 lattice points but only 4 are sums of lattice points
    assert planar_mixed_count(((0, 0), (2, 1)), ((0, 0), (1, 2))) == 3


def test_a_raised_certificate_error_counts_as_a_failed_item():
    wl = DissectCertify(1, Tracer(False), 3)

    def broken(inp):
        raise CertificateError("scaled cells count 7 at (1, 1), the target 8")

    wl.run = broken
    records, _ = run_phase(wl, Tracer(False))
    failures = check_records(wl, records)
    assert len(records) == 3 and len(failures) == 3
    assert failures[0].startswith("CertificateError")


def _report(command, results):
    return json.dumps({"command": command, "results": results})


@pytest.mark.parametrize(
    "command, code, stdout",
    [
        ("cm", 1, _report("cm", {"value": 2})),
        ("cm", 0, "Traceback (most recent call last):"),
        ("cm", 0, _report("cm", {"value": 3})),
        ("cm", 0, _report("positivity", {"value": 2})),
        ("positivity", 0, _report("positivity", {"positive": False})),
        ("verify", 0, _report("verify", [{"suite": "sum-algebra", "passed": False}])),
        ("verify", 0, _report("verify", [])),
    ],
)
def test_cli_oracle_rejects_wrong_reports(command, code, stdout):
    assert check_cli_report(command, code, stdout, lambda: Fraction(2)) is not None


@pytest.mark.parametrize(
    "command, stdout",
    [
        ("cm", _report("cm", {"value": 2})),
        ("positivity", _report("positivity", {"positive": True})),
        ("verify", _report("verify", [{"suite": "sum-algebra", "passed": True}])),
    ],
)
def test_cli_oracle_accepts_right_reports(command, stdout):
    assert check_cli_report(command, 0, stdout, lambda: Fraction(2)) is None


def test_an_unreadable_report_counts_as_a_failed_item():
    class Cli:
        def check(self, inp, out):
            return check_cli_report("cm", 0, out, lambda: Fraction(2))

    records = [(None, _report("cm", None), None, 0.1), (None, _report("cm", {"value": 2}), None, 0.1)]
    assert len(check_records(Cli(), records)) == 1


def test_self_times_partition_the_item_total():
    tr = Tracer(True)
    with tr.item(0):
        with tr.span("valuations.cm"):
            with tr.span("counting.count"):
                sum(range(1000))
        with tr.span("positivity.cylinder"):
            sum(range(1000))
    own = self_times(tr.spans)
    item_total = tr.spans[0][2] - tr.spans[0][1]
    assert sum(own) == pytest.approx(item_total, abs=1e-9)
    assert all(t >= 0 for t in own)
    assert summarize(tr.spans)["valuations.cm"]["calls"] == 1


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    lat = [float(i) for i in range(1, 26)]  # 25 items
    assert run.tail(lat) == (15.0, 60)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100)


def test_a_seed_gives_the_same_items_every_pass():
    assert Bernstein3D(5, Tracer(False), 3).items == Bernstein3D(5, Tracer(False), 3).items
    assert DissectCertify(5, Tracer(False), 20).items != DissectCertify(6, Tracer(False), 20).items


def test_runs_do_not_share_a_process():
    pids = []
    for name, trace in (("planar-census", True), ("dissect-certify", False)):
        rep = run.run_workload(name, 3, 0.3, trace, items=20)
        assert not rep["failures"]
        assert rep["passes"] == (1 if trace else run.MIN_PASSES)
        pids += rep["pids"]
        if trace:
            layers = rep["layers"]
            parts = [layers[m] for m in run.SELF_TIME_METRICS.values()] + [layers["verify.other_s"]]
            assert sum(parts) == pytest.approx(layers["trace.total_s"], abs=1e-6)
    assert len(pids) == len(set(pids)) == 2 * run.SETUP_SAMPLES
    assert os.getpid() not in pids
