"""End-to-end command line behavior, driven in-process, and in a child
process where the process itself is under test."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mixedval
from mixedval import (
    builtin_valuations,
    certify_dissection,
    cm_terms,
    dissection_from_json,
    format_rational,
    instance_from_json,
)
from mixedval.cli import main

TRI_SEG = {
    "lattice": "Z",
    "dim": 2,
    "polytopes": {"T": [[0, 0], [1, 0], [0, 1]], "S": [[0, 0], [1, 1]]},
}
TRIANGLE = {"lattice": "Z", "dim": 2, "polytopes": {"T": [[0, 0], [1, 0], [0, 1]]}}
NESTED = {
    "lattice": "Z",
    "dim": 2,
    "polytopes": {
        "P": [[0, 0], [1, 0], [0, 1]],
        "Q": [[0, 0], [2, 0], [0, 2]],
        "S": [[0, 0], [1, 0]],
    },
    "pairs": [["P", "Q"]],
}
AXES = {
    "lattice": "Z",
    "dim": 2,
    "polytopes": {"E1": [[0, 0], [1, 0]], "E2": [[0, 0], [0, 1]]},
}
THREE = {
    "lattice": "Z",
    "dim": 2,
    "polytopes": {
        "A": [[0, 0], [2, 0], [0, 2], [2, 2]],
        "B": [[0, 0], [1, 0], [0, 1]],
        "C": [[0, 0], [1, 2]],
    },
}


@pytest.fixture
def instance(tmp_path):
    def write(doc, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cm_human_output(instance, capsys):
    assert main(["cm", "--input", instance(TRI_SEG)]) == 0
    out = capsys.readouterr().out
    assert "cm[dvol](T, S) = 2" in out
    assert "positive: True" in out


def test_cm_json_report(instance, capsys):
    code, report = run_json(capsys, ["cm", "--input", instance(TRI_SEG)])
    assert code == 0
    assert report["command"] == "cm"
    assert report["version"] == mixedval.__version__
    assert report["results"]["value"] == 2
    assert len(report["results"]["terms"]) == 4
    assert {w["owner"] for w in report["results"]["witness"]} == {"T", "S"}


@pytest.mark.parametrize("valuation", ["dvol", "vol", "interior"])
def test_cm_json_terms_are_the_library_terms(instance, capsys, valuation):
    code, report = run_json(capsys, ["cm", "--input", instance(THREE), "--valuation", valuation])
    assert code == 0
    names = list(THREE["polytopes"])
    polys = instance_from_json(THREE).family()
    terms = cm_terms(builtin_valuations()[valuation], polys)
    assert report["results"]["terms"] == [
        {
            "subset": [names[i] for i in range(len(names)) if mask >> i & 1],
            "sign": sign,
            "term": format_rational(value),
        }
        for mask, sign, value in terms
    ]


def test_cm_above_dimension_notes_vanishing(instance, capsys):
    code, report = run_json(capsys, ["cm", "--input", instance(THREE)])
    assert code == 0
    assert report["results"]["value"] == 0
    assert "note" in report["results"]
    assert report["results"]["positive"] is False


def test_json_output_is_byte_stable(instance, capsys):
    path = instance(TRI_SEG)
    main(["cm", "--input", path, "--json"])
    first = capsys.readouterr().out
    main(["cm", "--input", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_elapsed_goes_to_stderr_only(instance, capsys):
    main(["cm", "--input", instance(TRI_SEG), "--json"])
    captured = capsys.readouterr()
    assert "elapsed" not in captured.out
    assert "elapsed" in captured.err


def test_ehrhart_single_polytope(instance, capsys):
    code, report = run_json(capsys, ["ehrhart", "--input", instance(TRIANGLE), "--dilate", "3"])
    assert code == 0
    coeffs = {tuple(row["alpha"]): row["value"] for row in report["results"]["coefficients"]}
    assert coeffs == {(0,): 1, (1,): 2, (2,): 1}
    assert report["results"]["h_vector"] == [1, 0, 0]
    assert [row["value"] for row in report["results"]["dilations"]] == [1, 3, 6, 10]


def test_ehrhart_pair_has_no_h_vector(instance, capsys):
    code, report = run_json(capsys, ["ehrhart", "--input", instance(TRI_SEG)])
    assert code == 0
    assert "h_vector" not in report["results"]
    coeffs = {tuple(row["alpha"]): row["value"] for row in report["results"]["coefficients"]}
    assert coeffs[(1, 1)] == 2


def test_ehrhart_dilate_rejected_for_families(instance, capsys):
    assert main(["ehrhart", "--input", instance(TRI_SEG), "--dilate", "2"]) == 1
    assert "single-polytope" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, dilate, message",
    [(TRIANGLE, "-1", "must be nonnegative"), (TRI_SEG, "2", "single-polytope")],
)
def test_a_bad_dilate_exits_one_before_any_fit(instance, capsys, monkeypatch, doc, dilate, message):
    # the fit and the h-vector can take seconds; a usage error must not wait for them
    import mixedval.cli as cli_module

    def no_fit(*args, **kwargs):
        raise AssertionError("mixed_polynomial ran before --dilate was checked")

    monkeypatch.setattr(cli_module, "mixed_polynomial", no_fit)
    assert main(["ehrhart", "--input", instance(doc), "--dilate", dilate]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_mixed_volume(instance, capsys):
    code, report = run_json(capsys, ["mixed-volume", "--input", instance(TRI_SEG)])
    assert code == 0
    assert report["results"]["normalized"] == 2
    assert report["results"]["mixed_volume"] == 1
    assert report["results"]["lattice_cross_check"]["agrees"] is True


def test_mixed_volume_needs_matching_arity(instance, capsys):
    assert main(["mixed-volume", "--input", instance(TRIANGLE)]) == 1


def test_positivity_report(instance, capsys):
    code, report = run_json(capsys, ["positivity", "--input", instance(TRI_SEG)])
    assert code == 0
    assert report["results"]["positive"] is True
    assert report["results"]["cylinder_lower_bound"] == 1
    assert {w["owner"] for w in report["results"]["witness"]} == {"T", "S"}


def test_positivity_fallback_valuation(instance, capsys):
    code, report = run_json(
        capsys, ["positivity", "--input", instance(TRI_SEG), "--valuation", "euler"]
    )
    assert code == 0
    assert report["results"]["value"] == 0
    assert report["results"]["positive"] is False


def test_dissect_boxcell(instance, capsys):
    code, report = run_json(capsys, ["dissect", "--mode", "boxcell", "--dim", "2", "--dilate", "2"])
    assert code == 0
    assert report["results"]["census"] == {"1": 2, "2": 1}
    back = dissection_from_json(report["dissection"])
    assert certify_dissection(back) == 6


def test_dissect_boxcell_needs_dimensions(capsys):
    assert main(["dissect", "--mode", "boxcell"]) == 1


def test_dissect_staircase(instance, capsys):
    code, report = run_json(capsys, ["dissect", "--mode", "staircase", "--input", instance(AXES)])
    assert code == 0
    assert report["results"]["certificates"]["closed_total"] == 4
    assert report["results"]["certificates"]["volume_total"] == 1


def test_dissect_staircase_rejects_inexact_pairs(instance, capsys):
    assert main(["dissect", "--mode", "staircase", "--input", instance(TRI_SEG)]) == 1


def test_dissect_cayley_round_trip(instance, capsys):
    code, report = run_json(capsys, ["dissect", "--mode", "cayley", "--input", instance(TRI_SEG)])
    assert code == 0
    back = dissection_from_json(report["dissection"])
    assert certify_dissection(back) == report["results"]["certificates"]["closed_total"]


def test_dissect_difference(instance, capsys):
    code, report = run_json(
        capsys, ["dissect", "--mode", "difference", "--input", instance(NESTED)]
    )
    assert code == 0
    assert report["results"]["difference_total"] >= 1
    assert report["results"]["difference_cell_count"] >= 1


@pytest.mark.parametrize("mode, doc", [("cayley", TRI_SEG), ("difference", NESTED)])
def test_a_failed_dilation_certificate_writes_its_fields_under_json(instance, capsys, monkeypatch, mode, doc):
    from mixedval import dissections

    real = dissections._CellCounts.count
    # beyond the unit dilation every half-open cell counts one point too many
    monkeypatch.setattr(dissections._CellCounts, "count", lambda self, n: real(self, n) + (max(n) > 1 and bool(self.removed)))
    path = instance(doc)
    code, report = run_json(capsys, ["dissect", "--mode", mode, "--input", path])
    assert code == 2
    failure = report["results"]["failure"]
    assert failure["dilation"] == [2, 1]
    assert failure["actual"] > failure["expected"] >= 1
    counted = "scaled cells count" if mode == "cayley" else "difference cells count"
    assert failure["message"].startswith(f"{counted} {failure['actual']} at (2, 1)")
    assert report["dissection"]["cells"]
    assert main(["dissect", "--mode", mode, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("mixedval: check failed: ")


def test_dissect_difference_needs_pairs(instance, capsys):
    assert main(["dissect", "--mode", "difference", "--input", instance(TRI_SEG)]) == 1
    assert "pairs" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["dissect", "--mode", "cayley"], ["cm"], ["ehrhart"]])
def test_an_oversized_instance_exits_1_with_one_line(instance, capsys, command):
    # the segment's box has 2 * 10^9 fibers, and some Cayley cell 10^9
    # parallelepiped points
    doc = {
        "lattice": "Z",
        "dim": 3,
        "polytopes": {"T": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "S": [[0, 0, 0], [10**9, 1, 0]]},
    }
    started = time.perf_counter()
    assert main([*command, "--input", instance(doc)]) == 1
    assert time.perf_counter() - started < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mixedval: error: a lattice-point enumeration over ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_an_oversized_boxcell_dissection_exits_1_with_one_line(capsys):
    # binom(61, 12), about 1.7 * 10^12 cells, refused before any is built
    started = time.perf_counter()
    assert main(["dissect", "--mode", "boxcell", "--dim", "12", "--dilate", "50"]) == 1
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mixedval: error: a box-cell dissection of 1742058970275 cells with ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_verify_single_suite(capsys):
    assert main(["verify", "hull-idempotent", "--trials", "8"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "1/1 suites passed" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_verify_failure_exits_two(capsys, monkeypatch):
    # Negative control through the real pipeline: inject a failing suite.
    import mixedval.verify as verify_module

    def broken(rng, dims, budget):
        return 1, "forced counterexample"

    monkeypatch.setitem(verify_module.SUITES, "forced-failure", (broken, 1))
    assert main(["verify", "forced-failure", "--trials", "4"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "forced counterexample" in out


def test_a_degenerate_cayley_build_exits_one(instance, capsys, monkeypatch):
    import mixedval.dissections as dissections_module

    def degenerate(polys, opener_seed=0):
        raise mixedval.NotGeneric("no generic opener found")

    monkeypatch.setattr(dissections_module, "fine_mixed_dissection", degenerate)
    assert main(["dissect", "--mode", "cayley", "--input", instance(AXES)]) == 1
    assert capsys.readouterr().err == "mixedval: error: no generic opener found\n"


def test_usage_errors_exit_one(capsys):
    assert main(["not-a-command"]) == 1
    assert main(["cm"]) == 1
    assert main(["cm", "--input", "/nonexistent.json"]) == 1


def test_bad_valuation_exits_one(instance, capsys):
    assert main(["cm", "--input", instance(TRI_SEG), "--valuation", "nope"]) == 1
    assert "unknown valuation" in capsys.readouterr().err


def test_non_list_pairs_exit_one(instance, capsys):
    assert main(["cm", "--input", instance(dict(TRI_SEG, pairs=5))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mixedval: error:")
    assert err.count("\n") == 1


def test_rational_instance_with_lattice_valuation_exits_one(instance, capsys):
    doc = {
        "lattice": "Q",
        "dim": 2,
        "polytopes": {"P": [["1/2", 0], [0, "1/2"], [0, 0]]},
    }
    assert main(["cm", "--input", instance(doc)]) == 1


# runs the CLI with one more verify suite that always fails
_FAILING_VERIFY = (
    "import sys, mixedval.verify as v; from mixedval.cli import main; "
    "v.SUITES['forced-failure'] = (lambda rng, dims, budget: (1, 'forced counterexample'), 1); "
    "sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["cm", "--json", "--input", THREE], 1),
        (["cm", "--input", THREE], 1),
        (["dissect", "--mode", "cayley", "--json", "--input", TRI_SEG], 1),
        (["verify", "forced-failure", "--trials", "4"], 2),
    ],
)
def test_a_closed_stdout_keeps_the_exit_code_without_a_traceback(instance, argv, code):
    # the reader of the pipe is gone before the report is written, as
    # when `mixedval cm --json | head -c 100` has read its fill; a report
    # that was not written is exit 1 unless a check failed, which stays 2
    argv = [instance(a) if isinstance(a, dict) else a for a in argv]
    program = ["-c", _FAILING_VERIFY] if argv[0] == "verify" else ["-m", "mixedval.cli"]
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(mixedval.__file__).resolve().parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, *program, *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == code
    assert proc.stderr == b""
