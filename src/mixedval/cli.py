"""Command line interface over the exact mixed-valuation toolkit.

Six subcommands: ``cm`` evaluates alternating-sum mixed combinations,
``ehrhart`` fits and tabulates dilation polynomials, ``mixed-volume``
normalizes the volume mixed combination, ``positivity`` runs the segment
criterion, ``dissect`` builds half-open dissections with certificates,
and ``verify`` drives the randomized self-check suites.

Report JSON (under ``--json``) is byte-stable for a fixed input file,
seed, and package version: field order is fixed, rationals are rendered
in lowest terms, and wall-clock timing goes to stderr only.

Each process compiles and runs only what its command needs.  Importing
this module loads geometry, linalg, counting, samplers, valuations and
jsonio; a command imports the rest when it runs: ``positivity`` for
``positivity`` and for ``cm`` under a valuation the segment criterion
decides, ``dissections`` for ``dissect`` and ``verify`` (which loads
everything) for ``verify``.  No module builds dataclasses at import.

Exit codes: 0 success, 1 bad input or usage or a stdout closed before the
report was written, 2 a checked property failed (also when stdout was
closed).  Under ``--json`` a failed certificate of a built dissection
still writes the report, whose ``results.failure`` carries the message,
the dilation and the expected and actual totals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import __version__
from .geometry import (
    CertificateError,
    GeometryError,
    dilate,
    exact_volume,
    scaled_sum,
)
from .jsonio import (
    Instance,
    InstanceError,
    dissection_to_json,
    format_rational,
    instance_digest,
    load_instance,
    points_to_json,
)
from .valuations import builtin_valuations, cm, cm_terms, h_star_vector, mixed_polynomial

if TYPE_CHECKING:
    from .dissections import Dissection

# GeometryError covers its subclasses, NotGeneric among them;
# load_instance wraps OSError and JSONDecodeError in InstanceError
_INPUT_ERRORS = (InstanceError, GeometryError)


class CliError(Exception):
    """Bad invocation or input; maps to exit code 1."""


class CheckFailure(Exception):
    """A verified property did not hold; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # property failures, so usage problems are remapped to 1.
    def error(self, message: str) -> Any:
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mixedval", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, *, needs_input: bool = True) -> None:
        if needs_input:
            p.add_argument("--input", metavar="FILE", help="instance JSON file")
        p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("cm", help="alternating-sum mixed combination of an instance")
    common(p)
    p.add_argument("--valuation", default="dvol", help="dvol|vol|euler|interior")

    p = sub.add_parser("ehrhart", help="dilation polynomial in the binomial basis")
    common(p)
    p.add_argument("--valuation", default="dvol")
    p.add_argument("--dilate", type=int, metavar="N", help="tabulate dilations 0..N")

    p = sub.add_parser("mixed-volume", help="normalized mixed volume of d polytopes")
    common(p)

    p = sub.add_parser("positivity", help="segment criterion and cylinder lower bound")
    common(p)
    p.add_argument("--valuation", default="dvol")

    p = sub.add_parser("dissect", help="half-open dissections with certificates")
    common(p)
    p.add_argument(
        "--mode",
        required=True,
        choices=("boxcell", "staircase", "cayley", "difference"),
    )
    p.add_argument("--dim", type=int, help="ambient dimension (boxcell mode)")
    p.add_argument("--dilate", type=int, metavar="N", help="dilation factor (boxcell mode)")

    p = sub.add_parser("verify", help="randomized self-check suites")
    common(p, needs_input=False)
    p.add_argument("suite", nargs="?", help="suite name (default: all)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dim", type=int, default=3, help="largest ambient dimension")

    return parser


# ---------------------------------------------------------------------------
# report plumbing


def _jsonify(value: Any) -> Any:
    """Rationals to lowest-term strings, tuples to lists, recursively."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {key: _jsonify(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(report: dict[str, Any], lines: Sequence[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(_jsonify(report), indent=2))
    else:
        for line in lines:
            print(line)


def _load(args: argparse.Namespace) -> Instance:
    if getattr(args, "input", None) is None:
        raise CliError("--input FILE is required for this command")
    return load_instance(args.input)


def _valuation(name: str):
    table = builtin_valuations()
    if name not in table:
        raise CliError(f"unknown valuation {name!r}; available: {', '.join(sorted(table))}")
    return table[name]


def _segment_json(inst: Instance, seg) -> dict[str, Any]:
    names = list(inst.polytopes)
    return {
        "owner": names[seg.owner],
        "endpoints": points_to_json(seg.endpoints),
        "direction": list(seg.direction),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_cm(args: argparse.Namespace) -> tuple[dict[str, Any], list[str], int]:
    inst = _load(args)
    phi = _valuation(args.valuation)
    polys = inst.family()
    names = list(inst.polytopes)
    r, d = len(polys), inst.dim

    terms = cm_terms(phi, polys, ambient_dim=d)
    value = sum((sign * term for _, sign, term in terms), Fraction(0))
    table = [
        {
            "subset": [names[i] for i in range(r) if mask >> i & 1],
            "sign": sign,
            "term": term,
        }
        for mask, sign, term in terms
    ]

    results: dict[str, Any] = {
        "valuation": args.valuation,
        "polytopes": names,
        "value": value,
        "terms": table,
    }
    lines = [f"cm[{args.valuation}]({', '.join(names)}) = {format_rational(value)}"]
    if r > d:
        results["note"] = "arity exceeds the ambient dimension, so the combination vanishes"
        lines.append(f"note: {results['note']}")

    if phi.segment_criterion:
        from .positivity import positivity_witness

        witness = positivity_witness(polys)
        results["positive"] = witness is not None
        if witness is not None:
            results["witness"] = [_segment_json(inst, seg) for seg in witness]
        lines.append(f"positive: {witness is not None}")

    for row in table:
        label = "{" + ", ".join(row["subset"]) + "}"
        sign = "+" if row["sign"] > 0 else "-"
        lines.append(f"  {sign} {label}: {format_rational(row['term'])}")

    report = {
        "command": "cm",
        "version": __version__,
        "digest": instance_digest(inst),
        "valuation": args.valuation,
        "results": results,
    }
    return report, lines, 0


def _cmd_ehrhart(args: argparse.Namespace) -> tuple[dict[str, Any], list[str], int]:
    inst = _load(args)
    phi = _valuation(args.valuation)
    polys = inst.family()
    names = list(inst.polytopes)
    r, d = len(polys), inst.dim
    if args.dilate is not None:
        if r != 1:
            raise CliError("--dilate applies to single-polytope instances")
        if args.dilate < 0:
            raise CliError("--dilate must be nonnegative")

    poly = mixed_polynomial(phi, polys)
    coeff_rows = [
        {"alpha": list(alpha), "value": coeff}
        for alpha, coeff in sorted(poly.coefficients.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    ]

    probe = tuple(d + 2 if i == 0 else 1 for i in range(r))
    probe_direct = phi(scaled_sum(polys, probe))
    probe_predicted = poly.evaluate(probe)
    if probe_predicted != probe_direct:
        raise CheckFailure(
            f"extrapolation mismatch at {probe}: "
            f"{probe_predicted} predicted, {probe_direct} direct"
        )

    results: dict[str, Any] = {
        "valuation": args.valuation,
        "polytopes": names,
        "coefficients": coeff_rows,
        "probe": {"point": list(probe), "value": probe_direct},
    }
    lines = [f"binomial-basis coefficients for {args.valuation} on ({', '.join(names)}):"]
    for row in coeff_rows:
        lines.append(f"  c{tuple(row['alpha'])} = {format_rational(row['value'])}")
    lines.append(f"probe at {probe}: {format_rational(probe_direct)} (matches fit)")

    if r == 1:
        hs = h_star_vector(phi, polys[0])
        results["h_vector"] = list(hs.entries)
        lines.append(
            "h-vector: (" + ", ".join(str(format_rational(h)) for h in hs.entries) + ")"
        )
        top = args.dilate if args.dilate is not None else polys[0].dim + 1
        dil_rows = [{"n": n, "value": phi(dilate(polys[0], n))} for n in range(top + 1)]
        results["dilations"] = dil_rows
        for row in dil_rows:
            lines.append(f"  n={row['n']}: {format_rational(row['value'])}")

    report = {
        "command": "ehrhart",
        "version": __version__,
        "digest": instance_digest(inst),
        "valuation": args.valuation,
        "results": results,
    }
    return report, lines, 0


def _cmd_mixed_volume(args: argparse.Namespace) -> tuple[dict[str, Any], list[str], int]:
    inst = _load(args)
    polys = inst.family()
    names = list(inst.polytopes)
    r, d = len(polys), inst.dim
    if r != d:
        raise CliError(f"mixed volume needs exactly {d} polytopes in dimension {d}, got {r}")

    table = builtin_valuations()
    total = cm(table["vol"], polys, ambient_dim=d)
    mv = Fraction(total, math.factorial(d))

    results: dict[str, Any] = {
        "polytopes": names,
        "normalized": total,
        "mixed_volume": mv,
    }
    lines = [
        f"cm[vol]({', '.join(names)}) = {format_rational(total)}",
        f"mixed volume = {format_rational(mv)}",
    ]
    code = 0
    if all(P.is_integral for P in polys):
        lattice_total = cm(table["dvol"], polys, ambient_dim=d)
        agrees = lattice_total == total
        results["lattice_cross_check"] = {"value": lattice_total, "agrees": agrees}
        lines.append(
            f"lattice cross-check: cm[dvol] = {format_rational(lattice_total)}"
            f" ({'agrees' if agrees else 'DISAGREES'})"
        )
        if not agrees:
            code = 2

    report = {
        "command": "mixed-volume",
        "version": __version__,
        "digest": instance_digest(inst),
        "results": results,
    }
    return report, lines, code


def _cmd_positivity(args: argparse.Namespace) -> tuple[dict[str, Any], list[str], int]:
    from .positivity import cylinder_lower_bound, positivity_witness

    inst = _load(args)
    phi = _valuation(args.valuation)
    polys = inst.family()
    names = list(inst.polytopes)
    r, d = len(polys), inst.dim

    results: dict[str, Any] = {"valuation": args.valuation, "polytopes": names}
    lines = []
    if phi.segment_criterion:
        if r > d:
            results["positive"] = False
            results["note"] = "arity exceeds the ambient dimension, so the combination vanishes"
            lines.append("positive: False (arity exceeds the ambient dimension)")
        else:
            witness = positivity_witness(polys)
            results["positive"] = witness is not None
            lines.append(f"positive: {witness is not None}")
            if witness is not None:
                results["witness"] = [_segment_json(inst, seg) for seg in witness]
                for w in results["witness"]:
                    a, b = w["endpoints"]
                    lines.append(f"  {w['owner']}: {a} -> {b} direction {w['direction']}")
    else:
        value = cm(phi, polys, ambient_dim=d)
        results["value"] = value
        results["positive"] = value > 0
        lines.append(
            f"cm[{args.valuation}] = {format_rational(value)}; positive: {value > 0}"
        )

    if all(P.is_integral for P in polys):
        bound = cylinder_lower_bound(polys)
        results["cylinder_lower_bound"] = bound
        lines.append(f"cylinder lower bound: {bound}")

    report = {
        "command": "positivity",
        "version": __version__,
        "digest": instance_digest(inst),
        "valuation": args.valuation,
        "results": results,
    }
    return report, lines, 0


def _dissection_certificates(D: Dissection, samples: list[tuple[int, ...]]) -> dict[str, Any]:
    from .dissections import certify_dilations, certify_dissection

    total = certify_dissection(D)
    certs: dict[str, Any] = {
        "closed_total": total,
        "cell_counts": list(D.cell_counts()),
    }
    if samples:
        certify_dilations(D, samples)
        certs["dilation_checks"] = [list(n) for n in samples]
    return certs


def _cmd_dissect(args: argparse.Namespace) -> tuple[dict[str, Any], list[str], int]:
    from .dissections import (
        boxcell_census,
        boxcell_dissection,
        certify_difference,
        difference_counts,
        fine_mixed_dissection,
        mixed_difference_certificate,
        open_dissection,
        staircase_dissection,
    )

    seed = args.seed
    results: dict[str, Any] = {"mode": args.mode}
    report: dict[str, Any] = {
        "command": "dissect",
        "version": __version__,
        "mode": args.mode,
        "seed": seed,
    }
    lines: list[str] = []

    D: Dissection | None = None
    code = 0
    try:
        if args.mode == "boxcell":
            if args.dim is None or args.dilate is None:
                raise CliError("boxcell mode needs --dim and --dilate")
            if args.dim < 1 or args.dilate < 1:
                raise CliError("boxcell mode needs positive --dim and --dilate")
            D = boxcell_dissection(args.dim, args.dilate, seed=seed)
            census = boxcell_census(D)
            results["census"] = {str(k): v for k, v in sorted(census.items())}
            results["certificates"] = _dissection_certificates(D, [])
            lines.append(
                f"boxcell: {len(D.cells)} cells of the {args.dilate}-fold simplex"
                f" in dimension {args.dim}"
            )
            lines.append(
                "census by cylinder rank: "
                + ", ".join(f"{k}: {v}" for k, v in sorted(census.items()))
            )
        else:
            inst = _load(args)
            report["digest"] = instance_digest(inst)
            polys = inst.family()
            names = list(inst.polytopes)

            if args.mode == "staircase":
                if len(polys) != 2:
                    raise CliError("staircase mode needs exactly two simplices")
                D = open_dissection(staircase_dissection(polys[0], polys[1]), seed=seed)
                volumes = [exact_volume(cell.cell) for cell in D.cells]
                results["certificates"] = _dissection_certificates(D, [])
                results["certificates"]["volume_total"] = sum(volumes, Fraction(0))
                whole = exact_volume(D.target)
                if results["certificates"]["volume_total"] != whole:
                    raise CheckFailure("staircase cells do not fill the target volume")
                lines.append(
                    f"staircase: {len(D.cells)} cells, volume total"
                    f" {format_rational(whole)}"
                )
            elif args.mode == "cayley":
                D = fine_mixed_dissection(polys, opener_seed=seed)
                r = len(polys)
                samples = list(dict.fromkeys([(1,) * r, (2,) + (1,) * (r - 1), (2,) * r]))
                results["certificates"] = _dissection_certificates(D, samples)
                ranks = sorted(cell.cylinder_rank for cell in D.cells)
                results["cell_ranks"] = ranks
                lines.append(
                    f"fine mixed dissection of {'+'.join(names)}:"
                    f" {len(D.cells)} cells, ranks {ranks}"
                )
            else:  # difference
                if not inst.pairs:
                    raise CliError("difference mode needs a 'pairs' field in the instance")
                inner = [inst.polytopes[a] for a, _ in inst.pairs]
                outer = [inst.polytopes[b] for _, b in inst.pairs]
                paired = {name for pair in inst.pairs for name in pair}
                shared = [inst.polytopes[n] for n in names if n not in paired]
                inner += shared
                outer += shared
                cert = mixed_difference_certificate(inner, outer, opener_seed=seed)
                r = len(inner)
                ones = (1,) * r
                counts = difference_counts(cert, ones)
                samples = list(dict.fromkeys([ones, (2,) + (1,) * (r - 1), (2,) * r]))
                D = cert.dissection
                certify_difference(cert, samples)
                results["difference_cell_count"] = len(cert.difference_cells)
                results["difference_counts"] = list(counts)
                results["difference_total"] = sum(counts)
                results["dilation_checks"] = [list(n) for n in samples]
                lines.append(
                    f"difference certificate: {len(cert.difference_cells)} cells,"
                    f" total {sum(counts)} at dilation {ones}"
                )

            lines.append(f"certified with seed {seed}")
    except CertificateError as exc:
        # under --json a failed certificate of a built dissection still
        # writes the report, with the failure's fields, and exits 2
        if not args.json or D is None:
            raise
        results["failure"] = {
            "message": str(exc),
            "dilation": None if exc.dilation is None else list(exc.dilation),
            "expected": exc.expected,
            "actual": exc.actual,
        }
        code = 2

    report["results"] = results
    report["dissection"] = dissection_to_json(D)
    lines.append(f"cells: {len(D.cells)}")
    return report, lines, code


def _cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], list[str], int]:
    from .verify import available_suites, run_suite, run_suites

    if args.dim < 1:
        raise CliError("--dim must be positive")
    if args.trials < 1:
        raise CliError("--trials must be positive")
    dims = tuple(range(1, args.dim + 1))
    if args.suite is None:
        results = run_suites(dims=dims, trials=args.trials, seed=args.seed)
    else:
        if args.suite not in available_suites():
            raise CliError(
                f"unknown suite {args.suite!r}; available: {', '.join(available_suites())}"
            )
        results = [run_suite(args.suite, dims=dims, trials=args.trials, seed=args.seed)]

    rows = []
    lines = []
    for res in results:
        row: dict[str, Any] = {"suite": res.name, "passed": res.passed, "checked": res.checked}
        if res.counterexample is not None:
            row["counterexample"] = res.counterexample
        if res.error is not None:
            row["error"] = res.error
        rows.append(row)
        lines.append(res.line())
    failed = [res.name for res in results if not res.passed]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} suites passed"
        + (f"; failed: {', '.join(failed)}" if failed else "")
    )

    report = {
        "command": "verify",
        "version": __version__,
        "seed": args.seed,
        "trials": args.trials,
        "results": rows,
    }
    return report, lines, 2 if failed else 0


_HANDLERS: dict[str, Callable[[argparse.Namespace], tuple[dict[str, Any], list[str], int]]] = {
    "cm": _cmd_cm,
    "ehrhart": _cmd_ehrhart,
    "mixed-volume": _cmd_mixed_volume,
    "positivity": _cmd_positivity,
    "dissect": _cmd_dissect,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    started = time.monotonic()
    try:
        report, lines, code = _HANDLERS[args.command](args)
    except CliError as exc:
        print(f"mixedval: error: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"mixedval: error: {exc}", file=sys.stderr)
        return 1
    except (CheckFailure, CertificateError) as exc:
        print(f"mixedval: check failed: {exc}", file=sys.stderr)
        return 2

    try:
        _emit(report, lines, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit raises nothing either (Python docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code or 1
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
