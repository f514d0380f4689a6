"""Run one mixedval command with spans, for the traced cli-session run.

Usage: python3 bench/cli_child.py SPANS_FILE COMMAND [ARGS...]

Times the package import, the command, and each verify suite, then
writes the spans to SPANS_FILE as a JSON list of
[name, start, end, parent, item] on the system-wide monotonic clock.
The untraced run calls ``python -m mixedval.cli`` directly instead.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer(True)
    with tr.span("cli.import"):
        import mixedval.cli
        import mixedval.verify

    run_suite = mixedval.verify.run_suite

    def traced_run_suite(name, **kwargs):
        with tr.span(f"verify.{name}"):
            return run_suite(name, **kwargs)

    # run_suites looks run_suite up in its module on every call
    mixedval.verify.run_suite = traced_run_suite
    with tr.span(f"cli.{argv[0]}"):
        code = mixedval.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump(tr.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
