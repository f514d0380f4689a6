"""The scripts run end to end, each in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mixedval

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PACKAGE_ROOT = str(Path(mixedval.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "script, args, summary",
    [
        ("positivity_census.py", ["--grid", "1"], r"\d+ unordered pairs, 0 criterion mismatches"),
        (
            "search_monotone_conjecture.py",
            ["--trials", "3"],
            r"\d+/\d+ candidate valuations survived the search\.",
        ),
    ],
)
def test_script_prints_its_summary(script, args, summary):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert re.search(rf"^{summary}$", run.stdout, re.MULTILINE), run.stdout
