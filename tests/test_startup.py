"""The package namespace resolves lazily, and each command loads only the
modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedval

SRC = str(Path(mixedval.__file__).resolve().parents[1])


def test_every_export_is_the_object_of_its_home_module():
    for name in mixedval.__all__:
        home = importlib.import_module(f"mixedval.{mixedval._EXPORTS[name]}")
        assert getattr(mixedval, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name


def test_dir_lists_every_export():
    assert set(mixedval.__all__) <= set(dir(mixedval))
    assert "__version__" in dir(mixedval)


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mixedval.no_such_name


def test_a_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from mixedval import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mixedval.__all__)


def _fresh(code: str) -> list:
    """Run code in a fresh interpreter on this source tree; it prints a JSON
    value on its last line of stdout, which is returned."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    loaded = _fresh(
        "import json, sys, mixedval; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('mixedval.'))))"
    )
    assert loaded == []


# runs commands through cli.main with stdout discarded, then prints which
# of the watched modules the process holds
_SESSION = """
import contextlib, io, json, sys
from mixedval.cli import main
codes = []
for argv in {commands}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
watched = ("mixedval.verify", "mixedval.dissections", "mixedval.positivity", "dataclasses")
print(json.dumps([codes, [m for m in watched if m in sys.modules]]))
"""

AXES = {"lattice": "Z", "dim": 2, "polytopes": {"E1": [[0, 0], [1, 0]], "E2": [[0, 0], [0, 1]]}}


@pytest.fixture
def axes(tmp_path):
    path = tmp_path / "axes.json"
    path.write_text(json.dumps(AXES))
    return str(path)


def test_cm_positivity_and_ehrhart_load_neither_verify_nor_dissections(axes):
    commands = [["cm", "--input", axes], ["positivity", "--input", axes], ["ehrhart", "--input", axes]]
    codes, loaded = _fresh(_SESSION.format(commands=commands))
    assert codes == [0, 0, 0]
    assert loaded == ["mixedval.positivity"]


def test_cm_with_a_valuation_outside_the_segment_criterion_loads_no_positivity(axes):
    commands = [["cm", "--input", axes, "--valuation", "vol"]]
    codes, loaded = _fresh(_SESSION.format(commands=commands))
    assert codes == [0]
    assert loaded == []


def test_dissect_loads_no_verify(axes):
    commands = [["dissect", "--mode", "cayley", "--input", axes, "--json"]]
    codes, loaded = _fresh(_SESSION.format(commands=commands))
    assert codes == [0]
    assert "mixedval.verify" not in loaded
    assert "dataclasses" not in loaded
