"""Seeded mutations of instance files through the command line, in
process: whatever the input, a command returns 0, 1 or 2, raises
nothing, and explains an exit 1 in one line on stderr."""

import copy
import json
import random

import pytest

from mixedval.cli import main

BASES = [
    {"lattice": "Z", "dim": 2, "polytopes": {"T": [[0, 0], [1, 0], [0, 1]], "S": [[0, 0], [1, 1]]}},
    {"lattice": "Z", "dim": 2, "polytopes": {"E1": [[0, 0], [1, 0]], "E2": [[0, 0], [0, 1]]}},
    {
        "lattice": "Z",
        "dim": 2,
        "polytopes": {"P": [[0, 0], [1, 0], [0, 1]], "Q": [[0, 0], [2, 0], [0, 2]], "S": [[0, 0], [1, 0]]},
        "pairs": [["P", "Q"]],
    },
    {
        "lattice": "Z",
        "dim": 3,
        "polytopes": {
            "A": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "B": [[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]],
        },
    },
    {"lattice": "Q", "dim": 2, "polytopes": {"R": [["1/2", 0], [0, "1/2"], [0, 0]], "S": [[0, 0], [1, 0]]}},
]

COMMANDS = [
    ["cm"],
    ["cm", "--valuation", "vol"],
    ["positivity"],
    ["ehrhart"],
    ["mixed-volume"],
    ["dissect", "--mode", "cayley"],
    ["dissect", "--mode", "difference"],
    ["dissect", "--mode", "staircase"],
]

# values a coordinate, a dimension or a name may be replaced by: valid and
# invalid rationals, wrong JSON types, and a coordinate far past the scan limit
ODD = [-2, -1, 0, 1, 2, 3, "1/2", "-3/2", "2/0", 10**9, "x", None, True, 1.5, [], {}]


def _points(doc, rng):
    polys = doc.get("polytopes")
    if isinstance(polys, dict) and polys:
        name = rng.choice(list(polys))
        if isinstance(polys[name], list) and polys[name]:
            return polys[name]
    return None


def _mutate(doc, rng):
    ops = [
        "coordinate", "coordinate", "drop point", "duplicate point", "short point",
        "long point", "dim", "lattice", "polytopes", "rename", "pairs", "drop polytope",
    ]
    op = rng.choice(ops)
    pts = _points(doc, rng)
    if op == "coordinate" and pts and isinstance(pts[0], list) and pts[0]:
        p = rng.choice(pts)
        if p:
            p[rng.randrange(len(p))] = rng.choice(ODD)
    elif op == "drop point" and pts:
        pts.pop(rng.randrange(len(pts)))
    elif op == "duplicate point" and pts:
        pts.append(copy.deepcopy(rng.choice(pts)))
    elif op == "short point" and pts and isinstance(pts[-1], list) and pts[-1]:
        pts[-1].pop()
    elif op == "long point" and pts and isinstance(pts[-1], list):
        pts[-1].append(rng.choice([0, 1]))
    elif op == "dim":
        doc["dim"] = rng.choice([0, -1, 1, 3, "2", None, True, 2.0])
    elif op == "lattice":
        doc["lattice"] = rng.choice(["Q", "Z", "R", None, 1])
    elif op == "polytopes":
        doc["polytopes"] = rng.choice([{}, [], None, "T", {"T": []}, {"T": [[]]}, {"T": 5}])
    elif op == "rename" and isinstance(doc.get("polytopes"), dict) and doc["polytopes"]:
        old = rng.choice(list(doc["polytopes"]))
        doc["polytopes"][rng.choice(["", "T", "Z", "0"])] = doc["polytopes"].pop(old)
    elif op == "pairs":
        names = list(doc["polytopes"]) if isinstance(doc.get("polytopes"), dict) else []
        names = names or ["T"]
        doc["pairs"] = rng.choice([
            [[rng.choice(names), rng.choice(names)]],
            [[rng.choice(names)]],
            [["nope", rng.choice(names)]],
            5,
            [5],
            [],
        ])
    elif op == "drop polytope" and isinstance(doc.get("polytopes"), dict) and doc["polytopes"]:
        doc["polytopes"].pop(rng.choice(list(doc["polytopes"])))


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        doc = copy.deepcopy(rng.choice(BASES))
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        yield COMMANDS[k % len(COMMANDS)], doc


def test_mutated_instances_map_to_exit_codes(tmp_path, capsys):
    path = tmp_path / "inst.json"
    seen = {0: 0, 1: 0, 2: 0}
    for argv, doc in _cases(20261021, 240):
        path.write_text(json.dumps(doc))
        run = [*argv, "--input", str(path), "--json"]
        try:
            code = main(run)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{run} on {doc} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in seen, (run, doc, code)
        seen[code] += 1
        if code == 1:
            assert err.startswith("mixedval: error: ") and err.count("\n") == 1, (run, doc, err)
    # the mutations reach both the parsers and the commands behind them
    assert seen[0] >= 20 and seen[1] >= 100
