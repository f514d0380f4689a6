"""The four benchmark workloads: seeded inputs, timed items, oracles.

Each workload draws the fixed list of items of one pass without calling
the package, so input generation counts as set-up and every hull is
built inside the timed items.  A pass has the same items for a given
seed, so the passes of one run differ by the host alone.  Random point
sets come from a fixed base stream, and the seed maps each one through
a random symmetry of its coordinate box (a signed permutation of the
axes) and reorders summands and points.  An image is a fresh input of
the same distribution with the same combinatorics, so a run on any seed
carries the same work; a few dozen items of widely varying cost would
otherwise make the throughput of one seed differ from the next by a
fifth.  ``run`` performs one item through public calls only and returns
its outputs; ``check`` compares those outputs with an exact oracle after
the timed phase and returns a failure message or None.

The traced run records one span per layer call.  Where the package has
no public boundary inside a composite call, the traced run calls its
public pieces instead; ``TRACE_NOTES`` in run.py says where.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from mixedval import (
    CertificateError,
    MatroidOracle,
    Valuation,
    builtin_valuations,
    candidate_segments,
    cayley_polytope,
    certify_dilations,
    cm,
    convex_hull,
    count_lattice_points,
    cylinder_lower_bound,
    decide_positive,
    dilate,
    dilated_cell_counts,
    direction_matroid,
    fine_mixed_dissection,
    format_rational,
    matroid_intersection,
    minkowski_sum_all,
    owner_matroid,
)

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Items of one pass, each pass about six seconds on a 2.1 GHz Xeon
# (two vCPUs), so that a run of half a minute holds four passes.  The
# pass is fixed work: a faster program finishes it sooner and the run
# makes more passes, and counts and peak memory repeat from pass to pass.
PASS_ITEMS = {"bernstein-3d": 6, "planar-census": 700, "dissect-certify": 200, "cli-session": 15}

VERIFY_TRIALS = 5
CLI_COMMANDS = ("cm", "positivity", "ehrhart", "dissect", "verify")
CLI_TIMEOUT_S = 120


def _traced_valuation(phi: Valuation, span: str, tr: Tracer) -> Valuation:
    """phi under the same name and lattice requirement, timed per call."""

    def func(P):
        with tr.span(span):
            value = phi.func(P)
        tr.add("valuation.calls")
        tr.add("valuation.vertices", len(P.vertices))
        if span == "counting.count":
            tr.add("counting.points", int(value))
        return value

    return Valuation(phi.name, func, phi.lattice_requirement)


class Workload:
    name = ""

    def __init__(self, seed: int, tr: Tracer, items: int | None = None) -> None:
        self.base = random.Random(f"{self.name}:base")
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tr = tr
        stock = builtin_valuations()
        self.dvol, self.vol = stock["dvol"], stock["vol"]
        if tr.enabled:
            self.dvol = _traced_valuation(self.dvol, "counting.count", tr)
            self.vol = _traced_valuation(self.vol, "geometry.volume", tr)
        self.items = [self.draw() for _ in range(PASS_ITEMS[self.name] if items is None else items)]

    def draw(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def hull(self, points):
        with self.tr.span("geometry.hull"):
            return convex_hull(points, lattice="Z")

    def facets(self, P) -> None:
        with self.tr.span("geometry.facets"):
            P.facets

    def cm(self, phi, polys):
        with self.tr.span("valuations.cm"):
            return cm(phi, polys)


def box_image(family, lo: int, hi: int, rng: random.Random):
    """family under a random symmetry of the box [lo, hi]^d, with the
    order of summands and of their points shuffled."""
    d = len(family[0][0])
    axes = rng.sample(range(d), d)
    flips = [rng.random() < 0.5 for _ in range(d)]
    image = [
        [tuple(lo + hi - p[a] if f else p[a] for a, f in zip(axes, flips)) for p in pts]
        for pts in family
    ]
    for pts in image:
        rng.shuffle(pts)
    rng.shuffle(image)
    return image


class Bernstein3D(Workload):
    """c01 stream: cm(dvol) == cm(vol) on triples of 5-point hulls in [0,3]^3."""

    name = "bernstein-3d"

    def draw(self):
        base = self.base
        family = [[tuple(base.randint(0, 3) for _ in range(3)) for _ in range(5)] for _ in range(3)]
        return box_image(family, 0, 3, self.rng)

    def run(self, inp):
        polys = [self.hull(pts) for pts in inp]
        for P in polys:
            self.facets(P)
        return self.cm(self.dvol, polys), self.cm(self.vol, polys)

    def check(self, inp, out):
        lattice, volume = out
        if lattice != volume:
            return f"cm(dvol) = {lattice} but cm(vol) = {volume}"
        return None


def _hull_2d(points):
    """Vertices of the convex hull of integer points in the plane."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _inside_2d(ccw, g) -> bool:
    """Is the lattice point g in the polygon with vertices ccw (in order)?"""
    if len(ccw) == 1:
        return g == ccw[0]
    if len(ccw) == 2:
        (ax, ay), (bx, by) = ccw
        on_line = (bx - ax) * (g[1] - ay) == (by - ay) * (g[0] - ax)
        return on_line and min(ax, bx) <= g[0] <= max(ax, bx) and min(ay, by) <= g[1] <= max(ay, by)
    return all(
        (b[0] - a[0]) * (g[1] - a[1]) - (b[1] - a[1]) * (g[0] - a[0]) >= 0
        for a, b in zip(ccw, ccw[1:] + ccw[:1])
    )


def lattice_count_2d(points) -> int:
    """Lattice points in the convex hull of integer points in the plane."""
    ccw = _hull_2d(points)
    xs, ys = [v[0] for v in ccw], [v[1] for v in ccw]
    return sum(
        _inside_2d(ccw, (x, y))
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
    )


def planar_classes():
    """The 132 translation classes of lattice polygons in {0,1,2}^2.

    Each class is its vertex list, translated so that the lowest
    coordinates are 0.  Built with a local integer hull, so no package
    call happens at set-up.
    """
    grid = [(x, y) for x in range(3) for y in range(3)]
    classes = set()
    for mask in range(1, 1 << 9):
        verts = _hull_2d([grid[i] for i in range(9) if mask >> i & 1])
        lo = [min(v[i] for v in verts) for i in range(2)]
        classes.add(tuple(sorted((v[0] - lo[0], v[1] - lo[1]) for v in verts)))
    return sorted(classes)


def planar_mixed_count(P, Q) -> int:
    """cm(dvol; P, Q) for vertex lists P and Q, by direct enumeration:
    |P + Q| - |P| - |Q| + |{0}| in lattice points."""
    sums = [(p[0] + q[0], p[1] + q[1]) for p in P for q in Q]
    return lattice_count_2d(sums) - lattice_count_2d(P) - lattice_count_2d(Q) + 1


class PlanarCensus(Workload):
    """c04/c05 corpus: pairs of the 132 classes on {0,1,2}^2 (8778 in all).

    A pass takes pairs in a seeded order without repetition, so that no
    sum is met twice; reuse is that of the 132 polytopes.
    """

    name = "planar-census"

    def __init__(self, seed, tr, items=None):
        self.classes = planar_classes()
        self.pairs = [(i, j) for i in range(len(self.classes)) for j in range(i, len(self.classes))]
        self.order = []
        self.table = {}
        super().__init__(seed, tr, items)

    def draw(self):
        if not self.order:
            self.order = self.rng.sample(self.pairs, len(self.pairs))
        return self.order.pop()

    def polytope(self, i):
        # the same polytopes recur, as in a census: hull each class once
        P = self.table.get(i)
        if P is None:
            P = self.table[i] = self.hull(self.classes[i])
            self.facets(P)
        return P

    def decide(self, polys):
        tr = self.tr
        with tr.span("positivity.decide"):
            if not tr.enabled:
                return decide_positive(self.dvol, polys)
            if len(polys) > polys[0].ambient_dim:
                return False
            segments = candidate_segments(polys)
            tr.add("positivity.segments", len(segments))
            m1 = self._counted(direction_matroid([s.direction for s in segments]))
            m2 = self._counted(owner_matroid([s.owner for s in segments]))
            return matroid_intersection(m1, m2, len(polys)) is not None

    def _counted(self, m: MatroidOracle) -> MatroidOracle:
        def test(subset):
            self.tr.add("positivity.oracle_calls")
            return m.independent(subset)

        return MatroidOracle(m.size, test)

    def run(self, inp):
        polys = [self.polytope(i) for i in inp]
        value = self.cm(self.dvol, polys)
        positive = self.decide(polys)
        with self.tr.span("positivity.cylinder"):
            bound = cylinder_lower_bound(polys)
        return value, positive, bound

    def check(self, inp, out):
        value, positive, bound = out
        expect = planar_mixed_count(self.classes[inp[0]], self.classes[inp[1]])
        if value != expect:
            return f"cm(dvol) = {value}, lattice-point oracle {expect}"
        if positive != (value > 0):
            return f"decide_positive = {positive} but cm(dvol) = {value}"
        if not bound <= value:
            return f"cylinder_lower_bound = {bound} exceeds cm(dvol) = {value}"
        return None


def _c07_family(rng: random.Random):
    """Point sets as random_lattice_polytope(bound=1, max_vertices=d+1) draws them."""
    d = rng.randint(2, 3)
    r = rng.randint(1, min(d, 2))
    return [
        [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(rng.randint(1, d + 1))]
        for _ in range(r)
    ]


class DissectCertify(Workload):
    """c07: fine mixed dissections certified at three dilation vectors."""

    name = "dissect-certify"

    def draw(self):
        family = box_image(_c07_family(self.base), -1, 1, self.rng)
        return family, self.rng.randrange(1 << 16)

    def run(self, inp):
        tr = self.tr
        family, opener = inp
        polys = [self.hull(pts) for pts in family]
        r = len(polys)
        vectors = [(1,) * r, (2,) + (1,) * (r - 1), (3,) * r]
        if tr.enabled:
            with tr.span("geometry.hull"):
                cayley_polytope(polys)
        with tr.span("dissections.build"):
            D = fine_mixed_dissection(polys, opener_seed=opener)
        tr.add("dissections.cells", len(D.cells))
        if not tr.enabled:
            certify_dilations(D, vectors)
            return len(D.cells)
        for n in vectors:
            with tr.span("dissections.cell_count"):
                total = sum(dilated_cell_counts(D, n))
            with tr.span("dissections.target_count"):
                expect = count_lattice_points(minkowski_sum_all([dilate(P, k) for P, k in zip(polys, n)]))
            if total != expect:
                raise CertificateError(f"scaled cells count {total} at {n}, the target {expect}")
        return len(D.cells)

    def check(self, inp, out):
        return None  # a failed certificate raises inside the item


class CliSession(Workload):
    """The mixedval command, one fresh process per command, on instance files."""

    name = "cli-session"

    def __init__(self, seed, tr, items=None):
        self.workdir = ROOT / ".bench_tmp" / str(os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.sessions = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.expected = {}
        super().__init__(seed, tr, items)

    def draw(self):
        # one session per five draws: write the instance on the first
        k = self.sessions
        self.sessions += 1
        session, command = divmod(k, len(CLI_COMMANDS))
        path = self.workdir / f"session{session}.json"
        if command == 0:
            family = _c07_family(self.base)
            while len(family) != 2 or len(family[0][0]) != 3:
                family = _c07_family(self.base)
            family = box_image(family, -1, 1, self.rng)
            doc = {
                "lattice": "Z",
                "dim": 3,
                "polytopes": {f"P{i}": [list(p) for p in pts] for i, pts in enumerate(family)},
            }
            path.write_text(json.dumps(doc))
        name = CLI_COMMANDS[command]
        if name == "verify":
            # the default verify seed: seeded suites differ widely in cost
            args = ["verify", "--trials", str(VERIFY_TRIALS)]
        elif name == "dissect":
            args = ["dissect", "--mode", "cayley", "--input", str(path)]
        else:
            args = [name, "--input", str(path)]
        return session, args + ["--json"]

    def run(self, inp):
        _, args = inp
        spans_path = self.workdir / "spans.json"
        if self.tr.enabled:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "mixedval.cli", *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=CLI_TIMEOUT_S)
        if self.tr.enabled and spans_path.exists():
            self.tr.adopt(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return proc.returncode, proc.stdout

    def library_cm(self, session: int):
        if session not in self.expected:
            doc = json.loads((self.workdir / f"session{session}.json").read_text())
            polys = [convex_hull(pts, lattice="Z") for pts in doc["polytopes"].values()]
            self.expected[session] = cm(builtin_valuations()["dvol"], polys)
        return self.expected[session]

    def check(self, inp, out):
        session, args = inp
        code, stdout = out
        return check_cli_report(args[0], code, stdout, lambda: self.library_cm(session))

    def close(self):
        for path in self.workdir.glob("*"):
            path.unlink()
        self.workdir.rmdir()
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def check_cli_report(command: str, code: int, stdout: str, library_cm) -> str | None:
    """Exit code 0, a JSON report, and the values the library computes."""
    if code != 0:
        return f"{command} exited with {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return f"{command} printed no JSON report"
    if report.get("command") != command:
        return f"{command} reported command {report.get('command')!r}"
    results = report.get("results")
    if command == "cm":
        expect = format_rational(library_cm())
        if results.get("value") != expect:
            return f"cm reported {results.get('value')}, the library computes {expect}"
    elif command == "positivity":
        if results.get("positive") != (library_cm() > 0):
            return f"positivity reported {results.get('positive')}, cm is {library_cm()}"
    elif command == "verify":
        failed = [row["suite"] for row in results if not row["passed"]]
        if failed or len(results) == 0:
            return f"verify suites failed: {', '.join(failed) or 'none ran'}"
    return None


WORKLOADS = {
    cls.name: cls for cls in (Bernstein3D, PlanarCensus, DissectCertify, CliSession)
}
