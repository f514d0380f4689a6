"""The self-check harness: determinism, reporting, negative controls."""

from fractions import Fraction as F

from mixedval import available_suites, run_suite, run_suites
from mixedval.linalg import dot, vec
from mixedval.verify import SUITES, feasible_nonneg, is_convex_combination


def test_registry_is_complete():
    names = available_suites()
    assert len(names) == len(set(names)) == len(SUITES)
    assert "bernstein-identity" in names
    assert "segment-criterion-equivalence" in names


def test_all_suites_pass_at_a_small_budget():
    results = run_suites(trials=12, seed=11)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    assert all(r.checked >= 1 for r in results)


def test_runs_are_deterministic_for_a_fixed_seed():
    a = run_suite("mixed-symmetric", trials=16, seed=3)
    b = run_suite("mixed-symmetric", trials=16, seed=3)
    assert a == b


def test_unknown_suite_is_rejected():
    try:
        run_suite("no-such-suite", trials=4)
    except KeyError as exc:
        assert "no-such-suite" in str(exc)
    else:
        raise AssertionError("expected KeyError")


def test_result_line_format():
    res = run_suite("hull-idempotent", trials=8, seed=1)
    line = res.line()
    assert line.startswith("pass")
    assert "hull-idempotent" in line
    assert "checked" in line


def test_injected_failure_is_reported(monkeypatch):
    # Negative control: a suite that always finds a counterexample.
    def broken(rng, dims, budget):
        return 3, "counterexample text"

    monkeypatch.setitem(SUITES, "broken", (broken, 1))
    res = run_suite("broken", trials=8, seed=1)
    assert not res.passed
    assert res.checked == 3
    assert res.counterexample == "counterexample text"
    assert "FAIL" in res.line()


def test_injected_crash_is_reported_not_raised(monkeypatch):
    def crashing(rng, dims, budget):
        raise RuntimeError("boom")

    monkeypatch.setitem(SUITES, "crashing", (crashing, 1))
    res = run_suite("crashing", trials=8, seed=1)
    assert not res.passed
    assert res.error is not None and "boom" in res.error
    assert "RuntimeError" in res.error


def test_a_subset_runs_one_suite_at_a_time():
    results = [run_suite(n, trials=8, seed=1) for n in ("hull-idempotent", "sum-algebra")]
    assert [r.name for r in results] == ["hull-idempotent", "sum-algebra"]
    assert all(r.passed for r in results)


def test_broken_math_is_caught_end_to_end(monkeypatch):
    # Negative control with real machinery: feed the volume suite a
    # translation that fakes a defect by perturbing its own check.
    def misstated(rng, dims, budget):
        # Claims volume doubles under translation; it does not.
        from mixedval import exact_volume, translate
        from mixedval.samplers import random_lattice_polytope

        for t in range(budget):
            P = random_lattice_polytope(rng, 2)
            if exact_volume(translate(P, (1, 0))) != 2 * exact_volume(P):
                return t, f"dim 2 polytope with {len(P.vertices)} vertices"
        return budget, None

    monkeypatch.setitem(SUITES, "misstated", (misstated, 1))
    res = run_suite("misstated", trials=8, seed=1)
    assert not res.passed
    assert res.counterexample is not None


def test_feasible_nonneg():
    # x + y = 1 has a nonnegative solution; x + y = -1 does not.
    good = feasible_nonneg([vec([1, 1])], vec([1]))
    assert good is not None
    assert all(c >= 0 for c in good)
    assert dot(vec([1, 1]), good) == 1
    assert feasible_nonneg([vec([1, 1])], vec([-1])) is None


def test_is_convex_combination():
    triangle = [vec([0, 0]), vec([2, 0]), vec([0, 2])]
    assert is_convex_combination(vec([F(1, 2), F(1, 2)]), triangle)
    assert not is_convex_combination(vec([2, 2]), triangle)
