"""Acceptance gate: one test per criterion, each printing a PASS line with
its elapsed time (run with ``pytest tests/test_acceptance.py -v -s``)."""

import subprocess
import sys
import time

import numpy as np
import pytest

from possirob import (FuzzyGoal, GeneratorSpec, LinearSystem, LpStatus,
                      UncertainObjective, build_robust,
                      build_soft_nec, dualize_budgeted_row,
                      minmax_budgeted, brute_force_minmax, nominal_optimum,
                      run_experiment, solve, solve_nec, solve_soft_nec,
                      worst_case_lhs, ExplicitSetOracle)
from possirob.experiment import DESK_P_GRID
from possirob.solver import probe_count_bound
from conftest import (INSTANCE_DIR, REPO_ROOT, brute_force_budgeted_max,
                      random_instance, random_row)

DESK_SEED = 0
# The desk sweep's CSV and the exact per-record values the degrees rest on.
# Re-record, only when the sweep is meant to change, with
#     PYTHONPATH=src python tests/test_acceptance.py
DESK_GOLDEN = REPO_ROOT / "tests" / "golden" / "desk_sweep.txt"


class _Clock:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.perf_counter()

    def done(self, label: str) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, \
            f"{label} took {elapsed:.1f}s, budget {self.budget:.0f}s"
        print(f"\n{label}: PASS ({elapsed:.2f}s)")


def _desk_run():
    return run_experiment(GeneratorSpec(n=40, m=5, gamma=30, seed=DESK_SEED),
                          p_grid=DESK_P_GRID, instances_per_p=20, scenarios=200,
                          eps=1e-4)


@pytest.fixture(scope="module")
def desk_report():
    started = time.perf_counter()
    report = _desk_run()
    return report, time.perf_counter() - started


def _desk_bytes(report) -> str:
    return report.to_csv() + "".join(
        f"{r.p!r} {r.index} {r.lambda_bar_soft!r} {r.cost_light!r} {r.cost_soft!r}\n"
        for r in report.details)


def test_desk_sweep_matches_its_recorded_bytes(desk_report):
    report, _ = desk_report
    assert _desk_bytes(report) == DESK_GOLDEN.read_text(encoding="utf-8")


def test_criterion_1_nominal_worked_example(toy4):
    clock = _Clock(1.0)
    c_hat, x_hat = nominal_optimum(toy4)
    assert c_hat == pytest.approx(-10.0, abs=1e-6)
    assert np.max(np.abs(x_hat - 1.0)) <= 1e-6
    clock.done("criterion 1 (nominal optimum -10 at the all-ones point)")


def test_criterion_2_robust_worked_example(toy4):
    clock = _Clock(1.0)
    res = solve(build_robust(toy4))
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(-3.71, abs=0.01)
    reference = np.array([0.325, 0.437, 0.547, 0.0])
    assert np.max(np.abs(res.point[:4] - reference)) <= 0.01
    clock.done("criterion 2 (protected optimum -3.71)")


def test_criterion_3_degree_bands(toy4):
    clock = _Clock(1.0)
    mid = solve_nec(toy4, rho0=3.0, eps=1e-4)
    assert 0.42 <= mid.degree <= 0.45
    zero = solve_nec(toy4, rho0=0.0, eps=1e-4)
    assert zero.degree == 0.0
    full = solve_nec(toy4, rho0=6.29, eps=1e-4)
    assert full.degree >= 1.0 - 1e-4
    clock.done("criterion 3 (degree bands at budgets 0, 3, 6.29)")


def test_criterion_4_duality_oracle_suite():
    clock = _Clock(30.0)
    rng = np.random.default_rng(8001)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        row = random_row(rng, n)
        x = rng.uniform(0.0, 1.0, size=n)
        lam = float(rng.uniform(0.0, 1.0))
        weights = row.half_widths(lam) * x
        direct = worst_case_lhs(row, x, lam) - float(np.dot(row.nominal(), x))
        brute = brute_force_budgeted_max(weights, row.protection)
        system = LinearSystem()
        x_idx = system.add_variables(len(x), x, x)
        cols, vals = dualize_budgeted_row(system, row, lam, x_idx)
        dual = ~np.isin(cols, x_idx)
        system.set_objective(cols[dual], vals[dual])
        res = solve(system)
        assert res.status is LpStatus.OPTIMAL
        assert abs(direct - brute) <= 1e-7
        assert abs(res.value - brute) <= 1e-7
    clock.done("criterion 4 (dual block = top-sum = subset brute force, 200 rows)")


def test_criterion_5_monotone_feasibility():
    clock = _Clock(60.0)
    rng = np.random.default_rng(8002)
    violations = 0
    for trial in range(50):
        inst = random_instance(rng, int(rng.integers(1, 7)),
                               int(rng.integers(1, 4)), with_slack=True)
        goal = FuzzyGoal(0.0, float(rng.uniform(0.0, 3.0)))
        for _ in range(20):
            pair = np.sort(rng.uniform(0.0, 1.0, size=2))
            low = solve(build_soft_nec(inst, float(pair[0]), goal))
            if low.status is LpStatus.FEASIBLE:
                high = solve(build_soft_nec(inst, float(pair[1]), goal))
                if high.status is not LpStatus.FEASIBLE:
                    violations += 1
    assert violations == 0
    clock.done("criterion 5 (level-monotone feasibility, 50 instances x 20 pairs)")


def test_criterion_6_bisection_contract():
    clock = _Clock(60.0)
    rng = np.random.default_rng(8003)
    eps = 1e-3
    bound = probe_count_bound(eps)
    for _ in range(50):
        inst = random_instance(rng, int(rng.integers(1, 7)),
                               int(rng.integers(1, 4)), with_slack=True)
        rho0 = float(rng.uniform(0.0, 2.0))
        out = solve_soft_nec(inst, rho0=rho0, eps=eps)
        assert out.iterations <= bound
        goal = FuzzyGoal(out.nominal_value, rho0)
        assert solve(build_soft_nec(inst, out.lambda_bar, goal)).is_feasible
        if out.lambda_bar >= eps:
            below = solve(build_soft_nec(inst, out.lambda_bar - eps, goal))
            assert not below.is_feasible
    clock.done("criterion 6 (probe-count bound and bisection bracket, 50 solves)")


def test_criterion_7_combinatorial_exactness():
    clock = _Clock(60.0)
    rng = np.random.default_rng(8004)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        pool = {tuple((rng.random(n) < 0.5).astype(float)) for _ in range(5)}
        candidates = [np.array(c) for c in sorted(pool)]
        shape = float(rng.choice([0.5, 1.0, 2.0]))
        c_hat = rng.uniform(0.0, 10.0, n)
        c_bar = rng.uniform(0.0, 5.0, n)
        oracle = ExplicitSetOracle(candidates)
        for gamma in range(n + 1):
            row = UncertainObjective.from_arrays(c_hat, c_bar, gamma, shape=shape)
            for lam in (0.0, 0.3, 0.7, 1.0):
                fast, _ = minmax_budgeted(row, lam, oracle)
                slow, _ = brute_force_minmax(row, lam, candidates)
                assert fast == slow
                checked += 1
    assert checked >= 500 * 4
    clock.done(f"criterion 7 (threshold enumeration exact on {checked} cases)")


def test_criterion_8_desk_scale_trends(desk_report):
    report, elapsed = desk_report
    assert elapsed < 600.0, f"desk run took {elapsed:.0f}s, budget 600s"

    # (a) where the cost budget binds, the light price equals the budget ratio
    binding_checked = 0
    for record in report.details:
        slack = record.nominal_value + record.rho0 - record.cost_light
        if abs(slack) <= 1e-6 * max(1.0, abs(record.nominal_value)):
            assert abs(record.d_light - record.p) <= 0.005
            binding_checked += 1
    assert binding_checked > 0

    # (b) the soft solutions are never pricier on average
    for point in report.points:
        assert point.d_soft <= point.d_light + 0.005

    # (c) infeasibility fractions fall as the budget grows
    for prev, curr in zip(report.points, report.points[1:]):
        assert curr.infeas_light <= prev.infeas_light + 0.03
        assert curr.infeas_soft <= prev.infeas_soft + 0.03

    # (d) at the largest budget both methods are almost always feasible,
    # while a zero budget leaves almost every scenario violated
    last = report.points[-1]
    assert last.infeas_light < 0.05
    assert last.infeas_soft < 0.05
    assert report.points[0].infeas_light > 0.9
    assert report.points[0].infeas_soft > 0.9

    print(f"\ncriterion 8 (desk-scale sweep trends): PASS ({elapsed:.0f}s; "
          f"binding checks {binding_checked}, final infeas "
          f"{last.infeas_light:.3f}/{last.infeas_soft:.3f})")


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "possirob", *args],
                          capture_output=True, text=True, cwd=REPO_ROOT)


def test_criterion_9_byte_reproducibility(tmp_path):
    clock = _Clock(120.0)
    toy4 = str(INSTANCE_DIR / "toy4.json")
    toy4_soft = str(INSTANCE_DIR / "toy4_soft.json")
    graph = str(INSTANCE_DIR / "two_path.graph")

    pairs = [
        ("nec", "--instance", toy4, "--rho0", "3"),
        ("soft-nec", "--instance", toy4_soft, "--rho0", "2"),
        ("combi", "--graph", graph, "--oracle", "sp", "--gamma0", "1",
         "--rho0", "1"),
        ("simulate", "--instance", toy4_soft, "--rho0", "1",
         "--scenarios", "200", "--seed", "17"),
    ]
    for args in pairs:
        assert _run_cli(*args).stdout == _run_cli(*args).stdout, args

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    micro = ("experiment", "--n", "6", "--m", "2", "--instances", "2",
             "--scenarios", "20", "--seed", "3")
    _run_cli(*micro, "--out", str(out_a))
    _run_cli(*micro, "--out", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    clock.done("criterion 9 (byte-identical reruns across commands)")


if __name__ == "__main__":
    DESK_GOLDEN.write_text(_desk_bytes(_desk_run()), encoding="utf-8")
