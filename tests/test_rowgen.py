"""x-space levels: the degree solves on the reference engine decide each level
by row generation, and must return exactly what the dualized search returns."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possirob import (FuzzyGoal, GeneratorSpec, Polyhedron, SimplexBackend,
                      SolverError, UncertainObjective, bisect_feasibility, build_nec,
                      build_soft_nec, build_soft_nec_obj, generate_instance,
                      nominal_optimum, solve, solve_nec, solve_soft_nec,
                      solve_soft_nec_obj, soft_nec_rows)
from possirob import solver
from conftest import random_instance


def dualized_only(builder, eps, incumbent):
    """The search with every level decided on the dualized system."""

    def probe(lam):
        system = builder(lam)
        res = solve(system)
        return system.extract_x(res.point) if res.is_feasible else None

    return bisect_feasibility(probe, eps, incumbent)


def assert_same(out, expected):
    witness, lambda_bar, checks = expected
    assert out.lambda_bar == lambda_bar
    assert out.iterations == checks
    assert out.solution.tobytes() == np.asarray(witness, dtype=float).tobytes()


class CountingBackend(SimplexBackend):
    """Reference engine that counts LPs on dualized systems (those with more
    variables than the decision block)."""

    def __init__(self, n):
        self.n = n
        self.dualized = 0

    def solve(self, system, config):
        self.dualized += system.n_variables > self.n
        return super().solve(system, config)


def solve_case(rng, model, polyhedron):
    """One random degree solve and the dualized search's outcome for it."""
    n = int(rng.integers(1, 7))
    inst = random_instance(rng, n, int(rng.integers(1, 4)), with_slack=True)
    if polyhedron:
        inst = replace(inst, feasible_set=Polyhedron(n, np.eye(n), np.ones(n)))
    rho0, shape = float(rng.uniform(0.0, 3.0)), float(rng.choice((0.5, 1.0, 2.0)))
    include = model == "soft-nec-nominal"
    eps = 1e-3
    if model == "soft-nec-obj":
        obj = UncertainObjective.from_arrays(
            inst.cost_nominal(), rng.uniform(0.0, 5.0, n), int(rng.integers(0, n + 1)),
            slack_bar=float(rng.uniform(0.0, 2.0)), goal=FuzzyGoal(None, rho0, shape),
            shape=shape)
        inst = replace(inst, objective=obj)
    c_hat, x_hat = nominal_optimum(inst)
    if model == "nec":
        goal = FuzzyGoal(c_hat, rho0)
        return (solve_nec(inst, rho0, eps),
                dualized_only(lambda lam: build_nec(inst, lam, goal), eps, x_hat))
    if model == "soft-nec-obj":
        return (solve_soft_nec_obj(inst, eps),
                dualized_only(lambda lam: build_soft_nec_obj(inst, lam, c_hat), eps, x_hat))
    goal = FuzzyGoal(c_hat, rho0, shape)
    return (solve_soft_nec(inst, rho0, shape, include, eps),
            dualized_only(lambda lam: build_soft_nec(inst, lam, goal, include), eps, x_hat))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(("nec", "soft-nec", "soft-nec-nominal", "soft-nec-obj")),
       st.booleans())
def test_degree_solves_equal_the_dualized_search(seed, model, polyhedron):
    out, expected = solve_case(np.random.default_rng(seed), model, polyhedron)
    assert_same(out, expected)


def desk_case(seed, p):
    inst = generate_instance(GeneratorSpec(n=40, m=5, gamma=30, shape=1.0, seed=seed), 0)
    c_hat, x_hat = nominal_optimum(inst)
    rho0 = p * abs(c_hat)
    goal = FuzzyGoal(c_hat, rho0, 1.0)
    return inst, rho0, dualized_only(lambda lam: build_soft_nec(inst, lam, goal), 1e-4, x_hat)


# Desk sweep inputs whose unscaled x-space LPs ran the reference simplex into
# its pivot budget.
@pytest.mark.parametrize("seed, p", [(12118948952065092483, 0.14),
                                     (12001338233552510781, 0.2)])
def test_stalling_desk_inputs_match_with_two_dualized_checks(seed, p):
    inst, rho0, expected = desk_case(seed, p)
    backend = CountingBackend(inst.n)
    out = solve_soft_nec(inst, rho0, 1.0, eps=1e-4, backend=backend)
    assert_same(out, expected)
    assert backend.dualized == 2


def flaky_verdicts(monkeypatch, *, lie_at=None, raise_at=None):
    """Make the x-space verdict of one level wrong, or make it raise."""
    honest = solver._row_generation
    calls = []

    def decide(view, pool, config, backend):
        calls.append(view)
        if len(calls) == raise_at:
            raise SolverError("forced failure")
        point = honest(view, pool, config, backend)
        if len(calls) == lie_at:
            return np.zeros(view.a_hat.shape[1]) if point is None else None
        return point

    monkeypatch.setattr(solver, "_row_generation", decide)
    return calls


@pytest.mark.parametrize("lie_at", [1, 2, 3, 5, 8])
def test_a_wrong_verdict_falls_back_to_the_dualized_search(monkeypatch, toy4_soft, lie_at):
    c_hat, x_hat = nominal_optimum(toy4_soft)
    goal = FuzzyGoal(c_hat, 2.0)
    expected = dualized_only(lambda lam: build_soft_nec(toy4_soft, lam, goal), 1e-4, x_hat)
    calls = flaky_verdicts(monkeypatch, lie_at=lie_at)
    backend = CountingBackend(toy4_soft.n)
    out = solve_soft_nec(toy4_soft, 2.0, eps=1e-4, backend=backend)
    assert len(calls) >= lie_at
    assert_same(out, expected)
    # At least one confirming probe, then the whole dualized search.
    assert backend.dualized >= expected[2]


def test_a_failing_xspace_lp_falls_back_to_the_dualized_search(monkeypatch, toy4_soft):
    c_hat, x_hat = nominal_optimum(toy4_soft)
    goal = FuzzyGoal(c_hat, 2.0)
    expected = dualized_only(lambda lam: build_soft_nec(toy4_soft, lam, goal), 1e-4, x_hat)
    calls = flaky_verdicts(monkeypatch, raise_at=3)
    backend = CountingBackend(toy4_soft.n)
    out = solve_soft_nec(toy4_soft, 2.0, eps=1e-4, backend=backend)
    assert len(calls) == 3
    assert_same(out, expected)
    assert backend.dualized == expected[2] - 1


def test_relaxation_rows_are_scaled_to_unit_largest_coefficient(toy4_soft):
    view = soft_nec_rows(toy4_soft, 0.25, FuzzyGoal(-10.0, 2.0))
    mask = np.array([[True, True, False, False]])
    system = view.relaxation(np.array([0]), mask)
    a, b = system.dense()
    assert np.abs(a).max(axis=1).tolist() == [1.0, 1.0]
    cut = view.a_hat[0] + view.widths[0] * mask[0]
    assert a[1].tolist() == (cut / np.abs(cut).max()).tolist()
    assert b[1] == view.rhs[0] / np.abs(cut).max()
