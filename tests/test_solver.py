from dataclasses import replace

import numpy as np
import pytest

from mrckit import solver
from mrckit.solver import (DivergenceError, SolverConfig, SolverError,
                           UnboundedObjectiveError, _schedule_arrays, solve,
                           solve_asm, solve_bsm, solve_easm,
                           solve_easm_restart, solve_lp,
                           subgradient)
from conftest import random_learning_problem, row_problem


def abs_value_problem():
    """f(mu) = |mu| via rows (mu, -mu)."""
    return row_problem(
        a=np.zeros(1), lam=np.zeros(1),
        F=np.array([[1.0], [-1.0]]), b=np.zeros(2))


def shifted_abs_value_problem():
    """f(mu) = |mu - 1| via rows (mu - 1, 1 - mu): 1 at the start mu = 0."""
    return row_problem(
        a=np.zeros(1), lam=np.zeros(1),
        F=np.array([[1.0], [-1.0]]), b=np.array([-1.0, 1.0]))


def unbounded_problem(slope=-1.0):
    return row_problem(
        a=np.array([slope]), lam=np.array([0.5]),
        F=np.array([[0.0]]), b=np.array([0.0]))


def random_plp(rng, m=20, p=60):
    """Generic benign random problem with a bounded minimum."""
    return row_problem(
        a=rng.normal(size=m) * 0.1,
        lam=np.abs(rng.normal(size=m)) * 0.3 + 0.05,
        F=rng.normal(size=(p, m)) / np.sqrt(m),
        b=rng.normal(size=p) * 0.1,
        constant=1.0)


def test_subgradient_assembly():
    # at mu = (2, -3) the first row scores -0.5, the second -1: row (0.5, 0.5) wins
    problem = row_problem(
        a=np.array([1.0, -1.0]), lam=np.array([0.1, 0.1]),
        F=np.array([[0.5, 0.5], [1.0, 1.0]]), b=np.zeros(2))
    g = subgradient(problem, np.array([2.0, -3.0]))
    assert np.allclose(g, [1.6, -0.6], atol=1e-15)


def test_subgradient_sign_zero_and_ties():
    problem = row_problem(
        a=np.array([0.3]), lam=np.array([1.0]),
        F=np.array([[2.0], [2.0]]), b=np.zeros(2))
    g = subgradient(problem, np.zeros(1))
    assert g[0] == pytest.approx(0.3 + 2.0)  # sign(0) = 0, lowest row wins
    _, token = problem.evaluate(np.ones(1))
    assert token == 0  # two identical max rows: lowest index


def test_bsm_on_abs_value():
    run = solve_bsm(shifted_abs_value_problem(), SolverConfig(max_iters=10_000))
    assert run.best_value <= 1e-2
    assert run.best_value >= 0.0


def test_bsm_constant_objective_stops():
    problem = row_problem(
        a=np.zeros(1), lam=np.zeros(1), F=np.zeros((1, 1)), b=np.zeros(1))
    run = solve_bsm(problem, SolverConfig(max_iters=100))
    assert run.status == "stationary"
    assert run.iterations_done == 1
    assert run.best_value == 0.0


def test_bsm_divergence_floor():
    # the first step, of length 1/sqrt(2), already falls below -1e9
    cfg = SolverConfig(max_iters=100_000)
    with pytest.raises(DivergenceError, match="floor"):
        solve_bsm(unbounded_problem(slope=-1e10), cfg)


def test_schedule_values():
    c, eta = _schedule_arrays(5)
    # c_1 = 1, c_2 = 2^{-3/2}; theta_3 = 2/3, theta_4 = 1/2 give eta_4 = 1/4
    assert c[0] == 1.0
    assert abs(c[1] - 2.0 ** -1.5) < 1e-15
    assert abs(c[1] - 0.353553) < 1e-6
    assert eta[0] == 0.0 and eta[1] == 0.0
    assert abs(eta[3] - 0.25) < 1e-15


def test_asm_on_abs_value():
    run = solve_asm(shifted_abs_value_problem(), SolverConfig(max_iters=10_000))
    assert run.best_value <= 1e-3


def test_easm_requires_materialized():
    from mrckit import estimate, features, objective
    spec = features.identity_spec(2, 1)
    unc = estimate.UncertaintySet(np.zeros(2), np.zeros(2))
    fm = replace(objective.build_learning_problem(unc, np.ones((2, 1)), spec), average=True)
    with pytest.raises(SolverError, match="max over rows"):
        solve_easm(fm, SolverConfig(max_iters=10))


def test_easm_memory_budget(monkeypatch):
    problem, *_ = random_learning_problem(seed=0, n=20)
    monkeypatch.setattr(solver, "EASM_BUDGET_BYTES", 8)
    with pytest.raises(SolverError, match="budget"):
        solve_easm(problem, SolverConfig(max_iters=10))


def test_easm_halfcolumn_update_by_hand():
    # m = 1, F = ((3,)), lam = 0.5: H = 2*3*0.5 = 3. A sign flip -1 -> +1
    # adds one full column of H to the maintained d vector.
    F = np.array([[3.0]])
    lam = np.array([0.5])
    H = 2.0 * F * lam
    d = H @ np.sign(np.array([-1.0])) * 0.5
    delta = np.sign(np.array([1.0])) - np.sign(np.array([-1.0]))  # +2
    nz = np.flatnonzero(delta)
    d = d + H[:, nz] @ (0.5 * delta[nz])
    assert d[0] == pytest.approx(-1.5 + 3.0)
    # half-column branch: 0 -> +1 adds half a column
    d2 = H @ np.sign(np.array([0.0])) * 0.5
    delta = np.sign(np.array([1.0])) - np.sign(np.array([0.0]))  # +1
    nz = np.flatnonzero(delta)
    d2 = d2 + H[:, nz] @ (0.5 * delta[nz])
    assert d2[0] == pytest.approx(1.5)


def test_easm_exercises_halfcolumn_branch(rng):
    # starting from an exact zero component forces delta in {-1, +1}
    problem = random_plp(rng)
    cfg = SolverConfig(max_iters=50, record_iterates=True)
    run_a = solve_asm(problem, cfg)
    run_e = solve_easm(problem, cfg)
    signs = np.sign(run_e.iterates)
    deltas = np.abs(np.diff(signs, axis=0))
    assert np.any(deltas == 1)  # half-column branch hit
    assert np.allclose(run_a.iterates, run_e.iterates, atol=1e-12)


def test_asm_easm_iterate_identity(rng):
    problem, *_ = random_learning_problem(seed=11, n=25, num_classes=3,
                                          kind="rff", D=6)
    cfg = SolverConfig(max_iters=1000, record_iterates=True)
    asm = solve_asm(problem, cfg)
    easm = solve_easm(problem, cfg)
    diff = np.abs(asm.iterates - easm.iterates).max(axis=1)
    scale = np.maximum(1.0, np.abs(asm.iterates).max(axis=1))
    assert np.max(diff / scale) <= 1e-9


def test_easm_matches_asm_past_subset_cap():
    # K = 13 > SUBSET_ENUMERATION_CAP: argmax rows come from the top-k rule
    problem, *_ = random_learning_problem(seed=12, n=8, num_classes=13)
    assert problem.weights is None
    cfg = SolverConfig(max_iters=300, record_iterates=True)
    asm = solve_asm(problem, cfg)
    easm = solve_easm(problem, cfg)
    assert np.allclose(asm.iterates, easm.iterates, atol=1e-10)
    assert easm.best_value == problem.objective(easm.best_mu)


def test_easm_matches_asm_on_random_plp(rng):
    for seed in range(3):
        problem = random_plp(np.random.default_rng(seed), m=15, p=40)
        cfg = SolverConfig(max_iters=500, record_iterates=True)
        asm = solve_asm(problem, cfg)
        easm = solve_easm(problem, cfg)
        assert np.allclose(asm.iterates, easm.iterates, atol=1e-10)


def test_monotone_best_all_methods(rng):
    problem, *_ = random_learning_problem(seed=3, n=20)
    for method in ("bsm", "asm", "easm", "easm_restart"):
        cfg = SolverConfig(method=method, max_iters=800, restart_period=200,
                           record_trace=True)
        run = solve(problem, cfg)
        best = [row[2] for row in run.trace]
        assert all(a >= b - 1e-15 for a, b in zip(best, best[1:]))


def test_restart_noop_when_period_covers_budget():
    problem, *_ = random_learning_problem(seed=4, n=15)
    base = solve_easm(problem, SolverConfig(max_iters=500))
    restart = solve_easm_restart(
        problem, SolverConfig(max_iters=500, restart_period=500))
    assert restart.best_value == base.best_value
    assert np.array_equal(restart.best_mu, base.best_mu)


def test_restart_carries_best_across_boundary():
    problem, *_ = random_learning_problem(seed=5, n=15)
    run = solve_easm_restart(
        problem, SolverConfig(max_iters=600, restart_period=150,
                              record_trace=True))
    best = [row[2] for row in run.trace]
    assert all(a >= b - 1e-15 for a, b in zip(best, best[1:]))
    assert run.iterations_done == 600


def test_restart_extends_reach_with_full_reset():
    # optimum far beyond what one segment can travel: restarting the
    # schedule at full scale accumulates reach across segments
    t = 300.0
    problem = row_problem(
        a=np.zeros(1), lam=np.zeros(1),
        F=np.array([[1.0], [-1.0]]), b=np.array([-t, t]))
    plain = solve_easm(problem, SolverConfig(max_iters=2000))
    restarted = solve_easm_restart(
        problem, SolverConfig(max_iters=2000, restart_period=200))
    assert restarted.best_value < plain.best_value - 10.0


def test_restart_competitive_at_equal_iterations():
    # the restarts track plain easm closely; the incumbent from the first
    # segment is never lost
    for seed in range(6):
        problem, *_ = random_learning_problem(seed=100 + seed, n=30,
                                              kind="rff", D=5)
        plain = solve_easm(problem, SolverConfig(max_iters=4000))
        seg1 = solve_easm(problem, SolverConfig(max_iters=500))
        restarted = solve_easm_restart(
            problem, SolverConfig(max_iters=4000, restart_period=500))
        assert restarted.best_value <= seg1.best_value + 1e-9
        assert restarted.best_value <= plain.best_value + 2e-3


def test_lp_abs_value_exact():
    run = solve_lp(abs_value_problem(), SolverConfig())
    assert run.best_value == pytest.approx(0.0, abs=1e-12)
    assert run.best_mu[0] == pytest.approx(0.0, abs=1e-12)
    assert run.certificate == "lp"


def test_lp_unbounded():
    with pytest.raises(UnboundedObjectiveError):
        solve_lp(unbounded_problem(), SolverConfig())


def test_lp_size_budget(monkeypatch):
    problem, *_ = random_learning_problem(seed=6, n=10)
    monkeypatch.setattr(solver, "LP_MAX_ROWS", 5)
    with pytest.raises(SolverError, match="budget"):
        solve_lp(problem, SolverConfig())


def test_lp_dominates_subgradient_methods(rng):
    for seed in range(5):
        problem, *_ = random_learning_problem(seed=200 + seed, n=12,
                                              num_classes=2)
        lp = solve_lp(problem, SolverConfig())
        for method in ("bsm", "asm", "easm"):
            run = solve(problem, SolverConfig(method=method, max_iters=1500))
            assert run.best_value >= lp.best_value - 1e-9


def test_easm_reports_exact_value_at_best_mu():
    # the recursion drifts by about 1e-11 over 2e4 iterations; the
    # reported value is the objective re-evaluated at the returned point
    problem, *_ = random_learning_problem(seed=0, n=60, num_classes=2,
                                          kind="rff", D=20)
    for method in ("easm", "easm_restart"):
        run = solve(problem, SolverConfig(method=method, max_iters=20_000))
        assert run.best_value == problem.objective(run.best_mu)
        if method == "easm":
            assert run.value_drift != 0.0
    for method in ("bsm", "asm"):
        run = solve(problem, SolverConfig(method=method, max_iters=2000))
        assert run.value_drift == 0.0


def test_gamma_recorded(rng):
    problem, *_ = random_learning_problem(seed=9, n=20)
    run = solve_easm(problem, SolverConfig(max_iters=300))
    assert run.sparsity_gamma is not None
    assert 0.0 <= run.sparsity_gamma <= 1.0


@pytest.mark.parametrize("method", ["bsm", "asm", "easm", "easm_restart"])
def test_gamma_is_exact_sign_change_count(method):
    # gamma = sign changes between consecutive iterates, counted within each
    # segment, over (iterations x m); segments of 70 leave a short last one
    problem, *_ = random_learning_problem(seed=3, n=20)
    cfg = SolverConfig(method=method, max_iters=300, restart_period=70,
                       record_iterates=True)
    run = solve(problem, cfg)
    period = 70 if method == "easm_restart" else 300
    signs = np.sign(run.iterates)
    changes = row = 0
    for first in range(0, run.iterations_done, period):
        seg = signs[row:row + min(period, run.iterations_done - first) + 1]
        changes += int(np.count_nonzero(seg[1:] != seg[:-1]))
        row += len(seg)
    assert row == len(signs)  # each segment records its start and its steps
    assert run.sparsity_gamma == changes / (run.iterations_done * problem.dimension)


def test_bsm_stationary_exit_through_solve():
    # f(mu) = max(0.5 - mu, 0): the first step reaches mu = 1/sqrt(2), where
    # the flat row wins and the subgradient is 0 at iteration 2
    problem = row_problem(
        a=np.zeros(1), lam=np.zeros(1),
        F=np.array([[-1.0], [0.0]]), b=np.array([0.5, 0.0]))
    run = solve(problem, SolverConfig(method="bsm", max_iters=100,
                                      record_trace=True, record_iterates=True))
    assert run.status == "stationary"
    assert run.iterations_done == 2
    assert [row[0] for row in run.trace] == [0, 1, 2]
    assert run.best_value == 0.0
    assert run.best_mu[0] == pytest.approx(2.0 ** -0.5, abs=1e-15)
    assert run.sparsity_gamma == 1 / 2  # one sign change over two iterations
    assert len(run.iterates) == 2
