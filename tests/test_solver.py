from dataclasses import replace

import numpy as np
import pytest

from mrckit import solver
from mrckit.solver import (DivergenceError, SolverConfig, SolverError,
                           UnboundedObjectiveError, _schedule_arrays, solve)
from conftest import random_learning_problem, row_problem, subgradient_at


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
    mu = np.array([2.0, -3.0])
    g = subgradient_at(problem, mu, problem.evaluate(mu)[1])
    assert np.allclose(g, [1.6, -0.6], atol=1e-15)


def test_subgradient_sign_zero_and_ties():
    problem = row_problem(
        a=np.array([0.3]), lam=np.array([1.0]),
        F=np.array([[2.0], [2.0]]), b=np.zeros(2))
    g = subgradient_at(problem, np.zeros(1), problem.evaluate(np.zeros(1))[1])
    assert g[0] == pytest.approx(0.3 + 2.0)  # sign(0) = 0, lowest row wins
    _, token = problem.evaluate(np.ones(1))
    assert token == 0  # two identical max rows: lowest index


def test_bsm_on_abs_value():
    run = solve(shifted_abs_value_problem(), SolverConfig(method="bsm", max_iters=10_000))
    assert run.best_value <= 1e-2
    assert run.best_value >= 0.0


def test_bsm_constant_objective_stops():
    problem = row_problem(
        a=np.zeros(1), lam=np.zeros(1), F=np.zeros((1, 1)), b=np.zeros(1))
    run = solve(problem, SolverConfig(method="bsm", max_iters=100))
    assert run.status == "stationary"
    assert run.iterations_done == 1
    assert run.best_value == 0.0


def test_bsm_divergence_floor():
    # the first step, of length 1/sqrt(2), already falls below -1e9
    cfg = SolverConfig(method="bsm", max_iters=100_000)
    with pytest.raises(DivergenceError, match="floor"):
        solve(unbounded_problem(slope=-1e10), cfg)


def test_schedule_values():
    c, eta = _schedule_arrays(5)
    # c_1 = 1, c_2 = 2^{-3/2}; theta_3 = 2/3, theta_4 = 1/2 give eta_4 = 1/4
    assert c[0] == 1.0
    assert abs(c[1] - 2.0 ** -1.5) < 1e-15
    assert abs(c[1] - 0.353553) < 1e-6
    assert eta[0] == 0.0 and eta[1] == 0.0
    assert abs(eta[3] - 0.25) < 1e-15


def test_asm_on_abs_value():
    run = solve(shifted_abs_value_problem(), SolverConfig(method="asm", max_iters=10_000))
    assert run.best_value <= 1e-3


def test_easm_requires_materialized():
    from mrckit import estimate, features, objective
    spec = features.identity_spec(2, 1)
    unc = estimate.UncertaintySet(np.zeros(2), np.zeros(2))
    fm = replace(objective.build_learning_problem(unc, np.ones((2, 1)), spec), average=True)
    with pytest.raises(SolverError, match="max over rows"):
        solve(fm, SolverConfig(method="easm", max_iters=10))


def test_easm_memory_budget(monkeypatch):
    problem, *_ = random_learning_problem(seed=0, n=20)
    monkeypatch.setattr(solver, "EASM_BUDGET_BYTES", 8)
    with pytest.raises(SolverError, match="budget"):
        solve(problem, SolverConfig(method="easm", max_iters=10))


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
    run_a = solve(problem, replace(cfg, method="asm"))
    run_e = solve(problem, replace(cfg, method="easm"))
    signs = np.sign(run_e.iterates)
    deltas = np.abs(np.diff(signs, axis=0))
    assert np.any(deltas == 1)  # half-column branch hit
    assert np.allclose(run_a.iterates, run_e.iterates, atol=1e-12)


def test_asm_easm_iterate_identity(rng):
    problem, *_ = random_learning_problem(seed=11, n=25, num_classes=3,
                                          kind="rff", D=6)
    cfg = SolverConfig(max_iters=1000, record_iterates=True)
    asm = solve(problem, replace(cfg, method="asm"))
    easm = solve(problem, replace(cfg, method="easm"))
    diff = np.abs(asm.iterates - easm.iterates).max(axis=1)
    scale = np.maximum(1.0, np.abs(asm.iterates).max(axis=1))
    assert np.max(diff / scale) <= 1e-9


def test_easm_matches_asm_past_subset_cap():
    # K = 13 > SUBSET_ENUMERATION_CAP: argmax rows come from the top-k rule
    problem, *_ = random_learning_problem(seed=12, n=8, num_classes=13)
    assert problem.weights is None
    cfg = SolverConfig(max_iters=300, record_iterates=True)
    asm = solve(problem, replace(cfg, method="asm"))
    easm = solve(problem, replace(cfg, method="easm"))
    assert np.allclose(asm.iterates, easm.iterates, atol=1e-10)
    assert easm.best_value == problem.objective(easm.best_mu)


def test_easm_matches_asm_on_random_plp(rng):
    for seed in range(3):
        problem = random_plp(np.random.default_rng(seed), m=15, p=40)
        cfg = SolverConfig(max_iters=500, record_iterates=True)
        asm = solve(problem, replace(cfg, method="asm"))
        easm = solve(problem, replace(cfg, method="easm"))
        assert np.allclose(asm.iterates, easm.iterates, atol=1e-10)


def test_monotone_best_all_methods(rng):
    problem, *_ = random_learning_problem(seed=3, n=20)
    for method in ("bsm", "asm", "easm", "easm_restart"):
        cfg = SolverConfig(method=method, max_iters=800, restart_period=200,
                           trace_every=1)
        run = solve(problem, cfg)
        best = [row[2] for row in run.trace]
        assert all(a >= b - 1e-15 for a, b in zip(best, best[1:]))


def test_trace_every_selects_the_rows_and_must_be_at_least_one():
    problem, *_ = random_learning_problem(seed=3, n=20)
    assert solve(problem, SolverConfig(method="asm", max_iters=10)).trace is None
    run = solve(problem, SolverConfig(method="asm", max_iters=10, trace_every=4))
    assert [row[0] for row in run.trace] == [0, 4, 8]
    for every in (0, -1):
        with pytest.raises(SolverError, match="trace_every must be at least 1"):
            solve(problem, SolverConfig(method="asm", max_iters=10, trace_every=every))


def test_restart_noop_when_period_covers_budget():
    problem, *_ = random_learning_problem(seed=4, n=15)
    base = solve(problem, SolverConfig(method="easm", max_iters=500))
    restart = solve(problem, SolverConfig(method="easm_restart", max_iters=500,
                                          restart_period=500))
    assert restart.best_value == base.best_value
    assert np.array_equal(restart.best_mu, base.best_mu)


def test_restart_carries_best_across_boundary():
    problem, *_ = random_learning_problem(seed=5, n=15)
    run = solve(problem, SolverConfig(method="easm_restart", max_iters=600,
                                      restart_period=150, trace_every=1))
    best = [row[2] for row in run.trace]
    assert all(a >= b - 1e-15 for a, b in zip(best, best[1:]))
    # the second segment finds no better point, so a third would replay it
    assert (run.status, run.iterations_done) == ("stalled", 300)
    assert run.trace[-1][0] == 300


@pytest.mark.parametrize("seed", [5, 6, 9])
def test_stalled_restart_returns_the_full_budget_point(seed):
    problem, *_ = random_learning_problem(seed=seed, n=15)
    cfg = SolverConfig(method="easm_restart", max_iters=1500, restart_period=150)
    run = solve(problem, cfg)
    assert run.status == "stalled" and run.iterations_done < cfg.max_iters
    # reference: every segment of the budget, restarted from the incumbent
    recursion = solver._Recursion(problem)
    rec = solver._RunRecorder(cfg, problem.dimension)
    best_value, best_mu = np.inf, None
    mu = np.zeros(problem.dimension)
    for done in range(0, cfg.max_iters, cfg.restart_period):
        rec.segment(done, 0.0)
        incumbent = None if best_mu is None else (best_value, best_mu)
        value, seg_mu, *_ = solver._accelerated(
            problem, mu, cfg.restart_period, rec, incumbent, recursion, False)
        if value < best_value:
            best_value, best_mu = value, seg_mu
        mu = best_mu
    assert np.array_equal(run.best_mu, best_mu)
    assert run.best_value == problem.objective(best_mu)


def test_restart_extends_reach_with_full_reset():
    # optimum far beyond what one segment can travel: restarting the
    # schedule at full scale accumulates reach across segments
    t = 300.0
    problem = row_problem(
        a=np.zeros(1), lam=np.zeros(1),
        F=np.array([[1.0], [-1.0]]), b=np.array([-t, t]))
    plain = solve(problem, SolverConfig(method="easm", max_iters=2000))
    restarted = solve(problem, SolverConfig(method="easm_restart", max_iters=2000,
                                            restart_period=200))
    assert restarted.best_value < plain.best_value - 10.0


def test_restart_competitive_at_equal_iterations():
    # the restarts track plain easm closely; the incumbent from the first
    # segment is never lost
    for seed in range(6):
        problem, *_ = random_learning_problem(seed=100 + seed, n=30,
                                              kind="rff", D=5)
        plain = solve(problem, SolverConfig(method="easm", max_iters=4000))
        seg1 = solve(problem, SolverConfig(method="easm", max_iters=500))
        restarted = solve(problem, SolverConfig(method="easm_restart", max_iters=4000,
                                                restart_period=500))
        assert restarted.best_value <= seg1.best_value + 1e-9
        assert restarted.best_value <= plain.best_value + 2e-3


def test_lp_abs_value_exact():
    run = solve(abs_value_problem(), SolverConfig(method="lp"))
    assert run.best_value == pytest.approx(0.0, abs=1e-12)
    assert run.best_mu[0] == pytest.approx(0.0, abs=1e-12)
    assert run.certificate == "lp"


def test_lp_unbounded():
    with pytest.raises(UnboundedObjectiveError):
        solve(unbounded_problem(), SolverConfig(method="lp"))


def test_lp_size_budget(monkeypatch):
    problem, *_ = random_learning_problem(seed=6, n=10)
    monkeypatch.setattr(solver, "LP_MAX_ROWS", 5)
    with pytest.raises(SolverError, match="budget"):
        solve(problem, SolverConfig(method="lp"))


def test_lp_dominates_subgradient_methods(rng):
    for seed in range(5):
        problem, *_ = random_learning_problem(seed=200 + seed, n=12,
                                              num_classes=2)
        lp = solve(problem, SolverConfig(method="lp"))
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
    run = solve(problem, SolverConfig(method="easm", max_iters=300))
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
                                      trace_every=1, record_iterates=True))
    assert run.status == "stationary"
    assert run.iterations_done == 2
    assert [row[0] for row in run.trace] == [0, 1, 2]
    assert run.best_value == 0.0
    assert run.best_mu[0] == pytest.approx(2.0 ** -0.5, abs=1e-15)
    assert run.sparsity_gamma == 1 / 2  # one sign change over two iterations
    assert len(run.iterates) == 2


# Reference for the in-place loop: the allocating loop it replaced, with the
# E-ASM score recursion as a class of its own. Iterates, values and tokens
# of solver._accelerated must match it bit for bit.

class _ReferenceRecursion:
    def __init__(self, problem):
        self.problem = problem
        self.G = problem.psi @ problem.psi.T
        self.psi_t = np.ascontiguousarray(problem.psi.T)
        self.lam_eye = np.repeat(np.eye(problem.num_classes), problem.psi.shape[1],
                                 axis=0) * problem.lam[:, None]

    def start(self, mu):
        p = self.problem
        self.v = p.scores(mu)
        self.w = self.v.copy()
        self.s = np.sign(mu)
        self.base = p.scores(p.a + p.lam * self.s)

    def step(self, mu, token, ck, ek, sign, flips):
        p = self.problem
        i, r = divmod(token, p.rows_per_instance)
        weights = p._row_weights(r)
        w_next = self.v - ck * (self.base + self.G[i][:, None] * weights)
        self.v = (1.0 + ek) * w_next - ek * self.w
        self.w = w_next
        if flips is not None:
            coef = self.lam_eye[flips] * (sign[flips] - self.s[flips])[:, None]
            self.base += self.psi_t[flips % self.psi_t.shape[0]].T @ coef
        self.s = sign
        return p._value_at(mu, self.v)


def _reference_accelerated(problem, mu, iters, rec, incumbent, recursion, basic):
    constant = problem.constant
    c, eta = _schedule_arrays(iters + 1)
    raw, token = problem.evaluate(mu)
    if recursion is not None:
        recursion.start(mu)
    best_raw, best_mu = raw, mu.copy()
    if incumbent is not None and incumbent[0] - constant < best_raw:
        best_raw, best_mu = incumbent[0] - constant, incumbent[1].copy()
    rec.start(constant + best_raw)
    rec.snapshot_mu(mu)
    y = mu
    sign = np.sign(mu)
    linear = problem.a + problem.lam * sign
    status, improved = "max_iters", False
    for k in range(1, iters + 1):
        g = problem.add_argmax_row(linear.copy(), token)
        if basic:
            gnorm = np.sqrt(float(g @ g))
            if gnorm == 0.0:
                status = "stationary"
                rec.step(k, constant + best_raw, 0)
                break
            mu = mu - g / (np.sqrt(k + 1.0) * gnorm)
        else:
            ck, ek = c[k - 1], eta[k - 1]
            y_next = mu - ck * g
            mu = (1.0 + ek) * y_next - ek * y
            y = y_next
        prev_sign, sign = sign, np.sign(mu)
        flips = (sign != prev_sign).nonzero()[0]
        if flips.size:
            linear[flips] = problem.a[flips] + problem.lam[flips] * sign[flips]
        if recursion is None:
            raw, token = problem.evaluate(mu)
        else:
            raw, token = recursion.step(mu, token, ck, ek, sign,
                                        flips if flips.size else None)
        if raw < best_raw:
            best_raw, best_mu, improved = raw, mu.copy(), True
        rec.step(k, constant + best_raw, flips.size)
        rec.snapshot_mu(mu)
    return constant + best_raw, best_mu, k, status, improved


def _oracle_problems():
    """Name -> (problem, methods): every branch of the loop."""
    k2, unc, *_ = random_learning_problem(seed=21, n=30, kind="rff", D=5)
    k3, *_ = random_learning_problem(seed=22, n=25, num_classes=3, kind="rff", D=4)
    k8, *_ = random_learning_problem(seed=23, n=10, num_classes=8)
    from mrckit import objective
    labels = np.argmax(k2.scores(np.linspace(-1.0, 1.0, k2.dimension)), axis=1)
    upper = objective.build_upper_bound_problem(unc, k2.psi, np.eye(2)[labels])
    # mu_1 never moves from 0: its column is 0 and a_1 = -0.0
    flat = row_problem(a=-np.array([0.0, 0.3, -0.2]), lam=np.array([0.1, 0.05, 0.2]),
                       F=np.column_stack([np.zeros(12), np.random.default_rng(
                           24).normal(size=(12, 2))]),
                       b=np.linspace(-0.5, 0.5, 12), constant=1.0)
    every = ("bsm", "asm", "easm", "easm_restart")
    return {
        "k2": (k2, every), "k3": (k3, every), "k8_topk": (k8, every),
        "upper": (upper, every), "lower": (objective.lower_from_upper(upper), every),
        "fixed_marginal": (replace(k2, average=True), ("bsm", "asm")),
        "zero_column": (flat, every),
    }


@pytest.mark.parametrize("name", ["k2", "k3", "k8_topk", "upper", "lower",
                                  "fixed_marginal", "zero_column"])
def test_loop_matches_reference_bit_for_bit(name, monkeypatch):
    problem, methods = _oracle_problems()[name]
    for method in methods:
        # restarts of 120 carry an incumbent into the later segments
        cfg = SolverConfig(method=method, max_iters=400, restart_period=120,
                           trace_every=1, record_iterates=True)
        run = solve(problem, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_accelerated", _reference_accelerated)
            patch.setattr(solver, "_Recursion", _ReferenceRecursion)
            ref = solve(problem, cfg)
        assert run.best_mu.tobytes() == ref.best_mu.tobytes(), method
        assert run.iterates.tobytes() == ref.iterates.tobytes(), method
        assert (run.best_value, run.iterations_done, run.status, run.sparsity_gamma,
                run.value_drift) == (ref.best_value, ref.iterations_done, ref.status,
                                     ref.sparsity_gamma, ref.value_drift), method
        assert [row[::2] + row[3:] for row in run.trace] == \
            [row[::2] + row[3:] for row in ref.trace], method


def test_segment_with_incumbent_matches_reference():
    # a segment started away from its incumbent, which it must beat
    problem, *_ = random_learning_problem(seed=25, n=20, num_classes=3, kind="rff", D=3)
    first = solve(problem, SolverConfig(method="easm", max_iters=60))
    start = np.full(problem.dimension, 0.05)
    for recursion_type, basic in ((None, True), (None, False),
                                  (solver._Recursion, False)):
        outs = []
        for loop, rtype in ((solver._accelerated, recursion_type),
                            (_reference_accelerated,
                             recursion_type and _ReferenceRecursion)):
            rec = solver._RunRecorder(SolverConfig(record_iterates=True),
                                      problem.dimension)
            rec.segment(60, 0.0)
            given = start.copy()
            value, mu, ran, status, improved = loop(
                problem, given, 90, rec, (first.best_value, first.best_mu),
                None if rtype is None else rtype(problem), basic)
            assert np.array_equal(given, start)  # the incoming mu is not stepped
            outs.append((value, mu.tobytes(), ran, status, improved,
                         np.vstack(rec.iterates).tobytes(), rec.changed))
        assert outs[0] == outs[1]
