"""The in-house simplex against scipy's HiGHS on seeded LPs.

Optima must agree within 1e-9 (1 + |value|). scipy is a test-only
dependency: the module is skipped when it is missing.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import linprog  # noqa: E402

from mrckit import classifier, estimate, features, objective, simplex  # noqa: E402
from mrckit.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED,  # noqa: E402
                            solve_standard_form)
from mrckit.solver import SolverConfig, solve  # noqa: E402

from conftest import (exact_lp_rule_problems, exact_lp_training_set,  # noqa: E402
                      random_learning_problem)

HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
LP = SolverConfig(method="lp")


def agree(ours, reference):
    return abs(ours - reference) <= 1e-9 * (1.0 + abs(reference))


def highs_standard_form(c, A, b):
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    return HIGHS_STATUS[res.status], res.fun


def highs_problem_optimum(problem):
    """min a.mu + lam.|mu| + max(F mu + b) over (mu+, mu-, t), t free."""
    p, m = problem.F.shape
    cost = np.concatenate([problem.a + problem.lam, -problem.a + problem.lam, [1.0]])
    A_ub = np.hstack([problem.F, -problem.F, -np.ones((p, 1))])
    res = linprog(cost, A_ub=A_ub, b_ub=-problem.b,
                  bounds=[(0, None)] * (2 * m) + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return problem.constant + res.fun


def highs_repair_optimum(tau, lam, psi, num_classes):
    """min sum(d1 + d2) s.t. tau - lam - d1 <= Phi^T q <= tau + lam + d2,
    q a distribution on pool x labels."""
    s, B = psi.shape
    K, m = num_classes, tau.size
    phi_T = np.zeros((m, s * K))
    for c in range(K):
        phi_T[c * B:(c + 1) * B, c::K] = psi.T
    eye, zero = np.eye(m), np.zeros((m, m))
    A_ub = np.block([[-phi_T, -eye, zero], [phi_T, zero, -eye]])
    b_ub = np.concatenate([-(tau - lam), tau + lam])
    A_eq = np.concatenate([np.ones(s * K), np.zeros(2 * m)])[None, :]
    cost = np.concatenate([np.zeros(s * K), np.ones(2 * m)])
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


def random_unit_lp(rng, p, dense, redundant=False):
    """Dense columns beside explicit +e_i and -e_i columns, with a
    right-hand side of mixed sign from a nonnegative point."""
    D = rng.normal(size=(p, dense))
    plus, minus = np.eye(p)[:, : p // 2], -np.eye(p)[:, p // 3:]
    A = np.hstack([D, plus, minus])
    order = rng.permutation(A.shape[1])
    A = A[:, order]
    b = A @ (np.abs(rng.normal(size=A.shape[1])) * (rng.random(A.shape[1]) < 0.4))
    c = np.abs(rng.normal(size=A.shape[1])) + 0.1 * rng.normal(size=A.shape[1])
    if redundant:
        A = np.vstack([A, A[0] + 2.0 * A[1]])
        b = np.append(b, b[0] + 2.0 * b[1])
    return c, A, b


@pytest.mark.parametrize("redundant", [False, True])
def test_unit_column_lps_match_highs(redundant):
    rng = np.random.default_rng(20)
    for _ in range(15):
        c, A, b = random_unit_lp(rng, p=int(rng.integers(4, 25)),
                                 dense=int(rng.integers(2, 30)), redundant=redundant)
        assert np.any(b < 0)  # phase 1 starts from signed artificials
        status, value = highs_standard_form(c, A, b)
        res = solve_standard_form(c, A, b)
        assert res.status == status
        if status == OPTIMAL:
            assert agree(res.value, value)
            assert np.all(res.x >= 0.0)
            assert np.allclose(A @ res.x, b, atol=1e-8)


def test_infeasible_warm_basis_falls_back_to_phase_one():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = int(rng.integers(3, 12))
        D = rng.normal(size=(p, 6))
        A = np.hstack([D, np.eye(p)])
        b = A @ np.abs(rng.normal(size=6 + p))
        b[0] = -abs(b[0]) - 1.0  # the slack basis puts x = b, negative in row 0
        c = np.concatenate([rng.normal(size=6), np.abs(rng.normal(size=p))])
        status, value = highs_standard_form(c, A, b)
        res = solve_standard_form(c, A, b, basis=6 + np.arange(p))
        assert res.status == status
        if status == OPTIMAL:
            assert agree(res.value, value)


def test_unbounded_and_infeasible_match_highs():
    rng = np.random.default_rng(22)
    A = np.hstack([rng.normal(size=(5, 4)), np.eye(5), -np.eye(5)])
    b = rng.normal(size=5)
    c = np.concatenate([rng.normal(size=4), np.ones(10)])
    c[0] = -1.0
    A[:, 0] = 0.0  # a free direction of cost -1: unbounded
    assert highs_standard_form(c, A, b)[0] == UNBOUNDED
    assert solve_standard_form(c, A, b).status == UNBOUNDED
    # x0 + x1 = 1 and x0 + x1 = 2 (plus a unit column that cannot help)
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([1.0, 2.0, -1.0])
    c = np.ones(3)
    assert highs_standard_form(c, A, b)[0] == INFEASIBLE
    assert solve_standard_form(c, A, b).status == INFEASIBLE


@pytest.mark.parametrize("seed", range(4))
def test_solve_lp_matches_highs(seed):
    problem, unc, X, labels, spec = random_learning_problem(
        seed, n=30, num_classes=3, kind="rff" if seed % 2 else "identity")
    assert agree(solve(problem, LP).best_value, highs_problem_optimum(problem))
    psi = features.scalar_feature_matrix(spec, X)
    h = np.eye(3)[labels - 1]
    high = objective.build_upper_bound_problem(unc, psi, h)
    for bound in (high, objective.lower_from_upper(high)):
        assert agree(solve(bound, LP).best_value, highs_problem_optimum(bound))


@pytest.mark.parametrize("shift", [0.0, 0.7])
def test_ensure_feasible_matches_highs(shift):
    # shift = 0: the pool is the training set, so the set is feasible as is
    ds = exact_lp_training_set(1, 0, n=40)
    spec = features.rff_spec(2, 4, D=6, seed=0)
    stats, X, unc, psi = classifier.estimate_uncertainty(ds, spec)
    tau = unc.tau + shift * np.sign(unc.tau)
    tau2, lam2 = estimate.ensure_feasible(tau, unc.lam, psi, 2)
    # lam2 - lam = (d1 + d2) / 2 at the LP optimum
    ours = 2.0 * float(np.sum(lam2 - unc.lam))
    reference = highs_repair_optimum(tau, unc.lam, psi, 2)
    assert agree(ours, reference)
    assert (reference > 0.0) == (shift > 0.0)


@pytest.mark.parametrize("seed,dataset", [(1, 3), (2, 4), (2, 6), (2, 7)])
def test_degenerate_rule_lps_match_highs(seed, dataset):
    for problem in exact_lp_rule_problems(seed, dataset):
        assert agree(solve(problem, LP).best_value, highs_problem_optimum(problem))


def test_large_perturbation_still_lands_on_the_true_optimum(monkeypatch):
    # A perturbation this large leaves some basic values negative under the
    # true b; the dual pivots that follow must still reach the optimum.
    monkeypatch.setattr(simplex, "PERTURBATION", 1e-2)
    high, low = exact_lp_rule_problems(1, 3)
    for problem in (high, low):
        assert agree(solve(problem, LP).best_value, highs_problem_optimum(problem))
    rng = np.random.default_rng(23)
    for _ in range(10):
        c, A, b = random_unit_lp(rng, p=12, dense=15)
        status, value = highs_standard_form(c, A, b)
        res = solve_standard_form(c, A, b)
        assert res.status == status
        if status == OPTIMAL:
            assert agree(res.value, value)
