from dataclasses import replace

import numpy as np
import pytest

from mrckit import estimate, features, objective
from mrckit.objective import (build_learning_problem, build_upper_bound_problem,
                              lower_from_upper, phi)
from conftest import enumerate_phi, random_learning_problem, subgradient_at


def scores_spec(scores):
    """Identity map on 1-d instances scaled so one instance hits given scores."""
    # mu block y = scores[y], instance x = 1.0
    K = len(scores)
    spec = features.identity_spec(K, 1)
    return spec, np.array([[1.0]]), np.array(scores, dtype=float)


def test_phi_at_mu_zero():
    for K in (2, 3, 5):
        spec = features.identity_spec(K, 2)
        val = phi(np.zeros(2 * K), np.ones((3, 2)), spec)
        assert abs(val - (-1.0 / K)) < 1e-15


def test_phi_binary_examples():
    spec, X, mu = scores_spec([2.0, 0.0])
    assert abs(phi(mu, X, spec) - 1.0) < 1e-15
    spec, X, mu = scores_spec([0.4, 0.2])
    assert abs(phi(mu, X, spec) - (-0.2)) < 1e-15


def test_phi_three_class_topk():
    spec, X, mu = scores_spec([3.0, 1.0, 1.0])
    # candidates: 2, 1.5, 4/3
    assert abs(phi(mu, X, spec) - 2.0) < 1e-15
    assert abs(phi(mu, X[0], spec) - 2.0) < 1e-15


def test_phi_at_x_is_pointwise_phi(rng):
    spec = features.rff_spec(3, 2, D=4, seed=0)
    X = rng.normal(size=(6, 2))
    mu = rng.normal(size=features.feature_dim(spec))
    per = [phi(mu, x, spec) for x in X]
    assert abs(phi(mu, X, spec) - max(per)) < 1e-15


def test_phi_matches_enumeration(rng):
    for trial in range(60):
        K = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        spec = features.identity_spec(K, d)
        X = rng.normal(size=(3, d))
        mu = rng.normal(size=K * d)
        fast = phi(mu, X, spec)
        slow = enumerate_phi(mu, X, spec)
        assert abs(fast - slow) <= 1e-12


def test_phi_lower_bounds():
    # the full-set and best-singleton candidates bound phi from below
    rng = np.random.default_rng(5)
    spec = features.identity_spec(3, 2)
    X = rng.normal(size=(4, 2))
    for _ in range(20):
        mu = rng.normal(size=6)
        scores = features.score_matrix(spec, X, mu)
        full_set = (scores.sum(axis=1) - 1.0) / 3.0
        singleton = scores.max(axis=1) - 1.0
        val = phi(mu, X, spec)
        assert val >= max(full_set.max(), singleton.max()) - 1e-12
    assert phi(np.zeros(6), X, spec) == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_learning_problem_shape_and_rows():
    problem, unc, X, y, spec = random_learning_problem(seed=0, n=2, num_classes=2)
    assert problem.num_rows == 2 * (2 ** 2 - 1)
    # rows ordered instance-major, masks ascending: {1}, {2}, {1, 2}
    psi = features.scalar_feature_matrix(spec, X)
    zero = np.zeros_like(psi[0])
    rows = [np.concatenate(blocks) for i in range(2)
            for blocks in ((psi[i], zero), (zero, psi[i]), (psi[i] / 2, psi[i] / 2))]
    assert np.array_equal(problem.F, np.array(rows))
    assert np.array_equal(problem.b, [-1.0, -1.0, -0.5, -1.0, -1.0, -0.5])
    # mask 3 = both labels, offset -1/2
    assert problem.b[2] == -0.5 and problem.b[0] == -1.0
    assert problem.constant == 1.0
    assert np.array_equal(problem.a, -unc.tau)


def test_learning_objective_value_at_zero():
    for K in (2, 3):
        problem, *_ = random_learning_problem(seed=1, n=5, num_classes=K)
        assert abs(problem.objective(np.zeros(problem.dimension))
                   - (1.0 - 1.0 / K)) < 1e-12


def test_learning_matrix_matches_direct_formula(rng):
    problem, unc, X, y, spec = random_learning_problem(seed=2, n=6, num_classes=3)
    for _ in range(10):
        mu = rng.normal(size=problem.dimension)
        direct = (1.0 - unc.tau @ mu + phi(mu, X, spec)
                  + unc.lam @ np.abs(mu))
        assert abs(problem.objective(mu) - direct) <= 1e-12


def test_subset_cap():
    rng = np.random.default_rng(0)
    spec = features.identity_spec(13, 1)
    X = rng.normal(size=(2, 1))
    unc = estimate.UncertaintySet(np.zeros(13), np.zeros(13))
    # past the cap the subset rows come from the top-k rule
    obj = build_learning_problem(unc, X, spec)
    assert obj.weights is None and obj.num_rows == 2 * (2 ** 13 - 1)
    assert abs(obj.objective(np.zeros(13)) - (1 - 1.0 / 13)) < 1e-12


def test_topk_objective_matches_materialized(rng, monkeypatch):
    problem, unc, X, y, spec = random_learning_problem(seed=3, n=5, num_classes=3)
    monkeypatch.setattr(objective, "SUBSET_ENUMERATION_CAP", 2)
    topk = build_learning_problem(unc, X, spec)
    assert problem.weights is not None and topk.weights is None
    for _ in range(10):
        mu = rng.normal(size=problem.dimension)
        assert abs(problem.objective(mu) - topk.objective(mu)) <= 1e-12
        raw_a, tok_a = problem.evaluate(mu)
        g1 = subgradient_at(problem, mu, tok_a)
        raw_b, tok_b = topk.evaluate(mu)
        g2 = subgradient_at(topk, mu, tok_b)
        assert np.allclose(g1, g2, atol=1e-12)


def test_upper_bound_problem():
    problem, unc, X, y, spec = random_learning_problem(seed=4, n=3, num_classes=2)
    h = np.full((3, 2), 0.5)
    psi = features.scalar_feature_matrix(spec, X)
    up = build_upper_bound_problem(unc, psi, h)
    assert up.num_rows == 3 * 2
    assert abs(up.objective(np.zeros(up.dimension)) - 0.5) < 1e-15
    all_one = build_upper_bound_problem(unc, psi, np.ones((3, 2)))
    assert abs(all_one.objective(np.zeros(up.dimension)) - 0.0) < 1e-15
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        build_upper_bound_problem(unc, psi, np.full((3, 2), 1.5))


def test_lower_bound_problem():
    problem, unc, X, y, spec = random_learning_problem(seed=5, n=4, num_classes=2)
    h = np.full((4, 2), 0.5)
    low = lower_from_upper(
        build_upper_bound_problem(unc, features.scalar_feature_matrix(spec, X), h))
    assert low.num_rows == 8
    f0 = low.objective(np.zeros(low.dimension))
    assert abs(f0 - (-0.5)) < 1e-15
    assert abs(low.reported_value(f0) - 0.5) < 1e-15
    assert np.array_equal(low.lam, unc.lam)
    assert np.array_equal(low.a, unc.tau)


def test_fixed_marginal_value_and_equivalence(rng):
    problem, unc, X, y, spec = random_learning_problem(seed=6, n=5, num_classes=3)
    fm = replace(build_learning_problem(unc, X, spec), average=True)
    assert abs(fm.objective(np.zeros(fm.dimension)) - (1 - 1.0 / 3)) < 1e-12
    # with a single instance the two objectives coincide everywhere
    unc1 = estimate.UncertaintySet(unc.tau, unc.lam)
    single = build_learning_problem(unc1, X[:1], spec)
    fm1 = replace(build_learning_problem(unc1, X[:1], spec), average=True)
    for _ in range(10):
        mu = rng.normal(size=fm.dimension)
        assert abs(single.objective(mu) - fm1.objective(mu)) <= 1e-12


def test_fixed_marginal_minimax_hinge_identity(rng):
    # lam = 0, tau = sample mean: the objective equals the averaged
    # subset-max surrogate loss of the training pairs
    n, K, d = 6, 2, 2
    X = rng.normal(size=(n, d))
    y = rng.integers(1, K + 1, size=n)
    spec = features.identity_spec(K, d)
    tau, _ = estimate.tau_and_variance_from_scalars(
        features.scalar_feature_matrix(spec, X), y, K, want_variance=False)
    unc = estimate.UncertaintySet(tau, np.zeros(K * d))
    fm = replace(build_learning_problem(unc, X, spec), average=True)
    for _ in range(10):
        mu = rng.normal(size=K * d)
        total = 0.0
        for i in range(n):
            best = -np.inf
            for mask in range(1, 2 ** K):
                members = [c for c in range(K) if mask >> c & 1]
                val = sum(
                    (features.feature_map(spec, X[i], c + 1)
                     - features.feature_map(spec, X[i], y[i])) @ mu
                    for c in members
                )
                best = max(best, (val + len(members) - 1.0) / len(members))
            total += best
        assert abs(fm.objective(mu) - total / n) <= 1e-10


def test_scale_covariance_of_argmax_rows(rng):
    problem, unc, X, y, spec = random_learning_problem(seed=7, n=4, num_classes=2)
    mu = rng.normal(size=problem.dimension)
    v1 = problem.F @ mu
    factor = 3.7
    v2 = (factor * problem.F) @ (mu / factor)
    assert np.allclose(v1, v2, atol=1e-12)
    assert np.argmax(v1 + problem.b) == np.argmax(v2 + problem.b)


def materialized_rows(psi, K, masks):
    """Rows matrix of `masks` label subsets over psi, built row by row."""
    s, B = psi.shape
    F = np.zeros((s, len(masks), K * B))
    b = np.empty((s, len(masks)))
    for mi, mask in enumerate(masks):
        members = [c for c in range(K) if mask >> c & 1]
        for c in members:
            F[:, mi, c * B:(c + 1) * B] = psi / len(members)
        b[:, mi] = -1.0 / len(members)
    return F.reshape(s * len(masks), K * B), b.reshape(-1)


def test_views_match_independent_materialization(rng):
    for K in (2, 3, 4):
        problem, unc, X, y, spec = random_learning_problem(
            seed=K, n=6, num_classes=K, kind="rff", D=3)
        psi = features.scalar_feature_matrix(spec, X)
        F, b = materialized_rows(psi, K, range(1, 2 ** K))
        assert problem.num_rows == F.shape[0]
        assert problem.F.tobytes() == F.tobytes()
        assert problem.b.tobytes() == b.tobytes()
    h = rng.uniform(size=(6, 4))
    up = build_upper_bound_problem(unc, psi, h)
    low = lower_from_upper(up)
    singletons = [1 << c for c in range(4)]
    F_up, _ = materialized_rows(psi, 4, singletons)
    F_low, _ = materialized_rows(-psi, 4, singletons)
    assert up.F.tobytes() == F_up.tobytes()
    assert up.b.tobytes() == (-h).reshape(-1).tobytes()
    assert low.F.tobytes() == F_low.tobytes()
    assert low.b.tobytes() == h.reshape(-1).tobytes()
    assert np.array_equal(low.F, -up.F)  # the exact negation, up to signed zeros


def test_fixed_marginal_subgradient_matches_enumeration(rng):
    problem, unc, X, y, spec = random_learning_problem(seed=8, n=7, num_classes=3)
    fm = replace(build_learning_problem(unc, X, spec), average=True)
    psi = features.scalar_feature_matrix(spec, X)
    B = psi.shape[1]
    for _ in range(10):
        mu = rng.normal(size=fm.dimension)
        scores = features.score_matrix(spec, X, mu)
        want = -unc.tau + unc.lam * np.sign(mu)
        best_rows = []
        for i in range(X.shape[0]):
            best, best_mask = -np.inf, None
            for mask in range(1, 2 ** 3):
                members = [c for c in range(3) if mask >> c & 1]
                val = (scores[i, members].sum() - 1.0) / len(members)
                if val > best:
                    best, best_mask = val, mask
            best_rows.append(best_mask - 1)
            members = [c for c in range(3) if best_mask >> c & 1]
            for c in members:
                want[c * B:(c + 1) * B] += psi[i] / len(members) / X.shape[0]
        raw, token = fm.evaluate(mu)
        assert np.array_equal(token, best_rows)  # each instance's argmax row
        assert np.allclose(subgradient_at(fm, mu, token), want, atol=1e-12)
