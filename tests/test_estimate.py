import math

import numpy as np
import pytest

from mrckit import estimate, features
from mrckit.estimate import (UncertaintySet, ensure_feasible, lambda_bernstein,
                             lambda_hoeffding, lambda_practical,
                             lambda_rademacher, tau_and_variance_from_scalars)


def test_mean_and_variance_arithmetic():
    # scalar rows (0,1) and (2,1): mean (1,1), unbiased variance (2,0)
    psi = np.array([[0.0, 1.0], [2.0, 1.0]])
    tau, var = tau_and_variance_from_scalars(psi, np.array([1, 1]), 1)
    assert tau.tolist() == [1.0, 1.0]
    assert var.tolist() == [2.0, 0.0]


def test_mean_vector_block_structure():
    spec = features.identity_spec(2, 1)
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1, 2, 1])
    tau, var = tau_and_variance_from_scalars(
        features.scalar_feature_matrix(spec, X), y, 2)
    assert np.allclose(tau, [4.0 / 3.0, 2.0 / 3.0])
    # block 1 samples are (1, 0, 3), block 2 samples (0, 2, 0)
    assert np.allclose(var, [np.var([1, 0, 3], ddof=1), np.var([0, 2, 0], ddof=1)])


def test_mean_vector_single_sample():
    spec = features.identity_spec(2, 1)
    psi = features.scalar_feature_matrix(spec, [[2.0]])
    tau, var = tau_and_variance_from_scalars(psi, [1], 2, want_variance=False)
    assert tau.tolist() == [2.0, 0.0]
    assert var is None
    with pytest.raises(ValueError, match="fewer than 2"):
        tau_and_variance_from_scalars(psi, [1], 2)


def test_mean_of_repeated_sample_is_that_sample():
    spec = features.identity_spec(2, 2)
    X = np.tile([[1.5, -2.0]], (5, 1))
    y = np.full(5, 2)
    tau, var = tau_and_variance_from_scalars(
        features.scalar_feature_matrix(spec, X), y, 2)
    assert np.allclose(tau, features.feature_map(spec, X[0], 2))
    assert np.allclose(var, 0.0)


def test_hoeffding_value():
    lam = lambda_hoeffding(C=1.0, family_size=1, num_classes=2, delta=0.5, n=2)
    assert abs(lam - math.sqrt(math.log(8.0))) < 1e-12
    assert abs(lam - 1.442) < 1e-3


def test_hoeffding_domain_and_scaling():
    with pytest.raises(ValueError):
        lambda_hoeffding(1.0, 1, 2, delta=1.5, n=2)
    with pytest.raises(ValueError):
        lambda_hoeffding(1.0, 1, 2, delta=0.0, n=2)
    lam_n = lambda_hoeffding(1.0, 4, 3, 0.1, n=100)
    lam_4n = lambda_hoeffding(1.0, 4, 3, 0.1, n=400)
    assert abs(lam_4n - lam_n / 2.0) < 1e-12


def test_bernstein_zero_variance_term():
    n = 15
    lam = lambda_bernstein(1.0, 3, 2, 0.1, n, np.zeros(4))
    expected = 14.0 * math.log(4 * 3 * 2 / 0.1) / (3 * (n - 1))
    assert np.allclose(lam, expected)
    # the deviation term vanishes as n grows
    assert np.all(lambda_bernstein(1.0, 3, 2, 0.1, 10 ** 7, np.zeros(4)) < 1e-5)


def test_bernstein_linear_in_C():
    var = np.array([0.3, 1.2])
    one = lambda_bernstein(1.0, 2, 2, 0.05, 50, var)
    two = lambda_bernstein(2.0, 2, 2, 0.05, 50, var)
    assert np.allclose(two, 2.0 * one)
    with pytest.raises(ValueError):
        lambda_bernstein(1.0, 2, 2, 0.05, 1, var)
    with pytest.raises(ValueError):
        lambda_bernstein(1.0, 2, 2, 0.05, 50, np.array([-0.1]))


def test_rademacher_formula():
    # balanced binary: n_j/n = 1/2, R = C = 1, n = 100
    block_of = np.array([1, 1, 2, 2])
    lam = lambda_rademacher(1.0, 1.0, 0.05, 100, [50, 50], block_of)
    frac = math.sqrt(0.5)
    expected = (2 * frac * 1.0 / 10.0
                + (1 + 2 * frac) * math.sqrt(math.log(8 / 0.05) / 200))
    assert np.allclose(lam, expected)
    # constant within a class block
    assert lam[0] == lam[1] and lam[2] == lam[3]


def test_rademacher_empty_class_limit():
    block_of = np.array([1, 2])
    lam = lambda_rademacher(1.0, 1.0, 0.1, 50, [50, 0], block_of)
    assert abs(lam[1] - math.sqrt(math.log(8 / 0.1) / 100)) < 1e-12


def test_rademacher_unmapped_class():
    with pytest.raises(ValueError):
        lambda_rademacher(1.0, 1.0, 0.1, 10, [10, 0], np.array([1, 3]))


def test_practical_values():
    lam = lambda_practical(0.3, np.array([4.0]), 100)
    assert abs(lam[0] - 0.06) < 1e-15
    assert np.all(lambda_practical(0.0, np.array([1.0, 2.0]), 10) == 0.0)
    assert lambda_practical(0.5, np.array([0.0]), 10)[0] == 0.0
    with pytest.raises(ValueError):
        lambda_practical(0.3, np.array([-1.0]), 10)


def test_lambdas_non_increasing_in_n():
    var = np.array([0.7, 0.1])
    for fn in (
        lambda n: lambda_hoeffding(1.0, 3, 2, 0.05, n),
        lambda n: np.max(lambda_bernstein(1.0, 3, 2, 0.05, n, var)),
        lambda n: np.max(lambda_rademacher(1.0, 1.0, 0.05, n, [n // 2, n - n // 2],
                                           np.array([1, 2]))),
        lambda n: np.max(lambda_practical(0.3, var, n)),
    ):
        vals = [fn(n) for n in (10, 40, 160, 640)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_uncertainty_set_validation():
    with pytest.raises(ValueError):
        UncertaintySet(np.zeros(3), -np.ones(3))
    with pytest.raises(ValueError):
        UncertaintySet(np.array([np.inf]), np.array([1.0]))
    with pytest.raises(ValueError):
        UncertaintySet(np.zeros(2), np.zeros(3))


def test_ensure_feasible_tiny_interval():
    # one-class map, achievable feature values {0, 1}, tau far outside
    spec = features.identity_spec(1, 1)
    psi = features.scalar_feature_matrix(spec, np.array([[0.0], [1.0]]))
    tau2, lam2 = ensure_feasible(np.array([5.0]), np.array([0.0]), psi, 1)
    assert abs(tau2[0] - 3.0) < 1e-9
    assert abs(lam2[0] - 2.0) < 1e-9


def test_ensure_feasible_noop_when_feasible():
    spec = features.identity_spec(2, 1)
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1, 2, 1])
    tau, _ = tau_and_variance_from_scalars(
        features.scalar_feature_matrix(spec, X), y, 2, want_variance=False)
    lam = np.full(2, 0.05)
    tau2, lam2 = ensure_feasible(tau, lam, features.scalar_feature_matrix(spec, X), 2)
    assert np.allclose(tau2, tau, atol=1e-9)
    assert np.allclose(lam2, lam, atol=1e-9)


def test_ensure_feasible_idempotent_and_dominating():
    spec = features.identity_spec(2, 1)
    X = np.array([[0.0], [1.0]])
    tau = np.array([3.0, -2.0])
    lam = np.array([0.1, 0.2])
    psi = features.scalar_feature_matrix(spec, X)
    t1, l1 = ensure_feasible(tau, lam, psi, 2)
    assert np.all(l1 >= lam - 1e-12)
    t2, l2 = ensure_feasible(t1, l1, psi, 2)
    assert np.allclose(t1, t2, atol=1e-9)
    assert np.allclose(l1, l2, atol=1e-9)


def test_hoeffding_coverage_sanity():
    # finite synthetic distribution; covered in >= (1 - delta) of resamples
    rng = np.random.default_rng(7)
    spec = features.identity_spec(2, 1)
    support = np.array([[-1.0], [0.5], [2.0]])
    labels = np.array([1, 2, 2])
    probs = np.array([0.3, 0.5, 0.2])
    # exact expectation: sum p * Phi
    tau_inf = np.zeros(2)
    for xi, yi, pi in zip(support, labels, probs):
        tau_inf += pi * features.feature_map(spec, xi, yi)
    n, delta, trials = 60, 0.2, 200
    C = 2.0
    lam = lambda_hoeffding(C, 1, 2, delta, n)
    hits = 0
    for _ in range(trials):
        idx = rng.choice(3, size=n, p=probs)
        tau_hat, _ = tau_and_variance_from_scalars(
            features.scalar_feature_matrix(spec, support[idx]), labels[idx], 2,
            want_variance=False)
        hits += bool(np.all(np.abs(tau_inf - tau_hat) <= lam))
    # binomial 3-sigma slack below the nominal level
    slack = 3.0 * math.sqrt(delta * (1 - delta) / trials)
    assert hits / trials >= 1.0 - delta - slack
