"""Shared builders for synthetic data and randomized problems."""

import numpy as np
import pytest

from mrckit import classifier, features, estimate, objective, parallel
from mrckit.dataset import Dataset
from mrckit.solver import SolverConfig


def make_blobs(n, d=2, num_classes=2, spread=1.0, sep=3.0, seed=0):
    """Gaussian blobs, one per class, centers sep apart on a simplex-ish layout."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_classes, d))
    centers = sep * centers / np.linalg.norm(centers, axis=1, keepdims=True)
    counts = np.full(num_classes, n // num_classes)
    counts[: n % num_classes] += 1
    X, y = [], []
    for c in range(num_classes):
        X.append(centers[c] + spread * rng.normal(size=(counts[c], d)))
        y.extend([c + 1] * counts[c])
    return Dataset(np.vstack(X), np.array(y, dtype=np.int64),
                   tuple(str(c + 1) for c in range(num_classes)))


def row_problem(a, lam, F, b, constant=0.0):
    """A generic problem max(F mu + b): every row of F is an instance of its
    own with the single class weight [[1]]."""
    return objective.PiecewiseLinearProblem(
        a=a, lam=lam, psi=F, weights=np.ones((1, 1)),
        offsets=np.reshape(b, (-1, 1)), constant=constant)


def subgradient_at(problem, mu, token):
    """The subgradient at mu for the argmax token: a + lam * sign(mu) plus
    the row(s) of F that the token picks."""
    return problem.add_argmax_row(problem.a + problem.lam * np.sign(mu), token)


def random_learning_problem(seed, n=40, d=3, num_classes=2, lambda0=0.3,
                            kind="identity", D=8):
    """A materialized learning problem from synthetic data (benign scaling)."""
    ds = make_blobs(n, d=d, num_classes=num_classes, seed=seed)
    X = ds.instances
    X = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    if kind == "identity":
        spec = features.identity_spec(num_classes, d)
    else:
        spec = features.rff_spec(num_classes, d, D=D, seed=seed)
    tau, var = estimate.tau_and_variance_from_scalars(
        features.scalar_feature_matrix(spec, X), ds.labels, num_classes)
    lam = estimate.lambda_practical(lambda0, var, n)
    unc = estimate.UncertaintySet(tau, lam)
    problem = objective.build_learning_problem(unc, X, spec)
    return problem, unc, X, ds.labels, spec


def exact_lp_training_set(seed, dataset, n=100):
    """Training set `dataset` of the benchmark's `exact-lp` workload seed
    (d=4, K=2, D=30; n=100 there).

    The same draw as the benchmark's input generator: each class is a
    mixture of two Gaussian modes at fixed places (separation 1.3), and the
    seed changes only the sample. Labels are named c0, c1 as in the
    benchmark's CSV files.
    """
    d, K, D = 4, 2, 30
    centers = 1.3 * np.random.default_rng([20220118, d, K]).normal(size=(K, 2, d))
    rng = np.random.default_rng([int(seed), n, K, D, 1 + dataset])
    y = rng.integers(0, K, size=n)
    y[:K] = np.arange(K)
    mode = rng.integers(0, 2, size=n)
    X = centers[y, mode] + rng.normal(size=(n, d))
    return Dataset(X, y + 1, tuple(f"c{c}" for c in range(K)))


def exact_lp_rule_problems(seed, dataset):
    """The deterministic-rule (upper, lower) bound problems of the model that
    `mrckit train --solver lp` fits on an `exact-lp` training set, built as
    `mrckit bounds --deterministic` builds them."""
    spec = features.rff_spec(2, 4, D=30, seed=0)
    model = classifier.train(exact_lp_training_set(seed, dataset), spec,
                             solver_config=SolverConfig(method="lp"))
    psi = features.scalar_feature_matrix(model.feature_spec, model.instance_anchor)
    labels = np.argmax(psi @ model.mu_star.reshape(2, -1).T, axis=1)
    high = objective.build_upper_bound_problem(model.uncertainty, psi, np.eye(2)[labels])
    return high, objective.lower_from_upper(high)


def enumerate_phi(mu, instances, spec):
    """Brute-force support function over all nonempty label subsets."""
    scores = features.score_matrix(spec, np.atleast_2d(instances), mu)
    K = spec.num_classes
    best = -np.inf
    for row in scores:
        for mask in range(1, 2 ** K):
            members = [c for c in range(K) if mask >> c & 1]
            val = (sum(row[c] for c in members) - 1.0) / len(members)
            best = max(best, val)
    return best


def finite_distribution(seed, support_size=20, d=2, num_classes=2):
    """A random finite distribution over (instance, label) pairs."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(support_size, d))
    pairs_x = np.repeat(np.arange(support_size), num_classes)
    pairs_y = np.tile(np.arange(1, num_classes + 1), support_size)
    w = rng.exponential(size=pairs_x.size)
    prob = w / w.sum()
    return X, pairs_x, pairs_y, prob


def rule_normalizer(model, X):
    """The per-instance normalization constant of the randomized rule."""
    return np.maximum(classifier.batch_scores(model, X) - model.phi_star, 0.0).sum(axis=1)


def exact_risk_finite(model, X, y, prob):
    """Expected loss of the model's randomized rule under a finite distribution."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=int)
    prob = np.asarray(prob, dtype=float)
    if np.any(prob < 0) or abs(prob.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    h = classifier.predict_proba(model, X)
    return float(prob @ (1.0 - h[np.arange(X.shape[0]), y - 1]))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def mapped_rows(monkeypatch):
    """Row counts of every features.scalar_feature_matrix call, in order.

    The map runs on one CPU, so no call is hidden in a forked worker.
    """
    calls = []
    mapper = features.scalar_feature_matrix

    def counting(spec, X):
        calls.append(np.atleast_2d(X).shape[0])
        return mapper(spec, X)

    monkeypatch.setattr(features, "scalar_feature_matrix", counting)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    return calls
