"""Canonical piecewise-linear objectives for learning and bound problems.

Every problem takes the form

    f(mu) = constant + a^T mu + lam^T |mu| + max(F mu + b)

where each row of F comes from one (instance, label-subset) or (instance,
label) pair. The learning problem enumerates all nonempty label subsets per
instance; the bound problems use one row per (instance, label). The support
function phi is evaluated with a sorted top-k shortcut: for a fixed subset
size k, the maximizing subset consists of the k largest per-label scores.

Problems expose `evaluate(mu) -> (value_excl_constant, token)` and
`subgradient_from(mu, token)` so the subgradient solvers can share one code
path; matrix-free variants of the learning and fixed-marginal objectives
implement the same protocol for class counts past the enumeration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features

# Enumerating 2^K - 1 subsets per instance; past this cap use the
# matrix-free top-k objective (which rules out the structured solver).
SUBSET_ENUMERATION_CAP = 12


@dataclass
class PiecewiseLinearProblem:
    a: np.ndarray
    lam: np.ndarray
    F: np.ndarray
    b: np.ndarray
    constant: float = 0.0
    negate_reported: bool = False  # set when min f encodes sup of the negation

    def __post_init__(self):
        self.a = np.ascontiguousarray(self.a, dtype=float)
        self.lam = np.ascontiguousarray(self.lam, dtype=float)
        self.F = np.ascontiguousarray(self.F, dtype=float)
        self.b = np.ascontiguousarray(self.b, dtype=float)

    @property
    def dimension(self):
        return self.a.size

    @property
    def num_rows(self):
        return self.F.shape[0]

    def evaluate(self, mu):
        """Objective value (constant excluded) and the argmax row index."""
        v = self.F @ mu + self.b
        i = int(np.argmax(v))
        raw = float(self.a @ mu + self.lam @ np.abs(mu) + v[i])
        return raw, i

    def subgradient_from(self, mu, token):
        return self.a + self.lam * np.sign(mu) + self.F[token]

    def objective(self, mu):
        """Full objective value, constant included."""
        raw, _ = self.evaluate(mu)
        return self.constant + raw

    def reported_value(self, minimized_value):
        """Map the solver's minimum onto the quantity the problem encodes."""
        return -minimized_value if self.negate_reported else minimized_value


def subset_masks(num_classes):
    """All nonempty label subsets as bitmasks in ascending order."""
    return list(range(1, 2 ** num_classes))


def _topk_candidates(scores):
    """Per-row top-k prefix candidates (sum_topk - 1) / k; shape (n, K)."""
    K = scores.shape[1]
    order = np.argsort(-scores, axis=1, kind="stable")
    sorted_scores = np.take_along_axis(scores, order, axis=1)
    csum = np.cumsum(sorted_scores, axis=1)
    return (csum - 1.0) / np.arange(1, K + 1), order


def phi_per_instance(scores):
    """Support-function value at each instance given its per-label scores."""
    cand, _ = _topk_candidates(np.atleast_2d(scores))
    return cand.max(axis=1)


def _phi_weights(scores):
    """phi per instance plus the label-averaging weights of the maximizing subset."""
    scores = np.atleast_2d(scores)
    n, K = scores.shape
    cand, order = _topk_candidates(scores)
    kbest = np.argmax(cand, axis=1)  # smallest maximizing size on ties
    phi_x = cand[np.arange(n), kbest]
    weights = np.zeros((n, K))
    for i in range(n):
        k = kbest[i] + 1
        weights[i, order[i, :k]] = 1.0 / k
    return phi_x, weights


def phi_at_x(mu, x, spec):
    """Support function restricted to a single instance."""
    scores = features.score_matrix(spec, np.atleast_2d(x), mu)
    return float(phi_per_instance(scores)[0])


def phi(mu, instances, spec):
    """Support function over the instance pool: the sup of phi_at_x."""
    instances = np.atleast_2d(instances)
    if instances.shape[0] == 0:
        raise ValueError("phi needs a nonempty instance pool")
    scores = features.score_matrix(spec, instances, mu)
    return float(phi_per_instance(scores).max())


def build_learning_problem(uncertainty, instances, spec):
    """Materialize the learning objective: one row per (instance, subset).

    Minimizing the result yields the minimax risk and the rule parameters.
    """
    X = np.atleast_2d(np.asarray(instances, dtype=float))
    s = X.shape[0]
    if s == 0:
        raise ValueError("learning problem needs a nonempty instance pool")
    K = spec.num_classes
    if K > SUBSET_ENUMERATION_CAP:
        raise ValueError(
            f"{K} classes exceed the subset-enumeration cap "
            f"({SUBSET_ENUMERATION_CAP}); use build_learning_objective_topk, "
            "which restricts solving to the generic subgradient methods"
        )
    B = features.block_dim(spec)
    m = K * B
    if uncertainty.m != m:
        raise ValueError("uncertainty set length does not match the feature map")
    psi = features.scalar_feature_matrix(spec, X)
    masks = subset_masks(K)
    F = np.zeros((s, len(masks), m))
    b = np.empty((s, len(masks)))
    for mi, mask in enumerate(masks):
        members = [c for c in range(K) if mask >> c & 1]
        size = len(members)
        for c in members:
            F[:, mi, c * B:(c + 1) * B] = psi / size
        b[:, mi] = -1.0 / size
    return PiecewiseLinearProblem(
        a=-uncertainty.tau,
        lam=uncertainty.lam.copy(),
        F=F.reshape(s * len(masks), m),
        b=b.reshape(-1),
        constant=1.0,
    )


def _rule_matrix(h, s, K):
    h = np.asarray(h, dtype=float)
    if h.shape != (s, K):
        raise ValueError(f"rule evaluations must have shape ({s}, {K})")
    if np.any(h < 0.0) or np.any(h > 1.0):
        raise ValueError("rule evaluations must lie in [0, 1]")
    return h


def _label_rows(psi, K):
    """Rows Phi(x_i, y) in instance-major, label-ascending order."""
    s, B = psi.shape
    F = np.zeros((s, K, K * B))
    for c in range(K):
        F[:, c, c * B:(c + 1) * B] = psi
    return F.reshape(s * K, K * B)


def build_upper_bound_problem(uncertainty, instances, spec, h):
    """Worst-case expected loss of rule h: minimize to get the upper bound."""
    X = np.atleast_2d(np.asarray(instances, dtype=float))
    s = X.shape[0]
    K = spec.num_classes
    h = _rule_matrix(h, s, K)
    psi = features.scalar_feature_matrix(spec, X)
    return PiecewiseLinearProblem(
        a=-uncertainty.tau,
        lam=uncertainty.lam.copy(),
        F=_label_rows(psi, K),
        b=-h.reshape(-1),
        constant=1.0,
    )


def build_lower_bound_problem(uncertainty, instances, spec, h):
    """Best-case expected loss of rule h, encoded negated.

    The exact negation of the upper-bound problem: minimizing it gives minus
    the lower bound; reported_value restores the sign.
    """
    upper = build_upper_bound_problem(uncertainty, instances, spec, h)
    return PiecewiseLinearProblem(
        a=-upper.a, lam=upper.lam, F=-upper.F, b=-upper.b,
        constant=-upper.constant, negate_reported=True,
    )


class _ScoreObjective:
    """Shared machinery for the matrix-free objectives."""

    constant = 1.0

    def __init__(self, uncertainty, instances, spec):
        X = np.atleast_2d(np.asarray(instances, dtype=float))
        if X.shape[0] == 0:
            raise ValueError("objective needs a nonempty instance pool")
        self.tau = uncertainty.tau
        self.lam = uncertainty.lam
        self.spec = spec
        self.psi = features.scalar_feature_matrix(spec, X)
        self.num_instances = X.shape[0]
        if uncertainty.m != spec.num_classes * self.psi.shape[1]:
            raise ValueError("uncertainty set length does not match the feature map")

    @property
    def dimension(self):
        return self.tau.size

    def _scores(self, mu):
        return self.psi @ mu.reshape(self.spec.num_classes, -1).T

    def objective(self, mu):
        raw, _ = self.evaluate(mu)
        return self.constant + raw

    def subgradient_from(self, mu, token):
        return -self.tau + self.lam * np.sign(mu) + token


class MaxPhiObjective(_ScoreObjective):
    """Learning objective with phi evaluated by top-k, no materialized rows."""

    def evaluate(self, mu):
        phi_x, weights = _phi_weights(self._scores(mu))
        i = int(np.argmax(phi_x))
        row = (weights[i][:, None] * self.psi[i][None, :]).ravel()
        raw = float(-self.tau @ mu + self.lam @ np.abs(mu) + phi_x[i])
        return raw, row


class MeanPhiObjective(_ScoreObjective):
    """Fixed-instance-marginal objective: phi averaged over the instances.

    Not expressible as a single max over rows, so only the generic
    subgradient methods apply.
    """

    def evaluate(self, mu):
        phi_x, weights = _phi_weights(self._scores(mu))
        row = (weights.T @ self.psi).ravel() / self.num_instances
        raw = float(-self.tau @ mu + self.lam @ np.abs(mu) + phi_x.mean())
        return raw, row


def build_learning_objective_topk(uncertainty, instances, spec):
    return MaxPhiObjective(uncertainty, instances, spec)


def build_fixed_marginal_problem(uncertainty, train_instances, spec):
    return MeanPhiObjective(uncertainty, train_instances, spec)
