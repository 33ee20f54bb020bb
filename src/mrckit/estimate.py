"""Uncertainty sets: mean vectors from sample averages, confidence widths.

The uncertainty set is the family of distributions whose feature-mapping
expectation lies within `lam` of `tau` component-wise. Four estimators of
the confidence vector are provided (Hoeffding, empirical Bernstein,
Rademacher, and the practical variance-scaled choice), plus a feasibility
repair that widens/re-centers the set over a finite instance pool via an
exact LP. All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .simplex import OPTIMAL, SimplexError, solve_standard_form


@dataclass
class UncertaintySet:
    tau: np.ndarray
    lam: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.tau.shape != self.lam.shape:
            raise ValueError("tau and lambda must have the same length")
        if not np.all(np.isfinite(self.tau)):
            raise ValueError("tau must be finite")
        if np.any(self.lam < 0):
            raise ValueError("lambda must be nonnegative")

    @property
    def m(self):
        return self.tau.size


def tau_and_variance_from_scalars(psi, y, num_classes, want_variance=True):
    """Sample average of the feature mapping and per-component variance.

    `psi` holds the samples' scalar features, (n, B), and `y` their labels.
    Returns (tau, variance); variance is the unbiased per-component sample
    variance and requires at least 2 samples (pass want_variance=False to
    skip it).
    """
    y = np.asarray(y, dtype=int)
    n, B = psi.shape
    if n == 0:
        raise ValueError("tau_and_variance_from_scalars needs at least one sample")
    if want_variance and n < 2:
        raise ValueError("variance is undefined for fewer than 2 samples")
    sums = np.zeros((num_classes, B))
    sqsums = np.zeros((num_classes, B))
    for c in range(1, num_classes + 1):
        rows = psi[y == c]
        if rows.size:
            sums[c - 1] = rows.sum(axis=0)
            sqsums[c - 1] = (rows ** 2).sum(axis=0)
    tau = sums.ravel() / n
    if not want_variance:
        return tau, None
    var = (sqsums.ravel() - n * tau ** 2) / (n - 1)
    np.maximum(var, 0.0, out=var)  # round-off guard
    return tau, var


def _check_delta(delta):
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def lambda_hoeffding(C, family_size, num_classes, delta, n):
    """Uniform confidence width C * sqrt(2 log(2 |F| |Y| / delta) / n)."""
    _check_delta(delta)
    if C <= 0 or family_size < 1 or n < 1:
        raise ValueError("need C > 0, family_size >= 1, n >= 1")
    return C * math.sqrt(2.0 * math.log(2.0 * family_size * num_classes / delta) / n)


def lambda_bernstein(C, family_size, num_classes, delta, n, variance):
    """Variance-adaptive width from the empirical Bernstein inequality."""
    _check_delta(delta)
    if n < 2:
        raise ValueError("empirical Bernstein needs n >= 2")
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0):
        raise ValueError("variance entries must be nonnegative")
    log_term = math.log(4.0 * family_size * num_classes / delta)
    return (2.0 * C * np.sqrt(2.0 * variance * log_term / n)
            + 14.0 * C * log_term / (3.0 * (n - 1)))


def lambda_rademacher(C, R, delta, n, class_counts, block_of):
    """Width from a Rademacher complexity bound R_n(F) <= R / sqrt(n).

    `class_counts[j-1]` is the number of samples with label j and `block_of`
    maps each component to the class whose block contains it (1-based).
    """
    _check_delta(delta)
    if R <= 0:
        raise ValueError("R must be positive")
    class_counts = np.asarray(class_counts, dtype=float)
    block_of = np.asarray(block_of, dtype=int)
    num_classes = class_counts.size
    if int(class_counts.sum()) != n:
        raise ValueError("class_counts must sum to n")
    if np.any(block_of < 1) or np.any(block_of > num_classes):
        raise ValueError("component mapped to an unknown class")
    frac = np.sqrt(class_counts[block_of - 1] / n)
    log_term = math.log(4.0 * num_classes / delta)
    return 2.0 * frac * R / math.sqrt(n) + C * (1.0 + 2.0 * frac) * math.sqrt(log_term / (2.0 * n))


def lambda_practical(lambda0, variance, n):
    """The working default: lambda0 * sqrt(variance / n) component-wise."""
    if lambda0 < 0:
        raise ValueError("lambda0 must be nonnegative")
    if n < 2:
        raise ValueError("practical confidence vector needs n >= 2")
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0):
        raise ValueError("variance entries must be nonnegative")
    return lambda0 * np.sqrt(variance / n)


def ensure_feasible(tau, lam, psi, num_classes, variant="standard"):
    """Widen/re-center (tau, lam) so the pool-restricted set is nonempty.

    `psi` holds the pool's scalar features, (s, B). Solves the exact LP that
    minimally enlarges the confidence vector while shifting the mean, over
    distributions supported on the pool's instances and all labels; for the
    "fixed_marginal" variant, only over those whose instance marginal is
    uniform on the pool. Returns (tau~, lam~) with lam~ >= lam; inputs that
    are already feasible come back unchanged.
    """
    tau = np.asarray(tau, dtype=float)
    lam = np.asarray(lam, dtype=float)
    s, B = psi.shape
    if s == 0:
        raise ValueError("ensure_feasible needs a nonempty instance list")
    if variant not in ("standard", "fixed_marginal"):
        raise ValueError(f"unknown variant {variant!r}")
    K = num_classes
    m = K * B
    if tau.size != m:
        raise ValueError(f"tau has length {tau.size}, feature map has {m}")

    # Phi^T as (m, s*K): column for (x_i, y) holds Phi(x_i, y).
    phi_T = np.zeros((m, s * K))
    for c in range(K):
        phi_T[c * B:(c + 1) * B, c::K] = psi.T

    # Variables: q (s*K), d1 (m), d2 (m), g1 (m), g2 (m) with
    # lam1 = lam + d1, lam2 = lam + d2 and g1, g2 surplus/slack.
    # q sums to 1, or puts mass 1/s on each instance (fixed marginal)
    if variant == "fixed_marginal":
        marginal, mass = np.kron(np.eye(s), np.ones((1, K))), np.full(s, 1.0 / s)
    else:
        marginal, mass = np.ones((1, s * K)), np.ones(1)
    nq = s * K
    nvar = nq + 4 * m
    A = np.zeros((2 * m + len(mass), nvar))
    rhs = np.empty(2 * m + len(mass))
    A[:m, :nq] = phi_T
    A[:m, nq:nq + m] = np.eye(m)
    A[:m, nq + 2 * m:nq + 3 * m] = -np.eye(m)
    rhs[:m] = tau - lam
    A[m:2 * m, :nq] = phi_T
    A[m:2 * m, nq + m:nq + 2 * m] = -np.eye(m)
    A[m:2 * m, nq + 3 * m:] = np.eye(m)
    rhs[m:2 * m] = tau + lam
    A[2 * m:, :nq] = marginal
    rhs[2 * m:] = mass

    cost = np.zeros(nvar)
    cost[nq:nq + 2 * m] = 1.0

    result = solve_standard_form(cost, A, rhs)
    if result.status != OPTIMAL:
        raise SimplexError(
            f"feasibility-repair LP ended with status {result.status!r}"
        )
    d1 = result.x[nq:nq + m]
    d2 = result.x[nq + m:nq + 2 * m]
    lam1 = lam + d1
    lam2 = lam + d2
    tau_new = tau + (lam2 - lam1) / 2.0
    lam_new = (lam1 + lam2) / 2.0
    return tau_new, lam_new
