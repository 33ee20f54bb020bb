"""Canonical piecewise-linear objectives for learning and bound problems.

Every problem takes the form

    f(mu) = constant + a^T mu + lam^T |mu| + max(F mu + b)

over rows (i, r), instance-major: row (i, r) of F places the class weights
w_r / s_r blockwise on the scalar features psi(x_i) and offsets[i, r] is
its entry of b. So F mu is the n x K score matrix S = psi mu_c^T read
through the weights, F F^T = (W W^T) (x) (psi psi^T), and F and b are only
views. The learning rows are the nonempty label subsets (bitmasks
ascending, offsets -1/|subset|); the bound problems use the identity, and
the lower-bound problem is the upper one negated (the identity on -psi).
The fixed-marginal objective averages each instance's row max over the
instances instead of maximizing. Past SUBSET_ENUMERATION_CAP classes each
instance's best subset comes from a sorted top-k rule (for a fixed size k
it holds the k largest scores), which also evaluates phi.

By weak duality every value of the learning and upper-bound objectives is
at least the worst-case risk over the uncertainty set restricted to the
pool, so at least 0 when that set is nonempty; every value of the
lower-bound objective is at least -1. The builders record that `floor`,
and a value below it proves the set empty.

Problems expose `evaluate(mu) -> (value_excl_constant, token)` and
`add_argmax_row(g, token)`, which adds the row(s) of F that the token picks
to g: a subgradient at mu is a + lam * sign(mu) plus those rows. A token is
the flat index i * R + r of the argmax row, or for averaged problems each
instance's argmax r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features

# Enumerating the 2^K - 1 subsets per instance is no slower than the top-k
# rule up to this class count (learning ASM and E-ASM per iteration, measured
# at n = 100, 300 and 800); past it the faster top-k rule finds the subsets.
SUBSET_ENUMERATION_CAP = 7


@dataclass
class PiecewiseLinearProblem:
    """Every objective (module docstring). `weights` and `offsets` are None
    for the top-k learning rows."""

    a: np.ndarray
    lam: np.ndarray
    psi: np.ndarray                 # (n, B) scalar features of the pool
    weights: np.ndarray | None      # (R, K) 0/1 class weights of the rows
    offsets: np.ndarray | None      # (n, R) entries of b
    constant: float = 0.0
    negate_reported: bool = False   # set when min f encodes sup of the negation
    average: bool = False           # average the instance maxima instead
    floor: float | None = None      # least value on a nonempty uncertainty
                                    # set; None: solver.DIVERGENCE_FLOOR

    def __post_init__(self):
        self.a = np.ascontiguousarray(self.a, dtype=float)
        self.lam = np.ascontiguousarray(self.lam, dtype=float)
        self.psi = np.ascontiguousarray(self.psi, dtype=float)
        self.num_classes = self.a.size // self.psi.shape[1]
        self._row_matrix = None     # (K, R) weights / size; None: identity
        if self.weights is None:
            self.rows_per_instance = 2 ** self.num_classes - 1
            return
        self.weights = np.asarray(self.weights, dtype=float)
        self.offsets = np.ascontiguousarray(self.offsets, dtype=float)
        self.rows_per_instance = self.weights.shape[0]
        self._members = [np.flatnonzero(w).tolist() for w in self.weights]
        self._scaled = self.weights / self.weights.sum(axis=1, keepdims=True)
        if not np.array_equal(self.weights, np.eye(self.num_classes)):
            self._row_matrix = np.ascontiguousarray(self._scaled.T)

    @property
    def dimension(self):
        return self.a.size

    @property
    def num_rows(self):
        return self.psi.shape[0] * self.rows_per_instance

    @property
    def F(self):
        """The rows matrix, (num_rows, dimension), materialized on each read."""
        n, B = self.psi.shape
        F = np.zeros((n, self.rows_per_instance, self.dimension))
        for r in range(self.rows_per_instance):
            members = self._members_of(r)
            for c in members:
                F[:, r, c * B:(c + 1) * B] = self.psi / len(members)
        return F.reshape(self.num_rows, self.dimension)

    @property
    def b(self):
        R = self.rows_per_instance
        offsets = self.offsets
        if offsets is None:  # -1/|subset|
            offsets = -self._row_weights(np.arange(R)).max(axis=1)
        return np.broadcast_to(offsets, (self.psi.shape[0], R)).reshape(-1)

    def scores(self, mu):
        """Per-class scores psi(x_i)^T mu_c over the pool; shape (n, K)."""
        return self.psi @ mu.reshape(self.num_classes, -1).T

    def _members_of(self, r):
        """The classes of row r: those with weight 1."""
        if self.weights is None:
            return [c for c in range(self.num_classes) if (r + 1) >> c & 1]
        return self._members[r]

    def _row_weights(self, rows):
        """weights / size of rows (an index or an array); shape (..., K)."""
        if self.weights is None:
            w = _subset_weights(np.asarray(rows) + 1, self.num_classes)
            return w / w.sum(axis=-1, keepdims=True)
        return self._scaled[rows]

    def _value_at(self, mu, S, out=None):
        """Value (constant excluded) and token at mu, given S = scores(mu).
        `out`, an (n, R) buffer, receives the row values when the rows are
        materialized; None allocates them."""
        base = self.a.dot(mu) + self.lam.dot(np.abs(mu))
        if self.weights is None:
            top, rows = _topk_rows(S)
        else:
            if self._row_matrix is None:
                V = np.add(S, self.offsets, out=out)
            else:
                V = np.dot(S, self._row_matrix, out=out)
                np.add(V, self.offsets, out=V)
            if not self.average:
                token = int(V.argmax())  # flat row index, lowest on ties
                return float(base + V.item(token)), token
            rows = np.argmax(V, axis=1)
            top = V[np.arange(V.shape[0]), rows]
        if self.average:
            return float(base + top.mean()), rows
        i = int(np.argmax(top))
        return float(base + top[i]), i * self.rows_per_instance + int(rows[i])

    def evaluate(self, mu, out=None):
        """Objective value (constant excluded) and the argmax token; `out`
        as for _value_at."""
        return self._value_at(mu, self.scores(mu), out)

    def add_argmax_row(self, g, token, scores=None, gram=None):
        """Add the row(s) of F picked by `token` to g in place; returns g.
        Given the instance Gram `gram` = psi psi^T, also add that row's
        n x K scores to `scores` in place (max problems only)."""
        if self.average:
            g += (self._row_weights(token).T @ self.psi).ravel() / self.psi.shape[0]
            return g
        i, r = divmod(token, self.rows_per_instance)
        members = self._members_of(r)
        size = len(members)
        row = self.psi[i] if size == 1 else self.psi[i] / size
        B = row.size
        for c in members:
            g[c * B:(c + 1) * B] += row
        if gram is not None:
            Gi = gram[i] if size == 1 else gram[i] * (1.0 / size)
            for c in members:
                scores[:, c] += Gi
        return g

    def objective(self, mu):
        """Full objective value, constant included."""
        return self.constant + self.evaluate(mu)[0]

    def reported_value(self, minimized_value):
        """Map the solver's minimum onto the quantity the problem encodes."""
        return -minimized_value if self.negate_reported else minimized_value


def _subset_weights(masks, num_classes):
    """0/1 class weights of label-subset bitmasks; shape (..., num_classes)."""
    return (np.asarray(masks)[..., None] >> np.arange(num_classes) & 1).astype(float)


def _topk_rows(scores):
    """Each instance's best subset value (sum_topk - 1) / k by the top-k rule
    and that subset's row index (bitmask - 1); ties go to the smallest k."""
    order = np.argsort(-scores, axis=1, kind="stable")
    csum = np.cumsum(np.take_along_axis(scores, order, axis=1), axis=1)
    cand = (csum - 1.0) / np.arange(1, scores.shape[1] + 1)
    at = np.arange(scores.shape[0]), np.argmax(cand, axis=1)
    return cand[at], np.cumsum(1 << order, axis=1)[at] - 1


def phi_per_instance(scores):
    """Support-function value at each instance given its per-label scores."""
    return _topk_rows(np.atleast_2d(scores))[0]


def phi(mu, instances, spec):
    """Support function over the instance pool: its largest per-instance value."""
    instances = np.atleast_2d(instances)
    if instances.shape[0] == 0:
        raise ValueError("phi needs a nonempty instance pool")
    scores = features.score_matrix(spec, instances, mu)
    return float(phi_per_instance(scores).max())


def learning_problem(uncertainty, psi, num_classes):
    """The learning objective over an instance pool's scalar features `psi`
    (n, B): one row per (instance, nonempty label subset).

    Minimizing the result yields the minimax risk and the rule parameters.
    The problem keeps `psi` as given; `dataclasses.replace(problem,
    average=True)` turns it into the fixed-marginal objective.
    """
    s, B = psi.shape
    if s == 0:
        raise ValueError("learning problem needs a nonempty instance pool")
    if num_classes > 62:  # row indices are subset bitmasks in 64-bit integers
        raise ValueError(f"{num_classes} classes exceed the supported 62")
    if uncertainty.m != num_classes * B:
        raise ValueError("uncertainty set length does not match the feature map")
    weights = offsets = None
    if num_classes <= SUBSET_ENUMERATION_CAP:
        weights = _subset_weights(np.arange(1, 2 ** num_classes), num_classes)
        offsets = np.broadcast_to(-1.0 / weights.sum(axis=1), (s, weights.shape[0]))
    return PiecewiseLinearProblem(
        a=-uncertainty.tau,
        lam=uncertainty.lam.copy(),
        psi=psi,
        weights=weights,
        offsets=offsets,
        constant=1.0,
        floor=0.0,
    )


def build_learning_problem(uncertainty, instances, spec):
    """learning_problem over the scalar features of `instances` under `spec`."""
    return learning_problem(uncertainty, features.scalar_feature_matrix(spec, instances),
                            spec.num_classes)


def build_upper_bound_problem(uncertainty, psi, h):
    """Worst-case expected loss of rule h over an instance pool's scalar
    features `psi` (n, B); h holds h(y|x_i) as an (n, classes) matrix.
    Minimize the result to get the upper bound.
    """
    n, B = psi.shape
    K = uncertainty.m // B
    if uncertainty.m != K * B:
        raise ValueError("uncertainty set length does not match the feature map")
    h = np.asarray(h, dtype=float)
    if h.shape != (n, K):
        raise ValueError(f"rule evaluations must have shape ({n}, {K})")
    if np.any(h < 0.0) or np.any(h > 1.0):
        raise ValueError("rule evaluations must lie in [0, 1]")
    return PiecewiseLinearProblem(
        a=-uncertainty.tau,
        lam=uncertainty.lam.copy(),
        psi=psi,
        weights=np.eye(K),
        offsets=-h,
        constant=1.0,
        floor=0.0,
    )


def lower_from_upper(upper):
    """Best-case expected loss of the rule behind `upper`, encoded negated.

    The exact negation of the upper-bound problem (the identity on -psi):
    minimizing it gives minus the lower bound; reported_value restores the
    sign.
    """
    return PiecewiseLinearProblem(
        a=-upper.a, lam=upper.lam, psi=-upper.psi, weights=upper.weights,
        offsets=-upper.offsets, constant=-upper.constant, negate_reported=True,
        floor=None if upper.floor is None else -1.0,
    )
