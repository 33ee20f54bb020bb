"""Minimizers for the piecewise-linear objectives.

Methods:
  bsm           basic subgradient method, step 1 / (sqrt(k+1) ||g_k||)
  asm           accelerated subgradient method with the extrapolation
                schedule c_{k+1} = (k+1)^{-3/2}, theta_{k+1} = 2/(k+1),
                eta_{k+1} = theta_{k+1} (1/theta_k - 1)
  easm          the same iterates, maintaining the n x K scores of the
                iterates through rank-one updates on the precomputed
                n x n instance Gram psi psi^T
  easm_restart  easm in segments, each restarted from the incumbent
  lp            exact reformulation solved by the in-house simplex

asm, easm and easm_restart run one loop; they differ only in where the
value and argmax row at each iterate come from (problem.evaluate, or the
recursion, which trades the per-iteration feature-matrix product for
sparse column updates driven by sign changes of mu), so their iterates are
identical by construction. The recursion's values carry rounding drift, so
the E-ASM methods re-evaluate the objective exactly at the returned point
and report that value; the difference is kept as SolverRun.value_drift.
Argmax ties break to the lowest row index everywhere and sign(0) = 0,
which makes all methods bit-deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_standard_form


class SolverError(RuntimeError):
    """Solver misuse or resource-budget violation."""


class UnboundedObjectiveError(SolverError):
    """The objective is unbounded below (empty uncertainty set upstream)."""


class DivergenceError(SolverError):
    """Non-finite objective value or the configured divergence floor crossed."""


@dataclass
class SolverConfig:
    method: str = "easm_restart"
    max_iters: int = 200_000
    restart_period: int = 10_000
    initial_mu: np.ndarray | None = None
    record_trace: bool = False
    trace_every: int = 1
    record_iterates: bool = False
    divergence_floor: float = -1e9
    lp_max_rows: int = 2000
    lp_max_cols: int = 500
    easm_budget_bytes: int = 2 << 30   # refuse G = psi psi^T beyond this


@dataclass
class SolverRun:
    best_mu: np.ndarray
    best_value: float                  # constant included, minimization sense
    iterations_done: int
    method: str
    status: str = "max_iters"          # or "stationary", "optimal"
    certificate: str = "subgradient"   # "lp" when the exact path produced it
    trace: list | None = None          # rows (iteration, seconds, best_value, gamma)
    iterates: np.ndarray | None = None
    sparsity_gamma: float | None = None
    timings: dict = field(default_factory=dict)
    value_drift: float = 0.0           # recursion's best value minus the exact one


def subgradient(problem, mu):
    """A subgradient at mu: a + lam*sign(mu) + argmax row (lowest index on ties)."""
    mu = np.asarray(mu, dtype=float)
    _, token = problem.evaluate(mu)
    return problem.subgradient_from(mu, token)


def solve(problem, config):
    method = config.method
    if method == "bsm":
        return solve_bsm(problem, config)
    if method == "asm":
        return solve_asm(problem, config)
    if method == "easm":
        return solve_easm(problem, config)
    if method == "easm_restart":
        return solve_easm_restart(problem, config)
    if method == "lp":
        return solve_lp(problem, config)
    raise SolverError(f"unknown solver method {config.method!r}")


def _start_point(problem, config):
    if config.max_iters < 1:
        raise SolverError("max_iters must be at least 1")
    if config.initial_mu is None:
        return np.zeros(problem.dimension)
    mu = np.asarray(config.initial_mu, dtype=float).copy()
    if mu.size != problem.dimension:
        raise SolverError("initial_mu has the wrong length")
    return mu


def _check_value(value, constant, floor):
    total = constant + value
    if not math.isfinite(total):
        raise DivergenceError("objective became non-finite")
    if total < floor:
        raise DivergenceError(
            f"objective {total:.6g} crossed the divergence floor {floor:.6g}; "
            "the problem is likely unbounded below (empty uncertainty set)"
        )


class _RunRecorder:
    """Trace/iterate bookkeeping shared by the subgradient loops."""

    def __init__(self, config, dim):
        self.trace = [] if config.record_trace else None
        self.every = max(1, config.trace_every)
        self.iterates = [] if config.record_iterates else None
        self.dim = dim
        self.segment(0, 0.0)

    def segment(self, iter_offset, time_offset):
        """Start a segment: rows are offset, gamma and the clock restart."""
        self.iter_offset = iter_offset
        self.time_offset = time_offset
        self.changed = 0
        self.total = 0
        self.t0 = time.perf_counter()

    def snapshot_mu(self, mu):
        if self.iterates is not None:
            self.iterates.append(mu.copy())

    def start(self, value):
        """Iteration-0 row with the shared starting objective (first segment only)."""
        if self.trace is not None and self.iter_offset == 0:
            self.trace.append((0, self.time_offset, value, 0.0))

    def step(self, k, best_value, nnz_delta):
        self.changed += nnz_delta
        self.total += 1
        if self.trace is not None and k % self.every == 0:
            self.trace.append((
                self.iter_offset + k,
                self.time_offset + time.perf_counter() - self.t0,
                best_value,
                self.gamma(),
            ))

    def gamma(self):
        if self.total == 0:
            return 0.0
        return self.changed / (self.total * self.dim)

    def loop_seconds(self):
        return time.perf_counter() - self.t0


def solve_bsm(problem, config):
    """Basic subgradient method with the normalized 1/sqrt(k+1) step."""
    mu = _start_point(problem, config)
    constant = problem.constant
    floor = config.divergence_floor
    raw, token = problem.evaluate(mu)
    _check_value(raw, constant, floor)
    best_raw = raw
    best_mu = mu.copy()
    rec = _RunRecorder(config, mu.size)
    rec.start(constant + best_raw)
    rec.snapshot_mu(mu)
    prev_sign = np.sign(mu)
    status = "max_iters"
    k = 0
    for k in range(1, config.max_iters + 1):
        g = problem.subgradient_from(mu, token)
        gnorm = math.sqrt(float(g @ g))
        if gnorm == 0.0:
            status = "stationary"  # zero subgradient: mu is a minimizer
            rec.step(k, constant + best_raw, 0)
            break
        mu = mu - g / (math.sqrt(k + 1.0) * gnorm)
        raw, token = problem.evaluate(mu)
        _check_value(raw, constant, floor)
        if raw < best_raw:
            best_raw = raw
            best_mu = mu.copy()
        sign = np.sign(mu)
        rec.step(k, constant + best_raw, int(np.count_nonzero(sign != prev_sign)))
        prev_sign = sign
        rec.snapshot_mu(mu)
    return SolverRun(
        best_mu=best_mu, best_value=constant + best_raw, iterations_done=k,
        method="bsm", status=status, trace=rec.trace,
        iterates=_stack(rec.iterates), sparsity_gamma=rec.gamma(),
        timings={"loop_seconds": rec.loop_seconds(), "iterations": k},
    )


def _schedule_arrays(K):
    """c_k, eta_k for k = 1..K (c_1 = theta_1 = 1, eta_1 = 0)."""
    ks = np.arange(1, K + 1, dtype=float)
    c = np.empty(K)
    c[0] = 1.0
    if K > 1:
        c[1:] = ks[1:] ** -1.5
    theta = np.empty(K)
    theta[0] = 1.0
    if K > 1:
        theta[1:] = 2.0 / ks[1:]
    eta = np.zeros(K)
    if K > 1:
        eta[1:] = theta[1:] * (1.0 / theta[:-1] - 1.0)
    return c, eta


def _require_max(problem, what):
    if problem.average:
        raise SolverError(f"{what} needs a max over rows, not an average; "
                          "use bsm or asm for the fixed-marginal objective")


class _Recursion:
    """E-ASM state in score space (n x K arrays, offsets excluded): the
    scores v of mu and w of y, and the scores `base` of a + lam * sign(mu).

    One accelerated step moves v and w by the scores of the subgradient,
    base + outer(G[:, i], w_r / s_r) for the argmax row (i, r), with
    G = psi psi^T the n x n instance Gram; a sign change of mu updates base
    by the matching psi columns.
    """

    def __init__(self, problem, config):
        _require_max(problem, "E-ASM")
        n = problem.psi.shape[0]
        if 8 * n * n > config.easm_budget_bytes:
            raise SolverError(
                f"precomputing the {n}x{n} instance Gram matrix needs {8 * n * n} "
                f"bytes, over the budget of {config.easm_budget_bytes}; use asm instead")
        self.problem = problem
        self.row_weights = {}  # row r -> its class weights / size, (K,)
        self.G = problem.psi @ problem.psi.T
        self.psi_t = np.ascontiguousarray(problem.psi.T)
        # lam_j times the class indicator of each component j; (m, K)
        self.lam_eye = np.repeat(np.eye(problem.num_classes), problem.psi.shape[1],
                                 axis=0) * problem.lam[:, None]

    def start(self, mu):
        p = self.problem
        self.v = p.scores(mu)
        self.w = self.v.copy()
        self.s = np.sign(mu)
        self.base = p.scores(p.a + p.lam * self.s)

    def step(self, mu, token, ck, ek, sign, flips):
        """Value and token at mu, reached by the step (ck, ek) from the
        iterate whose argmax row was `token`; sign is sign(mu) and flips
        indexes its entries that changed (None when none did)."""
        p = self.problem
        i, r = divmod(token, p.rows_per_instance)
        weights = self.row_weights.get(r)
        if weights is None:
            weights = self.row_weights[r] = p._row_weights(r)
        w_next = self.v - ck * (self.base + self.G[i][:, None] * weights)
        self.v = (1.0 + ek) * w_next - ek * self.w
        self.w = w_next
        if flips is not None:
            coef = self.lam_eye[flips] * (sign[flips] - self.s[flips])[:, None]
            self.base += self.psi_t[flips % self.psi_t.shape[0]].T @ coef
        self.s = sign
        return p._value_at(mu, self.v)


def _accelerated(problem, config, mu, iters, recursion, rec, incumbent):
    """One segment of the accelerated schedule, started afresh at mu.

    Values and argmax rows come from problem.evaluate, or from the recursion
    when one is given. The incumbent (value, mu) of earlier segments stays
    the best unless beaten. Returns the best (value, mu), constant included.
    """
    constant = problem.constant
    floor = config.divergence_floor
    inf = math.inf
    c, eta = _schedule_arrays(iters + 1)
    raw, token = problem.evaluate(mu)
    _check_value(raw, constant, floor)
    if recursion is not None:
        recursion.start(mu)
    best_raw = raw
    best_mu = mu.copy()
    if incumbent is not None and incumbent[0] - constant < best_raw:
        best_raw = incumbent[0] - constant
        best_mu = incumbent[1].copy()
    rec.start(constant + best_raw)
    rec.snapshot_mu(mu)
    y = mu
    a, lam = problem.a, problem.lam
    sign = np.sign(mu)
    linear = a + lam * sign  # the subgradient's a + lam * sign(mu) part
    for k in range(1, iters + 1):
        g = problem.add_argmax_row(linear.copy(), token)
        ck, ek = c[k - 1], eta[k - 1]
        y_next = mu - ck * g
        mu = (1.0 + ek) * y_next - ek * y
        y = y_next
        prev_sign, sign = sign, np.sign(mu)
        flips = (sign != prev_sign).nonzero()[0]
        nflips = flips.size
        if nflips:
            linear[flips] = a[flips] + lam[flips] * sign[flips]
        if recursion is None:
            raw, token = problem.evaluate(mu)
        else:
            raw, token = recursion.step(mu, token, ck, ek, sign,
                                        flips if nflips else None)
        if not floor <= constant + raw < inf:
            _check_value(raw, constant, floor)
        if raw < best_raw:
            best_raw = raw
            best_mu = mu.copy()
        rec.step(k, constant + best_raw, nflips)
        rec.snapshot_mu(mu)
    return constant + best_raw, best_mu


def _solve_accelerated(problem, config, method, period=None):
    """The accelerated loop in segments of `period` iterations (one segment
    when None), each restarted from the incumbent with the schedule reset.

    The E-ASM methods carry values by recursion; they end by evaluating the
    objective exactly at the returned point and report that value.
    """
    recursion = None
    timings = {}
    if method != "asm":
        t0 = time.perf_counter()
        recursion = _Recursion(problem, config)
        timings["precompute_seconds"] = time.perf_counter() - t0
    mu = _start_point(problem, config)
    rec = _RunRecorder(config, mu.size)
    best_value, best_mu = math.inf, None
    done = 0
    loop_seconds = changed_frac = 0.0
    while done < config.max_iters:
        seg = min(period or config.max_iters, config.max_iters - done)
        rec.segment(done, loop_seconds)
        incumbent = None if best_mu is None else (best_value, best_mu)
        value, seg_mu = _accelerated(problem, config, mu, seg, recursion,
                                     rec, incumbent)
        if value < best_value:
            best_value, best_mu = value, seg_mu
        done += seg
        loop_seconds += rec.loop_seconds()
        changed_frac += rec.gamma() * seg
        mu = best_mu
    drift = 0.0
    if recursion is not None:
        exact = problem.objective(best_mu)
        best_value, drift = exact, best_value - exact
    timings.update(loop_seconds=loop_seconds, iterations=done)
    # restarted runs weight each segment's gamma by its length
    return SolverRun(
        best_mu=best_mu, best_value=best_value, iterations_done=done,
        method=method, trace=rec.trace, iterates=_stack(rec.iterates),
        sparsity_gamma=rec.gamma() if period is None else changed_frac / done,
        timings=timings, value_drift=drift,
    )


def solve_asm(problem, config):
    """Accelerated subgradient method (extrapolated iterates, best tracking)."""
    return _solve_accelerated(problem, config, "asm")


def solve_easm(problem, config):
    """Structured accelerated method; iterates match solve_asm exactly."""
    return _solve_accelerated(problem, config, "easm")


def solve_easm_restart(problem, config):
    """solve_easm in segments of restart_period, restarting from the incumbent.

    Each segment resets the extrapolation schedule (k back to 1) and starts
    at the best point found so far; the incumbent is kept across segments.
    """
    if config.restart_period < 1:
        raise SolverError("restart_period must be at least 1")
    return _solve_accelerated(problem, config, "easm_restart",
                              config.restart_period)


def solve_lp(problem, config):
    """Exact solve of the equivalent linear program.

    Variables (mu1, mu2, nu+, nu-, slack) with mu = mu1 - mu2; the slack
    basis built from nu is feasible, so no phase-1 pass is needed.
    """
    _require_max(problem, "the LP path")
    p = problem.num_rows
    m = problem.dimension
    if p > config.lp_max_rows or m > config.lp_max_cols:
        raise SolverError(
            f"problem size p={p}, m={m} exceeds the exact-solver budget "
            f"(p <= {config.lp_max_rows}, m <= {config.lp_max_cols})"
        )
    t0 = time.perf_counter()
    F, b = problem.F, problem.b
    A = np.zeros((p, 2 * m + 2 + p))
    A[:, :m] = F
    A[:, m:2 * m] = -F
    A[:, 2 * m] = -1.0
    A[:, 2 * m + 1] = 1.0
    A[:, 2 * m + 2:] = np.eye(p)
    cost = np.concatenate([
        problem.a + problem.lam, -problem.a + problem.lam,
        [1.0, -1.0], np.zeros(p),
    ])
    # Feasible start: mu = 0, nu = max(b, 0) basic in the argmax-b row.
    bmax_row = int(np.argmax(b))
    basis = 2 * m + 2 + np.arange(p)
    if b[bmax_row] > 0:
        basis[bmax_row] = 2 * m

    result = solve_standard_form(cost, A, -b, basis=basis)
    if result.status == UNBOUNDED:
        raise UnboundedObjectiveError(
            "the objective is unbounded below; the restricted uncertainty "
            "set is empty (feasibility repair can fix this)"
        )
    if result.status == INFEASIBLE or result.status != OPTIMAL:
        raise SolverError(f"LP solve ended with status {result.status!r}")
    mu = result.x[:m] - result.x[m:2 * m]
    return SolverRun(
        best_mu=mu, best_value=problem.constant + result.value,
        iterations_done=result.pivots, method="lp", status="optimal",
        certificate="lp",
        timings={"loop_seconds": time.perf_counter() - t0,
                 "iterations": result.pivots},
    )


def _stack(iterates):
    if iterates is None:
        return None
    return np.vstack(iterates) if iterates else None
