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

All four subgradient methods run one loop, started at mu = 0. They differ
only in the step rule (bsm's normalized step, or the accelerated schedule)
and in where the value and argmax row at each iterate come from
(problem.evaluate, or the recursion, which trades the per-iteration
feature-matrix product for sparse column updates driven by sign changes of
mu), so the asm and easm iterates are identical by construction. The
recursion's values carry rounding drift, so the E-ASM methods re-evaluate
the objective exactly at the returned point and report that value; the
difference is kept as SolverRun.value_drift.
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
    """Non-finite objective value or DIVERGENCE_FLOOR crossed."""


METHODS = ("bsm", "asm", "easm", "easm_restart", "lp")

DIVERGENCE_FLOOR = -1e9      # a value below it means unbounded below
LP_MAX_ROWS = 2000           # the simplex path's size limits (lp_fits)
LP_MAX_COLS = 500
EASM_BUDGET_BYTES = 2 << 30  # refuse G = psi psi^T beyond this


@dataclass
class SolverConfig:
    method: str = "easm_restart"       # one of METHODS
    max_iters: int = 200_000
    restart_period: int = 10_000
    record_trace: bool = False
    trace_every: int = 1
    record_iterates: bool = False


@dataclass
class SolverRun:
    best_mu: np.ndarray
    best_value: float                  # constant included, minimization sense
    iterations_done: int
    method: str
    status: str = "max_iters"          # or "stalled", "stationary", "optimal"
    certificate: str = "subgradient"   # "lp" when the exact path produced it
    trace: list | None = None          # rows (iteration, seconds, best_value, gamma)
    iterates: np.ndarray | None = None
    sparsity_gamma: float | None = None  # sign changes / (iterations x m)
    timings: dict = field(default_factory=dict)
    value_drift: float = 0.0           # recursion's best value minus the exact one


def subgradient(problem, mu):
    """A subgradient at mu: a + lam*sign(mu) + argmax row (lowest index on ties)."""
    mu = np.asarray(mu, dtype=float)
    _, token = problem.evaluate(mu)
    return problem.subgradient_from(mu, token)


def solve(problem, config):
    """Minimize `problem` with config.method, one of METHODS."""
    if config.method == "lp":
        return solve_lp(problem, config)
    if config.method not in METHODS:
        raise SolverError(f"unknown solver method {config.method!r}")
    return _solve_accelerated(problem, config, config.method)


def lp_fits(problem):
    """Whether `problem` is within the simplex path's size limits."""
    return problem.num_rows <= LP_MAX_ROWS and problem.dimension <= LP_MAX_COLS


def _check_value(value, constant):
    total = constant + value
    if not math.isfinite(total):
        raise DivergenceError("objective became non-finite")
    if total < DIVERGENCE_FLOOR:
        raise DivergenceError(
            f"objective {total:.6g} crossed the divergence floor "
            f"{DIVERGENCE_FLOOR:.6g}; the problem is likely unbounded below "
            "(empty uncertainty set)"
        )


class _RunRecorder:
    """Trace/iterate bookkeeping of the subgradient loop, segment by segment."""

    def __init__(self, config, dim):
        self.trace = [] if config.record_trace else None
        self.every = max(1, config.trace_every)
        self.iterates = [] if config.record_iterates else None
        self.dim = dim

    def segment(self, iter_offset, time_offset):
        """Start a segment: rows are offset, the sign-change count and the
        clock restart."""
        self.iter_offset = iter_offset
        self.time_offset = time_offset
        self.changed = 0
        self.t0 = time.perf_counter()

    def snapshot_mu(self, mu):
        if self.iterates is not None:
            self.iterates.append(mu.copy())

    def start(self, value):
        """Iteration-0 row with the shared starting objective (first segment only)."""
        if self.trace is not None and self.iter_offset == 0:
            self.trace.append((0, self.time_offset, value, 0.0))

    def step(self, k, best_value, nnz_delta):
        """Row of step k of the segment; gamma is the segment's so far."""
        self.changed += nnz_delta
        if self.trace is not None and k % self.every == 0:
            self.trace.append((
                self.iter_offset + k,
                self.time_offset + time.perf_counter() - self.t0,
                best_value,
                self.changed / (k * self.dim),
            ))

    def loop_seconds(self):
        return time.perf_counter() - self.t0


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

    def __init__(self, problem):
        _require_max(problem, "E-ASM")
        n = problem.psi.shape[0]
        if 8 * n * n > EASM_BUDGET_BYTES:
            raise SolverError(
                f"precomputing the {n}x{n} instance Gram matrix needs {8 * n * n} "
                f"bytes, over the budget of {EASM_BUDGET_BYTES}; use asm instead")
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


def _accelerated(problem, mu, iters, rec, incumbent, recursion, basic):
    """One segment of up to `iters` steps, started afresh at mu.

    A step is bsm's mu - g / (sqrt(k+1) ||g||) when `basic`, which stops
    as "stationary" at g = 0, else the accelerated schedule's. Values and
    argmax rows come from problem.evaluate, or from the recursion when one
    is given. The incumbent (value, mu) of earlier segments stays the best
    unless beaten. Returns the best value (constant included), its mu, the
    iterations run, the status and whether a step beat the best raw value
    the segment started with (the incumbent's or mu's, whichever is lower).
    """
    constant = problem.constant
    floor = DIVERGENCE_FLOOR
    inf = math.inf
    c, eta = _schedule_arrays(iters + 1)
    raw, token = problem.evaluate(mu)
    _check_value(raw, constant)
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
    status = "max_iters"
    improved = False
    for k in range(1, iters + 1):
        g = problem.add_argmax_row(linear.copy(), token)
        if basic:
            gnorm = math.sqrt(float(g @ g))
            if gnorm == 0.0:  # zero subgradient: mu is a minimizer
                status = "stationary"
                rec.step(k, constant + best_raw, 0)
                break
            mu = mu - g / (math.sqrt(k + 1.0) * gnorm)
        else:
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
            _check_value(raw, constant)
        if raw < best_raw:
            best_raw = raw
            best_mu = mu.copy()
            improved = True
        rec.step(k, constant + best_raw, nflips)
        rec.snapshot_mu(mu)
    return constant + best_raw, best_mu, k, status, improved


def _solve_accelerated(problem, config, method):
    """Run subgradient method `method` from mu = 0: the loop in segments of
    restart_period iterations for easm_restart (one segment otherwise), each
    restarted from the incumbent with the schedule reset.

    A segment whose steps never beat its incumbent ends the run as
    "stalled": the next would start from the same point with the same
    incumbent and replay it bit for bit.

    The E-ASM methods carry values by recursion; they end by evaluating the
    objective exactly at the returned point and report that value.
    """
    if config.max_iters < 1:
        raise SolverError("max_iters must be at least 1")
    period = config.max_iters
    if method == "easm_restart":
        if config.restart_period < 1:
            raise SolverError("restart_period must be at least 1")
        period = config.restart_period
    recursion = None
    timings = {}
    if method in ("easm", "easm_restart"):
        t0 = time.perf_counter()
        recursion = _Recursion(problem)
        timings["precompute_seconds"] = time.perf_counter() - t0
    m = problem.dimension
    mu = np.zeros(m)
    rec = _RunRecorder(config, m)
    best_value, best_mu = math.inf, None
    done = flips = 0
    loop_seconds = 0.0
    status = "max_iters"
    while done < config.max_iters and status == "max_iters":
        rec.segment(done, loop_seconds)
        incumbent = None if best_mu is None else (best_value, best_mu)
        value, seg_mu, ran, status, improved = _accelerated(
            problem, mu, min(period, config.max_iters - done), rec, incumbent,
            recursion, basic=method == "bsm")
        if value < best_value:
            best_value, best_mu = value, seg_mu
        done += ran
        if status == "max_iters" and not improved and done < config.max_iters:
            status = "stalled"
        flips += rec.changed
        loop_seconds += rec.loop_seconds()
        mu = best_mu
    drift = 0.0
    if recursion is not None:
        exact = problem.objective(best_mu)
        best_value, drift = exact, best_value - exact
    timings.update(loop_seconds=loop_seconds, iterations=done)
    return SolverRun(
        best_mu=best_mu, best_value=best_value, iterations_done=done,
        method=method, status=status, trace=rec.trace,
        iterates=_stack(rec.iterates), sparsity_gamma=flips / (done * m),
        timings=timings, value_drift=drift,
    )


def solve_bsm(problem, config):
    """Basic subgradient method with the normalized 1/sqrt(k+1) step."""
    return _solve_accelerated(problem, config, "bsm")


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
    The run ends "stalled" after a segment that found no better point.
    """
    return _solve_accelerated(problem, config, "easm_restart")


def solve_lp(problem, config=None):
    """Exact solve of the equivalent linear program (`config` is unused:
    the simplex path has no settings).

    Variables (mu1, mu2, nu+, nu-, slack) with mu = mu1 - mu2; the slack
    basis built from nu is feasible, so no phase-1 pass is needed.
    """
    _require_max(problem, "the LP path")
    p = problem.num_rows
    m = problem.dimension
    if not lp_fits(problem):
        raise SolverError(
            f"problem size p={p}, m={m} exceeds the exact-solver budget "
            f"(p <= {LP_MAX_ROWS}, m <= {LP_MAX_COLS})"
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
