"""Minimizers for the piecewise-linear objectives.

Methods:
  bsm           basic subgradient method, step 1 / (sqrt(k+1) ||g_k||)
  asm           accelerated subgradient method with the extrapolation
                schedule c_{k+1} = (k+1)^{-3/2}, theta_{k+1} = 2/(k+1),
                eta_{k+1} = theta_{k+1} (1/theta_k - 1)
  easm          the same iterates, carrying the n x K scores of mu in one
                state vector [mu | scores] that each step moves in place;
                the subgradient's scores come from a row of the
                precomputed n x n instance Gram psi psi^T
  easm_restart  easm in segments of restart_period steps, each started at
                the best point so far with the schedule reset (k back to
                1); the incumbent is kept across segments, and the run ends
                "stalled" after a segment that found no better point
  lp            exact reformulation solved by the in-house simplex

solve(problem, config), the one entry point, runs config.method.

All four subgradient methods run one loop, started at mu = 0. They differ
only in the step rule (bsm's normalized step, or the accelerated schedule)
and in where the value and argmax row at each iterate come from
(the scores psi mu_c^T, or the recursion, which trades that per-iteration
product for sparse column updates driven by sign changes of mu), so the
asm and easm iterates are identical by construction. The recursion's
values carry rounding drift, so the E-ASM methods re-evaluate the
objective exactly at the returned point and report that value; the
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
    """Non-finite objective value, or a value below the problem's floor."""


METHODS = ("bsm", "asm", "easm", "easm_restart", "lp")

DIVERGENCE_FLOOR = -1e9      # the floor of a problem that has none of its own
FLOOR_TOLERANCE = 1e-6       # rounding allowed below a built problem's floor
LP_MAX_ROWS = 2000           # the simplex path's size limits (lp_fits)
LP_MAX_COLS = 500
EASM_BUDGET_BYTES = 2 << 30  # refuse G = psi psi^T beyond this


@dataclass
class SolverConfig:
    method: str | None = None          # one of METHODS; None: solve picks
    max_iters: int = 200_000
    restart_period: int = 10_000
    trace_every: int | None = None     # a trace row every this many steps; None: no trace
    record_iterates: bool = False


@dataclass
class SolverRun:
    best_mu: np.ndarray
    best_value: float                  # constant included, minimization sense
    iterations_done: int               # simplex pivots for the LP
    method: str
    status: str = "max_iters"          # or "stalled", "stationary", "optimal"
    certificate: str = "subgradient"   # "lp" when the exact path produced it
    trace: list | None = None          # rows (iteration, seconds, best_value, gamma)
    iterates: np.ndarray | None = None
    sparsity_gamma: float | None = None  # sign changes / (iterations x m)
    timings: dict = field(default_factory=dict)  # precompute_seconds, loop_seconds
    value_drift: float = 0.0           # recursion's best value minus the exact one


def solve(problem, config):
    """Minimize `problem` with config.method, one of METHODS. A method of
    None is asm on an averaged problem (E-ASM and the LP need a max over
    rows) and easm_restart otherwise."""
    method = config.method
    if method is None:
        method = "asm" if problem.average else "easm_restart"
    if method == "lp":
        return _solve_lp(problem)
    if method not in METHODS:
        raise SolverError(f"unknown solver method {method!r}")
    return _solve_accelerated(problem, config, method)


def lp_fits(problem):
    """Whether `problem` is within the simplex path's size limits."""
    return problem.num_rows <= LP_MAX_ROWS and problem.dimension <= LP_MAX_COLS


def _floor(problem):
    """The problem's floor (see objective) and the least value the loop
    accepts, that floor less FLOOR_TOLERANCE; both DIVERGENCE_FLOOR for a
    problem without a floor."""
    if problem.floor is None:
        return DIVERGENCE_FLOOR, DIVERGENCE_FLOOR
    return problem.floor, problem.floor - FLOOR_TOLERANCE


def _check_value(value, problem):
    total = problem.constant + value
    if not math.isfinite(total):
        raise DivergenceError("objective became non-finite")
    floor, least = _floor(problem)
    if total < least:
        raise DivergenceError(
            f"objective {total:.6g} crossed the floor {floor:.6g}; the problem "
            "is unbounded below (the uncertainty set restricted to the "
            "instance pool is empty)"
        )


class _RunRecorder:
    """Trace/iterate bookkeeping of the subgradient loop, segment by segment."""

    def __init__(self, config, dim):
        self.trace = None if config.trace_every is None else []
        self.every = config.trace_every
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
    """E-ASM precompute: the n x n instance Gram G = psi psi^T, psi^T, and
    lam_j times the class indicator of each component j.

    The loop then moves the scores of its iterates in score space: the
    scores of the subgradient at argmax row (i, r) are those of
    a + lam * sign(mu) plus G[:, i] * w_r / s_r, and a sign change of mu
    updates the former by the matching psi columns.
    """

    def __init__(self, problem):
        _require_max(problem, "E-ASM")
        n = problem.psi.shape[0]
        if 8 * n * n > EASM_BUDGET_BYTES:
            raise SolverError(
                f"precomputing the {n}x{n} instance Gram matrix needs {8 * n * n} "
                f"bytes, over the budget of {EASM_BUDGET_BYTES}; use asm instead")
        self.G = problem.psi @ problem.psi.T
        self.psi_t = np.ascontiguousarray(problem.psi.T)
        # lam_j times the class indicator of each component j; (m, K)
        self.lam_eye = np.repeat(np.eye(problem.num_classes), problem.psi.shape[1],
                                 axis=0) * problem.lam[:, None]


def _accelerated(problem, mu, iters, rec, incumbent, recursion, basic):
    """One segment of up to `iters` steps, started afresh at mu.

    A step is bsm's mu - g / (sqrt(k+1) ||g||) when `basic`, which stops
    as "stationary" at g = 0, else the accelerated schedule's. Values and
    argmax rows come from problem.evaluate, or from the recursion when one
    is given: then the state vector Z = [mu | v] also holds the n x K
    scores v of mu, y and the subgradient g carry their scores the same
    way, and one in-place step moves both. The incumbent (value, mu) of
    earlier segments stays the best unless beaten. Returns the best value
    (constant included), its mu, the iterations run, the status and whether
    a step beat the best raw value the segment started with (the
    incumbent's or mu's, whichever is lower).
    """
    constant = problem.constant
    least = _floor(problem)[1]
    inf = math.inf
    c, eta = _schedule_arrays(iters + 1)
    c, eta = c.tolist(), eta.tolist()
    raw, token = problem.evaluate(mu)
    _check_value(raw, problem)
    best_raw = raw
    best_mu = mu.copy()
    if incumbent is not None and incumbent[0] - constant < best_raw:
        best_raw = incumbent[0] - constant
        best_mu = incumbent[1].copy()
    rec.start(constant + best_raw)
    rec.snapshot_mu(mu)
    a, lam = problem.a, problem.lam
    (n, B), K, m = problem.psi.shape, problem.num_classes, a.size
    tail = 0 if recursion is None else n * K
    Z = np.empty(m + tail)  # [mu | scores of mu]; Y and Yn hold y the same way
    Z[:m] = mu
    gb = np.empty(m + tail)  # [g | scores of g]
    mu, gm = Z[:m], gb[:m]
    G = gs = None
    if recursion is not None:
        G, psi_t, lam_eye = recursion.G, recursion.psi_t, recursion.lam_eye
        v, gs = Z[m:].reshape(n, K), gb[m:].reshape(n, K)
        v[:] = problem.scores(mu)
        base = problem.scores(a + lam * np.sign(mu))  # scores of a + lam * sign
    Y, Yn = Z.copy(), np.empty_like(Z)
    sign, sign_next = np.sign(mu), np.empty(m)
    changed = np.empty(m, dtype=bool)
    # row values of materialized rows go to one buffer (none for top-k rows)
    Vb = None if problem.weights is None else np.empty((n, problem.rows_per_instance))
    status = "max_iters"
    improved = False
    for k in range(1, iters + 1):
        np.multiply(lam, sign, out=gm)
        np.add(gm, a, out=gm)  # the subgradient's a + lam * sign(mu) part
        if recursion is not None:
            np.copyto(gs, base)
        problem.add_argmax_row(gm, token, gs, G)
        if basic:
            gnorm = math.sqrt(float(gm @ gm))
            if gnorm == 0.0:  # zero subgradient: mu is a minimizer
                status = "stationary"
                rec.step(k, constant + best_raw, 0)
                break
            np.divide(gm, math.sqrt(k + 1.0) * gnorm, out=gm)
            np.subtract(Z, gb, out=Z)
        else:
            ck, ek = c[k - 1], eta[k - 1]
            np.multiply(gb, ck, out=gb)
            np.subtract(Z, gb, out=Yn)   # y_next = mu - ck * g
            np.multiply(Y, ek, out=Y)
            np.multiply(Yn, 1.0 + ek, out=Z)
            np.subtract(Z, Y, out=Z)     # mu = (1 + ek) y_next - ek y
            Y, Yn = Yn, Y
        np.sign(mu, out=sign_next)
        flips = np.not_equal(sign_next, sign, out=changed).nonzero()[0]
        nflips = flips.size
        if nflips and recursion is not None:
            coef = lam_eye.take(flips, axis=0) * (
                sign_next.take(flips) - sign.take(flips))[:, None]
            base += psi_t.take(flips % B, axis=0).T @ coef
        sign, sign_next = sign_next, sign
        if recursion is None:
            raw, token = problem.evaluate(mu, Vb)
        else:
            raw, token = problem._value_at(mu, v, Vb)
        if not least <= constant + raw < inf:
            _check_value(raw, problem)
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
    if config.trace_every is not None and config.trace_every < 1:
        raise SolverError("trace_every must be at least 1")
    period = config.max_iters
    if method == "easm_restart":
        if config.restart_period < 1:
            raise SolverError("restart_period must be at least 1")
        period = config.restart_period
    recursion = None
    precompute = 0.0
    if method in ("easm", "easm_restart"):
        t0 = time.perf_counter()
        recursion = _Recursion(problem)
        precompute = time.perf_counter() - t0
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
    return SolverRun(
        best_mu=best_mu, best_value=best_value, iterations_done=done,
        method=method, status=status, trace=rec.trace,
        iterates=_stack(rec.iterates), sparsity_gamma=flips / (done * m),
        timings={"precompute_seconds": precompute, "loop_seconds": loop_seconds},
        value_drift=drift,
    )


def _solve_lp(problem):
    """Exact solve of the equivalent linear program.

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
        timings={"precompute_seconds": 0.0, "loop_seconds": time.perf_counter() - t0},
    )


def _stack(iterates):
    if iterates is None:
        return None
    return np.vstack(iterates) if iterates else None
