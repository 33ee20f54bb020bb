"""Minimizers for the piecewise-linear objectives.

Methods:
  bsm           basic subgradient method, step 1 / (sqrt(k+1) ||g_k||)
  asm           accelerated subgradient method with the extrapolation
                schedule c_{k+1} = (k+1)^{-3/2}, theta_{k+1} = 2/(k+1),
                eta_{k+1} = theta_{k+1} (1/theta_k - 1)
  easm          the same iterates, maintaining F mu + b through rank-one
                recursions on the precomputed F a, F F^T and 2 F diag(lam)
  easm_restart  easm in segments, each restarted from the incumbent
  lp            exact reformulation solved by the in-house simplex

Iterates of asm and easm are identical by construction; easm only trades
the per-iteration matrix-vector product for sparse column updates driven by
sign changes of mu. Argmax ties break to the lowest row index everywhere
and sign(0) = 0, which makes all methods bit-deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .objective import PiecewiseLinearProblem
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
    no_improve: tuple | None = None    # (epsilon, window) early stop, off by default
    resync_every: int = 0              # recompute easm state exactly every N iters
    lp_max_rows: int = 2000
    lp_max_cols: int = 500
    easm_budget_bytes: int = 2 << 30   # refuse G = F F^T beyond this


@dataclass
class SolverRun:
    best_mu: np.ndarray
    best_value: float                  # constant included, minimization sense
    iterations_done: int
    method: str
    status: str = "max_iters"          # or "stationary", "early_stop", "optimal"
    certificate: str = "subgradient"   # "lp" when the exact path produced it
    trace: list | None = None          # rows (iteration, seconds, best_value, gamma)
    iterates: np.ndarray | None = None
    sparsity_gamma: float | None = None
    timings: dict = field(default_factory=dict)


def subgradient(problem, mu):
    """A subgradient at mu: a + lam*sign(mu) + argmax row (lowest index on ties)."""
    mu = np.asarray(mu, dtype=float)
    _, token = problem.evaluate(mu)
    return problem.subgradient_from(mu, token)


def solve(problem, config):
    if config.max_iters < 1 and config.method != "lp":
        raise SolverError("max_iters must be at least 1")
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

    def __init__(self, config, dim, iter_offset=0, time_offset=0.0):
        self.trace = [] if config.record_trace else None
        self.every = max(1, config.trace_every)
        self.iterates = [] if config.record_iterates else None
        self.iter_offset = iter_offset
        self.time_offset = time_offset
        self.changed = 0
        self.total = 0
        self.dim = dim
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


def _maybe_early_stop(config, history, best):
    if config.no_improve is None:
        return False
    eps, window = config.no_improve
    history.append(best)
    if len(history) <= window:
        return False
    if history[-window - 1] - best < eps:
        return True
    return False


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
    history = []
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
        if _maybe_early_stop(config, history, best_raw):
            status = "early_stop"
            break
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


def solve_asm(problem, config):
    """Accelerated subgradient method (extrapolated iterates, best tracking)."""
    mu = _start_point(problem, config)
    constant = problem.constant
    floor = config.divergence_floor
    K = config.max_iters
    c, eta = _schedule_arrays(K + 1)
    raw, token = problem.evaluate(mu)
    _check_value(raw, constant, floor)
    best_raw = raw
    best_mu = mu.copy()
    y = mu.copy()
    rec = _RunRecorder(config, mu.size)
    rec.start(constant + best_raw)
    rec.snapshot_mu(mu)
    prev_sign = np.sign(mu)
    status = "max_iters"
    history = []
    k = 0
    for k in range(1, K + 1):
        g = problem.subgradient_from(mu, token)
        y_next = mu - c[k - 1] * g
        mu = (1.0 + eta[k - 1]) * y_next - eta[k - 1] * y
        y = y_next
        raw, token = problem.evaluate(mu)
        _check_value(raw, constant, floor)
        if raw < best_raw:
            best_raw = raw
            best_mu = mu.copy()
        sign = np.sign(mu)
        rec.step(k, constant + best_raw, int(np.count_nonzero(sign != prev_sign)))
        prev_sign = sign
        rec.snapshot_mu(mu)
        if _maybe_early_stop(config, history, best_raw):
            status = "early_stop"
            break
    return SolverRun(
        best_mu=best_mu, best_value=constant + best_raw, iterations_done=k,
        method="asm", status=status, trace=rec.trace,
        iterates=_stack(rec.iterates), sparsity_gamma=rec.gamma(),
        timings={"loop_seconds": rec.loop_seconds(), "iterations": k},
    )


def _require_materialized(problem, config):
    if not isinstance(problem, PiecewiseLinearProblem):
        raise SolverError(
            "the structured methods need a materialized row matrix; "
            "use bsm or asm for matrix-free objectives"
        )
    p = problem.num_rows
    need = 8 * p * p
    if need > config.easm_budget_bytes:
        raise SolverError(
            f"precomputing the {p}x{p} row Gram matrix needs {need} bytes, "
            f"over the budget of {config.easm_budget_bytes}; use asm instead"
        )


def _easm_precompute(problem):
    F = problem.F
    alpha = F @ problem.a
    G = F @ F.T
    H = 2.0 * F * problem.lam  # 2 F diag(lam)
    return alpha, G, H


def _structured_core(problem, config, mu0, max_iters, precomp,
                     iter_offset=0, time_offset=0.0, incumbent=None):
    """The easm loop over one segment of max_iters iterations."""
    a, b, lam, F = problem.a, problem.b, problem.lam, problem.F
    constant = problem.constant
    floor = config.divergence_floor
    alpha, G, H = precomp
    K = max_iters
    c, eta = _schedule_arrays(K + 1)

    mu = mu0.copy()
    y = mu.copy()
    v = F @ mu + b
    w = v.copy()
    s = np.sign(mu)
    d = 0.5 * (H @ s)
    i = int(np.argmax(v))
    raw = float(a @ mu + lam @ np.abs(mu) + v[i])
    _check_value(raw, constant, floor)
    best_raw = raw
    best_mu = mu.copy()
    if incumbent is not None and incumbent[0] - constant < best_raw:
        best_raw = incumbent[0] - constant
        best_mu = incumbent[1].copy()
    rec = _RunRecorder(config, mu.size, iter_offset, time_offset)
    rec.start(constant + best_raw)
    rec.snapshot_mu(mu)
    status = "max_iters"
    history = []
    k = 0
    for k in range(1, K + 1):
        g = a + lam * s + F[i]
        ck, ek = c[k - 1], eta[k - 1]
        y_next = mu - ck * g
        mu_next = (1.0 + ek) * y_next - ek * y
        u = alpha + d + G[i]
        w_next = v - ck * u
        v = (1.0 + ek) * w_next - ek * w
        w = w_next
        i = int(np.argmax(v))
        s_next = np.sign(mu_next)
        delta = s_next - s
        nz = np.flatnonzero(delta)
        if nz.size:
            d = d + H[:, nz] @ (0.5 * delta[nz])
        s = s_next
        mu = mu_next
        y = y_next
        if config.resync_every and k % config.resync_every == 0:
            v = F @ mu + b
            w = F @ y + b
            d = 0.5 * (H @ s)
            i = int(np.argmax(v))
        raw = float(a @ mu + lam @ np.abs(mu) + v[i])
        _check_value(raw, constant, floor)
        if raw < best_raw:
            best_raw = raw
            best_mu = mu.copy()
        rec.step(k, constant + best_raw, int(nz.size))
        rec.snapshot_mu(mu)
        if _maybe_early_stop(config, history, best_raw):
            status = "early_stop"
            break
    return SolverRun(
        best_mu=best_mu, best_value=constant + best_raw, iterations_done=k,
        method="easm", status=status,
        trace=rec.trace, iterates=_stack(rec.iterates),
        sparsity_gamma=rec.gamma(),
        timings={"loop_seconds": rec.loop_seconds(), "iterations": k},
    )


def solve_easm(problem, config):
    """Structured accelerated method; iterates match solve_asm exactly."""
    _require_materialized(problem, config)
    t0 = time.perf_counter()
    precomp = _easm_precompute(problem)
    pre_seconds = time.perf_counter() - t0
    run = _structured_core(problem, config, _start_point(problem, config),
                           config.max_iters, precomp)
    run.timings["precompute_seconds"] = pre_seconds
    return run


def solve_easm_restart(problem, config):
    """solve_easm in segments of restart_period, restarting from the incumbent.

    Each segment resets the extrapolation schedule (k back to 1) and starts
    at the best point found so far; the incumbent is kept across segments.
    """
    _require_materialized(problem, config)
    if config.restart_period < 1:
        raise SolverError("restart_period must be at least 1")
    t0 = time.perf_counter()
    precomp = _easm_precompute(problem)
    pre_seconds = time.perf_counter() - t0

    mu_start = _start_point(problem, config)
    remaining = config.max_iters
    best_mu = None
    best_value = math.inf
    done = 0
    loop_seconds = 0.0
    trace = [] if config.record_trace else None
    iterates = [] if config.record_iterates else None
    changed_frac = 0.0
    status = "max_iters"
    while remaining > 0:
        seg = min(config.restart_period, remaining)
        incumbent = None if best_mu is None else (best_value, best_mu)
        run = _structured_core(problem, config, mu_start, seg, precomp,
                               iter_offset=done, time_offset=loop_seconds,
                               incumbent=incumbent)
        if run.best_value < best_value:
            best_value = run.best_value
            best_mu = run.best_mu
        done += run.iterations_done
        remaining -= run.iterations_done
        loop_seconds += run.timings["loop_seconds"]
        changed_frac += run.sparsity_gamma * run.iterations_done
        if trace is not None:
            trace.extend(run.trace)
        if iterates is not None and run.iterates is not None:
            iterates.append(run.iterates)
        mu_start = best_mu
        if run.status == "early_stop":
            status = run.status
            break
    return SolverRun(
        best_mu=best_mu, best_value=best_value, iterations_done=done,
        method="easm_restart", status=status, trace=trace,
        iterates=np.vstack(iterates) if iterates else None,
        sparsity_gamma=changed_frac / max(done, 1),
        timings={"loop_seconds": loop_seconds, "iterations": done,
                 "precompute_seconds": pre_seconds},
    )


def solve_lp(problem, config):
    """Exact solve of the equivalent linear program.

    Variables (mu1, mu2, nu+, nu-, slack) with mu = mu1 - mu2; the slack
    basis built from nu is feasible, so no phase-1 pass is needed.
    """
    if not isinstance(problem, PiecewiseLinearProblem):
        raise SolverError("the LP path needs a materialized problem")
    p = problem.num_rows
    m = problem.dimension
    if p > config.lp_max_rows or m > config.lp_max_cols:
        raise SolverError(
            f"problem size p={p}, m={m} exceeds the exact-solver budget "
            f"(p <= {config.lp_max_rows}, m <= {config.lp_max_cols})"
        )
    t0 = time.perf_counter()
    A = np.zeros((p, 2 * m + 2 + p))
    A[:, :m] = problem.F
    A[:, m:2 * m] = -problem.F
    A[:, 2 * m] = -1.0
    A[:, 2 * m + 1] = 1.0
    A[:, 2 * m + 2:] = np.eye(p)
    rhs = -problem.b
    cost = np.concatenate([
        problem.a + problem.lam, -problem.a + problem.lam,
        [1.0, -1.0], np.zeros(p),
    ])
    # Feasible start: mu = 0, nu = max(b, 0) basic in the argmax-b row.
    bmax_row = int(np.argmax(problem.b))
    basis = 2 * m + 2 + np.arange(p)
    if problem.b[bmax_row] > 0:
        basis[bmax_row] = 2 * m

    result = solve_standard_form(cost, A, rhs, basis=basis)
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
