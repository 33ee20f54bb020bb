"""Two-phase revised simplex that factors only the dense part of the basis.

Solves  min c^T x  s.t.  A x = b, x >= 0  at double precision. It is the
exact path for the learning, bound and feasibility-repair LPs, and the
oracle the subgradient methods are checked against.

Structure. Most columns of those LPs are signed unit vectors ±e_i: slacks,
deviation variables and the phase-1 artificials. A basic unit column
covers its row, so with the covered rows first the basis is block
triangular,

    B = [ S  A_cd ]     S = diag(±1) on the covered rows,
        [ 0  M    ]     M = the dense basic columns on the uncovered rows,

and only the k×k block M is factored, as an explicit inverse. Each pivot
updates that inverse in O(k²) by one of four moves (a dense column
replaces a dense one, bordering, reduction, a row swap); it is recomputed
every REFACTOR_EVERY pivots and before any exit. Unit columns are never
stored. Phase 1 starts from a unit column whose sign matches b_i on each
row that has one and from the row's artificial elsewhere.

Pricing is Dantzig's rule (most negative reduced cost), with the largest
pivot among ratio-test ties. After STALL_LIMIT degenerate pivots in a row
Bland's rule takes over until the objective moves again, which precludes
cycling.

Degeneracy. Each phase first raises every basic value by a small
deterministic amount (PERTURBATION, relative): a perturbation of the
right-hand side that breaks the ties degenerate vertices would otherwise
resolve by round-off. When the perturbed problem is optimal, the basic
values are re-read from the final basis under the true b; dual simplex
pivots repair any that came out negative, and a last unperturbed primal
pass confirms optimality, so x is a vertex of the original LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

TOL = 1e-9            # reduced-cost, ratio-test and phase-1 residual tolerance
PERTURBATION = 1e-7   # relative raise of each basic value when a phase starts
FEASIBILITY = 1e-7    # a warm basis with a value below -FEASIBILITY, or whose
                      # inverse misses the identity by more, is not used
PIVOT_FLOOR = 1e-11   # a smaller pivot from an updated inverse forces a refactor
REFACTOR_EVERY = 64   # pivots between fresh inversions of the dense block
STALL_LIMIT = 50      # degenerate pivots in a row before Bland's rule
_GOLDEN = 0.6180339887498949  # spreads the perturbation over the basic slots


class SimplexError(RuntimeError):
    """Numerical failure or pivot budget exhaustion inside the simplex."""


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray | None
    value: float | None
    basis: np.ndarray | None
    pivots: int


def solve_standard_form(c, A, b, basis=None):
    """Minimize c^T x subject to A x = b, x >= 0.

    If `basis` (column indices of a feasible basis) is given, phase 1 is
    skipped; a singular or infeasible one falls back to phase 1. Returns a
    SimplexResult whose status is one of "optimal", "unbounded",
    "infeasible".
    """
    A = np.asarray(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    p, n = A.shape
    if b.shape != (p,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    lp = _Simplex(A, b)

    warm = basis is not None and lp.start_from(lp.internal[np.asarray(basis, dtype=int)])
    if not warm:
        lp.start_phase_one()
        if lp.run_phase(lp.phase_one_cost) != OPTIMAL:
            raise SimplexError("phase 1 did not terminate at an optimum")
        artificial = lp.solve(lp.b)[:p][lp.cover >= lp.real]
        if float(np.abs(artificial).sum()) > TOL * (1.0 + np.abs(b).max(initial=0.0)):
            return SimplexResult(INFEASIBLE, None, None, None, lp.pivots)
        lp.pin_artificials = True
    cost = np.zeros(lp.columns + 1)
    cost[:lp.real] = c[lp.order]
    if lp.run_phase(cost) == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, None, lp.pivots)
    x = lp.solution()
    return SimplexResult(OPTIMAL, x, float(c @ x), lp.basic_columns(), lp.pivots)


class _Simplex:
    """The LP in internal column order, [dense | ±unit | artificial], and
    its current basis.

    A basis is held as `cover` (for each row, the basic unit column on it,
    or -1 when the row is uncovered; cost vectors end in a 0 for that -1),
    `sign` (that column's entry, 0 when uncovered), the dense basic columns
    `dcols` and the uncovered rows `drows`. `N` is the inverse of
    M = D[drows][:, dcols] (rows of N follow dcols, its columns drows) and
    `DT` holds D[:, dcols] transposed. The basic slots are the rows (the
    covered ones hold a value) followed by the dense basic columns.
    """

    def __init__(self, A, b):
        p, n = A.shape
        nonzero = A != 0.0
        row = nonzero.argmax(axis=0)
        entry = A[row, np.arange(n)]
        unit = (nonzero.sum(axis=0) == 1) & (np.abs(entry) == 1.0)
        dense = np.flatnonzero(~unit)
        units = np.flatnonzero(unit)
        self.order = np.concatenate([dense, units])  # internal id -> column of A
        self.internal = np.empty(n, dtype=int)
        self.internal[self.order] = np.arange(n)
        self.D = A[:, dense]
        self.nd, self.nu, self.real = dense.size, units.size, n
        # unit columns, then one artificial per row (sign(b_i) e_i)
        self.urow = np.concatenate([row[units], np.arange(p)])
        self.usign = np.concatenate([entry[units], np.where(b < 0.0, -1.0, 1.0)])
        self.columns = n + p
        self.phase_one_cost = np.zeros(self.columns + 1)
        self.phase_one_cost[n:self.columns] = 1.0
        self.p, self.b = p, b
        self.max_pivots = 2000 + 50 * (p + n)
        self.pivots = 0
        self.pin_artificials = False
        self.updates = 0

    # -- basis set-up ---------------------------------------------------

    def start_from(self, cols):
        """Take `cols` (internal ids) as the basis; False when it is
        singular or infeasible."""
        units = cols[cols >= self.nd]
        rows = self.urow[units - self.nd]
        if cols.size != self.p or not (_distinct(cols) and _distinct(rows)):
            return False
        self._set(units, rows, cols[cols < self.nd])
        try:
            self.refactor()
        except SimplexError:
            return False
        # inverting a numerically singular block need not raise
        M = self.DT[:, self.drows].T
        if np.abs(M @ self.N - np.eye(M.shape[0])).max(initial=0.0) > FEASIBILITY:
            return False
        return bool(self.solve(self.b).min(initial=0.0) >= -FEASIBILITY)

    def start_phase_one(self):
        """A unit column whose sign matches b_i on each row it can take,
        the row's artificial elsewhere."""
        rows, signs = self.urow[:self.nu], self.usign[:self.nu]
        fits = np.flatnonzero(signs == self.usign[self.nu + rows])[::-1]
        cover = self.real + np.arange(self.p)
        cover[rows[fits]] = self.nd + fits  # the first fitting column of a row wins
        self._set(cover, np.arange(self.p), np.empty(0, dtype=int))
        self.refactor()

    def _set(self, units, rows, dcols):
        self.cover = np.full(self.p, -1)
        self.cover[rows] = units
        self.sign = np.zeros(self.p)
        self.sign[rows] = self.usign[units - self.nd]
        self.dcols = np.array(dcols, dtype=int)
        self.drows = np.flatnonzero(self.sign == 0.0)
        self.in_basis = np.zeros(self.columns + 1, dtype=bool)
        self.in_basis[units] = True
        self.in_basis[self.dcols] = True

    def refactor(self):
        if self.drows.size != self.dcols.size:
            raise SimplexError("singular basis matrix")
        self.DT = np.ascontiguousarray(self.D[:, self.dcols].T)
        try:
            self.N = np.linalg.inv(self.DT[:, self.drows].T)
        except np.linalg.LinAlgError as exc:
            raise SimplexError("singular basis matrix") from exc
        self.updates = 0

    # -- products with the basis ----------------------------------------

    def solve(self, a):
        """B⁻¹a over the basic slots: the covered rows, then dcols."""
        dd = self.N @ a[self.drows]
        du = self.sign * (a - dd @ self.DT)
        return np.concatenate([du, dd])

    def times(self, v):
        """B v for v over the basic slots."""
        return self.sign * v[:self.p] + v[self.p:] @ self.DT

    def duals(self, cb):
        """y with Bᵀy = cb, cb over the basic slots."""
        y = self.sign * cb[:self.p]
        y[self.drows] = (cb[self.p:] - self.DT @ y) @ self.N
        return y

    def column(self, j):
        if j < self.nd:
            return self.D[:, j]
        a = np.zeros(self.p)
        a[self.urow[j - self.nd]] = self.usign[j - self.nd]
        return a

    def row_times_columns(self, y):
        """yᵀA over the columns of A (the artificials never enter)."""
        nu = self.nu
        return np.concatenate([y @ self.D, self.usign[:nu] * y[self.urow[:nu]]])

    def slot_columns(self):
        return np.concatenate([self.cover, self.dcols])

    # -- pivoting --------------------------------------------------------

    def pivot(self, j, slot, a, d):
        """Basis change: column j enters in place of `slot`; d = B⁻¹a."""
        p, N = self.p, self.N
        dd = d[p:]
        if slot >= p:
            t = slot - p
            self.in_basis[self.dcols[t]] = False
            if j < self.nd:  # a dense column replaces column t of M
                row = N[t] / dd[t]
                N -= np.outer(dd, row)
                N[t] = row
                self.dcols[t] = j
                self.DT[t] = a
            else:  # a unit column covers uncovered row i: M loses row i, column t
                i = self.urow[j - self.nd]
                q = int(np.flatnonzero(self.drows == i)[0])
                N = N - np.outer(N[:, q], N[t]) / N[t, q]
                self.N = np.delete(np.delete(N, t, axis=0), q, axis=1)
                self.dcols = np.delete(self.dcols, t)
                self.drows = np.delete(self.drows, q)
                self.DT = np.delete(self.DT, t, axis=0)
                self.cover[i], self.sign[i] = j, self.usign[j - self.nd]
        else:
            i = slot
            self.in_basis[self.cover[i]] = False
            if j < self.nd:  # bordering: row i and column j join M
                w = self.DT[:, i] @ N
                sigma = a[i] - self.DT[:, i] @ dd
                k = N.shape[0]
                grown = np.empty((k + 1, k + 1))
                grown[:k, :k] = N + np.outer(dd, w) / sigma
                grown[:k, k] = -dd / sigma
                grown[k, :k] = -w / sigma
                grown[k, k] = 1.0 / sigma
                self.N = grown
                self.dcols = np.append(self.dcols, j)
                self.drows = np.append(self.drows, i)
                self.DT = np.vstack([self.DT, a])
                self.cover[i], self.sign[i] = -1, 0.0
            else:  # a unit column on uncovered row r: row r of M becomes row i
                r = self.urow[j - self.nd]
                if r != i:
                    q = int(np.flatnonzero(self.drows == r)[0])
                    delta = self.DT[:, i] - self.DT[:, r]
                    N -= np.outer(N[:, q], delta @ N) / (1.0 + delta @ N[:, q])
                    self.drows[q] = i
                    self.cover[i], self.sign[i] = -1, 0.0
                self.cover[r], self.sign[r] = j, self.usign[j - self.nd]
        self.in_basis[j] = True
        self.pivots += 1
        self.updates += 1
        if self.pivots > self.max_pivots:
            raise SimplexError(f"pivot budget {self.max_pivots} exhausted")
        if self.updates >= REFACTOR_EVERY:
            self.refactor()

    # -- the phases ------------------------------------------------------

    def run_phase(self, cost):
        """Minimize `cost` from the current feasible basis: a perturbed
        primal pass, then the vertex under the true b."""
        x = self.solve(self.b)
        slot = np.arange(x.size) + 1.0
        raise_by = PERTURBATION * (1.0 + np.abs(x)) * (0.5 + (slot * _GOLDEN) % 1.0)
        raise_by[:self.p][self.sign == 0.0] = 0.0
        if self.pin_artificials:
            raise_by[:self.p][self.cover >= self.real] = 0.0
        if self._primal(cost, self.b + self.times(raise_by)) == UNBOUNDED:
            return UNBOUNDED
        self.refactor()
        self._dual(cost)
        return self._primal(cost, self.b)

    def _primal(self, cost, rhs):
        stall = 0
        bland = False
        while True:
            x = self.solve(rhs)
            y = self.duals(cost[self.slot_columns()])
            reduced = cost[:self.real] - self.row_times_columns(y)
            reduced[self.in_basis[:self.real]] = 0.0
            candidates = np.flatnonzero(reduced < -TOL)
            if candidates.size == 0:
                if self.updates:
                    self.refactor()
                    continue
                return OPTIMAL
            j = int(candidates[0] if bland else candidates[np.argmin(reduced[candidates])])
            a = self.column(j)
            d = self.solve(a)
            ratio_d = d
            if self.pin_artificials:  # a basic artificial sits at 0 and leaves first
                ratio_d = d.copy()
                pinned = np.flatnonzero(self.cover >= self.real)
                ratio_d[pinned] = np.abs(d[pinned])
            pos = np.flatnonzero(ratio_d > TOL)
            if pos.size == 0:
                if self.updates:
                    self.refactor()
                    continue
                return UNBOUNDED
            ratios = x[pos] / ratio_d[pos]
            theta = max(ratios.min(), 0.0)
            near = pos[ratios <= theta + TOL * (1.0 + abs(theta))]
            if bland:
                r = int(near[np.argmin(self.slot_columns()[near])])
            else:
                r = int(near[np.argmax(ratio_d[near])])  # largest pivot for stability
            if abs(d[r]) < PIVOT_FLOOR and self.updates:
                self.refactor()
                continue
            if theta <= TOL:
                stall += 1
                bland = bland or stall > STALL_LIMIT
            else:
                stall = 0
                bland = False
            self.pivot(j, r, a, d)

    def _dual(self, cost):
        """Dual simplex pivots under the true b until the basic values are
        nonnegative; each keeps the reduced costs nonnegative."""
        while True:
            x = self.solve(self.b)
            r = int(np.argmin(x))
            if x[r] >= -TOL:
                return
            y = self.duals(cost[self.slot_columns()])
            reduced = np.maximum(cost[:self.real] - self.row_times_columns(y), 0.0)
            e_r = np.zeros(x.size)
            e_r[r] = 1.0
            alpha = self.row_times_columns(self.duals(e_r))  # row r of B⁻¹A
            alpha[self.in_basis[:self.real]] = 0.0
            candidates = np.flatnonzero(alpha < -TOL)
            if candidates.size == 0:
                return  # round-off only: the phase starts from a feasible basis
            ratios = reduced[candidates] / -alpha[candidates]
            near = candidates[ratios <= ratios.min() + TOL]
            j = int(near[np.argmin(alpha[near])])
            a = self.column(j)
            self.pivot(j, r, a, self.solve(a))

    # -- read-out --------------------------------------------------------

    def solution(self):
        x = np.zeros(self.columns + 1)
        x[self.slot_columns()] = self.solve(self.b)
        x = np.maximum(x[:self.real], 0.0)  # clip pivot round-off
        out = np.empty(self.real)
        out[self.order] = x
        return out

    def basic_columns(self):
        cols = self.slot_columns()
        return self.order[cols[(cols >= 0) & (cols < self.real)]]


def _distinct(a):
    """Whether the entries of the integer array `a` are pairwise distinct."""
    a = np.sort(a)
    return not (a[1:] == a[:-1]).any()
