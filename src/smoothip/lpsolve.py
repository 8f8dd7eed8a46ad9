"""Self-contained LP solver for the relaxations built by this package.

Models are boxes plus two-sided linear rows: maximize c^T x + offset over
x in [0,1]^n subject to lo_i <= a_i^T x <= hi_i.  Coefficients and bounds
are exact rationals; the solver itself works in floats and the caller
re-evaluates objectives exactly after rounding, so float error never leaks
into a reported bound.

The algorithm is a bounded-variable revised simplex.  Every row gets a slack
variable (a_i^T x - s_i = 0 with s_i carrying the row bounds) and an
artificial for the two-phase start; pricing is Dantzig with a permanent
switch to Bland's rule after a long degenerate stretch.  A basis inverse is
kept explicitly and refreshed periodically.  The solver is deterministic:
fixed pivot rules, no randomization.

Any callable with the same signature and status vocabulary can replace
:func:`solve` wherever a solver is accepted (see the pipeline configuration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

FEAS_TOL = 1e-7  # row feasibility, matches the reported certificate
DUAL_TOL = 1e-9  # reduced-cost threshold for entering candidates
PIVOT_TOL = 1e-10  # smallest usable pivot magnitude
DEGENERATE_LIMIT = 1000  # pivots with no progress before Bland's rule
REFRESH_EVERY = 200  # iterations between basis-inverse rebuilds

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical-failure"


@dataclass(frozen=True)
class LpModel:
    """Maximize objective . x + offset over the box, subject to the rows.

    rows are triples (coefficients, lower, upper); either bound may be None
    for unbounded.  All numeric payloads are Fractions so that models are
    exact and hashable records of what was built.
    """

    num_vars: int
    var_bounds: tuple
    rows: tuple
    objective: tuple
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        if len(self.var_bounds) != self.num_vars:
            raise ValueError("var_bounds length mismatch")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        for lo, hi in self.var_bounds:
            if not (0 <= lo <= hi <= 1):
                raise ValueError("variable bounds must satisfy 0 <= lo <= hi <= 1")
        for coeffs, lo, hi in self.rows:
            if len(coeffs) != self.num_vars:
                raise ValueError("row coefficient length mismatch")
            if lo is not None and hi is not None and lo > hi:
                raise ValueError("row bounds crossed")


@dataclass
class LpSolution:
    status: str
    y: tuple
    objective_value: float | None
    iterations: int = 0


class _Simplex:
    """One solve. Column layout: [0, n) structural, [n, n+m) slack,
    [n+m, n+2m) artificial."""

    def __init__(self, model: LpModel, kept):
        n = model.num_vars
        m = len(kept)
        self.n, self.m = n, m
        total = n + 2 * m
        self.M = np.zeros((m, total))
        for i, (coeffs, _, _) in enumerate(kept):
            self.M[i, :n] = [float(c) for c in coeffs]
            self.M[i, n + i] = -1.0
        self.lb = np.empty(total)
        self.ub = np.empty(total)
        for j, (lo, hi) in enumerate(model.var_bounds):
            self.lb[j] = float(lo)
            self.ub[j] = float(hi)
        for i, (_, lo, hi) in enumerate(kept):
            self.lb[n + i] = -math.inf if lo is None else float(lo)
            self.ub[n + i] = math.inf if hi is None else float(hi)
        self.lb[n + m :] = 0.0
        self.ub[n + m :] = math.inf
        self.cost = np.zeros(total)
        self.cost[:n] = [-float(c) for c in model.objective]  # minimizes -c.x
        self.val = np.zeros(total)
        self.basis: list[int] = []
        self.basic = np.zeros(total, dtype=bool)
        self.at_upper = np.zeros(total, dtype=bool)
        self.Binv = np.zeros((m, m))
        self.iterations = 0
        self.degenerate = 0
        self.bland = False

    # -- state helpers ----------------------------------------------------

    def set_basis(self, columns: Sequence[int]) -> bool:
        self.basis = list(columns)
        self.basic[:] = False
        self.basic[self.basis] = True
        try:
            self.Binv = np.linalg.inv(self.M[:, self.basis])
        except np.linalg.LinAlgError:
            return False
        return True

    def recompute_basic_values(self):
        if not self.basis:
            return
        v = self.val.copy()
        v[self.basis] = 0.0
        rhs = -(self.M @ v)
        self.val[self.basis] = self.Binv @ rhs

    def refresh(self) -> bool:
        if self.basis and not self.set_basis(self.basis):
            return False
        self.recompute_basic_values()
        return True

    # -- core iteration ---------------------------------------------------

    def iterate(self, max_iterations: int) -> str:
        """Run to optimality for the current cost vector."""
        while True:
            if self.iterations >= max_iterations:
                return NUMERICAL_FAILURE
            self.iterations += 1
            if self.iterations % REFRESH_EVERY == 0 and not self.refresh():
                return NUMERICAL_FAILURE

            duals = (
                self.cost[self.basis] @ self.Binv
                if self.basis
                else np.zeros(self.m)
            )
            reduced = self.cost - duals @ self.M
            entering = self._pick_entering(reduced)
            if entering is None:
                return OPTIMAL
            j = entering
            sigma = -1.0 if self.at_upper[j] else 1.0
            w = self.Binv @ self.M[:, j]

            # Bounded ratio test: entering moves by delta >= 0 along sigma.
            span = self.ub[j] - self.lb[j]
            best = span
            leave_pos = -1
            leave_to_upper = False
            for pos, col in enumerate(self.basis):
                piv = sigma * w[pos]
                if piv > PIVOT_TOL:
                    limit = self.val[col] - self.lb[col]
                    hits_upper = False
                elif piv < -PIVOT_TOL:
                    limit = self.val[col] - self.ub[col]
                    hits_upper = True
                else:
                    continue
                ratio = max(limit / piv, 0.0)
                if ratio < best - 1e-12 or (
                    leave_pos >= 0
                    and ratio < best + 1e-12
                    and self._prefer_leaving(pos, leave_pos, w)
                ):
                    best = ratio
                    leave_pos = pos
                    leave_to_upper = hits_upper
            if math.isinf(best):
                return UNBOUNDED
            if best > 1e-11:
                self.degenerate = 0
            else:
                self.degenerate += 1
                if self.degenerate > DEGENERATE_LIMIT:
                    self.bland = True

            delta = best
            if self.basis:
                self.val[self.basis] -= sigma * delta * w
            self.val[j] += sigma * delta

            if leave_pos < 0:
                # Bound-to-bound move of the entering variable.
                self.at_upper[j] = not self.at_upper[j]
                self.val[j] = self.ub[j] if self.at_upper[j] else self.lb[j]
                continue

            leaving = self.basis[leave_pos]
            self.val[leaving] = (
                self.ub[leaving] if leave_to_upper else self.lb[leaving]
            )
            self.at_upper[leaving] = leave_to_upper
            self.basic[leaving] = False
            self.basic[j] = True
            self.basis[leave_pos] = j
            piv = w[leave_pos]
            self.Binv[leave_pos, :] /= piv
            for i in range(self.m):
                if i != leave_pos and abs(w[i]) > 0:
                    self.Binv[i, :] -= w[i] * self.Binv[leave_pos, :]

    def _pick_entering(self, reduced):
        best = None
        best_score = DUAL_TOL
        for j in range(len(reduced)):
            if self.basic[j] or self.lb[j] == self.ub[j]:
                continue
            score = -reduced[j] if not self.at_upper[j] else reduced[j]
            if score <= best_score:
                continue
            if self.bland:
                return j  # ascending scan: first eligible is the smallest
            best = j
            best_score = score
        return best

    def _prefer_leaving(self, pos, incumbent, w) -> bool:
        if self.bland:
            return self.basis[pos] < self.basis[incumbent]
        if abs(w[pos]) != abs(w[incumbent]):
            return abs(w[pos]) > abs(w[incumbent])
        return self.basis[pos] < self.basis[incumbent]


def solve(model: LpModel, warm_start: Sequence | None = None) -> LpSolution:
    """Solve the model; optional warm start from a point known to be
    feasible (each coordinate at one of its variable bounds).

    Returns status optimal / infeasible / unbounded / numerical-failure.
    The optimal y is clamped into the variable box and satisfies every row
    within FEAS_TOL; otherwise the status says numerical-failure.
    """
    n = model.num_vars
    kept = []
    for coeffs, lo, hi in model.rows:
        if lo is None and hi is None:
            continue  # vacuous row
        if any(c != 0 for c in coeffs):
            kept.append((coeffs, lo, hi))
        elif (lo is not None and lo > 0) or (hi is not None and hi < 0):
            # Empty row whose bounds exclude zero: trivially infeasible.
            floor = tuple(float(lo_) for lo_, _ in model.var_bounds)
            return LpSolution(INFEASIBLE, floor, None)
    m = len(kept)
    sx = _Simplex(model, kept)
    max_iterations = 50 * (len(model.rows) + n)

    warm_ok = False
    if warm_start is not None and len(warm_start) == n:
        exact = [Fraction(v) for v in warm_start]
        warm_ok = all(
            any(exact[j] == b for b in model.var_bounds[j]) for j in range(n)
        )
        # One exact activity per row serves the check and the slack's start.
        activity = []
        for coeffs, lo, hi in kept:
            if not warm_ok:
                break
            value = sum(c * x for c, x in zip(coeffs, exact))
            warm_ok = (lo is None or value >= lo) and (hi is None or value <= hi)
            activity.append(value)

    if warm_ok:
        for j in range(n):
            sx.val[j] = float(warm_start[j])
            sx.at_upper[j] = exact[j] == model.var_bounds[j][1]
        for i, value in enumerate(activity):
            sx.val[n + i] = min(max(float(value), sx.lb[n + i]), sx.ub[n + i])
        sx.ub[n + m :] = 0.0
        if not sx.set_basis(range(n, n + m)):
            warm_ok = False

    if not warm_ok:
        # Cold start: structurals at lower bound, slacks at the finite bound
        # nearest zero, artificials basic absorbing the residual.
        sx.ub[n + m :] = math.inf
        sx.val[:n] = sx.lb[:n]
        sx.at_upper[:n] = False
        for i in range(m):
            lo, hi = sx.lb[n + i], sx.ub[n + i]
            # A nonbasic variable must sit at a bound; presolve guarantees
            # at least one of the two is finite.
            finite = [b for b in (lo, hi) if math.isfinite(b)]
            target = min(finite, key=lambda b: (abs(b), b))
            sx.val[n + i] = target
            sx.at_upper[n + i] = target == hi and target != lo
            residual = target - float(
                np.dot(sx.M[i, :n], sx.val[:n])
            )
            if residual < 0:
                sx.M[i, n + m + i] = -1.0
                residual = -residual
            else:
                sx.M[i, n + m + i] = 1.0
            sx.val[n + m + i] = residual
        if not sx.set_basis(range(n + m, n + 2 * m)):
            return LpSolution(NUMERICAL_FAILURE, _clamped(sx, model), None)
        phase1 = np.zeros(n + 2 * m)
        phase1[n + m :] = 1.0
        true_cost = sx.cost
        sx.cost = phase1
        status = sx.iterate(max_iterations)
        if status != OPTIMAL:
            # Phase 1 is bounded below by zero, so anything but optimal
            # here is a numerical breakdown.
            return LpSolution(
                NUMERICAL_FAILURE, _clamped(sx, model), None, sx.iterations
            )
        if float(np.sum(sx.val[n + m :])) > FEAS_TOL:
            return LpSolution(
                INFEASIBLE, _clamped(sx, model), None, sx.iterations
            )
        sx.cost = true_cost
        sx.ub[n + m :] = 0.0
        sx.val[n + m :] = np.maximum(sx.val[n + m :], 0.0)

    status = sx.iterate(max_iterations)
    if status != OPTIMAL:
        return LpSolution(status, _clamped(sx, model), None, sx.iterations)

    if not sx.refresh():
        return LpSolution(
            NUMERICAL_FAILURE, _clamped(sx, model), None, sx.iterations
        )
    y = _clamped(sx, model)
    worst = _max_row_violation(model, y)
    if worst > FEAS_TOL:
        return LpSolution(NUMERICAL_FAILURE, y, None, sx.iterations)
    return LpSolution(
        OPTIMAL, y, _objective_value(model.objective, model.offset, y),
        sx.iterations,
    )


def box_optimum(objective: Sequence, offset, warm_start: Sequence) -> LpSolution:
    """The optimum :func:`solve` returns from ``warm_start`` when no row
    can cut the box [0,1]^n.

    With only slacks basic the duals are zero and no row limits a ratio
    test, so every pivot is a bound flip: y_j becomes 1 where the cost
    exceeds DUAL_TOL, 0 where it is below -DUAL_TOL, and stays at the
    warm start otherwise.
    """
    y = tuple(
        1.0 if float(c) > DUAL_TOL else 0.0 if float(c) < -DUAL_TOL
        else float(v)
        for c, v in zip(objective, warm_start)
    )
    return LpSolution(OPTIMAL, y, _objective_value(objective, offset, y))


def _objective_value(objective, offset, y) -> float:
    return sum(float(c) * v for c, v in zip(objective, y)) + float(offset)


def _clamped(sx: _Simplex, model: LpModel) -> tuple:
    out = []
    for j in range(model.num_vars):
        lo, hi = sx.lb[j], sx.ub[j]
        out.append(min(max(sx.val[j], lo), hi))
    return tuple(out)


def _max_row_violation(model: LpModel, y) -> float:
    worst = 0.0
    for coeffs, lo, hi in model.rows:
        value = sum(float(c) * v for c, v in zip(coeffs, y))
        if lo is not None:
            worst = max(worst, float(lo) - value)
        if hi is not None:
            worst = max(worst, value - float(hi))
    return worst
