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

Everything but the row windows is prepared once in a :class:`PreparedLp`:
the float matrix, the cost, the row split and a warm start with its exact
row activities.  Its ``solve(windows)`` then does one LP, so a caller that
solves the same rows under many windows (the pipeline, one per error
budget) converts and checks them once.  :func:`solve` is that object used
once.  The simplex accepts the warm start only when its exact activities
lie in the exact windows, and otherwise starts cold with a phase 1.
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

# The zero that callers may share across their rows' absent coefficients
# (relax does): PreparedLp skips it by identity, with no Fraction call.
ZERO = Fraction(0)


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

    def __init__(self, lp: PreparedLp, slack_lb, slack_ub):
        n, m = lp.num_vars, len(lp.kept)
        self.n, self.m = n, m
        total = n + 2 * m
        self.M = np.zeros((m, total))
        self.M[:, :n] = lp.matrix
        self.M[range(m), range(n, n + m)] = -1.0
        self.lb = np.concatenate((lp.var_lb, slack_lb, np.zeros(m)))
        self.ub = np.concatenate((lp.var_ub, slack_ub, np.full(m, math.inf)))
        self.cost = np.zeros(total)
        self.cost[:n] = lp.cost
        self.val = np.zeros(total)
        self.basis = np.zeros(0, dtype=np.intp)
        self.basic = np.zeros(total, dtype=bool)
        self.at_upper = np.zeros(total, dtype=bool)
        self.Binv = np.zeros((m, m))
        self.iterations = 0
        self.degenerate = 0
        self.bland = False

    # -- state helpers ----------------------------------------------------

    def set_basis(self, columns: Sequence[int], signs=None) -> bool:
        """Make ``columns`` the basis and invert it.  A start whose basis
        is the diagonal of ``signs`` (each +-1.0) passes them, and its
        inverse is written down: dividing each row of the identity by its
        sign gives what LAPACK returns, -0.0 entries included."""
        self.basis = np.array(columns, dtype=np.intp)
        self.basic[:] = False
        self.basic[self.basis] = True
        if signs is not None:
            self.Binv = np.eye(self.m) / signs[:, None]
            return True
        try:
            self.Binv = np.linalg.inv(self.M[:, self.basis])
        except np.linalg.LinAlgError:
            return False
        return True

    def recompute_basic_values(self):
        if not self.basis.size:
            return
        v = self.val.copy()
        v[self.basis] = 0.0
        rhs = -(self.M @ v)
        self.val[self.basis] = self.Binv @ rhs

    def refresh(self) -> bool:
        if self.basis.size and not self.set_basis(self.basis):
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
                if self.basis.size
                else np.zeros(self.m)
            )
            reduced = self.cost - duals @ self.M
            j = self._pick_entering(reduced)
            if j is None:
                return OPTIMAL
            sigma = -1.0 if self.at_upper[j] else 1.0
            w = self.Binv @ self.M[:, j]
            best, leave_pos, leave_to_upper = self._ratio_test(j, sigma, w)
            if math.isinf(best):
                return UNBOUNDED
            if best > 1e-11:
                self.degenerate = 0
            else:
                self.degenerate += 1
                if self.degenerate > DEGENERATE_LIMIT:
                    self.bland = True

            delta = best
            if self.basis.size:
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
            self._update_inverse(leave_pos, w)

    def _pick_entering(self, reduced):
        """Dantzig: the first column of largest score; under Bland's rule
        the first column whose score passes DUAL_TOL.  Basic and fixed
        columns never enter."""
        score = np.where(self.at_upper, reduced, -reduced)
        score[self.basic | (self.lb == self.ub)] = -math.inf
        if self.bland:
            eligible = np.flatnonzero(score > DUAL_TOL)
            return int(eligible[0]) if eligible.size else None
        j = int(np.argmax(score))  # first maximum
        return j if score[j] > DUAL_TOL else None

    def _ratio_test(self, j, sigma, w):
        """(step, leaving position or -1, whether it leaves at its upper
        bound) for the entering column j moving by delta >= 0 along sigma.

        The rows with a usable pivot and their ratios are found at once;
        they are then scanned in position order.  A ratio more than 1e-12
        below the best so far replaces it; one within 1e-12 replaces it if
        its key is smaller: under Bland's rule the smaller basic column,
        otherwise the larger |pivot|, then the smaller column.
        """
        piv = sigma * w
        rows = np.flatnonzero(np.abs(piv) > PIVOT_TOL)
        cols = self.basis[rows]
        piv = piv[rows]
        hits_upper = piv < 0
        ratios = (
            self.val[cols] - np.where(hits_upper, self.ub[cols], self.lb[cols])
        ) / piv
        # max(ratio, 0.0) as Python takes it: a ratio of -0.0 stays -0.0.
        ratios = np.where(ratios < 0.0, 0.0, ratios)
        keys = (
            cols.tolist() if self.bland
            else list(zip((-np.abs(piv)).tolist(), cols.tolist()))
        )
        best = self.ub[j] - self.lb[j]
        leave = -1
        for k, ratio in enumerate(ratios.tolist()):
            if ratio < best - 1e-12 or (
                leave >= 0 and ratio < best + 1e-12 and keys[k] < keys[leave]
            ):
                best = ratio
                leave = k
        if leave < 0:
            return best, -1, False
        return best, int(rows[leave]), bool(hits_upper[leave])

    def _update_inverse(self, leave_pos, w):
        """Rank-1 update of Binv after the column at leave_pos left: the
        pivot row is divided by the pivot and eliminated from every other
        row with a nonzero multiplier."""
        self.Binv[leave_pos, :] /= w[leave_pos]
        rows = np.flatnonzero(w)
        rows = rows[rows != leave_pos]
        self.Binv[rows] -= np.outer(w[rows], self.Binv[leave_pos])


class PreparedLp:
    """The part of an LP that its row windows do not change, prepared once.

    Holds the float matrix of the rows that can bind (it seeds each
    solve's working matrix and serves its final row check), the cost, the
    variable box, which rows are empty or vacuous, and an optional warm
    start with its exact activity on every row of ``model``; a caller that
    already has those activities passes them, otherwise they are computed
    here.  :meth:`solve` then takes one set of row windows, whose absent
    bounds must be those of ``model``.
    """

    def __init__(
        self,
        model: LpModel,
        warm_start: Sequence | None = None,
        activities: Sequence | None = None,
    ):
        n = model.num_vars
        self.num_vars = n
        self.objective = tuple(float(c) for c in model.objective)
        self.offset = float(model.offset)
        self.num_rows = len(model.rows)
        self.absent = tuple(
            (lo is None, hi is None) for _, lo, hi in model.rows
        )
        self.kept: list[int] = []
        self.empty: list[int] = []
        # The float matrix is filled from each row's nonzero entries only,
        # at their offsets in the flattened matrix.
        offsets: list[int] = []
        values: list[float] = []
        for i, (coeffs, lo, hi) in enumerate(model.rows):
            if lo is None and hi is None:
                continue  # vacuous row
            base = len(self.kept) * n
            nonzero = [
                (base + j, c) for j, c in enumerate(coeffs)
                if c is not ZERO and c
            ]
            if not nonzero:
                self.empty.append(i)
                continue
            self.kept.append(i)
            for offset, c in nonzero:
                offsets.append(offset)
                values.append(float(c))
        flat = np.zeros(len(self.kept) * n)
        flat[offsets] = values
        self.matrix = flat.reshape(len(self.kept), n)
        self.var_lb = np.array([float(lo) for lo, _ in model.var_bounds])
        self.var_ub = np.array([float(hi) for _, hi in model.var_bounds])
        self.cost = np.array([-c for c in self.objective])  # minimizes -c.x
        # A warm start must sit at a variable bound in every coordinate;
        # whether its activities lie in the windows is checked per solve.
        self.warm_x = None
        if warm_start is not None:
            if len(warm_start) != n:
                raise ValueError(
                    f"warm start length {len(warm_start)}, expected {n}"
                )
            exact = [Fraction(v) for v in warm_start]
            if all(x in bounds for x, bounds in zip(exact, model.var_bounds)):
                self.warm_x = np.array([float(v) for v in warm_start])
                self.warm_at_upper = np.array(
                    [x == hi for x, (_, hi) in zip(exact, model.var_bounds)]
                )
                self.warm_activity = [
                    sum(c * x for c, x in zip(model.rows[i][0], exact))
                    if activities is None else activities[i]
                    for i in self.kept
                ]
                self.warm_activity_float = np.array(
                    [float(a) for a in self.warm_activity]
                )

    def solve(self, windows: Sequence) -> LpSolution:
        """Solve with rows lo_i <= a_i . x <= hi_i for the given (lo, hi)
        pairs, one per model row; see :func:`solve`."""
        if len(windows) != self.num_rows or any(
            (lo is None, hi is None) != absent
            for (lo, hi), absent in zip(windows, self.absent)
        ):
            raise ValueError("windows do not match the prepared rows")
        for i in self.empty:
            lo, hi = windows[i]
            if (lo is not None and lo > 0) or (hi is not None and hi < 0):
                # Empty row whose bounds exclude zero: trivially infeasible.
                floor = tuple(self.var_lb.tolist())
                return LpSolution(INFEASIBLE, floor, None)
        n, m = self.num_vars, len(self.kept)
        kept = [windows[i] for i in self.kept]
        sx = _Simplex(
            self,
            np.array(
                [-math.inf if lo is None else float(lo) for lo, _ in kept]
            ),
            np.array(
                [math.inf if hi is None else float(hi) for _, hi in kept]
            ),
        )
        max_iterations = 50 * (self.num_rows + n)

        warm_ok = self.warm_x is not None and all(
            (lo is None or a >= lo) and (hi is None or a <= hi)
            for a, (lo, hi) in zip(self.warm_activity, kept)
        )
        if warm_ok:
            sx.val[:n] = self.warm_x
            sx.at_upper[:n] = self.warm_at_upper
            sx.val[n : n + m] = np.clip(
                self.warm_activity_float, sx.lb[n : n + m], sx.ub[n : n + m]
            )
            sx.ub[n + m :] = 0.0
            sx.set_basis(range(n, n + m), np.full(m, -1.0))

        if not warm_ok:
            # Cold start: structurals at lower bound, slacks at the finite
            # bound nearest zero, artificials basic absorbing the residual.
            sx.ub[n + m :] = math.inf
            sx.val[:n] = sx.lb[:n]
            sx.at_upper[:n] = False
            for i in range(m):
                lo, hi = sx.lb[n + i], sx.ub[n + i]
                # A nonbasic variable must sit at a bound; presolve
                # guarantees at least one of the two is finite.
                finite = [b for b in (lo, hi) if math.isfinite(b)]
                target = min(finite, key=lambda b: (abs(b), b))
                sx.val[n + i] = target
                sx.at_upper[n + i] = target == hi and target != lo
                residual = target - float(np.dot(sx.M[i, :n], sx.val[:n]))
                if residual < 0:
                    sx.M[i, n + m + i] = -1.0
                    residual = -residual
                else:
                    sx.M[i, n + m + i] = 1.0
                sx.val[n + m + i] = residual
            sx.set_basis(
                range(n + m, n + 2 * m),
                sx.M[range(m), range(n + m, n + 2 * m)],
            )
            phase1 = np.zeros(n + 2 * m)
            phase1[n + m :] = 1.0
            true_cost = sx.cost
            sx.cost = phase1
            status = sx.iterate(max_iterations)
            if status != OPTIMAL:
                # Phase 1 is bounded below by zero, so anything but
                # optimal here is a numerical breakdown.
                return LpSolution(
                    NUMERICAL_FAILURE, _clamped(sx), None, sx.iterations
                )
            if float(np.sum(sx.val[n + m :])) > FEAS_TOL:
                return LpSolution(
                    INFEASIBLE, _clamped(sx), None, sx.iterations
                )
            sx.cost = true_cost
            sx.ub[n + m :] = 0.0
            sx.val[n + m :] = np.maximum(sx.val[n + m :], 0.0)

        status = sx.iterate(max_iterations)
        if status != OPTIMAL:
            return LpSolution(status, _clamped(sx), None, sx.iterations)

        if not sx.refresh():
            return LpSolution(
                NUMERICAL_FAILURE, _clamped(sx), None, sx.iterations
            )
        y = _clamped(sx)
        # Only the kept rows can be broken: an empty row's window holds
        # zero (checked above) and a vacuous row has none.
        activity = self.matrix @ np.asarray(y, dtype=float)
        worst = max(
            np.max(sx.lb[n : n + m] - activity, initial=0.0),
            np.max(activity - sx.ub[n : n + m], initial=0.0),
        )
        if worst > FEAS_TOL:
            return LpSolution(NUMERICAL_FAILURE, y, None, sx.iterations)
        return LpSolution(
            OPTIMAL, y, _objective_value(self.objective, self.offset, y),
            sx.iterations,
        )


def solve(model: LpModel, warm_start: Sequence | None = None) -> LpSolution:
    """Solve the model, optionally warm-started at a point with each
    coordinate at one of its variable bounds.

    A warm start of the wrong length raises ValueError.  The warm start is
    used only when it sits at a bound in every coordinate and satisfies
    every row exactly; otherwise the solve starts cold with a phase 1.
    Returns status optimal / infeasible / unbounded / numerical-failure.
    The optimal y is clamped into the variable box and satisfies every row
    within FEAS_TOL; otherwise the status says numerical-failure.  This is
    :class:`PreparedLp` used for the model's own windows.
    """
    return PreparedLp(model, warm_start).solve(
        [(lo, hi) for _, lo, hi in model.rows]
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


def _clamped(sx: _Simplex) -> tuple:
    out = []
    for j in range(sx.n):
        lo, hi = sx.lb[j], sx.ub[j]
        out.append(min(max(sx.val[j], lo), hi))
    return tuple(out)
