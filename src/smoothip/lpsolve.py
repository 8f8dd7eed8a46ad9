"""Self-contained LP solver for the relaxations built by this package.

Models are boxes plus two-sided linear rows: maximize c^T x + offset over
a box of per-variable bounds l_j <= x_j <= u_j subject to lo_i <= a_i^T x
<= hi_i.  The solver takes every row as integers over one positive
denominator per row, works in floats and the caller re-evaluates
objectives exactly after rounding, so float error never leaks into a
reported bound.  An :class:`LpModel`, an LP in Fractions, is a record
for reference; the solver does not read it.

The algorithm is a bounded-variable revised simplex.  Every row gets a slack
variable (a_i^T x - s_i = 0 with s_i carrying the row bounds) and an
artificial for the two-phase start; pricing is Dantzig throughout, and a
solve that has not ended after 50 pivots per row and per variable returns
numerical-failure.  A basis inverse is kept explicitly and refreshed
periodically.  The solver is deterministic: fixed pivot rules, no
randomization.

:class:`PreparedLp` is the one way in.  Everything but the row windows is
prepared once in it: the float matrix, the cost, the row split and a warm
start with its exact row activities.  Every float in it is an integer
over an integer, divided once with Python's correctly rounded
``int / int``, so it has the bits of the float of the exact Fraction.
Its ``solve(windows)`` then does one LP, so a caller that solves the same
rows under many windows (the pipeline, one per error budget) converts
and checks them once.  A warm start x-hat must sit at a bound of every
variable, or the prepared LP raises ValueError.  The simplex starts
warm, at x-hat on the slack basis, only when x-hat's exact activities
lie in the exact windows, an integer comparison.  Otherwise it starts
cold with a phase 1: the structurals at their lower bounds, each slack
at its finite bound nearest zero, and the artificials basic, absorbing
the residual.
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
    [n+m, n+2m) artificial.  ``basis``, each row's basic column, is the
    one record of the basis; every start sets it and ``Binv`` first."""

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
        self.at_upper = np.zeros(total, dtype=bool)
        self.iterations = 0

    # -- state helpers ----------------------------------------------------

    def set_basis(self, columns: Sequence[int], signs=None) -> bool:
        """Make ``columns`` the basis and invert it.  A start whose basis
        is the diagonal of ``signs`` (each +-1.0) passes them, and its
        inverse is written down: dividing each row of the identity by its
        sign gives what LAPACK returns, -0.0 entries included."""
        self.basis = np.array(columns, dtype=np.intp)
        if signs is not None:
            self.Binv = np.eye(self.m) / signs[:, None]
            return True
        try:
            self.Binv = np.linalg.inv(self.M[:, self.basis])
        except np.linalg.LinAlgError:
            return False
        return True

    def recompute_basic_values(self):
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

            duals = self.cost[self.basis] @ self.Binv
            reduced = self.cost - duals @ self.M
            j = self._pick_entering(reduced)
            if j is None:
                return OPTIMAL
            sigma = -1.0 if self.at_upper[j] else 1.0
            w = self.Binv @ self.M[:, j]
            best, leave_pos, leave_to_upper = self._ratio_test(j, sigma, w)
            if math.isinf(best):
                return UNBOUNDED

            delta = best
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
            self.basis[leave_pos] = j
            self._update_inverse(leave_pos, w)

    def _pick_entering(self, reduced):
        """Dantzig, the only pricing rule: the first column of largest
        score, if that score passes DUAL_TOL.  Basic and fixed columns
        never enter.  Nothing else guards against cycling; a solve ends at
        the pivot cap of :meth:`PreparedLp.solve`."""
        score = np.where(self.at_upper, reduced, -reduced)
        score[self.basis] = -math.inf
        score[self.lb == self.ub] = -math.inf
        j = int(np.argmax(score))  # first maximum
        return j if score[j] > DUAL_TOL else None

    def _ratio_test(self, j, sigma, w):
        """(step, leaving position or -1, whether it leaves at its upper
        bound) for the entering column j moving by delta >= 0 along sigma.

        The rows with a usable pivot and their ratios are found at once;
        they are then scanned in position order.  A ratio more than 1e-12
        below the best so far replaces it; one within 1e-12 replaces it if
        its key is smaller: the larger |pivot|, then the smaller column.
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
        keys = list(zip((-np.abs(piv)).tolist(), cols.tolist()))
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

    ``objective`` is (coeffs, denom), with one integer coefficient per
    variable, and ``rows`` holds one (coeffs, lower, upper, denom) per
    row: the row's nonzero coefficients only, as (j, c) pairs, and its
    bounds, all integers over a positive integer denominator, a bound None
    when absent.
    ``var_bounds`` holds an exact (lo, hi) per variable.  ``warm_start``
    is None or (x, activities): a point x at a bound of every variable
    and, per row, its exact activity a_i . x as (numerator, positive
    denominator); an x or an activity list of the wrong length, or an x
    off a bound of some variable, raises ValueError.  Prepared here: the
    float matrix of the rows that can bind (it seeds each solve's working
    matrix and serves its final row check), the cost, the variable box,
    which rows are empty or vacuous, and the warm start with the
    activities of the rows that can bind.
    :meth:`solve` then takes one set of row windows in the same integer
    form, whose absent bounds must be those of ``rows``.
    """

    def __init__(
        self,
        objective: tuple,
        offset,
        rows: Sequence,
        var_bounds: Sequence,
        warm_start: Sequence | None = None,
    ):
        costs, cost_denom = objective
        n = len(costs)
        self.num_vars = n
        self.objective = tuple(c / cost_denom for c in costs)
        self.offset = float(offset)
        self.num_rows = len(rows)
        self.absent = tuple((lo is None, hi is None) for _, lo, hi, _ in rows)
        self.kept: list[int] = []
        self.empty: list[int] = []
        # The float matrix is filled from each row's nonzero pairs, at
        # their offsets in the flattened matrix.
        offsets: list[int] = []
        values: list[float] = []
        for i, (coeffs, lo, hi, denom) in enumerate(rows):
            if lo is None and hi is None:
                continue  # vacuous row
            if not coeffs:
                self.empty.append(i)
                continue
            base = len(self.kept) * n
            self.kept.append(i)
            for j, c in coeffs:
                offsets.append(base + j)
                values.append(c / denom)
        flat = np.zeros(len(self.kept) * n)
        flat[offsets] = values
        self.matrix = flat.reshape(len(self.kept), n)
        self.var_lb = np.array([float(lo) for lo, _ in var_bounds])
        self.var_ub = np.array([float(hi) for _, hi in var_bounds])
        self.cost = np.array([-c for c in self.objective])  # minimizes -c.x
        self.warm_activity = None
        if warm_start is not None:
            x, activities = warm_start
            if len(x) != n or len(activities) != len(rows):
                raise ValueError(
                    f"warm start length {len(x)} with {len(activities)} "
                    f"activities, expected {n} with {len(rows)}"
                )
            if any(v != lo and v != hi for v, (lo, hi) in zip(x, var_bounds)):
                raise ValueError("warm start off its variable bounds")
            self.warm_x = np.array([float(v) for v in x])
            self.warm_at_upper = np.array(
                [v == hi for v, (_, hi) in zip(x, var_bounds)]
            )
            self.warm_activity = [activities[i] for i in self.kept]
            self.warm_activity_float = np.array(
                [a / d for a, d in self.warm_activity]
            )

    def slack_bounds(self, windows: Sequence) -> tuple:
        """Float lower and upper bounds of the kept rows' slacks, each
        bound an integer divided by its denominator; infinite where
        absent."""
        kept = [windows[i] for i in self.kept]
        return (
            np.array(
                [-math.inf if lo is None else lo / d for lo, _, d in kept]
            ),
            np.array(
                [math.inf if hi is None else hi / d for _, hi, d in kept]
            ),
        )

    def warm_fits(self, windows: Sequence) -> bool:
        """Whether the warm start's exact activity lies in every kept
        row's window, compared as integers: a / ad >= lo / d exactly when
        a * d >= lo * ad, both denominators being positive."""
        if self.warm_activity is None:
            return False
        return all(
            (lo is None or a * d >= lo * ad)
            and (hi is None or a * d <= hi * ad)
            for (a, ad), (lo, hi, d) in zip(
                self.warm_activity, (windows[i] for i in self.kept)
            )
        )

    def solve(self, windows: Sequence) -> LpSolution:
        """Solve with rows lo_i <= a_i . x <= hi_i for the given (lower,
        upper, denom) windows, one per row.

        Returns status optimal / infeasible / unbounded /
        numerical-failure.  The optimal y is clamped into the variable box
        and satisfies every row within FEAS_TOL; otherwise the status says
        numerical-failure.
        """
        if len(windows) != self.num_rows or any(
            (lo is None, hi is None) != absent
            for (lo, hi, _), absent in zip(windows, self.absent)
        ):
            raise ValueError("windows do not match the prepared rows")
        for i in self.empty:
            lo, hi, _ = windows[i]
            if (lo is not None and lo > 0) or (hi is not None and hi < 0):
                # Empty row whose bounds exclude zero: trivially infeasible.
                floor = tuple(self.var_lb.tolist())
                return LpSolution(INFEASIBLE, floor, None)
        n, m = self.num_vars, len(self.kept)
        sx = _Simplex(self, *self.slack_bounds(windows))
        max_iterations = 50 * (self.num_rows + n)

        if self.warm_fits(windows):
            sx.val[:n] = self.warm_x
            sx.at_upper[:n] = self.warm_at_upper
            sx.val[n : n + m] = np.clip(
                self.warm_activity_float, sx.lb[n : n + m], sx.ub[n : n + m]
            )
            sx.ub[n + m :] = 0.0
            sx.set_basis(range(n, n + m), np.full(m, -1.0))
        else:
            # Cold start, as the module docstring says: the lower bound wins
            # a tie, and __init__ dropped every row with no finite bound.
            lo, hi = sx.lb[n : n + m], sx.ub[n : n + m]
            upper = np.isinf(lo) | (np.abs(hi) < np.abs(lo))
            target = np.where(upper, hi, lo)
            sx.val[:n] = sx.lb[:n]
            sx.val[n : n + m] = target
            sx.at_upper[n : n + m] = upper
            residual = target - self.matrix @ sx.lb[:n]
            signs = np.where(residual < 0, -1.0, 1.0)
            sx.M[range(m), range(n + m, n + 2 * m)] = signs
            sx.val[n + m :] = residual * signs  # a -0.0 residual stays -0.0
            sx.set_basis(range(n + m, n + 2 * m), signs)
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


def box_optimum(objective: tuple, offset, warm_start: Sequence) -> LpSolution:
    """The optimum :meth:`PreparedLp.solve` returns from ``warm_start``
    when no row can cut the box [0,1]^n; ``objective`` is (coeffs, denom)
    as :class:`PreparedLp` takes it.

    With only slacks basic the duals are zero and no row limits a ratio
    test, so every pivot is a bound flip: y_j becomes 1 where the cost
    exceeds DUAL_TOL, 0 where it is below -DUAL_TOL, and stays at the
    warm start otherwise.
    """
    coeffs, denom = objective
    costs = [c / denom for c in coeffs]
    y = tuple(
        1.0 if c > DUAL_TOL else 0.0 if c < -DUAL_TOL else float(v)
        for c, v in zip(costs, warm_start)
    )
    return LpSolution(OPTIMAL, y, _objective_value(costs, offset, y))


def _objective_value(objective, offset, y) -> float:
    return sum(float(c) * v for c, v in zip(objective, y)) + float(offset)


def _clamped(sx: _Simplex) -> tuple:
    out = []
    for j in range(sx.n):
        lo, hi = sx.lb[j], sx.ub[j]
        out.append(min(max(sx.val[j], lo), hi))
    return tuple(out)
