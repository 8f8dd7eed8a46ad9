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
The row split sets apart the rows with one coefficient: they only bound
a variable, so a solve turns their windows into exact bounds by integer
cross-multiplication, intersects them with the box and, when that leaves
a variable no room, returns infeasible without a pivot.  The simplex
holds only the other, general, rows (the presolve of Brearley, Mitra &
Williams, Math. Prog. 8, 1975).
Its ``solve(windows)`` then does one LP, so a caller that solves the same
rows under many windows (the pipeline, one per error budget) converts
and checks them once.  Crossed variable bounds, and a warm start x-hat
off a bound of some variable, raise ValueError.  Every solve starts at
x-hat clipped into the tightened box, so each structural sits at a
bound, and each general row's slack at its activity there clipped into
its window.  A row that x-hat breaks, judged in integers when no
coordinate moved and in floats otherwise, puts its slack at the bound it
breaks and its artificial in the basis, holding the residual; phase 1
prices only those artificials (Wolfe, SIAM Review 7, 1965; Bixby, ORSA
J. Comput. 4, 1992).  Every other row's slack is basic.

A float optimum's last bits depend on the order in which the BLAS sums.
So an optimum within SNAP_TOL of a Boolean point z is read exactly: when
z lies in the tightened box and in every general row's window, compared
in integers, and its exact objective is within relative SNAP_TOL of the
float one, the solution is z, valued at the correctly rounded float of
its exact objective, as :func:`box_optimum` values its point.  Otherwise
the float optimum stands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

FEAS_TOL = 1e-7  # row feasibility, matches the reported certificate
DUAL_TOL = 1e-9  # reduced-cost threshold for entering candidates
PIVOT_TOL = 1e-10  # smallest usable pivot magnitude
SNAP_TOL = 1e-9  # an optimum this near a Boolean point is read exactly
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
    [n+m, n+2m) artificial, each artificial fixed at 0 until the start
    frees it.  ``basis``, each row's basic column, is the one record of
    the basis; the start sets it and ``Binv`` first."""

    def __init__(self, lp: PreparedLp, var_lb, var_ub, slack_lb, slack_ub):
        n, m = lp.num_vars, len(lp.general)
        self.n, self.m = n, m
        total = n + 2 * m
        self.M = np.zeros((m, total))
        self.M[:, :n] = lp.matrix
        self.M[range(m), range(n, n + m)] = -1.0
        self.lb = np.concatenate((var_lb, slack_lb, np.zeros(m)))
        self.ub = np.concatenate((var_ub, slack_ub, np.zeros(m)))
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
    ``var_bounds`` holds an exact (lo, hi) per variable, lo <= hi or
    ValueError.  ``warm_start`` is (x, activities): a point x at a bound
    of every variable and, per row, its exact activity a_i . x as
    (numerator, positive denominator); an x or an activity list of the
    wrong length, or an x off a bound of some variable, raises
    ValueError.  Prepared here: which rows are empty or vacuous and which
    of the others have one coefficient (``singles``) or more
    (``general``); the float matrix of the general rows (it seeds each
    solve's working matrix and serves its final row check), the cost, the
    variable box, and the warm start with the general rows' activities.
    :meth:`solve` then takes one set of row windows in the same integer
    form, whose absent bounds must be those of ``rows``.
    """

    def __init__(
        self,
        objective: tuple,
        offset,
        rows: Sequence,
        var_bounds: Sequence,
        warm_start: Sequence,
    ):
        costs, cost_denom = objective
        n = len(costs)
        self.num_vars = n
        self.exact_objective = objective, offset
        self.objective = tuple(c / cost_denom for c in costs)
        self.offset = float(offset)
        self.rows = rows
        self.num_rows = len(rows)
        self.absent = tuple((lo is None, hi is None) for _, lo, hi, _ in rows)
        self.empty: list[int] = []
        self.general: list[int] = []
        self.singles: list[tuple] = []  # (row, j, c, denom)
        self.denoms: list[int] = []  # of the general rows
        # The float matrix is filled from each general row's nonzero pairs,
        # at their offsets in the flattened matrix.
        offsets: list[int] = []
        values: list[float] = []
        for i, (coeffs, lo, hi, denom) in enumerate(rows):
            if lo is None and hi is None:
                continue  # vacuous row
            if not coeffs:
                self.empty.append(i)
                continue
            if len(coeffs) == 1:
                self.singles.append((i, *coeffs[0], denom))
                continue
            base = len(self.general) * n
            self.general.append(i)
            self.denoms.append(denom)
            for j, c in coeffs:
                offsets.append(base + j)
                values.append(c / denom)
        flat = np.zeros(len(self.general) * n)
        flat[offsets] = values
        self.matrix = flat.reshape(len(self.general), n)
        self.box = tuple(var_bounds)
        if any(lo > hi for lo, hi in self.box):
            raise ValueError("variable bounds crossed")
        lows, highs = zip(*self.box) if self.box else ((), ())
        self.var_lb = np.array(lows, dtype=float)
        self.var_ub = np.array(highs, dtype=float)
        self.cost = np.array([-c for c in self.objective])  # minimizes -c.x
        x, activities = warm_start
        if len(x) != n or len(activities) != len(rows):
            raise ValueError(
                f"warm start length {len(x)} with {len(activities)} "
                f"activities, expected {n} with {len(rows)}"
            )
        if any(v != lo and v != hi for v, (lo, hi) in zip(x, var_bounds)):
            raise ValueError("warm start off its variable bounds")
        self.warm_x = np.array(x, dtype=float)
        self.warm_activity = [activities[i] for i in self.general]
        self.warm_activity_float = np.array(
            [a / d for a, d in self.warm_activity]
        )

    def slack_bounds(self, windows: Sequence) -> tuple:
        """Float lower and upper bounds of the general rows' slacks, each
        bound an integer divided by its denominator; infinite where
        absent."""
        kept = [windows[i] for i in self.general]
        return (
            np.array(
                [-math.inf if lo is None else lo / d for lo, _, d in kept]
            ),
            np.array(
                [math.inf if hi is None else hi / d for _, hi, d in kept]
            ),
        )

    @functools.cached_property
    def integer(self) -> np.ndarray | None:
        """The general rows' numerators c as an int64 matrix, or None.

        A float entry is c / denom correctly rounded; times denom, it lies
        within |c| * 2^-52 of c, so it rounds back to c while |c| < 2^51
        and denom < 2^53, exact as a float.  The matrix is given when
        every such product is below 2^50 / n, so that a row's sum over a
        Boolean point is exact too; otherwise it is None.
        """
        n = max(self.num_vars, 1)
        if max(self.denoms, default=1) >= 2**53:
            return None
        scaled = self.matrix * np.array(self.denoms, dtype=float)[:, None]
        if np.max(np.abs(scaled), initial=0.0) >= 2**50 / n:
            return None
        return np.rint(scaled).astype(np.int64)

    def presolve(self, windows: Sequence) -> tuple | None:
        """The box tightened by the one-coefficient rows' windows, or None
        when it is empty or an empty row's window excludes zero.

        A row lo / d <= (c / denom) x_j <= hi / d bounds x_j by lo * denom
        / (c * d) and hi * denom / (c * d), swapped and negated for c < 0.
        Returns (var_lb, var_ub, lower, upper): lower and upper map each
        variable to the tightest of those bounds, an exact (num, den) with
        den > 0, found by cross-multiplying; var_lb and var_ub are the
        box's floats with each bound tighter than the box put in as num /
        den.  An empty box is found exactly, in the same integers.
        """
        for i in self.empty:
            lo, hi, _ = windows[i]
            if (lo is not None and lo > 0) or (hi is not None and hi < 0):
                return None
        lower: dict = {}
        upper: dict = {}
        for i, j, c, denom in self.singles:
            lo, hi, d = windows[i]
            if c < 0:  # c x in [lo, hi] is -c x in [-hi, -lo]
                lo, hi = (
                    None if hi is None else -hi, None if lo is None else -lo
                )
                c = -c
            if lo is not None:
                bound = lower.get(j)
                if bound is None or lo * denom * bound[1] > bound[0] * c * d:
                    lower[j] = lo * denom, c * d
            if hi is not None:
                bound = upper.get(j)
                if bound is None or hi * denom * bound[1] < bound[0] * c * d:
                    upper[j] = hi * denom, c * d
        var_lb, var_ub = self.var_lb.copy(), self.var_ub.copy()
        for j, (num, den) in lower.items():
            lo, hi = self.box[j]
            bound = upper.get(j)
            if num > hi * den or (
                bound is not None and num * bound[1] > bound[0] * den
            ):
                return None
            if num > lo * den:
                var_lb[j] = num / den
        for j, (num, den) in upper.items():
            lo, hi = self.box[j]
            if num < lo * den:
                return None
            if num < hi * den:
                var_ub[j] = num / den
        return var_lb, var_ub, lower, upper

    def broken(self, windows: Sequence) -> tuple:
        """Two masks over the general rows: whether the warm start's exact
        activity lies below, and above, the row's window, compared as
        integers: a / ad < lo / d exactly when a * d < lo * ad, both
        denominators being positive."""
        below, above = [], []
        for (a, ad), i in zip(self.warm_activity, self.general):
            lo, hi, d = windows[i]
            below.append(lo is not None and a * d < lo * ad)
            above.append(hi is not None and a * d > hi * ad)
        return np.array(below, dtype=bool), np.array(above, dtype=bool)

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
        presolved = self.presolve(windows)
        if presolved is None:
            return LpSolution(INFEASIBLE, tuple(self.var_lb.tolist()), None)
        var_lb, var_ub, *exact_bounds = presolved
        n, m = self.num_vars, len(self.general)
        slack_lb, slack_ub = self.slack_bounds(windows)
        sx = _Simplex(self, var_lb, var_ub, slack_lb, slack_ub)
        max_iterations = 50 * (self.num_rows + n)

        # The start, as the module docstring says.
        x = np.clip(self.warm_x, var_lb, var_ub)
        if np.array_equal(x, self.warm_x):
            activity = self.warm_activity_float
            below, above = self.broken(windows)
        else:
            activity = self.matrix @ x
            below, above = activity < slack_lb, activity > slack_ub
        slack = np.clip(activity, slack_lb, slack_ub)
        rows = np.flatnonzero(below | above)
        residual = slack[rows] - activity[rows]
        signs = np.full(m, -1.0)
        signs[rows] = np.where(residual < 0, -1.0, 1.0)
        sx.val[:n] = x
        sx.at_upper[:n] = x == var_ub
        sx.val[n : n + m] = slack
        sx.at_upper[n : n + m] = above
        sx.ub[n + m + rows] = math.inf
        sx.M[rows, n + m + rows] = signs[rows]
        sx.val[n + m + rows] = residual * signs[rows]  # -0.0 stays -0.0
        basis = np.arange(n, n + m)
        basis[rows] += m
        sx.set_basis(basis, signs)
        if rows.size:
            phase1 = np.zeros(n + 2 * m)
            phase1[n + m + rows] = 1.0
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
        # Only the general rows can be broken: a one-coefficient row holds
        # through the box, an empty row's window holds zero (presolve
        # checked it) and a vacuous row has none.
        yv = np.asarray(y)
        activity = self.matrix @ yv
        worst = max(
            np.max(sx.lb[n : n + m] - activity, initial=0.0),
            np.max(activity - sx.ub[n : n + m], initial=0.0),
        )
        if worst > FEAS_TOL:
            return LpSolution(NUMERICAL_FAILURE, y, None, sx.iterations)
        value = _objective_value(self.objective, self.offset, y)
        snapped = self._snap(yv, value, windows, *exact_bounds)
        if snapped is not None:
            y, value = snapped
        return LpSolution(OPTIMAL, y, value, sx.iterations)

    def _snap(self, y, value, windows, lower, upper) -> tuple | None:
        """(z, its value) when the optimum y, an array of float objective
        value, is a Boolean point z up to float error; None otherwise.

        z is taken when y lies within SNAP_TOL of it in every coordinate,
        z lies in the box, in the exact bounds ``lower`` and ``upper``
        that :meth:`presolve` read off the one-coefficient rows and in
        every general row's window, all compared exactly, and z's exact
        objective is within relative SNAP_TOL of value.  Its value is
        then the correctly rounded float of that exact objective.
        """
        z = y >= 0.5
        if np.max(np.abs(y - z), initial=0.0) > SNAP_TOL:
            return None
        zl = z.tolist()
        if not (
            all(lo <= v <= hi for v, (lo, hi) in zip(zl, self.box))
            and all(num <= zl[j] * den for j, (num, den) in lower.items())
            and all(num >= zl[j] * den for j, (num, den) in upper.items())
        ):
            return None
        if self.integer is None:
            activities = [
                sum(c for j, c in self.rows[i][0] if zl[j])
                for i in self.general
            ]
        else:
            activities = (self.integer @ z).tolist()
        for i, denom, a in zip(self.general, self.denoms, activities):
            lo, hi, d = windows[i]
            if (lo is not None and a * d < lo * denom) or (
                hi is not None and a * d > hi * denom
            ):
                return None
        (costs, cost_denom), offset = self.exact_objective
        exact = _exact_value(costs, cost_denom, offset, zl)
        if not math.isclose(exact, value, rel_tol=SNAP_TOL):
            return None
        return tuple(map(float, zl)), exact


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
    x = [
        1 if c / denom > DUAL_TOL else 0 if c / denom < -DUAL_TOL else v
        for c, v in zip(coeffs, warm_start)
    ]
    return LpSolution(
        OPTIMAL, tuple(map(float, x)), _exact_value(coeffs, denom, offset, x)
    )


def _objective_value(objective, offset, y) -> float:
    return sum(float(c) * v for c, v in zip(objective, y)) + float(offset)


def _exact_value(coeffs, denom, offset, x) -> float:
    """The correctly rounded float of sum(c_j * x_j) / denom + offset,
    each x_j exact."""
    num, den = Fraction(offset).as_integer_ratio()
    return float(
        (sum(c * v for c, v in zip(coeffs, x) if v) * den + num * denom)
        / (denom * den)
    )


def _clamped(sx: _Simplex) -> tuple:
    """The structurals' values put into their bounds as Python's max and
    min would, a signed zero kept where it ties with its bound."""
    val, lb, ub = sx.val[: sx.n], sx.lb[: sx.n], sx.ub[: sx.n]
    val = np.where(lb > val, lb, val)
    return tuple(np.where(ub < val, ub, val).tolist())
