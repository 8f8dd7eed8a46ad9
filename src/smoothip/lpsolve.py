"""Self-contained LP solver for the relaxations built by this package.

Models are boxes plus two-sided linear rows: maximize c^T x + offset over
a box of per-variable bounds l_j <= x_j <= u_j subject to lo_i <= a_i^T x
<= hi_i.  The solver takes the rows in compressed row storage, integers
over one positive denominator per row, works in floats and the caller
re-evaluates objectives exactly after rounding, so float error never
leaks into a reported bound.  An :class:`LpModel`, an LP in Fractions,
is a record for reference; the solver does not read it.

The algorithm is a bounded-variable revised simplex.  Every row gets a slack
variable (a_i^T x - s_i = 0 with s_i carrying the row bounds) and an
artificial for the two-phase start; pricing is Dantzig throughout, and a
solve that has not ended after 50 pivots per row and per variable returns
numerical-failure.  A basis inverse is kept explicitly and refreshed
periodically.  The solver is deterministic: fixed pivot rules, no
randomization.

Each step of a pivot is one numpy pass.  Columns are priced once per
basis inverse: a bound flip keeps the duals, so it only negates its own
column's score (Maros, Computational Techniques of the Simplex Method,
2003).  The ratio test, after Harris (Math. Prog. 5, 1973), reads the rows
with |pivot| > PIVOT_TOL: when no ratio lies 1e-12 below the entering
column's range, that column flips; otherwise, of the rows whose ratio is
the smallest or below it plus 1e-12 (a sum that rounds to the smallest
from 2**14 on), the one of larger |pivot|, then of smaller basic column,
leaves, whatever the order of the rows.  The rank-one update
of the inverse is dense: a row whose multiplier is zero subtracts an exact
zero, which can change only the sign of a zero entry.  No comparison reads
that sign, and a refresh rebuilds the inverse.

:class:`PreparedLp` is the one way in; it prepares once everything but
the row windows.  Every float in it is an integer over an integer
divided once, correctly rounded, so it is the float of the exact Fraction.
Each row's count of coefficients sets apart the rows with one: they bound
a variable, so a solve turns their windows into exact bounds by integer
cross-multiplication, intersects them with the box and, when that leaves
a variable no room or a general row's window is crossed, returns
infeasible without a pivot.  The simplex holds only the other, general,
rows (the presolve of Brearley, Mitra & Williams, Math. Prog. 8, 1975).
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
z lies in the tightened box and in every general row's window, by the
integer test that judges x-hat, and its exact objective is within
relative SNAP_TOL of the float one, the solution is z, valued at the
correctly rounded float of its exact objective, as :func:`box_optimum`
values its point.  Otherwise the float optimum stands.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

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

    def refresh(self) -> bool:
        """Invert the basis again and solve for the basic values."""
        if self.basis.size and not self.set_basis(self.basis):
            return False
        v = self.val.copy()
        v[self.basis] = 0.0
        self.val[self.basis] = self.Binv @ -(self.M @ v)
        return True

    # -- core iteration ---------------------------------------------------

    def iterate(self, max_iterations: int) -> str:
        """Run to optimality for the current cost vector, pricing once per
        ``Binv`` as the module docstring says."""
        fixed = self.lb == self.ub
        score = None
        while True:
            if self.iterations >= max_iterations:
                return NUMERICAL_FAILURE
            self.iterations += 1
            rebuild = self.iterations % REFRESH_EVERY == 0
            if rebuild and not self.refresh():
                return NUMERICAL_FAILURE
            if rebuild or score is None:
                duals = self.cost[self.basis] @ self.Binv
                score = self._score(self.cost - duals @ self.M, fixed)
            j = int(np.argmax(score))  # first maximum
            if not score[j] > DUAL_TOL:
                return OPTIMAL
            sigma = -1.0 if self.at_upper[j] else 1.0
            w = self.Binv @ self.M[:, j]
            delta, leave_pos, leave_to_upper = self._ratio_test(j, sigma, w)
            if math.isinf(delta):
                return UNBOUNDED
            self.val[self.basis] -= sigma * delta * w
            self.val[j] += sigma * delta

            if leave_pos < 0:
                # Bound-to-bound move of the entering variable.
                self.at_upper[j] = not self.at_upper[j]
                self.val[j] = self.ub[j] if self.at_upper[j] else self.lb[j]
                score[j] = -score[j]
                continue

            leaving = self.basis[leave_pos]
            self.val[leaving] = (
                self.ub[leaving] if leave_to_upper else self.lb[leaving]
            )
            self.at_upper[leaving] = leave_to_upper
            self.basis[leave_pos] = j
            self._update_inverse(leave_pos, w)
            score = None

    def _score(self, reduced, fixed):
        """Dantzig's scores, the only pricing rule: the reduced costs signed
        so that a positive score improves, -inf at a basic or ``fixed``
        column.  Nothing else guards against cycling; a solve ends at the
        pivot cap of :meth:`PreparedLp.solve`."""
        score = np.where(self.at_upper, reduced, -reduced)
        score[self.basis] = -math.inf
        score[fixed] = -math.inf
        return score

    def _ratio_test(self, j, sigma, w):
        """(step, leaving position or -1, whether it leaves at its upper
        bound) for the entering column j moving by delta >= 0 along sigma,
        by the ratio rule of the module docstring."""
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
        span = self.ub[j] - self.lb[j]
        lowest = np.fmin.reduce(ratios, initial=span)  # NaNs skipped
        if not lowest < span - 1e-12:
            return span, -1, False
        # The tied rows first, then the larger |pivot|, the smaller column.
        tied = (ratios < lowest + 1e-12) | (ratios == lowest)
        k = np.lexsort((cols, -np.abs(piv), ~tied))[0]
        return float(ratios[k]), int(rows[k]), bool(hits_upper[k])

    def _update_inverse(self, leave_pos, w):
        """Rank-1 update of Binv after the column at leave_pos left, dense
        as the module docstring says: the pivot row divided by the pivot
        is eliminated from every row, then put in its place."""
        row = self.Binv[leave_pos] / w[leave_pos]
        self.Binv -= np.outer(w, row)
        self.Binv[leave_pos] = row


class SparseRows(NamedTuple):
    """An LP's rows in compressed row storage (Duff, Erisman & Reid,
    1986): row i's nonzero coefficients are ``coeff[start[i]:start[i +
    1]]``, in ascending ``column``, and its bounds ``lower[i]`` and
    ``upper[i]`` (None when absent), all integers over the positive
    ``denom[i]``; ``coeff`` is int64 or Python ints, the rest objects."""

    start: np.ndarray
    column: np.ndarray
    coeff: np.ndarray
    denom: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


class PreparedLp:
    """The part of an LP that its row windows do not change, prepared once.

    ``objective`` is (coeffs, denom), one integer coefficient per
    variable, and ``rows`` a :class:`SparseRows`.  ``var_bounds`` holds an
    exact (lo, hi) per variable, lo <= hi or ValueError.  The warm start
    ``x`` is a point at a bound of every variable, or ValueError, as is an
    x of the wrong length.  Prepared here, from each row's count of
    coefficients: which rows with a bound have none (``empty``), one
    (``singles``, as (row, j, c, denom)) or more (``general``); the
    general rows' numerators, row i over ``denoms[i]``, as the one exact
    matrix ``integer`` and the float ``matrix`` read off it (it seeds each
    solve's working matrix and serves its final row check); the cost, the
    variable box, and x's exact activities ``integer @ X`` over each row's
    denom * D, for X x over one denominator D (1 for a 0/1 point).
    :meth:`solve` then takes one set of row windows, (lower, upper, denom)
    arrays of one entry per row, None exactly where ``rows`` has no bound
    (``present`` holds where it has one).
    """

    def __init__(
        self,
        objective: tuple,
        offset,
        rows: SparseRows,
        var_bounds: Sequence,
        x: Sequence,
    ):
        costs, cost_denom = objective
        n = len(costs)
        self.num_vars = n
        self.exact_objective = objective, offset
        self.objective = tuple(c / cost_denom for c in costs)
        self.offset = float(offset)
        self.num_rows = len(rows.denom)
        self.present = np.not_equal([rows.lower, rows.upper], None)
        bounded = self.present.any(axis=0)  # else vacuous: in none
        counts = np.diff(rows.start)
        general = bounded & (counts > 1)
        self.empty = np.flatnonzero(bounded & (counts == 0)).tolist()
        self.general = np.flatnonzero(general).tolist()
        singles = np.flatnonzero(bounded & (counts == 1))
        first = rows.start[singles]
        self.singles = list(zip(  # (row, j, c, denom)
            singles.tolist(), rows.column[first].tolist(),
            rows.coeff[first].tolist(), rows.denom[singles].tolist(),
        ))
        # Each general row's entries go to its position among them.
        kept = np.repeat(general, counts)
        position = np.repeat(np.cumsum(general) - 1, counts)
        values = rows.coeff[kept]
        self.denoms = rows.denom[general].tolist()
        # The matrix is int64 while every denominator and |c| * n is below
        # 2^53, so that each is an exact float and a row's sum over a 0/1
        # point is exact; Python ints otherwise.  Either way the float
        # matrix is correctly rounded: IEEE division of exact floats, or
        # Python's int / int.
        peak = max(-int(values.min(initial=0)), int(values.max(initial=0))) * n
        fits = peak < 2**53 and max(self.denoms, default=1) < 2**53
        dtype = np.int64 if fits else object
        entries = position[kept], rows.column[kept]
        self.integer = np.zeros((len(self.general), n), dtype=dtype)
        self.integer[entries] = values
        denoms = np.array(self.denoms, dtype=dtype)
        self.matrix = np.zeros((len(self.general), n))
        self.matrix[entries] = values.astype(dtype) / denoms[entries[0]]
        self.box = tuple(var_bounds)
        if any(lo > hi for lo, hi in self.box):
            raise ValueError("variable bounds crossed")
        lows, highs = zip(*self.box) if self.box else ((), ())
        self.var_lb = np.array(lows, dtype=float)
        self.var_ub = np.array(highs, dtype=float)
        self.cost = np.array([-c for c in self.objective])  # minimizes -c.x
        if len(x) != n:
            raise ValueError(f"warm start length {len(x)}, expected {n}")
        if any(v != lo and v != hi for v, (lo, hi) in zip(x, var_bounds)):
            raise ValueError("warm start off its variable bounds")
        self.warm_x = np.array(x, dtype=float)
        try:
            point, scale = [operator.index(v) for v in x], 1
        except TypeError:  # a Fraction or a float coordinate
            exact = [Fraction(v) for v in x]
            scale = math.lcm(*(f.denominator for f in exact))
            point = [f.numerator * (scale // f.denominator) for f in exact]
        # integer @ X is exact: in int64 for a 0/1 X, as |c| * n < 2^53,
        # and in Python ints for any other X or an object matrix.
        X = np.array(point, dtype=np.int64 if set(point) <= {0, 1} else object)
        self.warm_activity = (self.integer @ X).tolist()
        self.warm_denoms = [d * scale for d in self.denoms]
        self.warm_activity_float = np.array(
            [a / d for a, d in zip(self.warm_activity, self.warm_denoms)]
        )

    def slack_bounds(self, windows: tuple) -> tuple:
        """Float lower and upper bounds of the general rows' slacks, each
        bound an integer divided by its denominator; infinite where
        absent."""
        lows, highs, denoms = windows
        kept = [(lows[i], highs[i], denoms[i]) for i in self.general]
        return (
            np.array(
                [-math.inf if lo is None else lo / d for lo, _, d in kept]
            ),
            np.array(
                [math.inf if hi is None else hi / d for _, hi, d in kept]
            ),
        )

    def _outside(self, activities: list, denoms: list, windows) -> tuple:
        """Two masks over the general rows: whether activities[i] /
        denoms[i] lies below, and above, row i's window, compared as
        integers: a / ad < lo / d exactly when a * d < lo * ad, both
        denominators being positive."""
        lows, highs, ds = windows
        below, above = [], []
        for a, ad, i in zip(activities, denoms, self.general):
            lo, hi, d = lows[i], highs[i], ds[i]
            below.append(lo is not None and a * d < lo * ad)
            above.append(hi is not None and a * d > hi * ad)
        return np.array(below, dtype=bool), np.array(above, dtype=bool)

    def presolve(self, windows: tuple) -> tuple | None:
        """The box tightened by the one-coefficient rows' windows, or None
        when it is empty, an empty row's window excludes zero or a general
        row's window is crossed, lower above upper as integers.

        A row lo / d <= (c / denom) x_j <= hi / d bounds x_j by lo * denom
        / (c * d) and hi * denom / (c * d), swapped and negated for c < 0.
        Returns (var_lb, var_ub, lower, upper): lower and upper map each
        variable to the tightest of those bounds, an exact (num, den) with
        den > 0, found by cross-multiplying; var_lb and var_ub are the
        box's floats with each bound tighter than the box put in as num /
        den.  An empty box is found exactly, in the same integers.
        """
        lows, highs, denoms = windows
        for i in self.empty:
            lo, hi = lows[i], highs[i]
            if (lo is not None and lo > 0) or (hi is not None and hi < 0):
                return None
        for i in self.general:
            lo, hi = lows[i], highs[i]
            if lo is not None and hi is not None and lo > hi:
                return None
        lower: dict = {}
        upper: dict = {}
        for i, j, c, denom in self.singles:
            lo, hi, d = lows[i], highs[i], denoms[i]
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

    def broken(self, windows: tuple) -> tuple:
        """Two masks over the general rows: whether the warm start's exact
        activity lies below, and above, the row's window."""
        return self._outside(self.warm_activity, self.warm_denoms, windows)

    def solve(self, windows: tuple) -> LpSolution:
        """Solve with rows lo_i <= a_i . x <= hi_i for the given windows,
        (lower, upper, denom) arrays of one entry per row.

        Returns status optimal / infeasible / unbounded /
        numerical-failure.  The optimal y is clamped into the variable box
        and satisfies every row within FEAS_TOL; otherwise the status says
        numerical-failure.
        """
        if {len(w) for w in windows} != {self.num_rows} or not np.array_equal(
            np.not_equal(windows[:2], None), self.present
        ):
            raise ValueError("windows do not match the prepared rows")
        windows = tuple(w.tolist() for w in windows)  # read row by row
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
        if status == OPTIMAL and not sx.refresh():
            status = NUMERICAL_FAILURE
        if status != OPTIMAL:
            return LpSolution(status, _clamped(sx), None, sx.iterations)
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
        value = sum(c * v for c, v in zip(self.objective, y)) + self.offset
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
        activities = (self.integer @ z).tolist()  # exact for a 0/1 z
        below, above = self._outside(activities, self.denoms, windows)
        if below.any() or above.any():
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
