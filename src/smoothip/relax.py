"""LP relaxations centered on an oracle prediction.

Given the decomposition p(x) = c + sum_i x_i * p_i(x), a Boolean prediction
xhat, and an error budget eps (a bound on how many coordinates the
prediction may have wrong), the relaxation fixes every nonlinear component
at its predicted value and constrains the corresponding linearization to
stay within a tolerance of it:

    maximize  c + sum_j x_j * p_j(xhat)
    s.t.      c_I + sum_j x_j * p_(I,j)(xhat)  in  p_I(xhat) +- delta_I
              for every component tuple I with 1 <= |I| <= d - 1,
              x in [0,1]^n.

The tolerance schedule delta_I is beta * sqrt(n * eps) for the deepest
constrained level (|I| = d - 1) and 2 * beta * e * n^(d - |I| - 1/2) *
sqrt(eps) above it.  Those radii are exactly what makes the true optimum
x* feasible whenever eps is at least the prediction's Hamming error, while
the prediction itself is feasible for every eps >= 0.

Square roots and e are carried as upper rational approximations, so
feasibility of x* survives the passage to concrete numbers.  Each
polynomial side constraint adds the same component rows plus a relaxed
top-level window widened by the sum of that constraint's tolerances.

Only the tolerances depend on eps.  A :class:`Relaxation` holds everything
else (objective, offset, and per row its nonzero coefficients as (index,
value) pairs, centre, depths, exact range over the box, the prediction's
exact activity and the widening past which the row cannot cut the box) and
is built once per solve, from decomposition trees that the caller made
once per instance.  No polynomial is evaluated to build it: every node
value p_I(xhat) is computed once, bottom-up, by the reconstruction
identity p_I(xhat) = c_I + sum over j with xhat_j = 1 of p_(I,j)(xhat), as
an integer over the lcm L of the coefficient denominators.  Rows stay in
that form: every number of a row is an integer over one positive
denominator, L for a component row and the lcm of L and the bound
denominators for a side constraint's window, and the objective is integers
over L.  No Fraction is made per coefficient.  ``windows(eps)`` gives one
budget's bounds as integers over a denominator too, ``model(eps)`` turns
them and the rows into the exact Fraction LP of one budget, its rows
dense, and ``lp()`` prepares the float LP that every budget shares,
warm-started at the prediction.  Once every row's range over [0,1]^n lies
strictly inside its window, no row can cut the box: the first grid budget
where that holds is the saturation budget, and it holds for every larger
budget since the windows nest.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .lpsolve import LpModel, PreparedLp
# evaluate is not called here, since rows come from node values; the name
# stays in this module's namespace, where the benchmark's traced run
# (perfbench/layers.py) looks it up.
from .poly import (  # noqa: F401
    DecompositionTree,
    Polynomial,
    decompose,
    evaluate,
)
from .rat import E_UPPER, sqrt_upper
from .rounding import rounding_deviation_term


@dataclass(frozen=True)
class ConstrainedProgram:
    """Objective plus polynomial constraints lower <= p_c(x) <= upper.

    Either constraint bound may be None for unbounded.  All polynomials
    share the objective's variable count.
    """

    objective: Polynomial
    constraints: tuple = ()

    def __post_init__(self):
        for poly, lower, upper in self.constraints:
            if poly.n != self.objective.n:
                raise ValueError("constraint variable count mismatch")
            if lower is not None and upper is not None and lower > upper:
                raise ValueError("constraint bounds crossed")


def tolerance(
    beta: Fraction | int, n: int, d: int, tuple_len: int, eps: int
) -> Fraction:
    """Slack radius delta_I for a component at depth tuple_len = |I|.

    beta * sqrt(n * eps) at the deepest constrained level (|I| = d - 1),
    2 * beta * e * n^(d - |I| - 1/2) * sqrt(eps) above it; both via upward
    square roots, written as n^(d - |I| - 1) * sqrt(n * eps).
    """
    if not 1 <= tuple_len <= d - 1:
        raise ValueError(f"tuple length {tuple_len} outside [1, {d - 1}]")
    if not 0 <= eps <= n:
        raise ValueError(f"error budget {eps} outside [0, {n}]")
    if eps == 0:
        return Fraction(0)
    root = sqrt_upper(n * eps)
    if tuple_len == d - 1:
        return Fraction(beta) * root
    return 2 * Fraction(beta) * E_UPPER * Fraction(n) ** (d - tuple_len - 1) * root


class Row(NamedTuple):
    """One relaxation row, without its eps-dependent tolerance.

    ``coeffs`` holds the row's nonzero coefficients only, as (j, c) pairs
    in ascending j.  Every number of the row is an integer over the
    positive ``denom``: the coefficient of x_j is c / denom for its pair
    (j, c) and 0 for a j without one, the lower bound lower / denom, and
    so on.  At budget eps the row reads lower - w <= coeffs . x
    <= upper + w, where w sums count * tolerance(beta, n, degree, depth,
    eps) over the (degree, depth, count) triples in ``widening``.  A
    component row of p_I has key I, lower = upper = p_I(xhat) - c_I and
    widening ((d, |I|, 1),); a side constraint's top-level window has key
    (), its bounds minus the constraint's constant, and widens by the sum
    of that constraint's component tolerances.  [low, high] is the exact
    range of coeffs . x over [0,1]^n, and activity is coeffs . xhat, the
    prediction's value (a component row's centre).  need is max(lower -
    low, high - upper) over the bounds present, or None when both are
    absent: [low, high] lies strictly inside the row's window exactly when
    w > need / denom.
    """

    key: tuple
    coeffs: tuple
    denom: int
    lower: int | None
    upper: int | None
    widening: tuple
    low: int
    high: int
    activity: int
    need: int | None


def _row(key, coeffs, denom, lower, upper, widening, activity) -> Row:
    """The row of the nonzero (j, c) pairs ``coeffs``; every number is an
    integer over denom."""
    low = high = 0
    for _, v in coeffs:
        if v < 0:
            low += v
        else:
            high += v
    needs = []
    if lower is not None:
        needs.append(lower - low)
    if upper is not None:
        needs.append(high - upper)
    return Row(
        key, coeffs, denom, lower, upper, widening, low, high, activity,
        max(needs, default=None),
    )


@dataclass(frozen=True)
class Relaxation:
    """The part of the oracle-centered LP that no error budget changes.

    Built once per solve around the prediction xhat; the objective's
    coefficients are integers over ``denom``.  ``model(eps)`` adds the
    tolerances of one budget, and ``lp()`` prepares the LP that every
    budget shares, up to ``windows(eps)``.
    """

    n: int
    beta: Fraction
    objective: tuple
    denom: int
    offset: Fraction
    rows: tuple
    xhat: tuple

    def _widths(self, eps: int, widenings) -> dict:
        """{widening: w at budget eps} over the given distinct widenings,
        each w a Fraction; one tolerance call per distinct (degree,
        depth)."""
        radius: dict = {}
        width: dict = {}
        for widening in widenings:
            total = Fraction(0)
            for degree, depth, count in widening:
                if (degree, depth) not in radius:
                    radius[degree, depth] = tolerance(
                        self.beta, self.n, degree, depth, eps
                    )
                total += count * radius[degree, depth]
            width[widening] = total
        return width

    def windows(self, eps: int) -> list:
        """(lower, upper, denom) of every row at budget eps: its bounds
        widened by w = a / b, as integers over denom = row.denom * b, with
        None where the row has no bound."""
        width = self._widths(eps, {row.widening for row in self.rows})
        out = []
        for row in self.rows:
            w = width[row.widening]
            b = w.denominator
            slack = w.numerator * row.denom
            out.append(
                (
                    None if row.lower is None else row.lower * b - slack,
                    None if row.upper is None else row.upper * b + slack,
                    row.denom * b,
                )
            )
        return out

    def model(self, eps: int) -> LpModel:
        """The exact LP of budget eps, every number a Fraction and every
        row a dense coefficient tuple."""

        def dense(row: Row) -> tuple:
            coeffs = [Fraction(0)] * self.n
            for j, c in row.coeffs:
                coeffs[j] = Fraction(c, row.denom)
            return tuple(coeffs)

        return LpModel(
            num_vars=self.n,
            var_bounds=((Fraction(0), Fraction(1)),) * self.n,
            rows=tuple(
                (
                    dense(row),
                    None if lo is None else Fraction(lo, denom),
                    None if hi is None else Fraction(hi, denom),
                )
                for row, (lo, hi, denom) in zip(self.rows, self.windows(eps))
            ),
            objective=tuple(Fraction(c, self.denom) for c in self.objective),
            offset=self.offset,
        )

    def lp(self) -> PreparedLp:
        """The LP of every budget, warm-started at the prediction; solve
        one budget with ``lp().solve(self.windows(eps))``."""
        return PreparedLp(
            (self.objective, self.denom),
            self.offset,
            [
                (row.coeffs, row.lower, row.upper, row.denom)
                for row in self.rows
            ],
            ((0, 1),) * self.n,
            self.xhat,
        )

    def saturated(self, eps: int) -> bool:
        """Whether every row's range over the box lies strictly inside its
        window at budget eps, so that no row can cut [0,1]^n."""
        return self.saturation_budget((eps,)) is not None

    def saturation_budget(self, grid: Sequence[int]) -> int | None:
        """First eps of the ascending grid at which the relaxation is
        saturated, or None.  Windows only widen as eps grows, so every
        later budget is saturated too and a bisection finds the first.

        A row is saturated when its widening a / b exceeds its need /
        denom.  The rows that share a widening and a denominator are all
        saturated exactly when the one of largest need is, so a budget
        takes one integer comparison per such group.
        """
        needs: dict = {}
        for row in self.rows:
            if row.need is not None:
                group = (row.widening, row.denom)
                if group not in needs or row.need > needs[group]:
                    needs[group] = row.need

        def saturated(eps: int) -> bool:
            width = self._widths(eps, {widening for widening, _ in needs})
            return all(
                width[widening].numerator * denom
                > need * width[widening].denominator
                for (widening, denom), need in needs.items()
            )

        i = bisect.bisect_left(grid, True, key=saturated)
        return grid[i] if i < len(grid) else None


def prediction_point(values: Sequence, n: int | None = None) -> tuple:
    """values as a tuple of the ints 0 and 1, its length checked against
    n when n is given.

    An entry is accepted only when it equals 0 or 1 (ints, bools, NumPy
    integers, 0.0 and 1.0); any other entry (0.5, 2, -1, the string "1")
    raises ValueError instead of being truncated.
    """
    point = []
    for v in values:
        if v == 0:
            point.append(0)
        elif v == 1:
            point.append(1)
        else:
            raise ValueError(f"prediction entries must be 0 or 1, got {v!r}")
    if n is not None and len(point) != n:
        raise ValueError(f"prediction length {len(point)}, expected {n}")
    return tuple(point)


def _node_values(tree: DecompositionTree, point) -> tuple[int, dict]:
    """(L, {I: p_I(xhat) * L}) with L the lcm of the coefficient
    denominators, every node visited once.

    Reverse sorted order puts each node's children (I, j) before I, so
    the reconstruction identity p_I(xhat) = c_I + sum over j with
    xhat_j = 1 of p_(I,j)(xhat) gives each value from values already
    known.  Every c_I is a coefficient of the root, so every value is an
    integer over L.
    """
    scale = math.lcm(*(c.denominator for c in tree.root.coeffs.values()))
    values: dict = {}
    for key in sorted(tree.nodes, reverse=True):
        node = tree.nodes[key]
        total = node.constant.numerator * (scale // node.constant.denominator)
        for j in node.children:
            if point[j]:
                total += values[key + (j,)]
        values[key] = total
    return scale, values


def _linearization(tree: DecompositionTree, key, point, values) -> tuple:
    """(the pairs (j, p_(I,j)(xhat) * L) over the children j of I, in
    ascending j, whose value is nonzero, and their sum over the ones of
    xhat, (p_I(xhat) - c_I) * L)."""
    # A list first: a tuple built from a generator grows by realloc, and
    # over many predictions that fragments the heap.
    pairs = [
        (j, v) for j in tree.nodes[key].children if (v := values[key + (j,)])
    ]
    return tuple(pairs), sum(v for j, v in pairs if point[j])


def _component_rows(tree: DecompositionTree, point, scale, values) -> list:
    d = tree.root.degree
    # One widening object per depth, shared by that depth's rows.
    widening = {depth: ((d, depth, 1),) for depth in range(1, d)}
    rows = []
    for key in tree.component_keys():
        if len(key) > d - 1:
            continue
        coeffs, center = _linearization(tree, key, point, values)
        rows.append(
            _row(
                key, coeffs, scale, center, center, widening[len(key)],
                center,
            )
        )
    return rows


def build_relaxation(
    tree: DecompositionTree,
    xhat: Sequence,
    eps: int,
    beta: Fraction | int,
) -> LpModel:
    """The oracle-centered LP for one error budget.

    The prediction satisfies every row of the output exactly, so the model
    is never genuinely infeasible; growing eps only widens the rows.
    """
    return prepare_relaxation(tree, xhat, beta).model(eps)


def constraint_degree(poly: Polynomial) -> int:
    """Degree at which a side constraint enters the schedule; linear
    constraints are treated as (vacuously) quadratic since the schedule
    needs d >= 2."""
    return max(2, poly.degree)


def constraint_trees(constraints) -> tuple:
    """(tree, lower, upper) per (poly, lower, upper) side constraint, each
    polynomial decomposed at its :func:`constraint_degree`."""
    return tuple(
        (decompose(poly.with_degree(constraint_degree(poly))), lower, upper)
        for poly, lower, upper in constraints
    )


def prepare_relaxation(
    tree: DecompositionTree,
    xhat: Sequence,
    beta: Fraction | int,
    constraints: Sequence = (),
) -> Relaxation:
    """Objective, offset and component rows of the relaxation around xhat,
    then relaxed windows for each side constraint.

    ``tree`` decomposes the objective and ``constraints`` holds one
    (tree, lower, upper) per side constraint, as :func:`constraint_trees`
    gives them, so nothing is decomposed here.  A constraint's linearized
    top level q_c must stay within [lower - delta_c, upper + delta_c]
    where delta_c is the sum of the constraint's component tolerances, and
    its components obey the same per-tuple rows as the objective's.
    """
    n = tree.root.n
    point = prediction_point(xhat, n)
    scale, values = _node_values(tree, point)
    coeffs, _ = _linearization(tree, (), point, values)
    objective = [0] * n
    for j, v in coeffs:
        objective[j] = v
    rows = _component_rows(tree, point, scale, values)
    for side, lower, upper in constraints:
        side_scale, values = _node_values(side, point)
        components = _component_rows(side, point, side_scale, values)
        depths = Counter(len(row.key) for row in components)
        top, activity = _linearization(side, (), point, values)
        # The window's bounds join the row over one denominator.
        bounds = [
            None if b is None else Fraction(b) - side.constant
            for b in (lower, upper)
        ]
        denom = math.lcm(
            side_scale, *(b.denominator for b in bounds if b is not None)
        )
        lower, upper = (
            None if b is None else b.numerator * (denom // b.denominator)
            for b in bounds
        )
        factor = denom // side_scale
        rows.append(
            _row(
                (),
                tuple((j, v * factor) for j, v in top),
                denom,
                lower,
                upper,
                tuple(
                    (side.root.degree, depth, count)
                    for depth, count in sorted(depths.items())
                ),
                activity * factor,
            )
        )
        rows.extend(components)
    return Relaxation(
        n, Fraction(beta), tuple(objective), scale, tree.constant,
        tuple(rows), point,
    )


def build_constrained_relaxation(
    prog: ConstrainedProgram,
    xhat: Sequence,
    eps: int,
    beta: Fraction | int,
) -> LpModel:
    """The constrained LP for one error budget; see
    :func:`prepare_relaxation`."""
    return prepare_relaxation(
        decompose(prog.objective), xhat, beta,
        constraint_trees(prog.constraints),
    ).model(eps)


def gap_bound(
    beta: Fraction | int, n: int, d: int, eps: int
) -> Fraction:
    """Additive bound 2 * eta * beta * n^(d - 1/2) * sqrt(eps) on how far
    the LP optimum can fall below the true optimum, eta = 2e(d - 2) + 1.

    For d = 2 this is 2 * beta * n^(3/2) * sqrt(eps).  Computed with the
    same upward approximations the tolerances use, so it upper-bounds the
    slack actually granted to the LP.
    """
    if d < 2:
        raise ValueError("gap bound needs degree >= 2")
    if eps == 0:
        return Fraction(0)
    eta = 2 * E_UPPER * (d - 2) + 1
    return 2 * eta * Fraction(beta) * Fraction(n) ** (d - 1) * sqrt_upper(n * eps)


def constraint_violation_bound(
    beta: Fraction | int, n: int, d: int, eps: int, k: Fraction | int
) -> Fraction:
    """How far a rounded solution can land outside a degree-d constraint
    window: eta * beta * n^(d - 1/2) * sqrt(eps) of relaxation slack plus
    eta * beta * n^(d - 1) * sqrt((k + 1) / 2) * sqrt(n ln n) of rounding
    deviation."""
    if d < 2:
        raise ValueError("violation bound needs degree >= 2")
    eta = 2 * E_UPPER * (d - 2) + 1
    slack = (
        eta * Fraction(beta) * Fraction(n) ** (d - 1) * sqrt_upper(n * eps)
        if eps > 0
        else Fraction(0)
    )
    return slack + rounding_deviation_term(beta, n, d, k)

