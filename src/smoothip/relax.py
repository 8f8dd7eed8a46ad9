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
feasibility of x* survives the passage to concrete numbers.  The
constrained variant adds, per polynomial side constraint, the same
component rows plus a relaxed top-level window widened by the sum of that
constraint's tolerances.

Only the tolerances depend on eps.  A :class:`Relaxation` holds everything
else (objective, offset, and per row its coefficients, centre, depths,
exact range over the box, the prediction's exact activity and the widening
past which the row cannot cut the box) and is built once per solve, from
decomposition trees that the caller made once per instance.  No
polynomial is evaluated to build it: every node value p_I(xhat) is
computed once, bottom-up, by the reconstruction identity p_I(xhat) = c_I +
sum over j with xhat_j = 1 of p_(I,j)(xhat), as an integer over the lcm L
of the coefficient denominators.  Each row's coefficients, range and
activity are integer sums, turned into Fractions once when the row is
built.  ``model(eps)`` derives the LP of one budget, and ``lp()`` prepares
the float LP that every budget shares, warm-started at the prediction.
Once every row's range over [0,1]^n lies strictly inside its window, no
row can cut the box: the first grid budget where that holds is the
saturation budget, and it holds for every larger budget since the windows
nest.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# Every absent coefficient is lpsolve's ZERO, one object that the float
# matrix skips by identity.
from .lpsolve import ZERO as _ZERO, LpModel, PreparedLp
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


@dataclass(frozen=True)
class Row:
    """One relaxation row, without its eps-dependent tolerance.

    At budget eps the row reads lower - w <= coeffs . x <= upper + w, where
    w sums count * tolerance(beta, n, degree, depth, eps) over the
    (degree, depth, count) triples in ``widening``.  A component row of
    p_I has key I, lower = upper = p_I(xhat) - c_I and widening
    ((d, |I|, 1),); a side constraint's top-level window has key (), its
    bounds minus the constraint's constant, and widens by the sum of that
    constraint's component tolerances.  [low, high] is the exact range of
    coeffs . x over [0,1]^n, and activity is coeffs . xhat, the
    prediction's value (a component row's centre).  need is
    max(lower - low, high - upper) over the bounds present, or None when
    both are absent: [low, high] lies strictly inside the row's window
    exactly when w > need.
    """

    key: tuple
    coeffs: tuple
    lower: Fraction | None
    upper: Fraction | None
    widening: tuple
    low: Fraction
    high: Fraction
    activity: Fraction
    need: Fraction | None


def _row(key, n, values, scale, lower, upper, widening, activity) -> Row:
    """The row whose coefficient on x_j is values[j] / scale (0 where j is
    absent); lower, upper and activity are already Fractions."""
    low = Fraction(sum(v for v in values.values() if v < 0), scale)
    high = Fraction(sum(v for v in values.values() if v > 0), scale)
    needs = []
    if lower is not None:
        needs.append(lower - low)
    if upper is not None:
        needs.append(high - upper)
    return Row(
        key, tuple(_vector(n, values, scale)), lower, upper, widening, low,
        high, activity, max(needs, default=None),
    )


@dataclass(frozen=True)
class Relaxation:
    """The part of the oracle-centered LP that no error budget changes.

    Built once per solve around the prediction xhat; ``model(eps)`` adds
    the tolerances of one budget, and ``lp()`` prepares the LP that every
    budget shares, up to ``windows(eps)``.
    """

    n: int
    beta: Fraction
    objective: tuple
    offset: Fraction
    rows: tuple
    xhat: tuple

    def _widths(self, eps: int) -> list:
        """The widening w of every row at budget eps; one tolerance call
        per distinct (degree, depth) and one sum per distinct widening."""
        radius: dict = {}
        width: dict = {}
        for widening in dict.fromkeys(row.widening for row in self.rows):
            total = _ZERO
            for degree, depth, count in widening:
                if (degree, depth) not in radius:
                    radius[degree, depth] = tolerance(
                        self.beta, self.n, degree, depth, eps
                    )
                total += count * radius[degree, depth]
            width[widening] = total
        return [width[row.widening] for row in self.rows]

    def windows(self, eps: int) -> list:
        """(lower, upper) of every row at budget eps."""
        return [
            (
                None if row.lower is None else row.lower - width,
                None if row.upper is None else row.upper + width,
            )
            for row, width in zip(self.rows, self._widths(eps))
        ]

    def model(self, eps: int) -> LpModel:
        return self._model(self.windows(eps))

    def _model(self, windows) -> LpModel:
        return LpModel(
            num_vars=self.n,
            var_bounds=((Fraction(0), Fraction(1)),) * self.n,
            rows=tuple(
                (row.coeffs, lo, hi)
                for row, (lo, hi) in zip(self.rows, windows)
            ),
            objective=self.objective,
            offset=self.offset,
        )

    def lp(self) -> PreparedLp:
        """The LP of every budget, warm-started at the prediction, whose
        exact row activities the rows already carry; solve one budget
        with ``lp().solve(self.windows(eps))``."""
        return PreparedLp(
            self._model([(row.lower, row.upper) for row in self.rows]),
            self.xhat,
            [row.activity for row in self.rows],
        )

    def saturated(self, eps: int) -> bool:
        """Whether every row's range over the box lies strictly inside its
        window at budget eps, so that no row can cut [0,1]^n: whether each
        row's widening exceeds its need."""
        return all(
            row.need is None or width > row.need
            for row, width in zip(self.rows, self._widths(eps))
        )

    def saturation_budget(self, grid: Sequence[int]) -> int | None:
        """First eps of the ascending grid at which the relaxation is
        saturated, or None.  Windows only widen as eps grows, so every
        later budget is saturated too and a bisection finds the first."""
        i = bisect.bisect_left(grid, True, key=self.saturated)
        return grid[i] if i < len(grid) else None


def _check_prediction(xhat: Sequence, n: int) -> list[Fraction]:
    if len(xhat) != n:
        raise ValueError(f"prediction length {len(xhat)}, expected {n}")
    out = []
    for v in xhat:
        f = Fraction(v)
        if f not in (0, 1):
            raise ValueError("prediction entries must be 0 or 1")
        out.append(f)
    return out


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
    """({j: p_(I,j)(xhat) * L} over the children j of I, and its sum over
    the ones of xhat, (p_I(xhat) - c_I) * L)."""
    children = {j: values[key + (j,)] for j in tree.nodes[key].children}
    return children, sum(v for j, v in children.items() if point[j])


def _vector(n: int, values: dict, scale: int) -> list:
    """The length-n vector with values[j] / scale at each j of values."""
    out = [_ZERO] * n
    for j, v in values.items():
        if v:
            out[j] = Fraction(v, scale)
    return out


def _component_rows(tree: DecompositionTree, point, scale, values) -> list:
    d = tree.root.degree
    rows = []
    for key in tree.component_keys():
        if len(key) > d - 1:
            continue
        coeffs, activity = _linearization(tree, key, point, values)
        center = Fraction(activity, scale)
        rows.append(
            _row(
                key, tree.root.n, coeffs, scale, center, center,
                ((d, len(key), 1),), center,
            )
        )
    return rows


def prepare_relaxation(
    tree: DecompositionTree, xhat: Sequence, beta: Fraction | int
) -> Relaxation:
    """Objective, offset and component rows of the relaxation around xhat."""
    n = tree.root.n
    point = _check_prediction(xhat, n)
    scale, values = _node_values(tree, point)
    objective, _ = _linearization(tree, (), point, values)
    return Relaxation(
        n, Fraction(beta), tuple(_vector(n, objective, scale)), tree.constant,
        tuple(_component_rows(tree, point, scale, values)), tuple(point),
    )


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


def prepare_constrained_relaxation(
    tree: DecompositionTree,
    constraints: Sequence,
    xhat: Sequence,
    beta: Fraction | int,
) -> Relaxation:
    """Objective relaxation plus relaxed windows for each side constraint.

    ``tree`` decomposes the objective and ``constraints`` holds one
    (tree, lower, upper) per side constraint, as :func:`constraint_trees`
    gives them, so nothing is decomposed here.  A constraint's linearized
    top level q_c must stay within [lower - delta_c, upper + delta_c]
    where delta_c is the sum of the constraint's component tolerances, and
    its components obey the same per-tuple rows as the objective's.
    """
    base = prepare_relaxation(tree, xhat, beta)
    point = base.xhat
    rows = list(base.rows)
    for side, lower, upper in constraints:
        scale, values = _node_values(side, point)
        components = _component_rows(side, point, scale, values)
        depths = Counter(len(row.key) for row in components)
        top, activity = _linearization(side, (), point, values)
        rows.append(
            _row(
                (),
                base.n,
                top,
                scale,
                None if lower is None else lower - side.constant,
                None if upper is None else upper - side.constant,
                tuple(
                    (side.root.degree, depth, count)
                    for depth, count in sorted(depths.items())
                ),
                Fraction(activity, scale),
            )
        )
        rows.extend(components)
    return Relaxation(
        base.n, base.beta, base.objective, base.offset, tuple(rows),
        base.xhat,
    )


def build_constrained_relaxation(
    prog: ConstrainedProgram,
    xhat: Sequence,
    eps: int,
    beta: Fraction | int,
) -> LpModel:
    """The constrained LP for one error budget; see
    :func:`prepare_constrained_relaxation`."""
    return prepare_constrained_relaxation(
        decompose(prog.objective), constraint_trees(prog.constraints), xhat,
        beta,
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

