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
else (objective, offset, and per row its coefficients, centre, depths and
exact range over the box) and is built once per solve; ``model(eps)``
derives the LP of one budget.  Once every row's range over [0,1]^n lies
strictly inside its window, no row can cut the box: the first grid budget
where that holds is the saturation budget, and it holds for every larger
budget since the windows nest.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lpsolve import LpModel
from .poly import DecompositionTree, Polynomial, decompose, evaluate
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
    coeffs . x over [0,1]^n.
    """

    key: tuple
    coeffs: tuple
    lower: Fraction | None
    upper: Fraction | None
    widening: tuple
    low: Fraction
    high: Fraction


def _row(key, coeffs, lower, upper, widening) -> Row:
    low = sum((c for c in coeffs if c < 0), Fraction(0))
    high = sum((c for c in coeffs if c > 0), Fraction(0))
    return Row(key, tuple(coeffs), lower, upper, widening, low, high)


@dataclass(frozen=True)
class Relaxation:
    """The part of the oracle-centered LP that no error budget changes.

    Built once per solve; ``model(eps)`` adds the tolerances of one budget.
    """

    n: int
    beta: Fraction
    objective: tuple
    offset: Fraction
    rows: tuple

    def windows(self, eps: int) -> list:
        """(lower, upper) of every row at budget eps; one tolerance call
        per distinct (degree, depth)."""
        radius: dict = {}
        out = []
        for row in self.rows:
            width = Fraction(0)
            for degree, depth, count in row.widening:
                if (degree, depth) not in radius:
                    radius[degree, depth] = tolerance(
                        self.beta, self.n, degree, depth, eps
                    )
                width += count * radius[degree, depth]
            out.append(
                (
                    None if row.lower is None else row.lower - width,
                    None if row.upper is None else row.upper + width,
                )
            )
        return out

    def model(self, eps: int) -> LpModel:
        return LpModel(
            num_vars=self.n,
            var_bounds=((Fraction(0), Fraction(1)),) * self.n,
            rows=tuple(
                (row.coeffs, lo, hi)
                for row, (lo, hi) in zip(self.rows, self.windows(eps))
            ),
            objective=self.objective,
            offset=self.offset,
        )

    def saturated(self, eps: int) -> bool:
        """Whether every row's range over the box lies strictly inside its
        window at budget eps, so that no row can cut [0,1]^n."""
        return all(
            (lo is None or lo < row.low) and (hi is None or row.high < hi)
            for row, (lo, hi) in zip(self.rows, self.windows(eps))
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


def _linearization(tree: DecompositionTree, key, point) -> tuple:
    """Coefficient vector and constant of c_I + sum_j x_j * p_(I,j)(xhat)."""
    node = tree.nodes[key]
    coeffs = [Fraction(0)] * tree.root.n
    for j in node.children:
        coeffs[j] = evaluate(tree.nodes[key + (j,)].poly, point)
    return coeffs, node.constant


def _component_rows(tree: DecompositionTree, point) -> list[Row]:
    d = tree.root.degree
    rows = []
    for key in tree.component_keys():
        if len(key) > d - 1:
            continue
        coeffs, _ = _linearization(tree, key, point)
        # p_I(xhat) - c_I by the reconstruction identity.
        center = sum((c for c, v in zip(coeffs, point) if v), Fraction(0))
        rows.append(_row(key, coeffs, center, center, ((d, len(key), 1),)))
    return rows


def prepare_relaxation(
    tree: DecompositionTree, xhat: Sequence, beta: Fraction | int
) -> Relaxation:
    """Objective, offset and component rows of the relaxation around xhat."""
    n = tree.root.n
    point = _check_prediction(xhat, n)
    objective, offset = _linearization(tree, (), point)
    return Relaxation(
        n, Fraction(beta), tuple(objective), offset,
        tuple(_component_rows(tree, point)),
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


def prepare_constrained_relaxation(
    prog: ConstrainedProgram, xhat: Sequence, beta: Fraction | int
) -> Relaxation:
    """Objective relaxation plus relaxed windows for each side constraint.

    Each constraint polynomial is decomposed on its own, once; its
    linearized top level q_c must stay within [lower - delta_c, upper +
    delta_c] where delta_c is the sum of the constraint's component
    tolerances, and its components obey the same per-tuple rows as the
    objective's.
    """
    base = prepare_relaxation(decompose(prog.objective), xhat, beta)
    point = _check_prediction(xhat, base.n)
    rows = list(base.rows)
    for poly, lower, upper in prog.constraints:
        tree = decompose(poly.with_degree(constraint_degree(poly)))
        components = _component_rows(tree, point)
        depths = Counter(len(row.key) for row in components)
        top, top_const = _linearization(tree, (), point)
        rows.append(
            _row(
                (),
                top,
                None if lower is None else lower - top_const,
                None if upper is None else upper - top_const,
                tuple(
                    (tree.root.degree, depth, count)
                    for depth, count in sorted(depths.items())
                ),
            )
        )
        rows.extend(components)
    return Relaxation(
        base.n, base.beta, base.objective, base.offset, tuple(rows)
    )


def build_constrained_relaxation(
    prog: ConstrainedProgram,
    xhat: Sequence,
    eps: int,
    beta: Fraction | int,
) -> LpModel:
    """The constrained LP for one error budget; see
    :func:`prepare_constrained_relaxation`."""
    return prepare_constrained_relaxation(prog, xhat, beta).model(eps)


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

