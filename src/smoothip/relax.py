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

Only the tolerances depend on eps, and much of the rest depends on the
polynomial alone.  A :class:`RelaxationPlan`, read once per polynomial
off its :class:`~smoothip.poly.ScoreTable` (by ``prepare`` in the
pipeline, once per objective and once per side constraint), holds that
part: the lcm L of the coefficient denominators, the nodes in
child-first order with their constants c_I as integers over L and their
(child, position) lists, and per component row its key, node position
and widening; a :class:`SidePlan` adds a side constraint's window.  No polynomial is
evaluated per prediction: every node value p_I(xhat) is computed once,
bottom-up, into one flat list by the reconstruction identity p_I(xhat) =
c_I + sum over j with xhat_j = 1 of p_(I,j)(xhat), as an integer over L,
and a row's centre is p_I(xhat) - c_I.  In the same pass each row's need
(how wide its window must grow before it cannot cut the box) is folded
into the largest need of its group, which is all the saturation test
reads.

A :class:`Relaxation` holds, per prediction, the objective, offset, node
values and needs, and builds its rows only when an LP reads them: per
row its nonzero coefficients as (index, value) pairs, centre, depths
and the prediction's exact activity.  Every number of a row is an
integer over one positive denominator, L for a component row and the lcm
of L and the bound denominators for a side constraint's window, and the
objective is integers over L.  No Fraction is made per
coefficient.  ``windows(eps)`` gives one budget's bounds as integers
over a denominator too, ``model(eps)`` turns them and the rows into the
exact Fraction LP of one budget, its rows dense, and ``lp()`` prepares
the float LP that every budget shares, warm-started at the prediction.
Once every row's range over [0,1]^n lies strictly inside its window, no
row can cut the box: the first grid budget where that holds is the
saturation budget, and it holds for every larger budget since the
windows nest.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .lpsolve import LpModel, PreparedLp
# decompose and evaluate are not called here, since plans are read off
# the monomials and rows come from node values; the names stay in this
# module's namespace, where the benchmark's traced run
# (perfbench/layers.py) looks them up.
from .poly import (  # noqa: F401
    DecompositionTree,
    Polynomial,
    ScoreTable,
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
    of that constraint's component tolerances.  activity is coeffs . xhat,
    the prediction's value (a component row's centre).
    """

    key: tuple
    coeffs: tuple
    denom: int
    lower: int | None
    upper: int | None
    widening: tuple
    activity: int


def _need(lower, upper, low: int, high: int) -> int | None:
    """max(lower - low, high - upper) over the bounds present, or None
    when both are absent: with [low, high] the exact range of a row's
    coeffs . x over [0,1]^n, that range lies strictly inside the row's
    window exactly when its widening w > need / denom."""
    if lower is None:
        return None if upper is None else high - upper
    return lower - low if upper is None else max(lower - low, high - upper)


def _span(values: list, children) -> tuple[int, int]:
    """(low, high): the sums of the negative and of the positive values of
    the children, given as (j, position) pairs."""
    low = high = 0
    for _, k in children:
        v = values[k]
        if v < 0:
            low += v
        else:
            high += v
    return low, high


def _pairs(values: list, children, factor: int = 1) -> tuple:
    """The (j, value * factor) pairs of the children whose value is
    nonzero, in ascending j."""
    # A list first: a tuple built from a generator grows by realloc, and
    # over many predictions that fragments the heap.
    pairs = [(j, v * factor) for j, k in children if (v := values[k])]
    return tuple(pairs)


class RelaxationPlan:
    """What the relaxation needs of one multilinear polynomial, whatever
    the prediction, read off its :class:`~smoothip.poly.ScoreTable`.

    The nodes I of the tree :func:`~smoothip.poly.decompose` builds are
    the root () and every prefix of a monomial; c_I is the coefficient
    of the monomial I, 0 when I is not one, and the children of I are
    the j with I + (j,) a node.  ``scale`` is the
    table's L, so every node value p_I(xhat) is an integer over L.  The
    nodes are numbered child-first, the reverse of their sorted order, so
    that every child (I, j) comes before I and the root is last.
    ``constants[k]`` is c_I * L for node k, and ``children`` holds (k,
    pairs) for every node k that has children, in that order, its pairs
    (j, position of (I, j)) in ascending j; ``top`` is the root's pairs.
    ``rows`` holds one (key, position, widening, pairs) per component
    row, every I with 1 <= |I| <= d - 1 in sorted order, d the table's
    declared degree, and the rows of one depth share one widening, ((d,
    |I|, 1),).  ``offset`` is the top-level constant c.  Raises
    ValueError on a polynomial that is not multilinear.  Immutable by
    convention, like :class:`~smoothip.poly.ScoreTable`; compares by
    value and pickles.
    """

    def __init__(self, table: ScoreTable):
        d = table.degree
        monomials = table.monomials
        if any(len(set(mono)) < len(mono) for mono in monomials):
            raise ValueError("the relaxation needs a multilinear polynomial")
        nodes = {(), *monomials}
        nodes.update(
            [mono[:l] for mono in monomials for l in range(1, len(mono))]
        )
        # Sorted order is preorder, so a node's parent is the last node
        # seen one level up; node keys[i] takes child-first position
        # last - i.
        keys = sorted(nodes)
        last = len(keys) - 1
        seen = [last] * (d + 1)
        children: list = [[] for _ in keys]
        for i in range(1, len(keys)):
            key = keys[i]
            seen[len(key)] = last - i
            children[seen[len(key) - 1]].append((key[-1], last - i))
        pairs = {k: tuple(kids) for k, kids in enumerate(children) if kids}
        constant = dict(zip(monomials, table.coeffs))
        widening = {depth: ((d, depth, 1),) for depth in range(1, d)}
        self.n = table.n
        self.degree = d
        self.scale = table.scale
        self.offset = Fraction(constant.get((), 0), table.scale)
        self.constants = tuple(
            [constant.get(key, 0) for key in reversed(keys)]
        )
        self.children = tuple(pairs.items())
        self.top = pairs.get(last, ())
        self.rows = tuple(
            [
                (key, last - i, widening[len(key)], pairs.get(last - i, ()))
                for i, key in enumerate(keys)
                if 1 <= len(key) <= d - 1
            ]
        )

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    __hash__ = None

    def values(self, point) -> list:
        """p_I(xhat) * L of every node, in the plan's order, by the
        reconstruction identity p_I(xhat) = c_I + sum over j with xhat_j
        = 1 of p_(I,j)(xhat), from values already known."""
        values = list(self.constants)
        for k, children in self.children:
            total = values[k]
            for j, child in children:
                if point[j]:
                    total += values[child]
            values[k] = total
        return values

    def component_rows(self, values: list) -> list:
        """The component rows at the prediction whose node values are
        ``values``: row I has centre (p_I(xhat) - c_I) * L."""
        rows = []
        for key, k, widening, children in self.rows:
            center = values[k] - self.constants[k]
            rows.append(
                Row(
                    key, _pairs(values, children), self.scale, center,
                    center, widening, center,
                )
            )
        return rows

    def fold_needs(self, values: list, needs: dict) -> None:
        """Raise needs[(widening, L)] to the need of every component row
        at these node values, without building the rows."""
        constants = self.constants
        largest: dict = {}
        for _, k, widening, children in self.rows:
            # _span and max, inlined: this loop runs for every prediction.
            low = high = 0
            for _, child in children:
                v = values[child]
                if v < 0:
                    low += v
                else:
                    high += v
            center = values[k] - constants[k]
            below, above = center - low, high - center
            need = below if below > above else above
            if need > largest.get(widening, need - 1):
                largest[widening] = need
        for widening, need in largest.items():
            _fold(needs, (widening, self.scale), need)


def _fold(needs: dict, group, need) -> None:
    if need is not None and (group not in needs or need > needs[group]):
        needs[group] = need


class SidePlan(NamedTuple):
    """A side constraint's plan and its relaxed top-level window.

    ``lower`` and ``upper`` are the bounds minus the constraint's
    constant, as integers over ``denom``, the lcm of the plan's L and the
    bounds' denominators (None for an absent bound), and ``widening`` sums
    the constraint's component tolerances as (degree, depth, count)
    triples.
    """

    plan: RelaxationPlan
    lower: int | None
    upper: int | None
    denom: int
    widening: tuple

    def top_row(self, values: list) -> Row:
        """The window's row at the prediction whose node values are
        ``values``, over denom."""
        plan = self.plan
        factor = self.denom // plan.scale
        return Row(
            (),
            _pairs(values, plan.top, factor),
            self.denom,
            self.lower,
            self.upper,
            self.widening,
            (values[-1] - plan.constants[-1]) * factor,
        )

    def fold_needs(self, values: list, needs: dict) -> None:
        """Raise needs to the window's need and to every component row's,
        at these node values, without building the rows."""
        low, high = _span(values, self.plan.top)
        factor = self.denom // self.plan.scale
        _fold(
            needs, (self.widening, self.denom),
            _need(self.lower, self.upper, low * factor, high * factor),
        )
        self.plan.fold_needs(values, needs)


@dataclass(frozen=True)
class Relaxation:
    """The part of the oracle-centered LP that no error budget changes.

    Built once per solve around the prediction xhat; the objective's
    coefficients are integers over ``denom``.  ``needs`` holds, per group
    of rows that share a widening and a denominator, the largest need
    (see :func:`_need`), and ``parts`` one (plan, node values, side plan
    or None) per polynomial, the objective first.  ``rows`` are built
    from them on first use, so a prediction saturated at every budget it
    solves never builds them.  ``model(eps)`` adds the tolerances of one
    budget, and ``lp()`` prepares the LP that every budget shares, up to
    ``windows(eps)``.
    """

    n: int
    beta: Fraction
    objective: tuple
    denom: int
    offset: Fraction
    xhat: tuple
    needs: tuple
    parts: tuple

    @cached_property
    def rows(self) -> tuple:
        """Every row: the objective's component rows, then per side
        constraint its window's row and its component rows."""
        rows = []
        for plan, values, side in self.parts:
            if side is not None:
                rows.append(side.top_row(values))
            rows.extend(plan.component_rows(values))
        return tuple(rows)

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

        def saturated(eps: int) -> bool:
            width = self._widths(eps, {widening for (widening, _), _ in self.needs})
            return all(
                width[widening].numerator * denom
                > need * width[widening].denominator
                for (widening, denom), need in self.needs
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
    return prepare_relaxation(
        RelaxationPlan(ScoreTable(tree.root)), xhat, beta
    ).model(eps)


def constraint_degree(poly: Polynomial) -> int:
    """Degree at which a side constraint enters the schedule; linear
    constraints are treated as (vacuously) quadratic since the schedule
    needs d >= 2."""
    return max(2, poly.degree)


def constraint_plans(scores) -> tuple:
    """One :class:`SidePlan` per (table, lower, upper) side constraint,
    table the :class:`~smoothip.poly.ScoreTable` of the constraint's
    polynomial at its :func:`constraint_degree`.  The window keeps lower -
    c and upper - c, c the constraint's constant, and widens by the sum
    of the constraint's component tolerances."""
    sides = []
    for table, lower, upper in scores:
        plan = RelaxationPlan(table)
        depths = Counter(len(row[0]) for row in plan.rows)
        bounds = [
            None if b is None else Fraction(b) - plan.offset
            for b in (lower, upper)
        ]
        denom = math.lcm(
            plan.scale, *(b.denominator for b in bounds if b is not None)
        )
        lower, upper = (
            None if b is None else b.numerator * (denom // b.denominator)
            for b in bounds
        )
        sides.append(
            SidePlan(
                plan, lower, upper, denom,
                tuple(
                    (plan.degree, depth, count)
                    for depth, count in sorted(depths.items())
                ),
            )
        )
    return tuple(sides)


def prepare_relaxation(
    plan: RelaxationPlan,
    xhat: Sequence,
    beta: Fraction | int,
    sides: Sequence = (),
) -> Relaxation:
    """The relaxation around xhat: objective, offset, the node values of
    every polynomial and each group's largest need.

    ``plan`` is the objective's and ``sides`` holds one
    :class:`SidePlan` per side constraint, as :func:`constraint_plans`
    gives them, so no plan is built here.  Per polynomial this
    computes the node values and folds every row's need; the rows
    themselves are built only when :attr:`Relaxation.rows` is first read.
    A constraint's linearized top level q_c must stay within [lower -
    delta_c, upper + delta_c] where delta_c is the sum of the
    constraint's component tolerances, and its components obey the same
    per-tuple rows as the objective's.
    """
    n = plan.n
    point = prediction_point(xhat, n)
    values = plan.values(point)
    objective = [0] * n
    for j, k in plan.top:
        objective[j] = values[k]
    needs: dict = {}
    plan.fold_needs(values, needs)
    parts = [(plan, values, None)]
    for side in sides:
        side_values = side.plan.values(point)
        side.fold_needs(side_values, needs)
        parts.append((side.plan, side_values, side))
    return Relaxation(
        n, Fraction(beta), tuple(objective), plan.scale, plan.offset, point,
        tuple(needs.items()), tuple(parts),
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
        RelaxationPlan(ScoreTable(prog.objective)), xhat, beta,
        constraint_plans(
            (ScoreTable(q.with_degree(constraint_degree(q))), lower, upper)
            for q, lower, upper in prog.constraints
        ),
    ).model(eps)


def gap_factor(beta: Fraction | int, n: int, d: int) -> Fraction:
    """2 * eta * beta * n^(d - 1), eta = 2e(d - 2) + 1: the part of
    :func:`gap_bound` that no budget changes."""
    if d < 2:
        raise ValueError("gap bound needs degree >= 2")
    eta = 2 * E_UPPER * (d - 2) + 1
    return 2 * eta * Fraction(beta) * Fraction(n) ** (d - 1)


def gap_bound(
    beta: Fraction | int, n: int, d: int, eps: int
) -> Fraction:
    """Additive bound 2 * eta * beta * n^(d - 1/2) * sqrt(eps) on how far
    the LP optimum can fall below the true optimum, eta = 2e(d - 2) + 1:
    :func:`gap_factor` times sqrt(n * eps).

    For d = 2 this is 2 * beta * n^(3/2) * sqrt(eps).  Computed with the
    same upward approximations the tolerances use, so it upper-bounds the
    slack actually granted to the LP.
    """
    return gap_factor(beta, n, d) * sqrt_upper(n * eps)


def constraint_violation_bound(
    beta: Fraction | int, n: int, d: int, eps: int, k: Fraction | int
) -> Fraction:
    """How far a rounded solution can land outside a degree-d constraint
    window: eta * beta * n^(d - 1/2) * sqrt(eps) of relaxation slack plus
    eta * beta * n^(d - 1) * sqrt((k + 1) / 2) * sqrt(n ln n) of rounding
    deviation."""
    if d < 2:
        raise ValueError("violation bound needs degree >= 2")
    slack = (
        gap_factor(beta, n, d) / 2 * sqrt_upper(n * eps)
        if eps > 0
        else Fraction(0)
    )
    return slack + rounding_deviation_term(beta, n, d, k)

