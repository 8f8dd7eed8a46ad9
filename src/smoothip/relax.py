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

Only the tolerances depend on eps, each as beta * sqrt(n * eps) times a
level factor, so every row carries its eps-free width, the sum of the
level factors of the tolerances that widen it.  What depends on the
polynomial alone is a :class:`RelaxationPlan`, read once off its
:class:`~smoothip.poly.ScoreTable` (a :class:`SidePlan` adds a side
constraint's window).  Rows exist only for the nodes I with children:
a childless node's row reads 0 in 0 +- delta_I, which no budget breaks,
though a side window still widens by its tolerance.  The plan keeps
the rows' edges (row, j, child node) as index arrays.  Per prediction,
one child-first pass over the nodes computes every node value
p_I(xhat), an integer over the table's L, by the reconstruction
identity p_I(xhat) = c_I + sum over j with xhat_j = 1 of p_(I,j)(xhat),
and each row's need (how wide its window must grow before it cannot
cut the box), kept as one exact bound per prediction.  A
:class:`Relaxation` holds those; only when an LP reads its rows does it
gather the node values through the edge arrays into one
:class:`~smoothip.lpsolve.SparseRows`, integers over one denominator
per row.  ``windows(eps)``, ``model(eps)`` and ``lp()`` give one
budget's bounds as arrays, its exact Fraction LP and the float LP that
every budget shares, warm-started at the prediction.  Once every row's
range over [0,1]^n lies strictly inside its window, no row can cut the
box: the first grid budget where that holds is the saturation budget,
and every larger budget is saturated too, since the windows nest.  The
test reads the stored bound: beta * sqrt_upper(n * eps) must exceed it.
"""

from __future__ import annotations

import bisect
import math
from itertools import chain
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .lpsolve import LpModel, PreparedLp, SparseRows
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
from .rat import E_UPPER, eta_upper, sqrt_upper
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


def _level_factor(n: int, d: int, tuple_len: int) -> Fraction:
    """delta_I / (beta * sqrt(n * eps)) at depth tuple_len = |I|: 1 at the
    deepest constrained level (|I| = d - 1), 2 * e * n^(d - |I| - 1)
    above it."""
    if tuple_len == d - 1:
        return Fraction(1)
    return 2 * E_UPPER * Fraction(n) ** (d - tuple_len - 1)


def tolerance(
    beta: Fraction | int, n: int, d: int, tuple_len: int, eps: int
) -> Fraction:
    """Slack radius delta_I for a component at depth tuple_len = |I|.

    beta * sqrt(n * eps) at the deepest constrained level (|I| = d - 1),
    2 * beta * e * n^(d - |I| - 1/2) * sqrt(eps) above it; both via upward
    square roots, written as :func:`_level_factor` times beta * sqrt(n *
    eps).
    """
    if not 1 <= tuple_len <= d - 1:
        raise ValueError(f"tuple length {tuple_len} outside [1, {d - 1}]")
    if not 0 <= eps <= n:
        raise ValueError(f"error budget {eps} outside [0, {n}]")
    return Fraction(beta) * _level_factor(n, d, tuple_len) * sqrt_upper(n * eps)


def _need(lower, upper, low: int, high: int) -> int | None:
    """max(lower - low, high - upper) over the bounds present, or None
    when both are absent: with [low, high] the exact range of a row's
    coeffs . x over [0,1]^n, that range lies strictly inside the row's
    window exactly when the row's w at that budget exceeds need / denom."""
    if lower is None:
        return None if upper is None else high - upper
    return lower - low if upper is None else max(lower - low, high - upper)


class RelaxationPlan:
    """What the relaxation needs of one multilinear polynomial, whatever
    the prediction, read off its :class:`~smoothip.poly.ScoreTable`.

    The nodes I of the tree :func:`~smoothip.poly.decompose` builds are
    the root () and every prefix of a monomial; c_I is the coefficient
    of the monomial I, 0 when I is not one, and the children of I are
    the j with I + (j,) a node.  ``scale`` is the table's L, so every
    node value p_I(xhat) is an integer over L.  The nodes are numbered
    child-first, the reverse of their sorted order, so that every child
    (I, j) comes before I and the root is last; ``constants[k]`` is c_I *
    L for node k.  ``nodes`` holds (key, k, width, pairs) for every node
    k that has children, in that order, its pairs (j, position of (I,
    j)) in ascending j, width the level factor of depth |I| as an integer
    pair (a, b) (None for the root), d the table's declared degree;
    ``top`` is the root's pairs.  ``width`` sums the level factors of
    every component node, 1 <= |I| <= d - 1, childless ones included,
    for a side window.  ``offset`` is the top-level constant c.  For
    greedy rounding, ``depths[k]`` is |I| for node k and ``edges[i]``
    the (position of I, position of I + (i,)) of every node ending in
    x_i, in sorted key order.  The rows are the root's (the objective or
    a side window), then the other nodes with children in sorted key
    order: ``row_nodes``, ``row_depths`` and ``row_constants`` hold each
    row's k, |I| and c_I * L, and ``edge_rows``, ``edge_columns`` and
    ``edge_children`` each edge's row, j and position of (I, j), row by
    row in ascending j; ``levels[l - 1]`` is depth l's level factor.
    Raises ValueError on a polynomial that is not multilinear.  Immutable
    by convention, like :class:`~smoothip.poly.ScoreTable`; compares by
    value and pickles.
    """

    def __init__(self, table: ScoreTable):
        d = table.degree
        monomials = table.monomials
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
        depths = [0] * len(keys)
        edges: list = [[] for _ in range(table.n)]
        for i in range(1, len(keys)):
            key = keys[i]
            depth = len(key)
            # A sorted monomial that repeats a variable has a prefix, a
            # node, that ends in two equal indices.
            if depth > 1 and key[-1] == key[-2]:
                raise ValueError(
                    "the relaxation needs a multilinear polynomial"
                )
            seen[depth] = last - i
            depths[last - i] = depth
            children[seen[depth - 1]].append((key[-1], last - i))
            edges[key[-1]].append((seen[depth - 1], last - i))
        constant = dict(zip(monomials, table.coeffs))
        width = {
            depth: _level_factor(table.n, d, depth).as_integer_ratio()
            for depth in range(1, d)
        }
        self.n = table.n
        self.degree = d
        self.scale = table.scale
        self.offset = Fraction(constant.get((), 0), table.scale)
        self.constants = tuple(
            [constant.get(key, 0) for key in reversed(keys)]
        )
        self.nodes = tuple(
            [
                (key, k, width.get(len(key)), tuple(children[k]))
                for k, key in enumerate(reversed(keys))
                if children[k]
            ]
        )
        self.top = tuple(children[last])
        self.depths = tuple(depths)
        self.edges = tuple(map(tuple, edges))
        self.width = sum(
            [depths.count(depth) * Fraction(*width[depth]) for depth in width],
            Fraction(0),
        ).as_integer_ratio()
        self.levels = tuple(width[depth] for depth in range(1, d))
        # The rows' edges, the root's row first, then the other nodes with
        # children in sorted key order.
        rows = [last] + [k for _, k, _, _ in self.nodes[-2::-1]]
        self.row_nodes = np.array(rows, dtype=np.intp)
        self.row_depths = np.array([depths[k] for k in rows], dtype=np.intp)
        self.row_constants = np.array(
            [self.constants[k] for k in rows], dtype=object
        )
        self.edge_rows = np.repeat(
            np.arange(len(rows)), [len(children[k]) for k in rows]
        )
        pairs = chain.from_iterable(children[k] for k in rows)
        self.edge_columns, self.edge_children = np.array(
            list(chain.from_iterable(pairs)), dtype=np.intp
        ).reshape(-1, 2).T

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray)
            else mine == theirs
            for mine, theirs in zip(vars(self).values(), vars(other).values())
        )

    __hash__ = None

    def values(self, point, bounds: list) -> list:
        """p_I(xhat) * L of every node, in the plan's order, by the
        reconstruction identity p_I(xhat) = c_I + sum over j with xhat_j
        = 1 of p_(I,j)(xhat), from values already known; on the same
        pass, keep the largest integer need of the component rows of each
        width a / b, without building the rows, and append its exact
        bound need * b / (a * L) to bounds."""
        values = list(self.constants)
        largest: dict = {}
        for _, k, width, children in self.nodes:
            # The range [low, high] over the box and _need, inlined:
            # this runs for every prediction.
            total = constant = values[k]
            low = high = 0
            for j, child in children:
                v = values[child]
                if point[j]:
                    total += v
                if v < 0:
                    low += v
                else:
                    high += v
            values[k] = total
            center = total - constant
            below, above = center - low, high - center
            need = below if below > above else above
            if need > largest.get(width, need - 1):
                largest[width] = need
        largest.pop(None, None)  # the root's entry is no row
        for (a, b), need in largest.items():
            bounds.append(Fraction(need * b, a * self.scale))
        return values


class SidePlan(NamedTuple):
    """A side constraint's plan and its relaxed top-level window.

    ``lower`` and ``upper`` are the bounds minus the constraint's
    constant, as integers over ``denom``, the lcm of the plan's L and the
    bounds' denominators (None for an absent bound).  The window widens
    by the plan's ``width``, which counts the component nodes without
    children too, though they give no row: (0, 1) when it has none.
    :meth:`values` adds the window's exact bound to the saturation test's.
    """

    plan: RelaxationPlan
    lower: int | None
    upper: int | None
    denom: int

    def values(self, point, bounds: list) -> list:
        """The plan's node values at point, its component rows' bounds
        appended to bounds on the way, and then the window's: need * b /
        (a * denom) for the plan's width a / b, +inf when a zero width
        leaves the window cutting the box, none when it never does."""
        values = self.plan.values(point, bounds)
        factor = self.denom // self.plan.scale
        top = [values[k] * factor for _, k in self.plan.top]
        low = sum([v for v in top if v < 0])
        high = sum([v for v in top if v > 0])
        need = _need(self.lower, self.upper, low, high)
        a, b = self.plan.width
        if need is None or not a and need < 0:
            return values  # the window never cuts the box
        bounds.append(Fraction(need * b, a * self.denom) if a else math.inf)
        return values


@dataclass(frozen=True)
class Relaxation:
    """The part of the oracle-centered LP that no error budget changes.

    Built once per solve around the prediction xhat; the objective's
    coefficients are integers over ``denom``.  The saturation test reads
    one exact ``bound``: the largest need * b / (a * denom) of a row of
    width a / b (see :func:`_need`), -1 with no row, +inf when a zero
    width leaves a window cutting the box.  ``parts`` holds one (plan,
    node values, side plan or None) per polynomial, the objective first:
    one pass over each plan's nodes gave both.  ``form``, the rows, one
    per node with children and per side window, is gathered on first
    use, so a prediction saturated at every budget it solves never
    builds it.  ``windows(eps)`` scales every row's width by beta *
    sqrt(n * eps), ``model(eps)`` is that budget's exact LP, and ``lp()``
    prepares the LP that every budget shares, up to ``windows(eps)``.
    """

    n: int
    beta: Fraction
    objective: tuple
    denom: int
    offset: Fraction
    xhat: tuple
    bound: Fraction | float
    parts: tuple

    @cached_property
    def form(self) -> SparseRows:
        """Every row, gathered through the plans' edge arrays: the
        objective's component rows, then per side constraint its window's
        row and its component rows.  Row I's coefficients are its
        children's nonzero p_(I,j)(xhat) and both its bounds p_I(xhat) -
        c_I, over L; a window's are over its side plan's denom."""
        parts = []
        for plan, values, side in self.parts:
            try:
                values = np.array(values, dtype=np.int64)
            except OverflowError:  # a value past int64: Python ints
                values = np.array(values, dtype=object)
            # The objective's root row is its objective, not a row.
            first, skip = (0, 0) if side else (1, len(plan.top))
            coeff = values[plan.edge_children[skip:]]
            lower = values[plan.row_nodes[first:]] - plan.row_constants[first:]
            denom = np.full(len(lower), plan.scale, dtype=object)
            upper = lower.copy()
            if side is not None:
                if side.denom != plan.scale:  # in Python ints, past int64
                    coeff = coeff.astype(object)
                    coeff[: len(plan.top)] *= side.denom // plan.scale
                lower[0], upper[0] = side.lower, side.upper
                denom[0] = side.denom
            nonzero = coeff != 0
            counts = np.bincount(
                plan.edge_rows[skip:][nonzero] - first, minlength=len(lower)
            )
            parts.append(
                (counts, plan.edge_columns[skip:][nonzero], coeff[nonzero],
                 denom, lower, upper)
            )
        counts, *fields = (np.concatenate(field) for field in zip(*parts))
        return SparseRows(np.concatenate(([0], np.cumsum(counts))), *fields)

    def windows(self, eps: int) -> tuple:
        """(lower, upper, denom) arrays of budget eps, one entry per row:
        the row's bounds widened by w = a / b, its width times beta *
        sqrt(n * eps), as p / q in lowest terms, over denom = the row's
        denom * q; None where the row has no bound.  A row's width is the
        level factor of its depth, or its side plan's for a window, so
        each plan makes one Fraction per depth."""
        scale = self.beta * sqrt_upper(self.n * eps)
        p, q = [], []
        for plan, _, side in self.parts:
            widths = [Fraction(*w) * scale for w in (plan.width, *plan.levels)]
            depths = plan.row_depths[0 if side else 1 :]
            p.append(np.array([w.numerator for w in widths], object)[depths])
            q.append(np.array([w.denominator for w in widths], object)[depths])
        rows = self.form
        q = np.concatenate(q)
        slack = -np.concatenate(p) * rows.denom  # the lower bound's
        windows = []
        for bounds in (rows.lower, rows.upper):
            widened = bounds.copy()  # None where absent
            has = np.not_equal(bounds, None)
            np.multiply(bounds, q, out=widened, where=has)
            np.add(widened, slack, out=widened, where=has)
            windows.append(widened)
            slack = -slack
        return (*windows, rows.denom * q)

    def model(self, eps: int) -> LpModel:
        """The exact LP of budget eps, every number a Fraction and every
        row a dense coefficient tuple."""
        rows = self.form
        row = np.repeat(np.arange(len(rows.denom)), np.diff(rows.start))
        dense = np.full((len(rows.denom), self.n), Fraction(0), dtype=object)
        dense[row, rows.column] = list(
            map(Fraction, rows.coeff.tolist(), rows.denom[row])
        )
        return LpModel(
            num_vars=self.n,
            var_bounds=((Fraction(0), Fraction(1)),) * self.n,
            rows=tuple(
                (
                    tuple(coeffs),
                    None if lo is None else Fraction(lo, denom),
                    None if hi is None else Fraction(hi, denom),
                )
                for coeffs, lo, hi, denom in zip(dense, *self.windows(eps))
            ),
            objective=tuple(Fraction(c, self.denom) for c in self.objective),
            offset=self.offset,
        )

    def lp(self) -> PreparedLp:
        """The LP of every budget, warm-started at the prediction; solve a
        budget with ``lp().solve(windows(eps))``."""
        return PreparedLp(
            (self.objective, self.denom),
            self.offset,
            self.form,
            ((0, 1),) * self.n,
            self.xhat,
        )

    def saturation_budget(self, grid: Sequence[int]) -> int | None:
        """First eps of the ascending grid at which the relaxation is
        saturated, or None.  Windows only widen as eps grows, so every
        later budget is saturated too and a bisection finds the first.

        A row of width a / b is saturated when a / b * beta * sqrt(n *
        eps) exceeds its need / denom, that is when beta * sqrt(n * eps)
        exceeds need * b / (a * denom), +inf for a = 0 unless need < 0.
        So a budget is saturated exactly when beta * sqrt_upper(n * eps)
        exceeds ``bound``.
        """
        beta, bound = self.beta, self.bound
        i = bisect.bisect_left(
            grid, True, key=lambda eps: beta * sqrt_upper(self.n * eps) > bound
        )
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
        sides.append(SidePlan(plan, lower, upper, denom))
    return tuple(sides)


def prepare_relaxation(
    plan: RelaxationPlan,
    xhat: Sequence,
    beta: Fraction | int,
    sides: Sequence = (),
) -> Relaxation:
    """The relaxation around xhat: objective, offset, the node values of
    every polynomial and the saturation bound.

    ``plan`` is the objective's and ``sides`` holds one
    :class:`SidePlan` per side constraint, as :func:`constraint_plans`
    gives them, so no plan is built here.  Per polynomial one pass
    computes the node values and its rows' exact bounds; the rows
    themselves are gathered only when :attr:`Relaxation.form` is first
    read.
    A constraint's linearized top level q_c must stay within [lower -
    delta_c, upper + delta_c] where delta_c is the sum of the
    constraint's component tolerances, and its components obey the same
    per-tuple rows as the objective's.  A negative beta raises ValueError.
    """
    if beta < 0:
        raise ValueError(f"beta {beta} is negative")
    n = plan.n
    point = prediction_point(xhat, n)
    bounds: list = []
    values = plan.values(point, bounds)
    objective = [0] * n
    for j, k in plan.top:
        objective[j] = values[k]
    parts = [(plan, values, None)]
    parts += [(side.plan, side.values(point, bounds), side) for side in sides]
    return Relaxation(
        n, Fraction(beta), tuple(objective), plan.scale, plan.offset, point,
        max(bounds, default=-1), tuple(parts),
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
    return 2 * eta_upper(d) * Fraction(beta) * Fraction(n) ** (d - 1)


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
    slack = gap_factor(beta, n, d) / 2 * sqrt_upper(n * eps)
    return slack + rounding_deviation_term(beta, n, d, k)

