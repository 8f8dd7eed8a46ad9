"""Rational-arithmetic references for the package's integer-scaled paths.

Greedy rounding, the relaxation build and evaluation at Boolean points
work on Python integers over shared denominators, and the relaxation keeps
its rows in that form.  The functions here compute the same things the
plain way, with one Fraction per operation: greedy rounding multiplies
exact Fractions through every monomial, and the relaxation evaluates every
child polynomial at the prediction and keeps every number a Fraction;
its model at a budget widens each row by its tolerances one by one, and
its saturation budget groups the rows and scans the grid.  The SAT
and CSP encoders accumulate one coefficient map; their references add
Polynomials clause by clause.  The brute force's value table is built on
the narrowest integer type, with the low bits transformed once per
distinct high part; its reference runs all n passes over the full table.
Randomized rounding compares one coordinate at a time; the randomized
rounding of an LP optimum draws every round and scores every round's
point, however many repeat.  The report's JSON is built field by field,
each rational through its own num/den string.  Tests require the package
to agree with them field for field.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from smoothip.pipeline import _round_seed, _violation
from smoothip.poly import Polynomial, decompose
from smoothip.rat import E_UPPER, sqrt_upper
from smoothip.lpsolve import LpModel
from smoothip.relax import constraint_degree, prediction_point, tolerance


def fraction_greedy_round(p, y) -> tuple:
    """Greedy rounding with every margin summed in Fractions."""
    current = []
    for v in y:
        f = Fraction(v)
        if not 0 <= f <= 1:
            raise ValueError(f"coordinate {v} outside [0, 1]")
        current.append(f)
    touching: dict = {}
    for mono, coeff in p.coeffs.items():
        for i in mono:
            touching.setdefault(i, []).append((mono, coeff))
    z = []
    for i in range(p.n):
        margin = Fraction(0)
        for mono, coeff in touching.get(i, ()):
            term = coeff
            for j in mono:
                if j != i:
                    term *= current[j]
            margin += term
        if margin > 0:
            choice = 1
        elif margin < 0:
            choice = 0
        else:
            choice = 1 if current[i] > Fraction(1, 2) else 0
        current[i] = Fraction(choice)
        z.append(choice)
    return tuple(z)


def loop_randomized_round(y, seed) -> tuple:
    """Randomized rounding with the range check and the comparison made
    per coordinate, on Python floats."""
    probs = []
    for v in y:
        f = float(v)
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"probability {v} outside [0, 1]")
        probs.append(f)
    rng = np.random.Generator(np.random.Philox(key=seed % 2**64))
    draws = rng.random(len(probs))
    return tuple(int(u < p) for u, p in zip(draws, probs))


def every_round_scored(instance, y, config, eps) -> tuple:
    """The randomized rounding of the LP optimum y as (z, value,
    violation, values of the rounds), every round drawn and its point
    scored, the first round with the largest value kept."""
    outcomes = []
    for r in range(config.randomized_rounds):
        z = loop_randomized_round(y, _round_seed(config.seed, eps, r))
        outcomes.append((z, instance.table.value(z)))
    z, value = max(outcomes, key=lambda zv: zv[1])
    return (
        z, value, _violation(instance.constraint_scores, z),
        tuple(v for _, v in outcomes),
    )


def fraction_value(poly, point) -> Fraction:
    """poly at a Boolean point: the Fraction sum of the coefficients of
    the monomials whose variables are all 1."""
    return sum(
        (c for mono, c in poly.coeffs.items() if all(point[i] for i in mono)),
        Fraction(0),
    )


def schedule_width(n, widening) -> Fraction:
    """The sum of count * delta_I / (beta * sqrt(n * eps)) over the
    (degree d, depth |I|, count) triples of widening, by the paper's
    schedule: delta_I is beta * sqrt(n * eps) at |I| = d - 1 and 2 * beta
    * e * n^(d - |I| - 1/2) * sqrt(eps) above."""
    return sum(
        (
            count * (
                1 if depth == d - 1
                else 2 * E_UPPER * Fraction(n) ** (d - depth - 1)
            )
            for d, depth, count in widening
        ),
        Fraction(0),
    )


@dataclass(frozen=True)
class ExactRow:
    """A relaxation row with every number a Fraction and dense
    coefficients.

    A reference row also keeps, outside comparisons, the (degree, depth,
    count) triples of the tolerances that widen it, from which its width
    is computed; a built row has none."""

    key: tuple
    coeffs: tuple
    lower: Fraction | None
    upper: Fraction | None
    width: Fraction
    low: Fraction
    high: Fraction
    activity: Fraction
    need: Fraction | None
    widening: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class ExactRelaxation:
    """relax.Relaxation with every number a Fraction."""

    n: int
    beta: Fraction
    objective: tuple
    offset: Fraction
    rows: tuple
    xhat: tuple


def row_keys(relaxation) -> list:
    """The key I of each row of a relax.Relaxation, read off its plans:
    the objective's nodes with children but the root, in sorted key
    order, then per side constraint () for its window and its own."""
    keys = []
    for plan, _, side in relaxation.parts:
        if side is not None:
            keys.append(())
        keys += [key for key, *_ in plan.nodes[-2::-1]]
    return keys


def row_widths(relaxation) -> list:
    """The eps-free width (a, b) of each row of a relax.Relaxation, read
    off its plans: a window's is its side plan's width, a component
    row's the level factor of its node's depth."""
    widths = []
    for plan, _, side in relaxation.parts:
        levels = (plan.width, *plan.levels)
        depths = plan.row_depths[0 if side else 1 :]
        widths += [levels[depth] for depth in depths]
    return widths


def as_fractions(relaxation) -> ExactRelaxation:
    """A relax.Relaxation read as exact rationals: every integer of its
    rows over its row's (or the objective's) denominator, each row's
    entries spread into a dense tuple, its width read off its plan, and
    its range and need computed from those coefficients and its bounds."""

    def over(value, denom):
        return None if value is None else Fraction(value, denom)

    form = relaxation.form
    widths = row_widths(relaxation)
    rows = []
    for i, key in enumerate(row_keys(relaxation)):
        denom = form.denom[i]
        coeffs = [Fraction(0)] * relaxation.n
        entries = slice(form.start[i], form.start[i + 1])
        for j, c in zip(form.column[entries], form.coeff[entries].tolist()):
            coeffs[j] = Fraction(c, denom)
        rows.append(
            _row(
                key,
                tuple(coeffs),
                over(form.lower[i], denom),
                over(form.upper[i], denom),
                Fraction(*widths[i]),
                _activity(coeffs, relaxation.xhat),
            )
        )
    return ExactRelaxation(
        relaxation.n, relaxation.beta,
        tuple(Fraction(c, relaxation.denom) for c in relaxation.objective),
        relaxation.offset, tuple(rows), relaxation.xhat,
    )


def reference_model(reference, eps) -> LpModel:
    """The reference relaxation's exact LP at budget eps: each row's
    bounds widened by the sum of count * tolerance over its (degree,
    depth, count) triples."""
    rows = []
    for row in reference.rows:
        slack = sum(
            (
                count * tolerance(reference.beta, reference.n, d, depth, eps)
                for d, depth, count in row.widening
            ),
            Fraction(0),
        )
        rows.append((
            row.coeffs,
            None if row.lower is None else row.lower - slack,
            None if row.upper is None else row.upper + slack,
        ))
    return LpModel(
        reference.n, ((Fraction(0), Fraction(1)),) * reference.n,
        tuple(rows), reference.objective, reference.offset,
    )


def _row(key, coeffs, lower, upper, width, activity, widening=()) -> ExactRow:
    low = sum((c for c in coeffs if c < 0), Fraction(0))
    high = sum((c for c in coeffs if c > 0), Fraction(0))
    needs = []
    if lower is not None:
        needs.append(lower - low)
    if upper is not None:
        needs.append(high - upper)
    return ExactRow(
        key, tuple(coeffs), lower, upper, width, low, high, activity,
        max(needs, default=None), widening,
    )


def _reference_row(key, coeffs, lower, upper, widening, activity) -> ExactRow:
    """A reference row, its width computed from its triples."""
    return _row(
        key, coeffs, lower, upper, schedule_width(len(coeffs), widening),
        activity, widening,
    )


def _linearization(tree, key, point) -> tuple:
    """Coefficients p_(I,j)(xhat), each child evaluated on its own, and
    the constant c_I."""
    node = tree.nodes[key]
    coeffs = [Fraction(0)] * tree.root.n
    for j in node.children:
        coeffs[j] = fraction_value(tree.nodes[key + (j,)].poly, point)
    return coeffs, node.constant


def _activity(coeffs, point) -> Fraction:
    return sum((c for c, v in zip(coeffs, point) if v), Fraction(0))


def _component_keys(tree) -> list:
    """The keys I with 1 <= |I| <= d - 1, in sorted order."""
    d = tree.root.degree
    return [key for key in tree.component_keys() if len(key) <= d - 1]


def _component_rows(tree, point) -> list:
    """One row per component node that has children: a childless node's
    row, 0 = 0 +- delta_I, cannot cut the box at any budget."""
    d = tree.root.degree
    rows = []
    for key in _component_keys(tree):
        if not tree.nodes[key].children:
            continue
        coeffs, _ = _linearization(tree, key, point)
        center = _activity(coeffs, point)
        rows.append(
            _reference_row(
                key, coeffs, center, center, ((d, len(key), 1),), center
            )
        )
    return rows


def evaluate_relaxation(tree, xhat, beta) -> ExactRelaxation:
    """prepare_relaxation with one evaluation per child polynomial."""
    point = prediction_point(xhat, tree.root.n)
    objective, offset = _linearization(tree, (), point)
    return ExactRelaxation(
        tree.root.n, Fraction(beta), tuple(objective), offset,
        tuple(_component_rows(tree, point)), tuple(point),
    )


def evaluate_constrained_relaxation(prog, xhat, beta) -> ExactRelaxation:
    """prepare_relaxation with side constraints, one evaluation per child."""
    base = evaluate_relaxation(decompose(prog.objective), xhat, beta)
    point = base.xhat
    rows = list(base.rows)
    for poly, lower, upper in prog.constraints:
        tree = decompose(poly.with_degree(constraint_degree(poly)))
        # The window widens by every component node's tolerance, those
        # without a row included.
        depths = Counter(len(key) for key in _component_keys(tree))
        top, top_const = _linearization(tree, (), point)
        rows.append(
            _reference_row(
                (),
                top,
                None if lower is None else lower - top_const,
                None if upper is None else upper - top_const,
                tuple(
                    (tree.root.degree, depth, count)
                    for depth, count in sorted(depths.items())
                ),
                _activity(top, point),
            )
        )
        rows.extend(_component_rows(tree, point))
    return ExactRelaxation(
        base.n, base.beta, base.objective, base.offset, tuple(rows),
        base.xhat,
    )


def window_saturated(relaxation, eps) -> bool:
    """Whether every row's range over the box lies strictly inside its
    window at eps, read from the exact model of that budget: the range of
    each row is summed from its Fraction coefficients."""
    for coeffs, lo, hi in relaxation.model(eps).rows:
        low = sum((c for c in coeffs if c < 0), Fraction(0))
        high = sum((c for c in coeffs if c > 0), Fraction(0))
        if (lo is not None and not lo < low) or (
            hi is not None and not high < hi
        ):
            return False
    return True


def group_saturation_budget(relaxation, grid):
    """saturation_budget by the group rule: the rows grouped by width a
    / b and denominator, each group's largest exact need taken, and a
    budget saturated when sqrt_upper(n * eps) exceeds need / (beta * a /
    b) for every group, while a group with beta * a = 0 is saturated at
    every budget (need < 0) or at none."""
    largest = {}
    denoms = relaxation.form.denom
    for denom, exact in zip(denoms, as_fractions(relaxation).rows):
        if exact.need is not None:
            group = (exact.width, denom)
            largest[group] = max(largest.get(group, exact.need), exact.need)
    top = Fraction(-1)
    for (width, _), need in largest.items():
        scaled = relaxation.beta * width
        if scaled:
            top = max(top, need / scaled)
        elif need >= 0:
            return None
    for eps in grid:
        if sqrt_upper(relaxation.n * eps) > top:
            return eps
    return None


def additive_maxksat_objective(f) -> Polynomial:
    """maxksat_objective as a sum of Polynomials, one per clause."""
    widths = {len(c) for c in f.clauses}
    if len(widths) > 1:
        raise ValueError(f"mixed clause widths {sorted(widths)}")
    total = Polynomial.constant(f.n, 0)
    for clause in f.clauses:
        falsity = Polynomial.constant(f.n, 1)
        for var, positive in clause:
            x = Polynomial.variable(f.n, var)
            falsity = falsity * ((1 - x) if positive else x)
        total = total + (1 - falsity)
    return total.with_degree(widths.pop()) if widths else total


def additive_maxkcsp_objective(inst) -> Polynomial:
    """maxkcsp_objective as a sum of Polynomials, one per satisfying
    assignment."""
    total = Polynomial.constant(inst.n, 0)
    for scope, table in inst.constraints:
        for a, flag in enumerate(table):
            if not flag:
                continue
            product = Polynomial.constant(inst.n, 1)
            for r, var in enumerate(scope):
                x = Polynomial.variable(inst.n, var)
                bit = (a >> (inst.k - 1 - r)) & 1
                product = product * (x if bit else (1 - x))
            total = total + product
    return total.with_degree(inst.k)


def butterfly_masks_to_values(poly, n: int):
    """The values at all 2^n points that pipeline._value_tiles yields a
    tile at a time, as one table with n full-table passes of Yates'
    subset-sum transform, on int64 when the coefficient total is below
    2^62 and on Python ints (object) otherwise."""
    denom = math.lcm(
        *(c.denominator for c in poly.coeffs.values()), 1
    )
    total = sum(abs(int(c * denom)) for c in poly.coeffs.values())
    dtype = np.int64 if total < 2**62 else object
    table = np.zeros(1 << n, dtype=dtype)
    for mono, coeff in poly.coeffs.items():
        mask = 0
        for i in mono:
            mask |= 1 << (n - 1 - i)
        table[mask] += int(coeff * denom)
    for b in range(n):
        view = table.reshape(-1, 2, 1 << b)
        view[:, 1, :] += view[:, 0, :]
    return table, denom


def _frac(value):
    return None if value is None else str(Fraction(value))


def reference_report_json(report) -> str:
    """A solve report's canonical JSON with every field written out by
    hand, rationals as num/den strings."""
    payload = {
        "label": report.label,
        "n": report.n,
        "degree": report.degree,
        "beta": _frac(report.beta),
        "strategy": report.strategy,
        "best_z": list(report.best_z),
        "best_value": _frac(report.best_value),
        "candidates": [
            {
                "tag": c.tag,
                "z": list(c.z),
                "value": _frac(c.value),
                "violation": _frac(c.violation),
            }
            for c in report.candidates
        ],
        "per_eps": [
            {
                "eps": r.eps,
                "status": r.status,
                "lp_value": r.lp_value,
                "rounded_z": None if r.rounded_z is None else list(r.rounded_z),
                "rounded_value": _frac(r.rounded_value),
                "violation_max": _frac(r.violation_max),
                "gap": _frac(r.gap),
                "rounding_radius": _frac(r.rounding_radius),
                "wall_ms": r.wall_ms,
                "seed_values": [_frac(v) for v in r.seed_values],
            }
            for r in report.per_eps
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
