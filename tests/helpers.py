"""Shared random generators for the test suite, and the way a Fraction
LpModel reaches the simplex."""

import math
from fractions import Fraction

from smoothip.lpsolve import LpModel, PreparedLp
from smoothip.pipeline import Instance, prepare
from smoothip.poly import Polynomial
from smoothip.relax import prepare_relaxation


def random_multilinear(rng, n, d, max_terms=12, coeff_bound=6):
    """Random multilinear polynomial on n variables with degree <= d."""
    coeffs = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        width = rng.randrange(0, min(d, n) + 1)
        mono = tuple(sorted(rng.sample(range(n), width)))
        value = Fraction(
            rng.randrange(-coeff_bound, coeff_bound + 1), rng.randrange(1, 4)
        )
        coeffs[mono] = coeffs.get(mono, 0) + value
    return Polynomial(n, coeffs)


def random_point(rng, n, den=8):
    """Random rational point in the unit cube."""
    return [Fraction(rng.randrange(0, den + 1), den) for _ in range(n)]


def random_bool_vector(rng, n):
    return [rng.randrange(2) for _ in range(n)]


def random_lp_model(rng, max_vars=30, max_rows=60):
    """Random box-and-rows model, feasible by construction around a hidden
    point; roughly one in seven gets a deliberately contradictory row pair.
    """
    n = rng.randrange(1, max_vars + 1)
    bounds = []
    hidden = []
    for _ in range(n):
        if rng.random() < 0.8:
            lo, hi = Fraction(0), Fraction(1)
        else:
            lo = Fraction(rng.randrange(0, 5), 8)
            hi = lo + Fraction(rng.randrange(0, 9 - int(lo * 8)), 8)
        bounds.append((lo, hi))
        hidden.append(lo + (hi - lo) * Fraction(rng.randrange(0, 9), 8))

    rows = []
    for _ in range(rng.randrange(0, max_rows + 1)):
        coeffs = tuple(
            Fraction(rng.randrange(-3, 4)) if rng.random() < 0.4 else Fraction(0)
            for _ in range(n)
        )
        value = sum(c * x for c, x in zip(coeffs, hidden))
        slack_lo = Fraction(rng.randrange(0, 17), 8)
        slack_hi = Fraction(rng.randrange(0, 17), 8)
        shape = rng.random()
        if shape < 0.6:
            rows.append((coeffs, value - slack_lo, value + slack_hi))
        elif shape < 0.75:
            rows.append((coeffs, None, value + slack_hi))
        elif shape < 0.9:
            rows.append((coeffs, value - slack_lo, None))
        else:
            rows.append((coeffs, value, value))
    if rng.random() < 0.15 and n >= 2:
        coeffs = tuple(Fraction(rng.randrange(1, 4)) for _ in range(n))
        value = sum(c * x for c, x in zip(coeffs, hidden))
        rows.append((coeffs, value + 1, None))
        rows.append((coeffs, None, value - 1))

    objective = tuple(Fraction(rng.randrange(-5, 6)) for _ in range(n))
    return LpModel(
        num_vars=n,
        var_bounds=tuple(bounds),
        rows=tuple(rows),
        objective=objective,
        offset=Fraction(rng.randrange(-3, 4)),
    )


def alternating(n):
    return tuple(i % 2 for i in range(n))


def at_most(n, limit):
    """Side constraint sum_j x_j <= limit."""
    return (Polynomial(n, {(j,): 1 for j in range(n)}), None, Fraction(limit))


def pipeline_relaxation(objective, xhat, constraints=()):
    """The relaxation a solve builds at xhat, from the prepared instance."""
    prepared = prepare(Instance(objective, constraints))
    return prepare_relaxation(
        prepared.plan, xhat, prepared.beta, prepared.constraint_plans
    )


def _over_lcm(values) -> tuple:
    """(integers, d) with values[i] = integers[i] / d, d the lcm of the
    denominators; None stays None."""
    exact = [None if v is None else Fraction(v) for v in values]
    denom = math.lcm(*(f.denominator for f in exact if f is not None))
    return tuple(
        None if f is None else f.numerator * (denom // f.denominator)
        for f in exact
    ), denom


def start_at(rows, var_bounds, x=None) -> tuple:
    """(x, activities), PreparedLp's warm start: the point x, the box's
    lower corner when x is None or off a bound in some coordinate, with
    its exact activity over each (pairs, lower, upper, denom) row."""
    x = None if x is None else [Fraction(v) for v in x]
    if x is None or not all(v in b for v, b in zip(x, var_bounds)):
        x = [Fraction(lo) for lo, _ in var_bounds]
    return x, [
        Fraction(sum(c * x[j] for j, c in coeffs), denom).as_integer_ratio()
        for coeffs, _, _, denom in rows
    ]


def prepared_model(model: LpModel, warm_start=None) -> tuple:
    """(lp, windows): the model as a PreparedLp and its own row windows.

    Every Fraction of a row (or of the objective) is put over the lcm of
    the denominators of that row, with the row's nonzero coefficients as
    (j, c) pairs.  The solve starts at the warm start, a point, when it
    sits at a bound in every coordinate, and at the box's lower corner
    otherwise.
    """
    rows = []
    for coeffs, lo, hi in model.rows:
        (*scaled, lower, upper), denom = _over_lcm((*coeffs, lo, hi))
        pairs = tuple((j, c) for j, c in enumerate(scaled) if c)
        rows.append((pairs, lower, upper, denom))
    lp = PreparedLp(
        _over_lcm(model.objective), model.offset, rows, model.var_bounds,
        start_at(rows, model.var_bounds, warm_start),
    )
    return lp, [(lo, hi, denom) for _, lo, hi, denom in rows]


def solve_model(model: LpModel, warm_start=None):
    """The LpSolution of the model, optionally warm-started at a point."""
    lp, windows = prepared_model(model, warm_start)
    return lp.solve(windows)
