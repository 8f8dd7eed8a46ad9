"""Rational-arithmetic references for the package's integer-scaled paths.

Greedy rounding, the relaxation build and evaluation at Boolean points
work on Python integers over shared denominators.  The functions here
compute the same things the plain way, with one Fraction per operation:
greedy rounding multiplies exact Fractions through every monomial, and the
relaxation evaluates every child polynomial at the prediction.  The SAT
and CSP encoders accumulate one coefficient map; their references add
Polynomials clause by clause.  Tests require the package to agree with
them field for field.
"""

from collections import Counter
from fractions import Fraction

from smoothip.poly import Polynomial, decompose
from smoothip.relax import (
    Relaxation,
    Row,
    constraint_degree,
    _check_prediction,
)


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


def fraction_value(poly, point) -> Fraction:
    """poly at a Boolean point: the Fraction sum of the coefficients of
    the monomials whose variables are all 1."""
    return sum(
        (c for mono, c in poly.coeffs.items() if all(point[i] for i in mono)),
        Fraction(0),
    )


def _row(key, coeffs, lower, upper, widening, activity) -> Row:
    low = sum((c for c in coeffs if c < 0), Fraction(0))
    high = sum((c for c in coeffs if c > 0), Fraction(0))
    needs = []
    if lower is not None:
        needs.append(lower - low)
    if upper is not None:
        needs.append(high - upper)
    return Row(
        key, tuple(coeffs), lower, upper, widening, low, high, activity,
        max(needs, default=None),
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


def _component_rows(tree, point) -> list:
    d = tree.root.degree
    rows = []
    for key in tree.component_keys():
        if len(key) > d - 1:
            continue
        coeffs, _ = _linearization(tree, key, point)
        center = _activity(coeffs, point)
        rows.append(
            _row(key, coeffs, center, center, ((d, len(key), 1),), center)
        )
    return rows


def evaluate_relaxation(tree, xhat, beta) -> Relaxation:
    """prepare_relaxation with one evaluation per child polynomial."""
    point = _check_prediction(xhat, tree.root.n)
    objective, offset = _linearization(tree, (), point)
    return Relaxation(
        tree.root.n, Fraction(beta), tuple(objective), offset,
        tuple(_component_rows(tree, point)), tuple(point),
    )


def evaluate_constrained_relaxation(prog, xhat, beta) -> Relaxation:
    """prepare_relaxation with side constraints, one evaluation per child."""
    base = evaluate_relaxation(decompose(prog.objective), xhat, beta)
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
                _activity(top, point),
            )
        )
        rows.extend(components)
    return Relaxation(
        base.n, base.beta, base.objective, base.offset, tuple(rows),
        base.xhat,
    )


def window_saturated(relaxation, eps) -> bool:
    """Whether every row's range over the box lies strictly inside its
    window at eps, read from the windows themselves."""
    return all(
        (lo is None or lo < row.low) and (hi is None or row.high < hi)
        for row, (lo, hi) in zip(relaxation.rows, relaxation.windows(eps))
    )


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
