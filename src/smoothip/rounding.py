"""Turn fractional LP solutions into Boolean assignments.

Two strategies.  Independent randomized rounding sets z_i = 1 with
probability y_i using one counter-based pseudo-random draw per (seed, i),
so results are bit-reproducible and independent of evaluation order.
Greedy deterministic rounding fixes coordinates in ascending order, each
time choosing the value that maximizes the objective with earlier
coordinates already integral and later ones still fractional; for
multilinear objectives this never decreases the objective, so p(z) >= p(y)
holds exactly.  This is the method of conditional expectations on the
tree of p = c + sum_i x_i * p_i(x) that the relaxation linearizes: each
step is the sign of one margin, a sum over the tree's edges into the
step's variable, exact on integers over shared denominators.  It keeps
no tables of its own: ``greedy_round`` takes the objective's
:class:`~smoothip.relax.RelaxationPlan`, built once, in place of the
polynomial.

The radius calculators quantify how far randomized rounding can move the
objective.  ``rounding_error_bound`` is the high-probability radius used in
concentration tests, with the sharper quadratic-specific constant 3 when
d = 2; ``rounding_deviation_term`` is the eta-form radius that appears
inside the end-to-end guarantee, with eta = 2e(d - 2) + 1 for every degree.
The two coincide for d >= 3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .poly import Polynomial, ScoreTable
from .rat import eta_upper, ln_upper, sqrt_upper


def randomized_round(y: Sequence, seed: int) -> tuple:
    """Independent rounding: z_i = 1 with probability y_i.

    Draw i comes from a Philox stream keyed by the seed at counter
    position i, so z_i depends only on (seed, y_i, i): the same seed and
    vector reproduce z bit-exactly, and coordinates are independent.  A
    draw u lies in [0, 1), so z_i = [u < y_i] is 1 at y_i = 1 and 0 at
    y_i = 0 whatever the seed.  The entries are Python ints.
    """
    probs = np.array([float(v) for v in y])
    inside = (probs >= 0.0) & (probs <= 1.0)  # False at NaN
    if not inside.all():
        v = y[int(np.argmin(inside))]
        raise ValueError(f"probability {v} outside [0, 1]")
    rng = np.random.Generator(np.random.Philox(key=seed % 2**64))
    draws = rng.random(len(probs))
    return tuple((draws < probs).astype(int).tolist())


def greedy_round(p: Polynomial | RelaxationPlan, y: Sequence) -> tuple:
    """Coordinate-ascent rounding; requires a multilinear objective, given
    as a polynomial or as its :class:`~smoothip.relax.RelaxationPlan`.

    At step i the choice is argmax over z_i in {0, 1} of the objective with
    coordinates before i already fixed and coordinates after i still at y.
    Ties go to the Boolean value nearest y_i, then to 0.  The returned z
    satisfies p(z) >= p(y) exactly.

    Each step is the sign of one margin, dp/dx_i at (z_<i, y_>i): the
    sum, over the plan's edges I -> I + (i,), of [every variable of I
    is 1 in z] times p_(I,i)(y).  It is taken exactly on integers, with
    c_J = C_J / L over the plan's denominator L and y_j = Y_j / D over
    the point's (a power of two for floats, which are dyadic).  One
    child-first pass gives every node J the integer V_J = C_J * D^(d -
    |J|) + sum over its children (J, j) of Y_j * V_(J,j), which is L *
    D^(d - |J|) * p_J(y); an edge adds V_(I,i) * D^|I|, so the margin is
    L * D^(d - 1) times the true one.
    """
    plan = p
    if isinstance(plan, Polynomial):
        from .relax import RelaxationPlan  # relax imports this module
        try:
            plan = RelaxationPlan(ScoreTable(plan))
        except ValueError:
            raise ValueError(
                "greedy rounding needs a multilinear objective"
            ) from None
    if len(y) != plan.n:
        raise ValueError(f"point length {len(y)}, expected {plan.n}")
    point = []
    for v in y:
        # A float's ratio is the Fraction's, without making the Fraction.
        x = v if isinstance(v, float) else Fraction(v)
        if not 0 <= x <= 1:  # NaN too, before its ratio raises
            raise ValueError(f"coordinate {v} outside [0, 1]")
        point.append(x.as_integer_ratio())
    den = math.lcm(*(b for _, b in point))
    scaled = [a * (den // b) for a, b in point]
    lift = [den ** (plan.degree - l) for l in range(plan.degree + 1)]
    values = [c * lift[l] for c, l in zip(plan.constants, plan.depths)]
    for _, k, _, children in plan.nodes:
        total = values[k]
        for j, child in children:
            total += scaled[j] * values[child]
        values[k] = total  # V_J, children first

    # weight[k] is D^|I| for node k = I while every variable of I is 1
    # in z, else 0; the root, last, has weight 1.
    weight = [0] * (len(values) - 1) + [1]
    z = []
    for i, edges in enumerate(plan.edges):
        margin = 0
        for parent, child in edges:
            w = weight[parent]
            if w:
                margin += values[child] * w
        if margin > 0:
            choice = 1
        elif margin < 0:
            choice = 0
        else:
            choice = 1 if 2 * scaled[i] > den else 0
        if choice:
            for parent, child in edges:
                weight[child] = weight[parent] * den
        z.append(choice)
    return tuple(z)


def _radius(beta, n, d, k, lead: Fraction) -> Fraction:
    if n < 2:
        raise ValueError("radius needs n >= 2")
    if d < 2:
        raise ValueError("radius needs degree >= 2")
    k = Fraction(k)
    if k <= 0:
        raise ValueError("tail parameter k must be positive")
    return (
        lead
        * Fraction(beta)
        * Fraction(n) ** (d - 1)
        * sqrt_upper((k + 1) / 2)
        * sqrt_upper(n * ln_upper(n))
    )


def rounding_error_bound(
    beta: Fraction | int, n: int, d: int, k: Fraction | int
) -> Fraction:
    """High-probability radius of |p(z) - p(y)| under randomized rounding.

    3 * beta * n * sqrt((k+1)/2) * sqrt(n ln n) for quadratics, and
    (1 + 2e(d-2)) * beta * n^(d-1) * sqrt((k+1)/2) * sqrt(n ln n) above
    degree 2.  Exceeded with probability at most
    :func:`rounding_failure_probability`.
    """
    lead = Fraction(3) if d == 2 else eta_upper(d)
    return _radius(beta, n, d, k, lead)


def rounding_deviation_term(
    beta: Fraction | int, n: int, d: int, k: Fraction | int
) -> Fraction:
    """The eta-form radius appearing in the end-to-end guarantee:
    eta * beta * n^(d-1) * sqrt((k+1)/2) * sqrt(n ln n), eta = 2e(d-2)+1."""
    return _radius(beta, n, d, k, eta_upper(d))


def rounding_failure_probability(n: int, d: int, k: Fraction | int) -> float:
    """Upper bound 2d / n^(k - d + 2) on the probability that the rounding
    error exceeds :func:`rounding_error_bound`; 4 / n^k for d = 2."""
    if n < 2:
        raise ValueError("probability bound needs n >= 2")
    return 2.0 * d / float(n) ** (float(Fraction(k)) - d + 2)
