"""Turn fractional LP solutions into Boolean assignments.

Two strategies.  Independent randomized rounding sets z_i = 1 with
probability y_i using one counter-based pseudo-random draw per (seed, i),
so results are bit-reproducible and independent of evaluation order.
Greedy deterministic rounding fixes coordinates in ascending order, each
time choosing the value that maximizes the objective with earlier
coordinates already integral and later ones still fractional; for
multilinear objectives this never decreases the objective, so p(z) >= p(y)
holds exactly.  This is the method of conditional expectations: each step
is the sign of one margin, computed on integers over shared denominators,
so it is exact without any rational arithmetic.  What the margins need of
the objective alone (the multilinearity check, the coefficients over one
denominator and, per variable, the monomials that touch it) is a
:class:`GreedyTables`, built once per objective and passed to
``greedy_round`` in place of the polynomial; a call then converts only
the point.

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


class GreedyTables(ScoreTable):
    """What greedy rounding needs of a multilinear objective, built once.

    A :class:`~smoothip.poly.ScoreTable` of the objective, so the same
    tables also score Boolean points, plus per variable the monomials that
    touch it.  Each monomial m is kept as its integer C_m = c_m * L and
    its degree gap d - |m|, with d the declared degree:
    ``touching[i]`` lists, for each monomial m that holds x_i, the other
    variables of m as a tuple, C_m and the gap.  Building the tables
    raises ValueError on an objective that is not multilinear, seen as
    two equal neighbours in a (sorted) monomial.
    """

    def __init__(self, p: Polynomial):
        super().__init__(p)
        touching: list = [[] for _ in range(p.n)]
        for mono, coeff in zip(self.monomials, self.coeffs):
            gap = self.degree - len(mono)
            previous = -1
            for at, i in enumerate(mono):
                if i == previous:
                    raise ValueError(
                        "greedy rounding needs a multilinear objective"
                    )
                previous = i
                touching[i].append((mono[:at] + mono[at + 1:], coeff, gap))
        self.touching = tuple(map(tuple, touching))


def greedy_round(p: Polynomial | GreedyTables, y: Sequence) -> tuple:
    """Coordinate-ascent rounding; requires a multilinear objective, given
    as a polynomial or as its :class:`GreedyTables`.

    At step i the choice is argmax over z_i in {0, 1} of the objective with
    coordinates before i already fixed and coordinates after i still at y.
    Ties go to the Boolean value nearest y_i, then to 0.  The returned z
    satisfies p(z) >= p(y) exactly.

    Each step is the sign of one margin, g_i(1) - g_i(0), taken exactly on
    integers.  The tables hold the coefficients over one denominator L,
    and the point is put over one denominator D (every float is dyadic, so
    D is a power of two for float input), so c_m = C_m / L and y_j = Y_j /
    D.  A monomial m touching i contributes C_m * D^(d - |m|) times the
    product of the other Y_j, which is L * D^(d - 1) times its true
    contribution: the integer margin is the true margin times a positive
    constant and has the same sign.  A call given the tables computes only
    D, the Y_j and the powers of D.
    """
    tables = p if isinstance(p, GreedyTables) else GreedyTables(p)
    if len(y) != tables.n:
        raise ValueError(f"point length {len(y)}, expected {tables.n}")
    point = []
    for v in y:
        # A float's ratio is the Fraction's, without making the Fraction.
        x = v if isinstance(v, float) else Fraction(v)
        if not 0 <= x <= 1:  # NaN too, before its ratio raises
            raise ValueError(f"coordinate {v} outside [0, 1]")
        point.append(x.as_integer_ratio())
    den = math.lcm(*(b for _, b in point))
    current = [a * (den // b) for a, b in point]
    powers = [den**k for k in range(tables.degree + 1)]

    z = []
    for i, touching in enumerate(tables.touching):
        # L * D^(d-1) times the multilinear coefficient of x_i at the
        # current mixed point.
        margin = 0
        for others, coeff, gap in touching:
            term = coeff * powers[gap]
            for j in others:
                term *= current[j]
            margin += term
        if margin > 0:
            choice = 1
        elif margin < 0:
            choice = 0
        else:
            choice = 1 if 2 * current[i] > den else 0
        current[i] = choice * den
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
