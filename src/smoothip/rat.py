"""Directed rational approximations of irrational constants.

The bounds computed in this package (component bounds, tolerance schedules,
rounding radii) are exact inequalities whose closed forms involve e, square
roots, and logarithms.  To keep those inequalities sound under exact rational
arithmetic, every irrational constant is replaced by a rational value at
least as large as the true one.  A bound assembled from these upper values is
therefore never smaller than the bound in the analysis, and a solution that
beats the computed bound also beats the theoretical one.
"""

from __future__ import annotations

import math
from fractions import Fraction

# e rounded up at the tenth decimal place.  Upper value keeps every bound of
# the form 2*beta*e*n^d valid.
E_UPPER = Fraction(27182818285, 10**10)

_SCALE = 10**12


def eta_upper(d: int) -> Fraction:
    """The analysis's eta = 2e(d - 2) + 1 at degree d, with e taken as
    E_UPPER, so never below the true value for d >= 2."""
    return 2 * E_UPPER * (d - 2) + 1


def sqrt_upper(value: Fraction | int) -> Fraction:
    """Smallest rational on a 1e-12 grid that is >= sqrt(value).

    Exact for perfect squares of grid rationals (sqrt_upper(4) == 2,
    sqrt_upper(Fraction(4, 9)) == Fraction(2, 3)), otherwise an upper bound
    tight to better than 1e-12 absolute.
    """
    q = Fraction(value)
    if q < 0:
        raise ValueError("sqrt_upper of a negative value")
    # sqrt(a/b) = sqrt(a*b)/b; isqrt floors, so bump unless exact.
    a, b = q.numerator, q.denominator
    target = a * b * _SCALE * _SCALE
    root = math.isqrt(target)
    if root * root < target:
        root += 1
    return Fraction(root, b * _SCALE)


def ln_upper(n: int) -> Fraction:
    """Rational upper bound on ln(n) for integer n >= 1.

    Tight to roughly eleven decimal digits: math.log is correct to about one
    ulp, and the relative bump applied here dominates that error before the
    result is rounded up to the 1e-12 grid.
    """
    if n < 1:
        raise ValueError("ln_upper requires n >= 1")
    bumped = math.log(n) * (1.0 + 1e-12)
    return Fraction(math.ceil(bumped * _SCALE), _SCALE)
