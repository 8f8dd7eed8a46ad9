import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_reference import fraction_greedy_round, loop_randomized_round
from helpers import random_multilinear, random_point
from smoothip.poly import Polynomial, ScoreTable, evaluate
from smoothip.relax import RelaxationPlan
from smoothip.rounding import (
    greedy_round,
    randomized_round,
    rounding_deviation_term,
    rounding_error_bound,
    rounding_failure_probability,
)

TRIANGLE = Polynomial(
    3,
    {
        (0,): 2,
        (1,): 2,
        (2,): 2,
        (0, 1): -2,
        (0, 2): -2,
        (1, 2): -2,
    },
)


# -- randomized rounding ------------------------------------------------


def test_integral_vectors_are_fixed_points():
    for seed in (0, 1, 99, 2**63):
        assert randomized_round((1, 1, 0), seed) == (1, 1, 0)
        assert randomized_round((0, 0, 0, 0), seed) == (0, 0, 0, 0)


def test_same_seed_reproduces():
    y = (0.2, 0.8, 0.5, 0.5, 0.1)
    assert randomized_round(y, 7) == randomized_round(y, 7)


def test_different_seeds_disagree_somewhere():
    y = (0.5,) * 32
    draws = {randomized_round(y, s) for s in range(20)}
    assert len(draws) > 1


def test_coordinates_are_independent():
    # The draw at position i never looks at the other probabilities, so
    # perturbing one coordinate leaves the rest of the output alone.
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 12)
        y = [rng.random() for _ in range(n)]
        i = rng.randrange(n)
        other = list(y)
        other[i] = rng.random()
        seed = rng.randrange(2**32)
        a = randomized_round(y, seed)
        b = randomized_round(other, seed)
        assert a[:i] == b[:i] and a[i + 1 :] == b[i + 1 :]


def test_mean_matches_the_probabilities():
    n, trials = 20, 10_000
    y = (0.5,) * n
    total = sum(sum(randomized_round(y, s)) for s in range(trials))
    assert abs(total / trials - n / 2) < 0.5


def test_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        randomized_round((0.5, 1.2), 0)
    with pytest.raises(ValueError):
        randomized_round((-0.1,), 0)


def test_empty_vector():
    assert randomized_round((), 5) == ()


# Floats in [0, 1] (subnormals included), the float just below 1, -0.0,
# the ints 0 and 1 and Fractions.
PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([5e-324, 2.0**-1060, 1.0 - 2.0**-53, -0.0, 0, 1]),
    st.fractions(0, 1, max_denominator=10**9),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(PROBABILITIES, max_size=40), st.integers(0, 2**70))
@example([0.5] * 8 + [5e-324, 1.0 - 2.0**-53], 2**64 + 3)
@example([Fraction(1, 3), -0.0, 1, 0], 2**64)
def test_randomized_round_matches_the_loop_reference(y, seed):
    z = randomized_round(y, seed)
    assert z == loop_randomized_round(y, seed)
    assert all(type(v) is int for v in z)


@pytest.mark.parametrize(
    "bad", [math.nan, -0.1, 1.5, Fraction(3, 2)], ids=str
)
def test_rejects_the_first_bad_probability_as_the_loop_reference(bad):
    y = (0.5, 1.0, bad, 2.0)
    with pytest.raises(ValueError) as got:
        randomized_round(y, 3)
    with pytest.raises(ValueError) as want:
        loop_randomized_round(y, 3)
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"probability {bad} outside [0, 1]"


# -- greedy rounding ----------------------------------------------------


def test_single_variable_prefers_the_improving_side():
    p = Polynomial(1, {(0,): 1})
    assert greedy_round(p, (0.5,)) == (1,)
    assert greedy_round(-p, (0.5,)) == (0,)


def test_tie_breaks_toward_the_heavier_side():
    # x0 never appears, so its margin is zero and the fractional value
    # decides: strictly above one half goes to 1.
    p = Polynomial(2, {(1,): 1})
    assert greedy_round(p, (0.75, 0.3)) == (1, 1)
    assert greedy_round(p, (0.5, 0.3)) == (0, 1)
    assert greedy_round(p, (0.25, 0.3)) == (0, 1)


def test_triangle_from_the_center():
    z = greedy_round(TRIANGLE, (0.5, 0.5, 0.5))
    assert z == (0, 1, 0)
    assert evaluate(TRIANGLE, z) == 2


def test_never_below_the_fractional_value():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 9)
        p = random_multilinear(rng, n, rng.randint(1, min(4, n)))
        y = random_point(rng, n)
        z = greedy_round(p, y)
        assert set(z) <= {0, 1}
        assert evaluate(p, z) >= evaluate(p, y)


def test_each_step_is_locally_optimal():
    # After fixing coordinate i the hybrid point (z_0..z_i, y_{i+1}..) is
    # at least as good as with the opposite choice of z_i.
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 7)
        p = random_multilinear(rng, n, rng.randint(2, min(3, n)))
        y = random_point(rng, n)
        z = greedy_round(p, y)
        current = list(y)
        for i in range(n):
            flipped = list(current)
            current[i] = z[i]
            flipped[i] = 1 - z[i]
            assert evaluate(p, current) >= evaluate(p, flipped)


def test_integral_starts_only_move_strictly_uphill():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(1, 8)
        p = random_multilinear(rng, n, rng.randint(1, min(4, n)))
        y = tuple(rng.randint(0, 1) for _ in range(n))
        z = greedy_round(p, y)
        if z != y:
            assert evaluate(p, z) > evaluate(p, y)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_greedy_monotone_property(data):
    rng = random.Random(data.draw(st.integers(0, 2**20)))
    n = data.draw(st.integers(1, 8))
    p = random_multilinear(rng, n, rng.randint(1, min(3, n)))
    y = tuple(
        data.draw(
            st.fractions(min_value=0, max_value=1, max_denominator=16)
        )
        for _ in range(n)
    )
    assert evaluate(p, greedy_round(p, y)) >= evaluate(p, y)


# Floats where a scaled margin is easiest to get wrong: the ends, the tie
# point, the float just below 1 and the smallest subnormal.
SPECIAL_FLOATS = (0.0, 1.0, 0.5, 1 - 2**-53, 5e-324)


@st.composite
def multilinear_polynomials(draw):
    """Multilinear polynomials of degree 2-4 with negative and
    non-integer coefficients; at least one monomial has the full degree."""
    n = draw(st.integers(2, 7))
    d = draw(st.integers(2, min(4, n)))
    coeff = st.fractions(min_value=-8, max_value=8, max_denominator=12)
    monos = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), max_size=d), min_size=1,
            max_size=14,
        )
    )
    coeffs = {tuple(range(d)): draw(coeff.filter(bool))}
    for mono in monos:
        key = tuple(sorted(mono))
        coeffs[key] = coeffs.get(key, 0) + draw(coeff)
    return Polynomial(n, coeffs)


def unit_floats():
    return st.one_of(
        st.sampled_from(SPECIAL_FLOATS), st.floats(min_value=0, max_value=1)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_margins_match_fraction_margins(data):
    p = data.draw(multilinear_polynomials())
    y = data.draw(st.lists(unit_floats(), min_size=p.n, max_size=p.n))
    z = fraction_greedy_round(p, y)
    assert greedy_round(p, y) == z
    assert greedy_round(p, np.array(y, dtype=np.float64)) == z
    assert greedy_round(p, [np.float64(v) for v in y]) == z


@settings(max_examples=100, deadline=None)
@given(multilinear_polynomials())
def test_integer_margins_from_the_halves_baseline(p):
    halves = (Fraction(1, 2),) * p.n
    assert greedy_round(p, halves) == fraction_greedy_round(p, halves)


def test_integer_margins_on_special_floats():
    # Every pattern of the special floats on a cubic with fractional and
    # negative coefficients, some margins zero by construction.
    p = Polynomial(
        3,
        {(0, 1, 2): Fraction(-5, 3), (0, 1): Fraction(7, 2), (2,): -1,
         (1,): Fraction(1, 6), (): 4},
    )
    for y in itertools.product(SPECIAL_FLOATS, repeat=3):
        assert greedy_round(p, y) == fraction_greedy_round(p, y)


def test_greedy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        greedy_round(Polynomial(2, {(0, 0): 1}), (0.5, 0.5))
    with pytest.raises(ValueError):
        greedy_round(TRIANGLE, (0.5, 0.5))
    with pytest.raises(ValueError):
        greedy_round(TRIANGLE, (0.5, 0.5, 1.5))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=str)
def test_greedy_rejects_a_non_finite_coordinate_as_outside(bad):
    """An infinity or NaN is a coordinate outside [0, 1], said as such,
    not an error of converting it to a ratio."""
    p = Polynomial(2, {(0,): 1, (1,): 1, (0, 1): -2})
    for y in ((bad, 0.5), (0.5, np.float64(bad))):
        with pytest.raises(ValueError) as got:
            greedy_round(p, y)
        assert str(got.value) == f"coordinate {bad} outside [0, 1]"


# -- greedy rounding on the relaxation plan -----------------------------


@st.composite
def table_objectives(draw):
    """Multilinear polynomials of degree 1-4 with a constant monomial and
    at least one variable that appears in no monomial, and now and then
    the empty or a constant-only polynomial; each declared up to two
    degrees above its actual one, as prepare pads a linear objective to
    degree 2."""
    n = draw(st.integers(2, 9))
    coeff = st.fractions(min_value=-8, max_value=8, max_denominator=12)
    above = draw(st.integers(0, 2))
    shape = draw(st.integers(0, 5))
    if shape == 0:
        return Polynomial(n, {}, above)
    if shape == 1:
        return Polynomial(n, {(): draw(coeff.filter(bool))}, above)
    live = sorted(
        draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    )
    d = draw(st.integers(1, min(4, len(live))))
    monos = draw(
        st.lists(st.sets(st.sampled_from(live), max_size=d), max_size=14)
    )
    coeffs = {
        (): draw(coeff.filter(bool)),
        tuple(live[:d]): draw(coeff.filter(bool)),
    }
    for mono in monos:
        key = tuple(sorted(mono))
        coeffs[key] = coeffs.get(key, 0) + draw(coeff)
    p = Polynomial(n, coeffs)
    return p.with_degree(p.degree + above)


def unit_values():
    """A coordinate in [0, 1] as a float, an np.float64, a Fraction or an
    int."""
    return st.one_of(
        unit_floats(),
        unit_floats().map(np.float64),
        st.fractions(min_value=0, max_value=1, max_denominator=30),
        st.sampled_from((0, 1)),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tables_round_as_the_polynomial_and_the_fractions(data):
    """Rounding on a polynomial's relaxation plan, or on the plan's
    pickled copy, gives the z that the Fraction margins give."""
    p = data.draw(table_objectives())
    plan = RelaxationPlan(ScoreTable(p))
    shipped = pickle.loads(pickle.dumps(plan))
    assert shipped == plan
    for _ in range(3):
        y = data.draw(st.lists(unit_values(), min_size=p.n, max_size=p.n))
        z = fraction_greedy_round(p, y)
        assert greedy_round(plan, y) == z
        assert greedy_round(shipped, y) == z
        assert greedy_round(p, y) == z


def test_tables_reject_what_the_polynomial_rejects():
    """The plan refuses a polynomial that is not multilinear, and
    rounding on the plan, or on its pickled copy, refuses every point
    that rounding on the polynomial refuses."""
    with pytest.raises(ValueError, match="multilinear"):
        RelaxationPlan(ScoreTable(Polynomial(2, {(0, 1): 1, (1, 1): 2})))
    plan = RelaxationPlan(ScoreTable(TRIANGLE))
    shipped = pickle.loads(pickle.dumps(plan))
    for y in (
        (0.5, 0.5),
        (0.5, 0.5, 0.5, 0.5),
        (0.5, 0.5, 1.5),
        (0.5, -5e-324, 0.5),
        (np.float64(1.25), 0, 0),
        (Fraction(4, 3), 0, 0),
        (0, 2, 0),
        (0, -1, 0),
        (0.5, math.nan, 0.5),
    ):
        for objective in (plan, shipped, TRIANGLE):
            with pytest.raises(ValueError):
                greedy_round(objective, y)


# -- concentration radius -----------------------------------------------


def close_above(bound: Fraction, target: float) -> bool:
    return target <= float(bound) <= target * (1 + 1e-9)


def test_quadratic_radius_value():
    # 3 * beta * n * sqrt((k+1)/2) * sqrt(n ln n) at degree two.
    exact = 3 * 100 * math.sqrt(1.0) * math.sqrt(100 * math.log(100))
    assert close_above(rounding_error_bound(1, 100, 2, 1), exact)


def test_cubic_radius_value():
    lead = 1 + 2 * math.e
    exact = lead * 100 * math.sqrt(2.5) * math.sqrt(10 * math.log(10))
    assert close_above(rounding_error_bound(1, 10, 3, 4), exact)


def test_deviation_term_drops_the_quadratic_constant():
    assert rounding_error_bound(2, 30, 2, 1) == 3 * rounding_deviation_term(
        2, 30, 2, 1
    )
    assert rounding_error_bound(1, 10, 3, 2) == rounding_deviation_term(
        1, 10, 3, 2
    )


def test_radius_grows_with_confidence():
    a = rounding_error_bound(1, 50, 2, 1)
    b = rounding_error_bound(1, 50, 2, 3)
    assert a < b


def test_radius_validation():
    with pytest.raises(ValueError):
        rounding_error_bound(1, 1, 2, 1)
    with pytest.raises(ValueError):
        rounding_error_bound(1, 10, 1, 1)
    with pytest.raises(ValueError):
        rounding_error_bound(1, 10, 2, 0)


def test_failure_probability():
    assert rounding_failure_probability(10, 2, 1) == pytest.approx(0.4)
    assert rounding_failure_probability(10, 3, 3) == pytest.approx(0.06)
    assert rounding_failure_probability(100, 2, 2) == pytest.approx(4e-4)
