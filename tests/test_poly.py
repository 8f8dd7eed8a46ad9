"""Polynomial algebra: evaluation, multilinearization, smoothness,
decomposition, magnitude bounds."""

import itertools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import fraction_value
from helpers import random_bool_vector, random_multilinear, random_point
from smoothip import poly
from smoothip.poly import (
    DecompositionTree,
    Polynomial,
    ScoreTable,
    component_bound,
    decompose,
    evaluate,
    global_bound,
    is_multilinear,
    min_smoothness,
    multilinearize,
)
from smoothip.rat import E_UPPER

# x0*x1*x2 + x1*x3 + 3: the running example used throughout.
EXAMPLE = Polynomial(4, {(0, 1, 2): 1, (1, 3): 1, (): 3})


def reconstruct(tree: DecompositionTree, key: tuple) -> Polynomial:
    """c_I + sum_j x_j * p_(I,j), assembled symbolically."""
    node = tree.nodes[key]
    total = Polynomial.constant(tree.root.n, node.constant)
    for j in node.children:
        child = tree.nodes[key + (j,)]
        total = total + Polynomial.variable(tree.root.n, j) * child.poly
    return total


def test_evaluate_example_point():
    assert evaluate(EXAMPLE, (1, 1, 1, 0)) == 4


def test_evaluate_constant():
    p = Polynomial.constant(4, 3)
    assert evaluate(p, (0, 1, Fraction(1, 2), 1)) == 3


def test_evaluate_all_zero_point():
    assert evaluate(EXAMPLE, (0, 0, 0, 0)) == 3


def test_evaluate_at_boolean_points_is_the_fraction_sum():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(1, 8)
        p = random_multilinear(rng, n, rng.randint(1, min(4, n)))
        p = p * Fraction(rng.randrange(1, 20), rng.randrange(1, 20))
        x = random_bool_vector(rng, n)
        value = evaluate(p, x)
        assert value == fraction_value(p, x)
        assert type(value) is Fraction
    zero = Polynomial(3, {})
    for x in itertools.product((0, 1), repeat=3):
        assert evaluate(zero, x) == 0
        assert type(evaluate(zero, x)) is Fraction
    # Denominators that share factors: 1/4 + 1/6 + 5/12 = 5/6.
    p = Polynomial(2, {(0,): Fraction(1, 4), (1,): Fraction(1, 6),
                       (0, 1): Fraction(5, 12), (): Fraction(-1, 9)})
    assert evaluate(p, (1, 1)) == Fraction(5, 6) - Fraction(1, 9)
    assert evaluate(p, (True, False)) == Fraction(1, 4) - Fraction(1, 9)


def test_evaluate_builds_no_score_table(monkeypatch):
    """evaluate scores Boolean points by its own products, so the tests
    that check a ScoreTable against it check an independent computation."""

    def refuse(p):
        raise AssertionError("evaluate built a ScoreTable")

    monkeypatch.setattr(poly, "ScoreTable", refuse)
    rng = random.Random(72)
    for _ in range(50):
        n = rng.randint(1, 8)
        p = random_multilinear(rng, n, rng.randint(1, min(4, n)))
        p = p * Fraction(rng.randrange(1, 20), rng.randrange(1, 20))
        x = random_bool_vector(rng, n)
        assert evaluate(p, x) == fraction_value(p, x)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(EXAMPLE, (1, 1, 1))


def test_constructor_merges_and_drops_zeros():
    p = Polynomial(3, {(1, 0): 2, (0, 1): -2, (2,): 5})
    assert p.coeffs == {(2,): Fraction(5)}
    assert p.degree == 1


def test_constructor_rejects_bad_index():
    with pytest.raises(ValueError):
        Polynomial(2, {(2,): 1})


def fraction_at_a_time(n, coeffs, degree):
    """What the constructor returns or raises, by the rule with one
    Fraction per term and one Fraction addition per repeated key:
    ("ok", the coefficients' items in order, the degree) or ("raises",
    the exception's type and message)."""
    try:
        if n < 1:
            raise ValueError("need at least one variable")
        merged = {}
        for mono, coeff in coeffs.items():
            value = Fraction(coeff)
            if value == 0:
                continue
            key = tuple(sorted(mono))
            for i in key:
                if not 0 <= i < n:
                    raise ValueError(f"variable index {i} outside [0, {n})")
            merged[key] = merged.get(key, Fraction(0)) + value
        merged = {k: v for k, v in merged.items() if v != 0}
        actual = max((len(k) for k in merged), default=0)
        if degree is not None and degree < actual:
            raise ValueError(f"declared degree {degree} below actual {actual}")
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return "ok", list(merged.items()), actual if degree is None else degree


def built(n, coeffs, degree):
    """The constructor's result in fraction_at_a_time's terms."""
    try:
        p = Polynomial(n, coeffs, degree)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    assert all(type(v) is Fraction for v in p.coeffs.values())
    return "ok", list(p.coeffs.items()), p.degree


COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.fractions(-3, 3, max_denominator=6),
    st.floats(-4, 4, width=16),
    st.sampled_from((0.1, float("nan"), float("inf"))),
    st.integers(-3, 3).map(np.int64),
    st.booleans(),
    st.sampled_from(("2", "-1/2", "0.25", " 3 ", "0", "x")),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4),
    st.lists(
        st.tuples(st.lists(st.integers(0, 4), max_size=3), COEFFS),
        max_size=10,
    ),
    st.one_of(st.none(), st.integers(0, 3)),
)
def test_constructor_is_the_fraction_at_a_time_rule(n, terms, degree):
    """Ints, Fractions, floats, np.int64, bools and strings, keys that
    repeat in another order, terms that cancel to zero, indices past n
    and every error: the same values, key order and errors as the rule
    that makes each coefficient a Fraction and adds them one by one."""
    coeffs = {tuple(mono): coeff for mono, coeff in terms}
    assert built(n, coeffs, degree) == fraction_at_a_time(n, coeffs, degree)


def test_constructor_keeps_the_first_key_order_through_cancellation():
    coeffs = {
        (1, 0): 2, (2,): Fraction(1, 3), (0, 2): 2**70, (): True,
        (0, 1): -2, (2, 2): np.int64(4), (0,): 0.5, (2, 0): 1 - 2**70,
        (1,): "1/2", (3,): 0,
    }
    p = Polynomial(3, coeffs)
    assert list(p.coeffs.items()) == [
        ((2,), Fraction(1, 3)), ((0, 2), Fraction(1)), ((), Fraction(1)),
        ((2, 2), Fraction(4)), ((0,), Fraction(1, 2)),
        ((1,), Fraction(1, 2)),
    ]
    assert p.degree == 2


def test_declared_degree_override():
    p = Polynomial(3, {(0, 1): 1}, degree=3)
    assert p.degree == 3
    with pytest.raises(ValueError):
        Polynomial(3, {(0, 1): 1}, degree=1)


def test_multilinearize_squares_collapse():
    p = Polynomial(2, {(0, 0): 1, (0,): 1})
    assert multilinearize(p) == Polynomial(2, {(0,): 2})


def test_multilinearize_identity_on_multilinear():
    q = multilinearize(EXAMPLE)
    assert q == EXAMPLE


def test_multilinearize_cancellation():
    p = Polynomial(2, {(0, 0, 1): 1, (0, 1): -1})
    assert multilinearize(p) == Polynomial(2, {})


def test_multilinearize_agrees_on_boolean_points():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 7)
        # Build with repeated indices on purpose.
        coeffs = {}
        for _ in range(rng.randrange(1, 8)):
            mono = tuple(
                sorted(rng.choices(range(n), k=rng.randrange(0, 5)))
            )
            coeffs[mono] = coeffs.get(mono, 0) + Fraction(
                rng.randrange(-5, 6)
            )
        p = Polynomial(n, coeffs)
        q = multilinearize(p)
        assert is_multilinear(q)
        for x in itertools.product((0, 1), repeat=n):
            assert evaluate(p, x) == evaluate(q, x)


def random_with_repeats(rng, n):
    """Random polynomial whose monomials may repeat indices and cancel."""
    coeffs = {}
    for _ in range(rng.randrange(1, 10)):
        mono = tuple(rng.choices(range(n), k=rng.randrange(0, 5)))
        coeffs[mono] = coeffs.get(mono, 0) + Fraction(
            rng.randrange(-4, 5), rng.randrange(1, 4)
        )
    return Polynomial(n, coeffs)


def assert_canonical(q, degree=None):
    """q is what the checking constructor makes of its own coefficients:
    sorted in-range keys, nonzero Fraction values, and the declared degree
    (by default the actual one)."""
    checked = Polynomial(q.n, q.coeffs, degree)
    assert q.coeffs == checked.coeffs
    assert all(list(mono) == sorted(mono) for mono in q.coeffs)
    assert all(type(c) is Fraction and c != 0 for c in q.coeffs.values())
    assert q.degree == checked.degree


def test_derived_polynomials_are_canonical():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randrange(1, 7)
        q = multilinearize(random_with_repeats(rng, n))
        assert_canonical(q)
        raised = q.with_degree(q.degree + 2)
        assert_canonical(raised, q.degree + 2)
        assert raised == q
        for node in decompose(q).nodes.values():
            assert_canonical(node.poly)
    with pytest.raises(ValueError):
        Polynomial(3, {(0, 1): 1}).with_degree(1)


def test_min_smoothness_is_the_largest_scaled_coefficient():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randrange(1, 7)
        p = random_with_repeats(rng, n)
        p = p.with_degree(p.degree + rng.randrange(0, 2))
        expected = max(
            (
                abs(c) / Fraction(n) ** (p.degree - len(mono))
                for mono, c in p.coeffs.items()
            ),
            default=Fraction(0),
        )
        assert min_smoothness(p) == expected


def test_min_smoothness_single_top_monomial():
    p = Polynomial(4, {(0, 1): 5})
    assert min_smoothness(p) == 5


def test_min_smoothness_constant():
    p = Polynomial.constant(3, -18).with_degree(2)
    assert min_smoothness(p) == Fraction(18, 9)


def test_min_smoothness_zero_polynomial():
    assert min_smoothness(Polynomial(3, {})) == 0


def test_min_smoothness_is_a_certificate():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(2, 8)
        p = random_multilinear(rng, n, min(3, n))
        beta = min_smoothness(p)
        for mono, coeff in p.coeffs.items():
            assert abs(coeff) <= beta * Fraction(n) ** (p.degree - len(mono))


def test_decompose_worked_example():
    tree = decompose(EXAMPLE)
    assert tree.constant == 3
    assert tree.component_keys() == [(0,), (0, 1), (0, 1, 2), (1,), (1, 3)]
    assert tree.nodes[(0,)].poly == Polynomial(4, {(1, 2): 1})
    assert tree.nodes[(0, 1)].poly == Polynomial(4, {(2,): 1})
    assert tree.nodes[(0, 1, 2)].poly == Polynomial.constant(4, 1)
    assert tree.nodes[(1,)].poly == Polynomial(4, {(3,): 1})
    assert tree.nodes[(1, 3)].poly == Polynomial.constant(4, 1)
    assert tree.nodes[()].children == (0, 1)


def test_decompose_constant_polynomial():
    tree = decompose(Polynomial.constant(3, 7))
    assert tree.constant == 7
    assert tree.component_keys() == []


def test_decompose_linear_polynomial():
    tree = decompose(Polynomial(2, {(0,): 1, (1,): 1}))
    assert tree.constant == 0
    assert tree.nodes[(0,)].poly == Polynomial.constant(2, 1)
    assert tree.nodes[(1,)].poly == Polynomial.constant(2, 1)


def test_decompose_rejects_non_multilinear():
    with pytest.raises(ValueError):
        decompose(Polynomial(2, {(0, 0): 1}))


def test_reconstruction_identity_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(2, 8)
        p = random_multilinear(rng, n, min(4, n))
        tree = decompose(p)
        for key in tree.nodes:
            assert reconstruct(tree, key) == tree.nodes[key].poly


def test_component_degrees_and_strictly_increasing_keys():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randrange(2, 8)
        p = random_multilinear(rng, n, min(4, n))
        tree = decompose(p)
        for key in tree.component_keys():
            assert list(key) == sorted(set(key))
            assert tree.nodes[key].poly.degree <= p.degree - len(key)


def test_decompose_lists_the_nodes_in_sorted_order():
    """The relaxation plan reverses this order to visit every child
    before its parent, with no sort."""
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(1, 9)
        tree = decompose(random_multilinear(rng, n, min(4, n)))
        assert list(tree.nodes) == sorted(tree.nodes)


@st.composite
def scored_polynomials(draw, n=None):
    """Polynomials with mixed-denominator coefficients, some with
    repeated indices, some constant-only and some zero, with variables
    that appear in no monomial; n variables, or a drawn count."""
    n = draw(st.integers(1, 8)) if n is None else n
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=14)
    shape = draw(st.sampled_from(("general", "constant", "zero")))
    if shape == "zero":
        return Polynomial(n, {})
    coeffs = {(): draw(coeff) or 1}
    if shape == "general":
        monos = st.lists(st.integers(0, n - 1), max_size=4)
        for mono in draw(st.lists(monos, max_size=12)):
            key = tuple(sorted(mono))
            coeffs[key] = coeffs.get(key, 0) + draw(coeff)
    return Polynomial(n, coeffs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_score_table_is_evaluate_and_the_fractions(data):
    p = data.draw(scored_polynomials())
    table = ScoreTable(p)
    shipped = pickle.loads(pickle.dumps(table))
    assert shipped == table
    assert all(type(c) is int for c in table.coeffs) and table.scale > 0
    points = data.draw(
        st.lists(st.tuples(*[st.integers(0, 1)] * p.n), min_size=1,
                 max_size=6)
    )
    for z in points:
        value = table.value(z)
        assert type(value) is Fraction
        assert value == evaluate(p, z) == fraction_value(p, z)
        assert shipped.value(z) == value
    with pytest.raises(ValueError):
        table.value((0,) * (p.n + 1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multilinearize_keeps_a_multilinear_input(data):
    """A multilinear input comes back with equal coefficients and its
    actual degree, whatever degree it declared."""
    p = multilinearize(data.draw(scored_polynomials()))
    declared = p.with_degree(p.degree + data.draw(st.integers(0, 2)))
    q = multilinearize(declared)
    assert q.coeffs == p.coeffs
    assert q.degree == max(map(len, p.coeffs), default=0)
    assert_canonical(q)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_smoothness_is_the_fraction_definition(data):
    """min_smoothness on integers over L, from the polynomial or its
    score table, is the largest |c_m| / n^(degree - |m|)."""
    p = data.draw(scored_polynomials())
    p = p.with_degree(p.degree + data.draw(st.integers(0, 2)))
    expected = max(
        (
            abs(c) / Fraction(p.n) ** (p.degree - len(mono))
            for mono, c in p.coeffs.items()
        ),
        default=Fraction(0),
    )
    assert min_smoothness(p) == expected
    assert min_smoothness(ScoreTable(p)) == expected


def test_component_bound_examples():
    assert component_bound(1, 0, 10) == 1
    assert component_bound(2, 1, 5) == 20
    assert component_bound(1, 2, 3) == 27


def test_component_bound_holds_on_boolean_points():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randrange(3, 8)
        p = random_multilinear(rng, n, min(3, n - 1))
        beta = min_smoothness(p)
        tree = decompose(p)
        x = random_bool_vector(rng, n)
        for key in tree.component_keys():
            level = p.degree - len(key)
            if level < 0:
                continue
            value = evaluate(tree.nodes[key].poly, x)
            assert abs(value) <= component_bound(beta, level, n)


def test_global_bound_examples():
    assert global_bound(1, 2, 10) == 200 * E_UPPER
    assert global_bound(2, 3, 5) == 500 * E_UPPER
    with pytest.raises(ValueError):
        global_bound(1, 3, 3)


def test_global_bound_holds_on_unit_cube():
    rng = random.Random(37)
    for _ in range(50):
        d = rng.randrange(1, 4)
        n = rng.randrange(d + 1, d + 6)
        p = random_multilinear(rng, n, d)
        beta = min_smoothness(p)
        x = random_point(rng, n)
        assert abs(evaluate(p, x)) <= global_bound(beta, p.degree, n)

