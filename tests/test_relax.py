import itertools
import random
from fractions import Fraction

import pytest

from exact_reference import (
    evaluate_constrained_relaxation,
    evaluate_relaxation,
    window_saturated,
)
from helpers import (
    alternating,
    at_most,
    pipeline_relaxation,
    random_bool_vector,
    random_multilinear,
)
from smoothip.lpsolve import INFEASIBLE, OPTIMAL, box_optimum, solve
from smoothip.poly import Polynomial, decompose, evaluate, min_smoothness
from smoothip.problems import (
    gen_gnp,
    gen_ksat,
    maxcut_objective,
    maxksat_objective,
)
from smoothip.rat import E_UPPER
from smoothip.relax import (
    ConstrainedProgram,
    build_constrained_relaxation,
    build_relaxation,
    constraint_degree,
    constraint_trees,
    constraint_violation_bound,
    gap_bound,
    prepare_relaxation,
    tolerance,
)
from smoothip.rounding import rounding_deviation_term

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


def row_holds(coeffs, lo, hi, z) -> bool:
    value = sum(Fraction(c) * Fraction(v) for c, v in zip(coeffs, z))
    if lo is not None and value < lo:
        return False
    if hi is not None and value > hi:
        return False
    return True


def feasible(model, z) -> bool:
    return all(row_holds(c, lo, hi, z) for c, lo, hi in model.rows)


def hamming(a, b) -> int:
    return sum(1 for u, v in zip(a, b) if u != v)


# -- tolerance schedule -------------------------------------------------


def test_tolerance_deepest_level():
    # beta * sqrt(n * eps) with a perfect square under the root: exact.
    assert tolerance(2, 4, 2, 1, 1) == 4


def test_tolerance_zero_budget():
    assert tolerance(2, 4, 2, 1, 0) == 0
    assert tolerance(1, 9, 3, 2, 0) == 0


def test_tolerance_upper_level():
    # 2 * beta * e * n^(d - l - 1) * sqrt(n * eps) above the deepest level.
    assert tolerance(1, 4, 3, 1, 4) == 32 * E_UPPER


def test_tolerance_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tolerance(1, 4, 2, 0, 1)
    with pytest.raises(ValueError):
        tolerance(1, 4, 2, 2, 1)
    with pytest.raises(ValueError):
        tolerance(1, 4, 2, 1, -1)
    with pytest.raises(ValueError):
        tolerance(1, 4, 2, 1, 5)


def test_tolerance_square_is_tight():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 40)
        eps = rng.randint(1, n)
        beta = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        delta = tolerance(beta, n, 2, 1, eps)
        # Upward but barely: delta^2 is within a relative 1e-9 of beta^2*n*eps.
        assert delta**2 >= beta**2 * n * eps
        assert delta**2 <= beta**2 * n * eps * (1 + Fraction(1, 10**9))


def test_relaxation_rows_skip_top_level():
    p = Polynomial(4, {(0, 1, 2): 1, (1, 3): 1, (): 3})
    relaxation = prepare_relaxation(decompose(p), (1, 1, 0, 1), 1)
    assert [row.key for row in relaxation.rows] == [(0,), (0, 1), (1,), (1, 3)]
    assert [row.widening for row in relaxation.rows] == [
        ((3, 1, 1),), ((3, 2, 1),), ((3, 1, 1),), ((3, 2, 1),)
    ]
    assert relaxation.n == 4 and relaxation.beta == 1
    # Row (0,) linearizes p_0 = x1 x2 around xhat: coefficient of x1 is
    # p_(0,1)(xhat) = x2 = 0; centre p_0(xhat) - c_0 = 0; range [0, 0].
    first = relaxation.rows[0]
    assert first.coeffs == (0, 0, 0, 0)
    assert (first.lower, first.upper, first.low, first.high) == (0, 0, 0, 0)
    # Row (1,): p_1 = x3 gives coefficient 1 on x3, centre 1, range [0, 1].
    third = relaxation.rows[2]
    assert third.coeffs == (0, 0, 0, 1)
    assert (third.lower, third.upper, third.low, third.high) == (1, 1, 0, 1)


# -- the relaxation itself ----------------------------------------------


def test_triangle_model_structure():
    model = build_relaxation(decompose(TRIANGLE), (1, 0, 0), 0, 2)
    assert model.objective == (2, 2, 2)
    assert model.offset == 0
    assert model.var_bounds == ((0, 1),) * 3
    # Component rows in key order: (0,), (1,), (2,); all centered at 0
    # because the prediction satisfies each linearization exactly.
    assert model.rows == (
        ((0, -2, -2), 0, 0),
        ((0, 0, -2), 0, 0),
        ((0, 0, 0), 0, 0),
    )


def test_triangle_zero_budget_pins_the_prediction_side():
    sol = solve(build_relaxation(decompose(TRIANGLE), (1, 0, 0), 0, 2))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(2.0, abs=1e-7)


def test_prediction_is_always_feasible():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(2, 9)
        p = random_multilinear(rng, n, rng.randint(2, min(4, n)))
        tree = decompose(p)
        xhat = random_bool_vector(rng, n)
        eps = rng.randint(0, n)
        model = build_relaxation(tree, xhat, eps, min_smoothness(p))
        assert feasible(model, xhat)


def test_nearby_points_are_feasible_at_their_distance():
    """Any z within Hamming distance eps of the prediction satisfies every
    relaxation row built with budget eps, in exact arithmetic.  This is
    the property the tolerance schedule exists to provide; the true
    optimum is the z that matters, but it holds for all of them."""
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(2, 9)
        p = random_multilinear(rng, n, rng.randint(2, min(4, n)))
        tree = decompose(p)
        xhat = random_bool_vector(rng, n)
        z = random_bool_vector(rng, n)
        model = build_relaxation(tree, xhat, hamming(xhat, z), min_smoothness(p))
        assert feasible(model, z)


def test_lp_value_dominates_reachable_points():
    # The LP maximizes the xhat-linearization, so its value is at least
    # p(xhat) always (the prediction satisfies the identity exactly) and
    # at least p(x*) - gap_bound at eps = dist(xhat, x*); with a perfect
    # prediction it collapses onto the optimum.
    rng = random.Random(31)
    for trial in range(25):
        n = rng.randint(3, 7)
        p = random_multilinear(rng, n, rng.randint(2, 3))
        if p.degree < 2:
            continue
        tree = decompose(p)
        best_z, best_v = None, None
        for z in itertools.product((0, 1), repeat=n):
            v = evaluate(p, z)
            if best_v is None or v > best_v:
                best_z, best_v = z, v
        xhat = best_z if trial % 5 == 0 else random_bool_vector(rng, n)
        eps = hamming(xhat, best_z)
        beta = min_smoothness(p)
        model = build_relaxation(tree, xhat, eps, beta)
        assert feasible(model, best_z)
        sol = solve(model, warm_start=xhat)
        assert sol.status == OPTIMAL
        assert sol.objective_value >= float(evaluate(p, xhat)) - 1e-6
        floor = best_v - gap_bound(beta, n, p.degree, eps)
        assert sol.objective_value >= float(floor) - 1e-6
        if eps == 0:
            assert sol.objective_value == pytest.approx(
                float(best_v), abs=1e-6
            )


def test_rows_nest_as_the_budget_grows():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(2, 8)
        p = random_multilinear(rng, n, rng.randint(2, min(4, n)))
        tree = decompose(p)
        xhat = random_bool_vector(rng, n)
        beta = min_smoothness(p)
        e1 = rng.randint(0, n - 1)
        e2 = rng.randint(e1, n)
        small = build_relaxation(tree, xhat, e1, beta)
        large = build_relaxation(tree, xhat, e2, beta)
        assert small.objective == large.objective
        for (c1, lo1, hi1), (c2, lo2, hi2) in zip(small.rows, large.rows):
            assert c1 == c2
            assert lo2 <= lo1 and hi1 <= hi2


def strictly_redundant(coeffs, lo, hi) -> bool:
    low = sum(min(c, 0) for c in coeffs)
    high = sum(max(c, 0) for c in coeffs)
    return (lo is None or lo < low) and (hi is None or high < hi)


def random_relaxation(rng):
    n = rng.randint(3, 9)
    p = random_multilinear(rng, n, rng.randint(2, min(4, n)))
    p = p.with_degree(max(2, p.degree))
    xhat = random_bool_vector(rng, n)
    return p, xhat, prepare_relaxation(decompose(p), xhat, min_smoothness(p))


def test_saturation_budget_is_exact_and_monotone():
    rng = random.Random(83)
    interior = 0
    for _ in range(80):
        p, _, relaxation = random_relaxation(rng)
        grid = list(range(p.n + 1))
        budget = relaxation.saturation_budget(grid)
        for eps in grid:
            model = relaxation.model(eps)
            # Exact check on the built model: from the budget on every row
            # holds on the whole box; before it at least one row is live.
            assert all(
                strictly_redundant(*row) for row in model.rows
            ) == (budget is not None and eps >= budget)
        if budget is not None:
            interior += budget > 0
            # On a coarser grid the budget is the first grid point past it.
            assert relaxation.saturation_budget(grid[::2]) == next(
                (e for e in grid[::2] if e >= budget), None
            )
    assert interior >= 20


def test_box_optimum_is_the_simplex_result_past_saturation():
    # TRIANGLE has objective coefficient p_0(xhat) = 2 - 2 x1 - 2 x2 = 0
    # at both predictions below, so y_0 must stay at the prediction.
    cases = [(TRIANGLE, (1, 1, 0)), (TRIANGLE, (0, 0, 1))]
    rng = random.Random(89)
    for _ in range(40):
        p, xhat, _ = random_relaxation(rng)
        cases.append((p, xhat))
    saturated = 0
    for p, xhat in cases:
        relaxation = prepare_relaxation(decompose(p), xhat, min_smoothness(p))
        budget = relaxation.saturation_budget(list(range(p.n + 1)))
        if budget is None:
            continue
        box = box_optimum(relaxation.objective, relaxation.offset, xhat)
        for eps in range(budget, p.n + 1):
            sol = solve(relaxation.model(eps), warm_start=xhat)
            assert sol.status == OPTIMAL
            assert box.y == sol.y
            assert box.objective_value == sol.objective_value
            saturated += 1
    assert saturated >= 100
    for xhat in ((1, 1, 0), (0, 0, 1)):
        relaxation = prepare_relaxation(decompose(TRIANGLE), xhat, 2)
        assert relaxation.objective[0] == 0
        assert box_optimum(
            relaxation.objective, relaxation.offset, xhat
        ).y[0] == xhat[0]


def seeded_relaxations():
    """(xhat, relaxation) for seeded MAX-CUT, 3-SAT and MAX-CUT under
    sum x <= 4; the alternating prediction breaks that window, so its LPs
    start cold below the budget that widens it to 8."""
    for seed in range(3):
        rng = random.Random(seed)
        cut = maxcut_objective(gen_gnp(20, 0.4, seed))
        sat = maxksat_objective(gen_ksat(14, 56, 3, seed))
        for objective, constraints in (
            (cut, ()),
            (sat, ()),
            (maxcut_objective(gen_gnp(16, 0.4, seed)), (at_most(16, 4),)),
        ):
            n = objective.n
            for xhat in (random_bool_vector(rng, n), alternating(n)):
                yield xhat, pipeline_relaxation(objective, xhat, constraints)


def test_rows_carry_the_predictions_activity():
    for xhat, relaxation in seeded_relaxations():
        for row in relaxation.rows:
            assert row.activity == sum(c * x for c, x in zip(row.coeffs, xhat))


def test_prepared_lp_is_solve_at_every_budget():
    """The LP prepared once per solve, given one budget's windows, returns
    what lpsolve.solve returns on that budget's model from the
    prediction, cold starts included."""
    cold = infeasible = 0
    for xhat, relaxation in seeded_relaxations():
        lp = relaxation.lp()
        grid = list(range(relaxation.n + 1))
        # Past the first saturated budget every LP is a box LP.
        for eps in grid[: grid.index(relaxation.saturation_budget(grid)) + 1]:
            windows = relaxation.windows(eps)
            model = relaxation.model(eps)
            once = solve(model, warm_start=xhat)
            assert repr(lp.solve(windows)) == repr(once)
            if not feasible(model, xhat):
                cold += 1
                infeasible += solve(model).status == INFEASIBLE
    assert cold > infeasible > 0


def test_prediction_rejected_when_malformed():
    tree = decompose(TRIANGLE)
    with pytest.raises(ValueError):
        build_relaxation(tree, (1, 0), 0, 2)
    with pytest.raises(ValueError):
        build_relaxation(tree, (1, 0, 2), 0, 2)
    with pytest.raises(ValueError):
        build_relaxation(tree, (1, 0, 0.5), 0, 2)


# -- additive bounds ----------------------------------------------------


def test_gap_bound_quadratic():
    # 2 * beta * n^(3/2) * sqrt(eps): exact when n * eps is a square.
    assert gap_bound(2, 4, 2, 1) == 32


def test_gap_bound_cubic():
    assert gap_bound(1, 4, 3, 1) == 128 * E_UPPER + 64


def test_gap_bound_edges():
    assert gap_bound(5, 10, 4, 0) == 0
    with pytest.raises(ValueError):
        gap_bound(1, 4, 1, 1)


def test_violation_bound_splits_into_slack_and_rounding():
    n, d, k = 9, 2, 3
    drift = rounding_deviation_term(1, n, d, k)
    assert constraint_violation_bound(1, n, d, 0, k) == drift
    # eta = 1 at d = 2, so the slack part is n * sqrt(n * eps) = 9 * 6.
    assert constraint_violation_bound(1, n, d, 4, k) == 54 + drift


# -- constrained variant ------------------------------------------------


def test_cardinality_constraint_window():
    budget = Polynomial(4, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})
    prog = ConstrainedProgram(
        Polynomial(4, {(0, 1): 1}), ((budget, None, Fraction(2)),)
    )
    model = build_constrained_relaxation(prog, (0, 0, 0, 0), 1, 1)
    # delta_c sums the four per-variable tolerances beta*sqrt(4*1) = 2.
    top = model.rows[len(build_relaxation(decompose(prog.objective), (0,) * 4, 1, 1).rows)]
    assert top == ((1, 1, 1, 1), None, 10)


def test_linear_constraints_enter_as_quadratic():
    assert constraint_degree(Polynomial(3, {(0,): 1})) == 2
    assert constraint_degree(Polynomial(3, {(0, 1, 2): 1})) == 3


def test_no_constraints_reduces_to_plain_relaxation():
    tree = decompose(TRIANGLE)
    plain = build_relaxation(tree, (1, 1, 0), 2, 2)
    wrapped = build_constrained_relaxation(
        ConstrainedProgram(TRIANGLE), (1, 1, 0), 2, 2
    )
    assert wrapped == plain


def test_feasible_points_respect_constraint_windows():
    """A point that satisfies the true constraints and sits within eps of
    the prediction satisfies the widened windows exactly."""
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randint(2, 8)
        objective = random_multilinear(rng, n, rng.randint(2, min(3, n)))
        z = random_bool_vector(rng, n)
        constraints = []
        for _ in range(rng.randint(1, 3)):
            q = random_multilinear(rng, n, rng.randint(1, min(3, n)))
            at_z = evaluate(q, z)
            lower = None if rng.random() < 0.3 else at_z - rng.randint(0, 3)
            upper = None if lower is not None and rng.random() < 0.3 else (
                at_z + rng.randint(0, 3)
            )
            constraints.append((q, lower, upper))
        prog = ConstrainedProgram(objective, tuple(constraints))
        beta = max(
            min_smoothness(objective.with_degree(max(2, objective.degree))),
            *(
                min_smoothness(q.with_degree(constraint_degree(q)))
                for q, _, _ in constraints
            ),
        )
        xhat = random_bool_vector(rng, n)
        model = build_constrained_relaxation(
            prog, xhat, hamming(xhat, z), beta
        )
        assert feasible(model, z)


def test_crossed_constraint_bounds_rejected():
    with pytest.raises(ValueError):
        ConstrainedProgram(
            TRIANGLE, ((Polynomial(3, {(0,): 1}), 2, 1),)
        )
    with pytest.raises(ValueError):
        ConstrainedProgram(
            TRIANGLE, ((Polynomial(4, {(0,): 1}), None, 1),)
        )



# -- integer build against per-child evaluation -------------------------


def fractional_multilinear(rng, n, d):
    """Multilinear polynomial of degree d with signed coefficients over
    denominators up to 12, so that the shared denominator is rarely 1."""
    coeffs = {tuple(range(d)): Fraction(rng.choice((-7, 5)), 6)}
    for _ in range(rng.randrange(1, 14)):
        mono = tuple(sorted(rng.sample(range(n), rng.randrange(0, d + 1))))
        coeffs[mono] = coeffs.get(mono, 0) + Fraction(
            rng.randrange(-9, 10), rng.randrange(1, 13)
        )
    return Polynomial(n, coeffs)


def assert_same_relaxation(built, reference):
    assert built.objective == reference.objective
    assert built.offset == reference.offset
    assert len(built.rows) == len(reference.rows)
    for row, ref in zip(built.rows, reference.rows):
        for field in (
            "key", "coeffs", "lower", "upper", "low", "high", "activity",
            "widening", "need",
        ):
            assert getattr(row, field) == getattr(ref, field), field
        assert all(type(c) is Fraction for c in row.coeffs)
    assert built == reference
    for eps in range(built.n + 1):
        assert built.saturated(eps) == window_saturated(reference, eps)


def test_integer_build_matches_per_child_evaluation():
    rng = random.Random(97)
    for _ in range(150):
        n = rng.randint(3, 9)
        p = fractional_multilinear(rng, n, rng.randint(2, min(4, n)))
        xhat = random_bool_vector(rng, n)
        tree = decompose(p)
        beta = min_smoothness(p)
        assert_same_relaxation(
            prepare_relaxation(tree, xhat, beta),
            evaluate_relaxation(tree, xhat, beta),
        )


def test_integer_constrained_build_matches_per_child_evaluation():
    rng = random.Random(101)
    one_sided = fractional = 0
    for _ in range(100):
        n = rng.randint(3, 8)
        objective = fractional_multilinear(rng, n, rng.randint(2, min(3, n)))
        xhat = random_bool_vector(rng, n)
        constraints = []
        for _ in range(rng.randint(1, 3)):
            q = fractional_multilinear(rng, n, rng.randint(1, min(3, n)))
            at = evaluate(q, xhat)
            lower = at - Fraction(rng.randrange(0, 20), rng.randrange(1, 7))
            upper = at + Fraction(rng.randrange(-3, 20), rng.randrange(1, 7))
            shape = rng.random()
            if shape < 0.25:
                lower = None
            elif shape < 0.5:
                upper = None
            elif shape < 0.55:
                lower = upper = None
            elif upper < lower:
                upper = lower
            one_sided += (lower is None) != (upper is None)
            fractional += any(
                b is not None and b.denominator > 1 for b in (lower, upper)
            )
            constraints.append((q, lower, upper))
        prog = ConstrainedProgram(objective, tuple(constraints))
        beta = Fraction(rng.randrange(1, 30), rng.randrange(1, 9))
        assert_same_relaxation(
            prepare_relaxation(
                decompose(prog.objective), xhat, beta,
                constraint_trees(prog.constraints),
            ),
            evaluate_constrained_relaxation(prog, xhat, beta),
        )
    assert one_sided > 20 and fractional > 20


def test_saturated_agrees_with_the_windows_on_pipeline_relaxations():
    seen = set()
    for xhat, relaxation in seeded_relaxations():
        for eps in range(relaxation.n + 1):
            saturated = relaxation.saturated(eps)
            assert saturated == window_saturated(relaxation, eps)
            seen.add(saturated)
    assert seen == {False, True}
