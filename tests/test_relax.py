import dataclasses
import itertools
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from exact_reference import (
    as_fractions,
    evaluate_constrained_relaxation,
    evaluate_relaxation,
    group_saturation_budget,
    schedule_width,
    window_saturated,
)
from helpers import (
    alternating,
    at_most,
    pipeline_relaxation,
    random_bool_vector,
    random_multilinear,
    solve_model,
)
from test_golden import corpus
from test_poly import scored_polynomials
from smoothip.lpsolve import INFEASIBLE, OPTIMAL, box_optimum
from smoothip.pipeline import Instance, SolveConfig, _normalized, prepare
from smoothip.pipeline import solve as pipeline_solve
from smoothip.poly import (
    Polynomial,
    ScoreTable,
    decompose,
    evaluate,
    min_smoothness,
    multilinearize,
)
from smoothip.problems import (
    gen_gnp,
    gen_ksat,
    maxcut_objective,
    maxksat_objective,
)
from smoothip.rat import E_UPPER
from smoothip.relax import (
    ConstrainedProgram,
    Relaxation,
    RelaxationPlan,
    build_constrained_relaxation,
    build_relaxation,
    constraint_degree,
    constraint_plans,
    constraint_violation_bound,
    gap_bound,
    prepare_relaxation,
    tolerance,
)
from smoothip.rounding import (
    GreedyTables,
    greedy_round,
    rounding_deviation_term,
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


def tree_plan(tree) -> dict:
    """A plan's fields as the decomposition tree gives them: the tree's
    nodes numbered child-first, their constants over L, the nodes with
    children and top by those numbers, each component node's width by
    the paper's schedule, and the plan's width summed over every
    component node, childless ones included."""
    root = tree.root
    d = root.degree
    scale = math.lcm(*(c.denominator for c in root.coeffs.values()))
    keys = sorted(tree.nodes, reverse=True)
    position = {key: k for k, key in enumerate(keys)}
    children = {
        position[key]: tuple(
            (j, position[key + (j,)]) for j in tree.nodes[key].children
        )
        for key in keys
        if tree.nodes[key].children
    }
    depths = Counter(len(key) for key in keys if 1 <= len(key) <= d - 1)
    return {
        "n": root.n,
        "degree": d,
        "scale": scale,
        "offset": tree.constant,
        "constants": tuple(tree.nodes[key].constant * scale for key in keys),
        "nodes": tuple(
            (
                key, position[key],
                schedule_width(root.n, ((d, len(key), 1),)).as_integer_ratio()
                if key else None,
                children[position[key]],
            )
            for key in keys
            if position[key] in children
        ),
        "top": children.get(len(keys) - 1, ()),
        "width": schedule_width(
            root.n, tuple((d, l, c) for l, c in sorted(depths.items()))
        ).as_integer_ratio(),
    }


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plan_off_the_monomials_is_the_decomposition(data):
    """The plan read off a polynomial's score table holds what its
    decomposition tree says, node for node: with mixed denominators,
    zero and constant-only polynomials, unused variables, a declared
    degree above the actual one, and for side constraints at their
    constraint degree; a prepared instance of such plans pickles."""
    raw = data.draw(scored_polynomials())
    p = multilinearize(raw)
    raised = p.with_degree(p.degree + data.draw(st.integers(0, 2)))
    assert vars(RelaxationPlan(ScoreTable(raised))) == tree_plan(
        decompose(raised)
    )
    bound = st.none() | st.fractions(-9, 9, max_denominator=7)
    lower, upper = data.draw(bound), data.draw(bound)
    if lower is not None and upper is not None and lower > upper:
        lower, upper = upper, lower
    side_raw = data.draw(scored_polynomials(raw.n))
    constraints = ((side_raw, lower, upper),)
    prepared = prepare(Instance(raw, constraints))
    assert pickle.loads(pickle.dumps(prepared)) == prepared
    p, ((side, _, _),) = _normalized(raw, constraints)
    assert vars(prepared.plan) == tree_plan(decompose(p))
    assert side.degree == constraint_degree(side)
    ((side_plan, *_),) = prepared.constraint_plans
    assert vars(side_plan) == tree_plan(decompose(side))


def test_plan_rejects_what_decompose_rejects():
    square = Polynomial(2, {(0, 0): 1, (1,): 2})
    with pytest.raises(ValueError):
        decompose(square)
    with pytest.raises(ValueError):
        RelaxationPlan(ScoreTable(square))


@pytest.mark.parametrize("repeat", [(0, 0), (0, 0, 1), (0, 1, 1), (1, 2, 2)])
def test_unchecked_polynomials_with_a_repeat_are_rejected(repeat):
    """The plan sees a repeated index, at the start, the middle or the end
    of a monomial, without a scan of its own, so the constrained build,
    which takes its polynomials unchecked, raises on a repeat in the
    objective or in a side constraint; so do greedy rounding's tables."""
    clean = Polynomial(3, {(0, 1): 1, (2,): 1})
    repeated = Polynomial(3, {repeat: 1, (2,): 1})
    for prog in (
        ConstrainedProgram(repeated),
        ConstrainedProgram(clean, ((repeated, 0, None),)),
    ):
        with pytest.raises(ValueError, match="multilinear"):
            build_constrained_relaxation(prog, (0, 1, 0), 1, 1)
    with pytest.raises(ValueError, match="multilinear"):
        GreedyTables(repeated)
    with pytest.raises(ValueError, match="multilinear"):
        greedy_round(repeated, (0.5, 0.5, 0.5))


def test_relaxation_rows_skip_top_level():
    p = Polynomial(4, {(0, 1, 2): 1, (1, 3): 1, (): 3})
    relaxation = prepare_relaxation(
        RelaxationPlan(ScoreTable(p)), (1, 1, 0, 1), 1
    )
    # The node (1, 3) has no children: it gives no row.
    assert [row.key for row in relaxation.rows] == [(0,), (0, 1), (1,)]
    # Depth 1 is widened by 2e * n^(3 - 1 - 1) = 8e, depth 2 by 1.
    wide = (8 * E_UPPER).as_integer_ratio()
    assert [row.width for row in relaxation.rows] == [wide, (1, 1), wide]
    assert relaxation.n == 4 and relaxation.beta == 1
    # Row (0,) linearizes p_0 = x1 x2 around xhat: coefficient of x1 is
    # p_(0,1)(xhat) = x2 = 0, so the row keeps no (index, value) pair;
    # centre p_0(xhat) - c_0 = 0; range [0, 0].  L = 1, so the exact
    # rows, ranges computed from the pairs, have the same numbers.
    first, _, third = as_fractions(relaxation).rows
    assert relaxation.rows[0].coeffs == ()
    assert (first.lower, first.upper, first.low, first.high) == (0, 0, 0, 0)
    # Row (1,): p_1 = x3 gives coefficient 1 on x3, centre 1, range [0, 1].
    assert relaxation.rows[2].coeffs == ((3, 1),)
    assert (third.lower, third.upper, third.low, third.high) == (1, 1, 0, 1)


# -- the relaxation itself ----------------------------------------------


def test_triangle_model_structure():
    model = build_relaxation(decompose(TRIANGLE), (1, 0, 0), 0, 2)
    assert model.objective == (2, 2, 2)
    assert model.offset == 0
    assert model.var_bounds == ((0, 1),) * 3
    # Component rows in key order: (0,), (1,); both centered at 0
    # because the prediction satisfies each linearization exactly.  The
    # node (2,) has no children, so it gives no row.
    assert model.rows == (
        ((0, -2, -2), 0, 0),
        ((0, 0, -2), 0, 0),
    )


def test_triangle_zero_budget_pins_the_prediction_side():
    relaxation = prepare_relaxation(
        RelaxationPlan(ScoreTable(TRIANGLE)), (1, 0, 0), 2
    )
    sol = relaxation.lp().solve(relaxation.windows(0))
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
        best_z, best_v = None, None
        for z in itertools.product((0, 1), repeat=n):
            v = evaluate(p, z)
            if best_v is None or v > best_v:
                best_z, best_v = z, v
        xhat = best_z if trial % 5 == 0 else random_bool_vector(rng, n)
        eps = hamming(xhat, best_z)
        beta = min_smoothness(p)
        relaxation = prepare_relaxation(
            RelaxationPlan(ScoreTable(p)), xhat, beta
        )
        assert feasible(relaxation.model(eps), best_z)
        sol = relaxation.lp().solve(relaxation.windows(eps))
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
    return p, xhat, prepare_relaxation(
        RelaxationPlan(ScoreTable(p)), xhat, min_smoothness(p)
    )


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
        relaxation = prepare_relaxation(
            RelaxationPlan(ScoreTable(p)), xhat, min_smoothness(p)
        )
        budget = relaxation.saturation_budget(list(range(p.n + 1)))
        if budget is None:
            continue
        box = box_optimum(
            (relaxation.objective, relaxation.denom), relaxation.offset, xhat
        )
        lp = relaxation.lp()
        for eps in range(budget, p.n + 1):
            sol = lp.solve(relaxation.windows(eps))
            assert sol.status == OPTIMAL
            assert box.y == sol.y
            assert box.objective_value == sol.objective_value
            saturated += 1
    assert saturated >= 100
    for xhat in ((1, 1, 0), (0, 0, 1)):
        relaxation = prepare_relaxation(
            RelaxationPlan(ScoreTable(TRIANGLE)), xhat, 2
        )
        assert relaxation.objective[0] == 0
        assert box_optimum(
            (relaxation.objective, relaxation.denom), relaxation.offset, xhat
        ).y[0] == xhat[0]


def seeded_relaxations():
    """(xhat, relaxation) for seeded MAX-CUT, 3-SAT and MAX-CUT under
    sum x <= 4; the alternating prediction breaks that window, so its LPs
    start with an artificial on that row below the budget that widens it
    to 8."""
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
    """Every row's pairs are nonzero and in ascending j, and the LP reads
    each general row's activity at the prediction off its integers:
    coeffs . xhat over the row's own denominator."""
    for xhat, relaxation in seeded_relaxations():
        for row in relaxation.rows:
            indices = [j for j, _ in row.coeffs]
            assert indices == sorted(set(indices))
            assert all(c != 0 for _, c in row.coeffs)
        lp = relaxation.lp()
        assert lp.warm_denoms == lp.denoms and lp.warm_activity == [
            sum(c * xhat[j] for j, c in relaxation.rows[i].coeffs)
            for i in lp.general
        ]


def test_prepared_lp_is_solve_at_every_budget():
    """The LP prepared once per solve, given one budget's windows, returns
    what the budget's Fraction model, put over integers on its own
    (helpers.solve_model), returns from the prediction, starts that break
    a row included, not all of them infeasible."""
    broken = infeasible = 0
    for xhat, relaxation in seeded_relaxations():
        lp = relaxation.lp()
        grid = list(range(relaxation.n + 1))
        # Past the first saturated budget every LP is a box LP.
        for eps in grid[: grid.index(relaxation.saturation_budget(grid)) + 1]:
            windows = relaxation.windows(eps)
            model = relaxation.model(eps)
            once = solve_model(model, warm_start=xhat)
            assert repr(lp.solve(windows)) == repr(once)
            if not feasible(model, xhat):
                broken += 1
                infeasible += once.status == INFEASIBLE
    assert broken > infeasible > 0


def extreme_polynomial(rng, n, d):
    """Degree-d polynomial mixing coefficients near 2^62 over 3, 7 or 11,
    whose numerators over the shared denominator pass 2^53, with ones of
    size 10^-40 and small ones."""
    coeffs = {tuple(range(d)): Fraction(2**62 + 1, 3)}
    for _ in range(3 * n):
        mono = tuple(sorted(rng.sample(range(n), rng.randint(0, d))))
        coeffs[mono] = rng.choice((
            Fraction(rng.randrange(2**60, 2**62) | 1, rng.choice((3, 7, 11))),
            Fraction(rng.randrange(1, 10) * rng.choice((-1, 1)), 10**40),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)),
        ))
    return Polynomial(n, coeffs)


def bit_cases():
    """(xhat, relaxation): the seeded pipeline relaxations, MAX-CUT under
    the fractional bound sum x <= 7/3 around a prediction that breaks it
    and one that keeps it, and extreme polynomials, one under a side
    constraint with the same extreme coefficients."""
    yield from seeded_relaxations()
    for seed in range(2):
        cut = maxcut_objective(gen_gnp(16, 0.4, seed))
        bound = (at_most(16, Fraction(7, 3)),)
        for xhat in (alternating(16), (1, 1) + (0,) * 14):
            yield xhat, pipeline_relaxation(cut, xhat, bound)
    rng = random.Random(131)
    for _ in range(6):
        n = rng.randint(6, 10)
        objective = extreme_polynomial(rng, n, 3)
        side = extreme_polynomial(rng, n, 2)
        xhat = random_bool_vector(rng, n)
        at = evaluate(side, xhat)
        for constraints in ((), ((side, at - Fraction(1, 3), None),)):
            yield xhat, pipeline_relaxation(objective, xhat, constraints)


def exact_box(model, kept) -> list | None:
    """[0, 1]^n cut by the model's kept one-coefficient rows, each
    bound a Fraction; None when it is empty."""
    box = [[Fraction(0), Fraction(1)] for _ in range(model.num_vars)]
    for coeffs, lo, hi in (model.rows[i] for i in kept):
        nonzero = [j for j, c in enumerate(coeffs) if c]
        if len(nonzero) != 1:
            continue
        j = nonzero[0]
        c = coeffs[j]
        at_least, at_most = (lo, hi) if c > 0 else (hi, lo)
        if at_least is not None:
            box[j][0] = max(box[j][0], at_least / c)
        if at_most is not None:
            box[j][1] = min(box[j][1], at_most / c)
    return None if any(lo > hi for lo, hi in box) else list(map(tuple, box))


def test_float_lp_and_windows_are_the_exact_model_to_the_bit():
    """The prepared LP's row split, matrix, cost and warm activities,
    every budget's float window bounds, its box tightened by the
    one-coefficient rows and the general rows the prediction breaks are
    what float() and exact comparison give on the Fraction model of that
    budget, and saturation_budget((eps,)) is what the model's windows
    say."""
    broken = set()
    saturated = set()
    tightened = set()
    huge = naive_misses = tiny = 0
    for xhat, relaxation in bit_cases():
        lp = relaxation.lp()
        n = relaxation.n
        model = relaxation.model(0)
        assert lp.objective == tuple(float(c) for c in model.objective)
        kept = [
            i for i, (coeffs, lo, hi) in enumerate(model.rows)
            if (lo is not None or hi is not None) and any(coeffs)
        ]
        general = [i for i in kept if sum(map(bool, model.rows[i][0])) > 1]
        assert lp.general == general
        assert [i for i, *_ in lp.singles] == [
            i for i in kept if i not in general
        ]
        dense = np.array(
            [[float(c) for c in model.rows[i][0]] for i in general],
            dtype=float,
        ).reshape(len(general), n)
        assert lp.matrix.tobytes() == dense.tobytes()
        activity = [
            sum(c * x for c, x in zip(model.rows[i][0], xhat))
            for i in general
        ]
        assert lp.warm_activity_float.tobytes() == np.array(
            [float(a) for a in activity], dtype=float
        ).tobytes()
        for eps in range(n + 1):
            windows = relaxation.windows(eps)
            budget = relaxation.model(eps)
            presolved = lp.presolve(windows)
            box = exact_box(budget, kept)
            assert (presolved is None) == (box is None)
            if box is not None:
                var_lb, var_ub, *_ = presolved
                assert var_lb.tolist() == [float(lo) for lo, _ in box]
                assert var_ub.tolist() == [float(hi) for _, hi in box]
                tightened.add(box != [(0, 1)] * n)
            rows = [budget.rows[i] for i in general]
            lower, upper = lp.slack_bounds(windows)
            assert lower.tobytes() == np.array(
                [-math.inf if lo is None else float(lo) for _, lo, _ in rows],
                dtype=float,
            ).tobytes()
            assert upper.tobytes() == np.array(
                [math.inf if hi is None else float(hi) for _, _, hi in rows],
                dtype=float,
            ).tobytes()
            below, above = lp.broken(windows)
            assert below.tolist() == [
                lo is not None and a < lo
                for a, (_, lo, _) in zip(activity, rows)
            ]
            assert above.tolist() == [
                hi is not None and a > hi
                for a, (_, _, hi) in zip(activity, rows)
            ]
            broken.add(bool(below.any() or above.any()))
            at = relaxation.saturation_budget((eps,)) is not None
            assert at == window_saturated(relaxation, eps)
            saturated.add(at)
        for row in relaxation.rows:
            for _, c in row.coeffs:
                if abs(c) > 2**53:
                    huge += 1
                    naive_misses += float(c) / float(row.denom) != c / row.denom
                tiny += 0 < abs(Fraction(c, row.denom)) < Fraction(1, 10**30)
    assert broken == saturated == tightened == {False, True}
    # The extreme cases bite: dividing the floats of numerator and
    # denominator would round some entries differently.
    assert huge > 100 and naive_misses > 10 and tiny > 10


def test_negative_beta_is_rejected():
    with pytest.raises(ValueError, match="negative"):
        prepare_relaxation(
            RelaxationPlan(ScoreTable(TRIANGLE)), (1, 0, 0), Fraction(-1, 2)
        )


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
    """Every number of the built relaxation, read as an exact rational over
    its denominator, equals the reference's Fraction; at every budget,
    each row's window is the reference row's bounds widened by the sum of
    count * tolerance over the reference's (degree, depth, count) triples,
    and the saturation test is what the windows say."""
    exact = as_fractions(built)
    assert exact.objective == reference.objective
    assert exact.offset == reference.offset
    assert len(exact.rows) == len(reference.rows)
    for built_row, row, ref in zip(built.rows, exact.rows, reference.rows):
        for field in (
            "key", "coeffs", "lower", "upper", "low", "high", "activity",
            "width", "need",
        ):
            assert getattr(row, field) == getattr(ref, field), field
        # The integer form: no Fraction per coefficient.
        assert built_row.denom > 0
        assert all(type(c) is int for _, c in built_row.coeffs)
    assert built.denom > 0
    assert all(type(c) is int for c in built.objective)
    assert exact == reference
    for eps in range(built.n + 1):
        model = built.model(eps)
        for (_, lo, hi), ref in zip(model.rows, reference.rows):
            slack = sum(
                (
                    count * tolerance(built.beta, built.n, d, depth, eps)
                    for d, depth, count in ref.widening
                ),
                Fraction(0),
            )
            assert lo == (None if ref.lower is None else ref.lower - slack)
            assert hi == (None if ref.upper is None else ref.upper + slack)
        assert (built.saturation_budget((eps,)) is not None) == (
            window_saturated(built, eps)
        )


def test_windows_follow_the_schedule_where_it_degenerates():
    """The windows and the saturation budget, checked against the
    reference, where the schedule degenerates: beta = 0 (a zero objective
    with a side constraint), a constant side constraint (width 0) whose
    window holds on the box and one whose window does not, and a degree-3
    side constraint whose rows sit at depths 1 and 2."""
    n = 4
    square = Polynomial(n, {(0, 1): 1, (2,): -1})
    constant = Polynomial(n, {(): 2})
    cubic = Polynomial(
        n, {(0, 1, 2): 1, (1, 3): Fraction(1, 2), (2,): 1, (): 1}
    )
    xhat = (1, 0, 1, 1)
    cases = (
        # No window widens, and the side rows' needs are >= 0.
        (Polynomial(n, {}), ((square, 0, 1),), 0, None),
        # The constant 2 lies strictly inside [1, 3]: only the objective's
        # rows, of need 1 and width 1, are left, and sqrt(4 * 1) > 1.
        (square, ((constant, 1, 3),), 1, 1),
        # 2 lies outside [3, 5], and no budget widens the window.
        (square, ((constant, 3, 5),), 1, None),
        # At beta * sqrt(4 * 1) = 3 every window holds its row on the box.
        (square, ((cubic, None, 2),), Fraction(3, 2), 1),
    )
    for objective, constraints, beta, budget in cases:
        prepared = prepare(Instance(objective, constraints))
        built = prepare_relaxation(
            prepared.plan, xhat, beta, prepared.constraint_plans
        )
        reference = evaluate_constrained_relaxation(
            ConstrainedProgram(*_normalized(objective, constraints)), xhat,
            beta,
        )
        assert_same_relaxation(built, reference)
        assert built.saturation_budget(range(n + 1)) == budget
    cubic_rows = [row for row in reference.rows if len(row.widening) > 1]
    assert [row.widening for row in cubic_rows] == [((3, 1, 3), (3, 2, 2))]
    assert cubic_rows[0].width == 3 * 8 * E_UPPER + 2


def test_integer_build_matches_per_child_evaluation():
    rng = random.Random(97)
    for _ in range(150):
        n = rng.randint(3, 9)
        p = fractional_multilinear(rng, n, rng.randint(2, min(4, n)))
        xhat = random_bool_vector(rng, n)
        tree = decompose(p)
        beta = min_smoothness(p)
        assert_same_relaxation(
            prepare_relaxation(RelaxationPlan(ScoreTable(p)), xhat, beta),
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
                RelaxationPlan(ScoreTable(prog.objective)), xhat, beta,
                constraint_plans(
                    (ScoreTable(q.with_degree(constraint_degree(q))), lo, hi)
                    for q, lo, hi in prog.constraints
                ),
            ),
            evaluate_constrained_relaxation(prog, xhat, beta),
        )
    assert one_sided > 20 and fractional > 20


def test_saturated_agrees_with_the_windows_on_pipeline_relaxations():
    seen = set()
    for xhat, relaxation in seeded_relaxations():
        for eps in range(relaxation.n + 1):
            saturated = relaxation.saturation_budget((eps,)) is not None
            assert saturated == window_saturated(relaxation, eps)
            seen.add(saturated)
    assert seen == {False, True}


# -- the per-objective plan against the reference -----------------------


@st.composite
def plan_cases(draw):
    """(objective, side constraints, xhat): mixed-denominator coefficients,
    at least one variable in no monomial of the objective, and zero to
    two side constraints of degree 1-3 whose windows hold or break the
    prediction, one-sided or unbounded."""
    n = draw(st.integers(3, 8))
    live = sorted(
        draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n - 1))
    )
    coeff = st.fractions(min_value=-8, max_value=8, max_denominator=12)

    def polynomial(d):
        top = tuple(live[:d])
        coeffs = {(): draw(coeff), top: draw(coeff) or 1}
        monos = st.sets(st.sampled_from(live), max_size=d)
        for mono in draw(st.lists(monos, max_size=12)):
            key = tuple(sorted(mono))
            coeffs[key] = coeffs.get(key, 0) + draw(coeff)
        # The added terms may cancel the top monomial; keep the degree d.
        coeffs[top] = coeffs[top] or 1
        return Polynomial(n, coeffs)

    objective = polynomial(draw(st.integers(2, min(4, len(live)))))
    xhat = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    shift = st.none() | st.fractions(-2, 6, max_denominator=5)
    constraints = []
    for _ in range(draw(st.integers(0, 2))):
        q = polynomial(draw(st.integers(1, min(3, len(live)))))
        at = evaluate(q, xhat)
        below, above = draw(shift), draw(shift)
        lower = None if below is None else at - below
        upper = None if above is None else max(
            at + above, at if lower is None else lower
        )
        constraints.append((q, lower, upper))
    return objective, tuple(constraints), xhat


def solve_outcome(instance, xhat, config):
    """The timing-free report of a solve, or the message of the error
    it raises when no candidate is usable."""
    try:
        report = pipeline_solve(instance, xhat, config)
    except RuntimeError as exc:
        return str(exc)
    return dataclasses.replace(
        report,
        per_eps=tuple(
            dataclasses.replace(r, wall_ms=0.0) for r in report.per_eps
        ),
    )


@settings(max_examples=120, deadline=None)
@given(plan_cases())
def test_plan_relaxation_matches_the_reference(case):
    """The relaxation built from the prepared plans is the reference's,
    number for number; its saturation, read from its bound before any
    row is built, is what the exact model says; a budget saturated at
    first sight builds no rows, and a solve there or at an LP budget is
    the solve of the unprepared instance.  The prepared instance holding
    the plans pickles and compares equal."""
    objective, constraints, xhat = case
    instance = Instance(objective, constraints)
    prepared = prepare(instance)
    shipped = pickle.loads(pickle.dumps(prepared))
    assert shipped == prepared
    relaxation = prepare_relaxation(
        shipped.plan, xhat, shipped.beta, shipped.constraint_plans
    )
    grid = list(range(objective.n + 1))
    budget = relaxation.saturation_budget(grid)
    if budget is not None:
        # A sweep cell at this budget is saturated at its first budget.
        assert relaxation.saturation_budget((budget,)) == budget
    assert "rows" not in vars(relaxation)
    assert_same_relaxation(
        relaxation,
        evaluate_constrained_relaxation(
            ConstrainedProgram(*_normalized(objective, constraints)), xhat,
            prepared.beta,
        ),
    )
    # The bound collected without rows is the largest need * b / (a *
    # denom) of the rows, each need computed from the row's pairs and
    # bounds: exact.need is need / denom and exact.width is a / b.
    assert relaxation.bound == max(
        (
            exact.need / exact.width
            for exact in as_fractions(relaxation).rows
            if exact.need is not None
        ),
        default=-1,
    )
    for eps in grid:
        assert (budget is not None and eps >= budget) == window_saturated(
            relaxation, eps
        )
    event("saturates" if budget is not None else "never saturates")
    event(f"{len(constraints)} side constraints")
    # eps = 0 reaches an LP: the objective's rows of depth 1 cannot be
    # inside a zero-width window.
    assert budget != 0
    for eps in (0, budget):
        if eps is None:
            continue
        config = SolveConfig(grid=(eps,))
        report = solve_outcome(shipped, xhat, config)
        assert report == solve_outcome(instance, xhat, config)
        if isinstance(report, str):
            continue
        (record,) = report.per_eps
        if eps == 0 and record.status == OPTIMAL:
            lp = relaxation.lp().solve(relaxation.windows(0))
            assert record.lp_value == float(lp.objective_value)


def assert_saturation_follows_the_group_rule(objective, constraints, xhat):
    """saturation_budget, one comparison with the stored bound, is the
    group rule's budget at the instance's beta and at 0, 1/3 and 2, on
    the full grid and on its odd budgets."""
    prepared = prepare(Instance(objective, constraints))
    grid = list(range(objective.n + 1))
    for beta in (prepared.beta, 0, Fraction(1, 3), 2):
        relaxation = prepare_relaxation(
            prepared.plan, xhat, beta, prepared.constraint_plans
        )
        for budgets in (grid, grid[1::2]):
            assert relaxation.saturation_budget(budgets) == (
                group_saturation_budget(relaxation, budgets)
            )


@settings(max_examples=80, deadline=None)
@given(plan_cases())
def test_saturation_budget_matches_the_group_rule(case):
    assert_saturation_follows_the_group_rule(*case)


def test_golden_saturation_budgets_match_the_group_rule():
    for instance, xhat, _ in corpus().values():
        assert_saturation_follows_the_group_rule(
            instance.objective, instance.constraints, xhat
        )


def test_zero_width_and_unbounded_windows():
    """A constant side constraint 2 >= 5 has no component node, so its
    window never widens and its need 3 leaves it cutting the box: the
    bound is +inf and no budget saturates, whatever beta.  So does 2 >=
    2, whose range touches its window's edge (need 0).  A linear
    constraint's window with both bounds absent has no need and its
    nodes no row, so the objective's bound stands."""
    n = 6
    objective = maxcut_objective(gen_gnp(n, 0.5, 3))
    xhat, grid = alternating(n), range(n + 1)
    cases = (
        ((Polynomial.constant(n, 2), 5, None), (0, 1)),
        ((Polynomial.constant(n, 2), 2, None), (0, 1)),
        ((Polynomial(n, {(0,): 1, (2,): -1}), None, None), (2, 1)),
    )
    for constraint, width in cases:
        prepared = prepare(Instance(objective, (constraint,)))
        assert prepared.constraint_plans[0].plan.width == width
        for beta in (0, 1, 10**6):
            relaxation = prepare_relaxation(
                prepared.plan, xhat, beta, prepared.constraint_plans
            )
            alone = prepare_relaxation(prepared.plan, xhat, beta)
            assert (relaxation.bound, relaxation.saturation_budget(grid)) == (
                (math.inf, None) if width == (0, 1)
                else (alone.bound, alone.saturation_budget(grid))
            )
        assert_saturation_follows_the_group_rule(
            objective, (constraint,), xhat
        )


# -- rows only for nodes with children ----------------------------------


def expected_row_keys(objective, constraints) -> list:
    """The row keys of the normalized instance, read off decomposition
    trees: the objective's component nodes that have children, then per
    side constraint its window () and its own such nodes."""

    def with_children(poly):
        tree = decompose(poly)
        keys = tree.component_keys()
        return [key for key in keys if tree.nodes[key].children]

    p, sides = _normalized(objective, constraints)
    keys = with_children(p)
    for side, _, _ in sides:
        keys += [()] + with_children(side)
    return keys


def assert_rows_only_for_nodes_with_children(objective, constraints, xhat):
    """Each plan's node list holds only nodes with children, root last, and
    the relaxation at xhat holds a row for each non-root entry and each
    side window, and none for a childless node."""
    prepared = prepare(Instance(objective, constraints))
    plans = [prepared.plan] + [side.plan for side in prepared.constraint_plans]
    for plan in plans:
        assert all(pairs for _, _, _, pairs in plan.nodes)
        assert [key for key, *_ in plan.nodes if not key] == (
            [()] if plan.nodes else []
        )
        if plan.nodes:
            assert plan.nodes[-1][2:] == (None, plan.top)
    relaxation = prepare_relaxation(
        prepared.plan, xhat, prepared.beta, prepared.constraint_plans
    )
    assert [row.key for row in relaxation.rows] == expected_row_keys(
        objective, constraints
    )


# A draw whose upper bound lands below a lower bound of 0 unless the
# generator keeps upper >= lower: q = 23/6 - 9/2 x0 reads -2/3 at xhat.
CROSSED_DRAW = (
    Polynomial(3, {(0, 1): 1, (1, 2): Fraction(1, 2)}),
    ((Polynomial(3, {(): Fraction(23, 6), (0,): Fraction(-9, 2)}), 0, 0),),
    (1, 0, 0),
)


@settings(max_examples=60, deadline=None)
@given(plan_cases())
@example(CROSSED_DRAW)
def test_plans_list_only_nodes_with_children(case):
    assert_rows_only_for_nodes_with_children(*case)


def test_golden_plans_list_only_nodes_with_children():
    for instance, xhat, _ in corpus().values():
        assert_rows_only_for_nodes_with_children(
            instance.objective, instance.constraints, xhat
        )


def test_each_prediction_walks_each_plan_once(monkeypatch):
    """prepare_relaxation computes every plan's node values and its rows'
    exact bounds in one call per plan; reading the rows walks none
    again."""
    walks = []
    values = RelaxationPlan.values

    def counted(plan, point, bounds):
        walks.append(id(plan))
        return values(plan, point, bounds)

    monkeypatch.setattr(RelaxationPlan, "values", counted)
    assert not hasattr(RelaxationPlan, "fold_needs")
    for instance, xhat, _ in corpus().values():
        prepared = prepare(instance)
        plans = [prepared.plan] + [s.plan for s in prepared.constraint_plans]
        walks.clear()
        relaxation = prepare_relaxation(
            prepared.plan, xhat, prepared.beta, prepared.constraint_plans
        )
        assert walks == [id(plan) for plan in plans]
        assert relaxation.rows is not None and len(walks) == len(plans)


def test_cardinality_window_has_no_component_rows():
    """card-grid's sum x_j <= 10 over 40 variables: every node of the
    linear constraint is childless, so it gives its window alone, still
    widened by all 40 depth-1 tolerances."""
    objective = maxcut_objective(gen_gnp(40, 0.3, 7))
    constraints = (at_most(40, 10),)
    prepared = prepare(Instance(objective, constraints))
    ((side),) = prepared.constraint_plans
    assert side.plan.width == (40, 1)
    assert side.plan.nodes == (((), 40, None, side.plan.top),)
    relaxation = prepare_relaxation(
        prepared.plan, alternating(40), prepared.beta, (side,)
    )
    objective_rows = len(prepared.plan.nodes) - 1
    assert [row.key for row in relaxation.rows[objective_rows:]] == [()]
    assert relaxation.rows[-1].width == (40, 1)


@pytest.mark.parametrize("constraints", [(), (at_most(7, 9),)])
def test_linear_objective_has_no_rows_and_saturates_at_zero(
    monkeypatch, constraints
):
    """A linear objective at declared degree 2 has only childless component
    nodes: it gets no row, so eps = 0 is saturated (with its childless
    rows, of need 0, it was first saturated at 1), alone or under a window
    that holds on the whole box.  The box optimum taken from eps = 0 on
    gives the greedy and randomized reports that the LP at every budget
    gives."""
    n = 7
    p = Polynomial(n, {(j,): (-1) ** j for j in range(n)}).with_degree(2)
    xhat = (1, 0, 1, 1, 0, 0, 1)
    instance = Instance(p, constraints)
    prepared = prepare(instance)
    relaxation = prepare_relaxation(
        prepared.plan, xhat, prepared.beta, prepared.constraint_plans
    )
    assert prepared.beta > 0
    assert [row.key for row in relaxation.rows] == [()] * len(constraints)
    assert relaxation.saturation_budget(range(n + 1)) == 0
    configs = (
        SolveConfig(),
        SolveConfig(strategy="randomized", seed=3, randomized_rounds=4),
    )
    found = [solve_outcome(instance, xhat, config) for config in configs]
    monkeypatch.setattr(Relaxation, "saturation_budget", lambda *_: None)
    assert [solve_outcome(instance, xhat, config) for config in configs] == (
        found
    )
