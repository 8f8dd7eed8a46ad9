"""Embedded LP solver: worked examples, feasibility certificate,
determinism, warm starts, its vectorized pivoting against plain loops, and
agreement with the dense-tableau reference (and HiGHS, when scipy is
installed) on random models and on the relaxations the pipeline solves."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    alternating,
    at_most,
    pipeline_relaxation,
    prepared_model,
    random_lp_model,
    solve_model,
    start_at,
)
from lp_reference import reference_solve
from smoothip import lpsolve
from smoothip.lpsolve import FEAS_TOL, LpModel, PreparedLp
from smoothip.poly import Polynomial, ScoreTable, decompose
from smoothip.problems import (
    gen_gnp,
    gen_ksat,
    maxcut_objective,
    maxksat_objective,
)
from smoothip.relax import (
    RelaxationPlan,
    build_relaxation,
    prepare_relaxation,
)

# MAX-CUT objective of the triangle graph, expanded by hand.
TRIANGLE = Polynomial(
    3, {(0,): 2, (1,): 2, (2,): 2, (0, 1): -2, (0, 2): -2, (1, 2): -2}
)


def box(n):
    return tuple((Fraction(0), Fraction(1)) for _ in range(n))


def test_single_binding_row():
    model = LpModel(
        num_vars=2,
        var_bounds=box(2),
        rows=((tuple(map(Fraction, (1, 1))), None, Fraction(1)),),
        objective=tuple(map(Fraction, (1, 1))),
    )
    sol = solve_model(model)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-9
    assert abs(sum(sol.y) - 1.0) < 1e-9


def test_null_objective_returns_offset():
    model = LpModel(
        num_vars=2,
        var_bounds=box(2),
        rows=((tuple(map(Fraction, (1, -1))), Fraction(-1), Fraction(1)),),
        objective=(Fraction(0), Fraction(0)),
        offset=Fraction(7),
    )
    sol = solve_model(model)
    assert sol.status == "optimal"
    assert sol.objective_value == 7.0


def test_triangle_relaxation_full_budget():
    # At eps = n the feasible region contains every Boolean point, so the
    # LP value is at least the brute-force optimum 2.
    model = build_relaxation(decompose(TRIANGLE), (1, 0, 0), 3, 2)
    sol = solve_model(model)
    assert sol.status == "optimal"
    assert sol.objective_value >= 2 - 1e-7


def test_infeasible_row_detected():
    model = LpModel(
        num_vars=1,
        var_bounds=box(1),
        rows=(((Fraction(1),), Fraction(2), None),),
        objective=(Fraction(1),),
    )
    assert solve_model(model).status == "infeasible"


def test_empty_row_presolve():
    feasible = LpModel(
        num_vars=1,
        var_bounds=box(1),
        rows=(((Fraction(0),), Fraction(0), Fraction(0)),),
        objective=(Fraction(1),),
    )
    assert solve_model(feasible).status == "optimal"
    impossible = LpModel(
        num_vars=1,
        var_bounds=box(1),
        rows=(((Fraction(0),), Fraction(1), Fraction(2)),),
        objective=(Fraction(1),),
    )
    assert solve_model(impossible).status == "infeasible"


def test_no_kept_row_gives_the_box_optimum():
    """With every row empty or vacuous the simplex runs with no basis
    (m = 0) and returns the y that box_optimum takes in closed form, from
    a point (zero costs stay there) or from the box's lower corner."""
    objective, offset = ((3, 0, -2, 0, 5), 4), Fraction(1, 2)
    rows = [((), -1, 1, 1), ((), None, None, 1), ((), 0, None, 3)]
    windows = [(lo, hi, d) for _, lo, hi, d in rows]
    for start in ((0, 1, 1, 0, 0), (0,) * 5):
        lp = PreparedLp(objective, offset, rows, box(5),
                        start_at(box(5), start))
        assert lp.general == lp.singles == []
        sol = lp.solve(windows)
        closed = lpsolve.box_optimum(objective, offset, start)
        assert sol.status == "optimal"
        assert (sol.y, sol.objective_value) == (
            closed.y, closed.objective_value
        )


def test_optimal_solutions_satisfy_certificate():
    rng = random.Random(101)
    for _ in range(60):
        model = random_lp_model(rng, max_vars=12, max_rows=24)
        sol = solve_model(model)
        if sol.status != "optimal":
            continue
        for yj, (lo, hi) in zip(sol.y, model.var_bounds):
            assert float(lo) <= yj <= float(hi)
        for coeffs, lo, hi in model.rows:
            value = sum(float(c) * yj for c, yj in zip(coeffs, sol.y))
            if lo is not None:
                assert value >= float(lo) - FEAS_TOL
            if hi is not None:
                assert value <= float(hi) + FEAS_TOL


def test_determinism_bit_exact():
    rng = random.Random(131)
    for _ in range(10):
        model = random_lp_model(rng, max_vars=10, max_rows=20)
        first = solve_model(model)
        second = solve_model(model)
        assert first.status == second.status
        assert first.y == second.y
        assert first.objective_value == second.objective_value


def test_warm_start_agrees_with_cold_start():
    # (1, 0, 0) is feasible at every budget; (0, 1, 1) breaks rows at
    # eps = 0, where phase 1 starts from it; both agree with the solve
    # from the lower corner, which breaks rows too.
    for eps in (0, 1, 2, 3):
        model = build_relaxation(decompose(TRIANGLE), (1, 0, 0), eps, 2)
        corner = solve_model(model)
        for start in ((1, 0, 0), (0, 1, 1)):
            warm = solve_model(model, warm_start=start)
            assert corner.status == warm.status == "optimal"
            assert abs(corner.objective_value - warm.objective_value) < 1e-6
    one_row = LpModel(
        num_vars=2,
        var_bounds=box(2),
        rows=((tuple(map(Fraction, (1, 1))), None, Fraction(1)),),
        objective=tuple(map(Fraction, (1, 2))),
    )
    assert (
        solve_model(one_row, warm_start=(1, 1)).y
        == solve_model(one_row).y
        == (0, 1)
    )


def test_warm_start_of_the_wrong_length_is_rejected():
    relaxation = prepare_relaxation(
        RelaxationPlan(ScoreTable(TRIANGLE)), (1, 0, 0), 2
    )
    unwarmed = (
        (relaxation.objective, relaxation.denom),
        relaxation.offset,
        [(row.coeffs, row.lower, row.upper, row.denom)
         for row in relaxation.rows],
        ((0, 1),) * 3,
    )
    PreparedLp(*unwarmed, (1, 0, 0))
    for start in ((1, 0), (1, 0, 0, 1), ()):
        with pytest.raises(ValueError, match="warm start length"):
            PreparedLp(*unwarmed, start)
    # A start off the variable bounds is the lower corner in the helper.
    model = build_relaxation(decompose(TRIANGLE), (1, 0, 0), 1, 2)
    half = solve_model(model, warm_start=(Fraction(1, 2), 0, 0))
    assert repr(half) == repr(solve_model(model))


def test_warm_start_off_the_variable_bounds_is_rejected():
    """Maximize x0 - x1 s.t. x0 + x1 <= 1 over [0,1]^2: the simplex
    started at (1/2, 1/2), at no bound, would stop there at value 0, but
    the optimum is 1 at (1, 0).  That start raises; one at a vertex
    gives the optimum."""
    objective, rows = ((1, -1), 1), [(((0, 1), (1, 1)), None, 1, 1)]
    half = Fraction(1, 2)
    for x in ((half, half), (0, half), (1, Fraction(3, 2))):
        with pytest.raises(ValueError, match="off its variable bounds"):
            PreparedLp(objective, 0, rows, box(2), x)
    lp = PreparedLp(objective, 0, rows, box(2), (0, 1))
    sol = lp.solve([(None, 1, 1)])
    assert (sol.status, sol.objective_value) == ("optimal", 1.0)
    assert tuple(sol.y) == (1.0, 0.0)


def test_crossed_variable_bounds_are_rejected():
    """y_0 in [1, 0] is an empty box; the simplex would clamp y_0 to 0
    and call the result optimal."""
    objective, rows = ((1, 1), 1), [(((0, 1), (1, 1)), None, 3, 1)]
    for bounds in ([(1, 0), (0, 1)], [(0, 1), (Fraction(1, 2), 0)]):
        with pytest.raises(ValueError, match="variable bounds crossed"):
            PreparedLp(objective, 0, rows, bounds, start_at(bounds))
    bounds = [(1, 1), (0, 1)]
    lp = PreparedLp(objective, 0, rows, bounds, start_at(bounds))
    assert lp.solve([(None, 3, 1)]).y == (1.0, 1.0)


def test_boolean_optimum_value_is_the_exact_value_rounded_once():
    """Ten costs of 1/10: the float sum of the ten floats at the optimum
    (1, ..., 1) is 0.9999999999999999, the exact value is 1.  The simplex
    and box_optimum both report 1.0, and so does an optimum off the unit
    box's corner with a Fraction offset."""
    objective = ((1,) * 10, 10)
    assert sum([0.1] * 10) != 1.0
    lp = PreparedLp(objective, 0, [], box(10), start_at(box(10)))
    assert lp.solve([]).objective_value == 1.0
    assert lpsolve.box_optimum(objective, 0, (0,) * 10).objective_value == 1.0
    third = Fraction(1, 3)
    closed = lpsolve.box_optimum(((3, 0, -1), 1), third, (0, 1, 1))
    assert closed.y == (1.0, 1.0, 0.0)
    assert closed.objective_value == float(3 + third)


def test_a_near_boolean_optimum_that_breaks_a_window_keeps_its_float_y():
    """Maximize x0 + x1 under x0 <= 1 - 2^-33 (a one-coefficient row), or
    under x0 + x1 <= 1 - 2^-33: the optimum x0 lies 2^-33 below 1, within
    SNAP_TOL of a Boolean point, but that point breaks the row, so the
    float optimum is kept.  With the row's bound at 1 the optimum is
    Boolean."""
    objective, d = ((1, 1), 1), 2**33
    for coeffs, value in (
        (((0, d),), 2 - 1 / d), (((0, d), (1, d)), 1 - 1 / d)
    ):
        rows = [(coeffs, None, d - 1, d)]
        lp = PreparedLp(objective, 0, rows, box(2), start_at(box(2)))
        sol = lp.solve([(None, d - 1, d)])
        assert sol.status == "optimal"
        assert sol.y[0] == 1 - 1 / d and sol.y[1] in (0.0, 1.0)
        assert sol.objective_value == value
        assert lp.solve([(None, d, d)]).objective_value == value + 1 / d


def test_clamped_is_the_per_coordinate_max_and_min_to_the_bit():
    """_clamped gives, as Python floats, what min(max(v, lo), hi) gives
    per coordinate, bit for bit: each value of +-0.0, a value between the
    bounds or outside them against bounds of +-0.0 and others, the slack
    and artificial columns after the structurals left out."""
    values = [-0.0, 0.0, -1e-300, 1e-300, 0.25, -0.25, 1.0, 1.5]
    bounds = [
        (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (-0.0, -0.0), (0.0, 1.0),
        (-0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (0.25, 0.25),
    ]
    pairs = [(v, lo, hi) for v in values for lo, hi in bounds]
    val, lb, ub = (np.array(column + (7.0,)) for column in zip(*pairs))
    sx = lpsolve._Simplex.__new__(lpsolve._Simplex)
    sx.n, sx.val, sx.lb, sx.ub = len(pairs), val, lb, ub
    loop = [min(max(val[j], lb[j]), ub[j]) for j in range(sx.n)]
    clamped = lpsolve._clamped(sx)
    assert all(type(v) is float for v in clamped)
    assert np.array(clamped).tobytes() == np.array(loop).tobytes()
    assert np.signbit(clamped).tolist() == np.signbit(loop).tolist()
    assert np.signbit(clamped).any() and not np.signbit(clamped).all()


def test_one_ulp_off_a_boolean_optimum_reads_the_same_point(
    pipeline_lps, monkeypatch
):
    """Each coordinate of the simplex's y moved by one ulp up or down, as
    another BLAS kernel set's rounding could move it: wherever the optimum
    is Boolean, the solution (y, which rounding reads, and lp_value) is
    the same to the bit."""
    clamped = lpsolve._clamped
    rng = np.random.default_rng(11)

    def moved(sx):
        y = np.array(clamped(sx))
        toward = np.where(rng.random(y.size) < 0.5, -np.inf, np.inf)
        return tuple(np.nextafter(y, toward).tolist())

    cases = [(lp, windows) for _, lp, windows, _ in pipeline_lps]
    exact = [lp.solve(windows) for lp, windows in cases]
    monkeypatch.setattr(lpsolve, "_clamped", moved)
    boolean = 0
    for (lp, windows), sol in zip(cases, exact):
        if sol.status == "optimal" and set(sol.y) <= {0.0, 1.0}:
            boolean += 1
            assert repr(lp.solve(windows)) == repr(sol)
    assert boolean >= 5


def past_int64_model() -> LpModel:
    """Maximize x0 + x1 + x2 + x3 over [0,1]^4 under rows whose integers
    leave int64's exact range: numerators 2^51 over 3, so |c| * n = 2^53,
    with a window that (1, 1, 0, *) breaks; x0 / 2 + (1/2 + 2^-60) x1 <=
    1, over the denominator 2^60, which (1, 1, *, *) breaks by 2^-60, though
    the row's floats, 1/2 and 1/2, do not; and x2 + x3 >= 1."""
    big = 2**51
    third = Fraction(big, 3)
    half = Fraction(1, 2)
    return LpModel(
        4, box(4),
        (
            ((third, third - Fraction(1, 3), -third, 0), None,
             Fraction(2 * big - 2, 3)),
            ((half, half + Fraction(1, 2**60), 0, 0), None, Fraction(1)),
            ((0, 0, Fraction(1), Fraction(1)), Fraction(1), None),
        ),
        (Fraction(1),) * 4,
    )


def exact_outside(lp, point, windows) -> tuple:
    """Per general row, whether its activity at point, summed from its
    pairs in Fractions, lies below, and above, its window."""
    below, above = [], []
    for i in lp.general:
        pairs, _, _, denom = lp.rows[i]
        a = Fraction(sum(c * Fraction(point[j]) for j, c in pairs), denom)
        lo, hi, d = windows[i]
        below.append(lo is not None and a < Fraction(lo, d))
        above.append(hi is not None and a > Fraction(hi, d))
    return below, above


def test_the_boolean_check_sums_rows_in_python_past_int64(pipeline_lps):
    """Past int64's exact range, a numerator with |c| * n >= 2^53 or a
    denominator >= 2^53, the integer matrix holds Python ints.  On rows
    past both limits, broken at every Boolean start and at (1/3, ..., 1/3)
    and the exact check of every Boolean point agree with Fraction sums.
    The pipeline's LPs, built past int64, give the same solutions to the
    bit, and a relaxation with a 2^70 coefficient takes that path."""
    model = past_int64_model()
    lp, windows = prepared_model(model)
    assert lp.integer.dtype == object and lp.general == [0, 1, 2]
    outcomes = set()
    for z in itertools.product((0, 1), repeat=4):
        below, above = exact_outside(lp, z, windows)
        start = prepared_model(model, z)[0]
        assert [mask.tolist() for mask in start.broken(windows)] == [
            below, above
        ]
        y = np.array(z, dtype=float)
        snapped = lp._snap(y, float(sum(z)), windows, {}, {})
        inside = not any(below + above)
        assert snapped == (
            (tuple(y.tolist()), float(sum(z))) if inside else None
        )
        outcomes.add((inside, any(above[:2])))
    assert outcomes == {(True, False), (False, True), (False, False)}
    third = Fraction(1, 3)
    lifted = dataclasses.replace(model, var_bounds=((third, 1),) * 4)
    start = prepared_model(lifted)[0]
    assert start.warm_denoms == [3 * d for d in start.denoms]
    below, above = exact_outside(start, (third,) * 4, windows)
    assert [mask.tolist() for mask in start.broken(windows)] == [
        below, above
    ]
    assert any(below)
    assert agrees(lp.solve(windows), reference_solve(model), 1e-9)

    # Each pipeline LP again, every row's integers times 2^53: the same
    # rationals, over denominators past int64's exact range.
    wide = {}
    for _, lp, windows, _ in pipeline_lps:
        if id(lp) not in wide:
            rows = [
                (tuple((j, c << 53) for j, c in pairs), lo, hi, denom << 53)
                for pairs, lo, hi, denom in lp.rows
            ]
            x = lp.warm_x.astype(int).tolist()
            wide[id(lp)] = PreparedLp(*lp.exact_objective, rows, lp.box, x)
            assert lp.integer.dtype == np.int64
            assert wide[id(lp)].integer.dtype == object
            assert wide[id(lp)].matrix.tobytes() == lp.matrix.tobytes()
        assert repr(wide[id(lp)].solve(windows)) == repr(lp.solve(windows))
    p = Polynomial(
        6, {(0, 1, 2): 2**70, (0, 1, 3): 3, (0, 1, 4): -5, (2, 3, 5): 1}
    )
    relaxation = pipeline_relaxation(p, alternating(6))
    lp = relaxation.lp()
    assert lp.general and lp.integer.dtype == object
    for eps in range(3):
        sol = lp.solve(relaxation.windows(eps))
        assert sol.status == "optimal" and set(sol.y) <= {0.0, 1.0}
        assert agrees(sol, reference_solve(relaxation.model(eps)), 1e-9)


# -- one-coefficient rows as bounds ------------------------------------------


def test_negative_one_coefficient_rows_give_exact_non_dyadic_bounds():
    """-3 x0 in [-2, -1] bounds x0 to [1/3, 2/3] and -x1 <= -1/3 bounds x1
    below by 1/3: a negative coefficient swaps and negates the window.
    The floats are 1/3 and 2/3 correctly rounded, the exact bounds are
    kept, and the optimum of 2 x0 - x1 + x2 under x0 + x2 <= 1 agrees
    with the reference solver on the full model."""
    third = Fraction(1, 3)
    model = LpModel(
        3, box(3),
        (
            ((Fraction(-3), 0, 0), Fraction(-2), Fraction(-1)),
            ((0, Fraction(-1), 0), None, -third),
            ((Fraction(1), 0, Fraction(1)), None, Fraction(1)),
        ),
        (Fraction(2), Fraction(-1), Fraction(1)),
    )
    lp, windows = prepared_model(model)
    assert [i for i, *_ in lp.singles] == [0, 1] and lp.general == [2]
    var_lb, var_ub, lower, upper = lp.presolve(windows)
    assert var_lb.tolist() == [1 / 3, 1 / 3, 0]
    assert var_ub.tolist() == [2 / 3, 1, 1]
    assert Fraction(*lower[0]) == Fraction(*lower[1]) == third
    assert Fraction(*upper[0]) == 2 * third
    sol = lp.solve(windows)
    assert sol.status == "optimal" and sol.y[:2] == (2 / 3, 1 / 3)
    assert sol.y[2] == pytest.approx(1 / 3, rel=1e-15)
    assert agrees(sol, reference_solve(model), 1e-9)


def test_a_crossed_general_window_is_infeasible_unpivoted():
    """2 <= x0 + x1 <= 1, a general row's window crossed, is infeasible
    with no pivot, as a crossed one-coefficient window is; the bounds,
    over one denominator, are compared as integers, so 1 + 2^-60 <= x0 +
    x1 <= 1, whose float bounds are equal, is crossed too."""
    big = 2**60
    rows = [(((0, 1), (1, 1)), 0, 2, 1)]
    lp = PreparedLp(((1, 1), 1), 0, rows, box(2), (0, 0))
    for window in ((2, 1, 1), (big + 1, big, big)):
        sol = lp.solve([window])
        assert (sol.status, sol.iterations) == ("infeasible", 0)
    assert (big + 1) / big == 1.0
    sol = lp.solve([(big, big, big)])
    assert (sol.status, sol.objective_value) == ("optimal", 1.0)
    single = PreparedLp(((1, 1), 1), 0, [(((0, 1),), 0, 2, 1)], box(2),
                        (0, 0))
    sol = single.solve([(2, 1, 1)])
    assert (sol.status, sol.iterations) == ("infeasible", 0)


def test_one_coefficient_windows_that_do_not_meet_are_infeasible_unpivoted():
    """x0 >= 3/4 (from 4 x0 >= 3) and 2 x0 <= 1 cannot both hold: the
    solve is infeasible with no pivot, though a general row is there too.
    x0 pinned at 1/3 by 3 x0 >= 1 and 6 x0 <= 2 is feasible, and a bound
    2^-60/3 below 1/3, which has the same float, is found empty exactly."""
    big = 2**60
    rows = [
        (((0, 4),), 3, None, 1),
        (((0, 2),), None, 1, 1),
        (((0, 1), (1, 1)), None, 2, 1),
    ]
    windows = [(lo, hi, d) for _, lo, hi, d in rows]
    lp = PreparedLp(((1, 1), 1), 0, rows, box(2), start_at(box(2)))
    assert lp.presolve(windows) is None
    sol = lp.solve(windows)
    assert (sol.status, sol.iterations) == ("infeasible", 0)
    one = Fraction(1)
    assert reference_solve(LpModel(
        2, box(2),
        (((4 * one, 0), 3, None), ((2 * one, 0), None, 1),
         ((one, one), None, 2)),
        (one, one),
    )).status == "infeasible"
    pinned = [(((0, 3),), 1, None, 1), (((0, 6),), None, 2, 1)]
    sol = PreparedLp(
        ((1,), 1), 0, pinned, box(1), start_at(box(1))
    ).solve([(1, None, 1), (None, 2, 1)])
    assert (sol.status, sol.y) == ("optimal", (1 / 3,))
    below = [(((0, 3),), 1, None, 1), (((0, 3 * big),), None, big - 1, 1)]
    assert (big - 1) / (3 * big) == 1 / 3
    sol = PreparedLp(
        ((1,), 1), 0, below, box(1), start_at(box(1))
    ).solve([(1, None, 1), (None, big - 1, 1)])
    assert (sol.status, sol.iterations) == ("infeasible", 0)


def test_a_side_constraint_on_one_variable_is_a_bound():
    """MAX-CUT G(30, 0.3) under x1 <= 0, around the alternating
    prediction, which sets x1 = 1: the side constraint's row has one
    coefficient, so each budget's LP bounds x1 instead of keeping the
    row.  At eps = 0 the bound is x1 <= 0, which cuts the prediction
    off, so the solve starts from it clipped into that box, and y1 is 0.
    Every budget below saturation agrees with the reference solver, and
    with HiGHS when scipy is there, on the full model."""
    n = 30
    side = (Polynomial(n, {(1,): 1}), None, Fraction(0))
    relaxation = pipeline_relaxation(
        maxcut_objective(gen_gnp(n, 0.3, 4)), alternating(n), (side,)
    )
    lp = relaxation.lp()
    side_rows = [i for i, row in enumerate(relaxation.rows)
                 if row.coeffs == ((1, row.denom),)]
    assert side_rows and set(side_rows) <= {i for i, *_ in lp.singles}
    try:
        import scipy  # noqa: F401
    except ImportError:
        scipy = None
    assert lp.warm_x[1] == 1
    assert lp.presolve(relaxation.windows(0))[1][1] == 0
    assert lp.solve(relaxation.windows(0)).y[1] == 0
    budgets = range(relaxation.saturation_budget(range(n + 1)))
    assert len(budgets) > 2
    for eps in budgets:
        ours = lp.solve(relaxation.windows(eps))
        model = relaxation.model(eps)
        assert ours.status == "optimal"
        assert agrees(ours, reference_solve(model), 1e-9), eps
        if scipy is not None:
            assert agrees(ours, highs_solve(model), 1e-9), eps


def agrees(ours, ref, rel=1e-6) -> bool:
    """Same status and, when optimal, objectives within rel relative."""
    if ours.status != ref.status:
        return False
    if ours.status != "optimal":
        return True
    scale = max(1.0, abs(ours.objective_value), abs(ref.objective_value))
    return abs(ours.objective_value - ref.objective_value) <= rel * scale


def reference_models():
    rng = random.Random(977)
    return [random_lp_model(rng, max_vars=15, max_rows=30) for _ in range(60)]


def assert_reference_agreement():
    optimal_seen = 0
    infeasible_seen = 0
    for model in reference_models():
        ours = solve_model(model)
        ref = reference_solve(model)
        assert agrees(ours, ref), (ours, ref)
        optimal_seen += ours.status == "optimal"
        infeasible_seen += ours.status == "infeasible"
    assert optimal_seen >= 30
    assert infeasible_seen >= 1


def test_reference_agreement():
    assert_reference_agreement()


def test_refresh_agrees_with_reference(monkeypatch):
    # A basis-inverse refresh every third iteration.
    monkeypatch.setattr(lpsolve, "REFRESH_EVERY", 3)
    assert_reference_agreement()


# -- the LPs the pipeline solves ------------------------------------------


@pytest.fixture(scope="module")
def pipeline_lps():
    """(name, lp, windows, model) of every budget below saturation, each
    relaxation around the alternating prediction: MAX-CUT G(40, 0.3) and
    G(60, 0.3), 3-SAT n=24 m=96, and G(40, 0.3) under sum x <= 10, which
    the prediction breaks, so that eps = 0 is infeasible.  lp is the
    relaxation's one PreparedLp and windows the budget's, which a solve
    passes it; model is the budget's exact Fraction LP, for the
    references."""
    lps = []
    for seed in (5, 7):
        cut40 = maxcut_objective(gen_gnp(40, 0.3, seed))
        for name, objective, constraints in (
            ("cut40", cut40, ()),
            ("cut60", maxcut_objective(gen_gnp(60, 0.3, seed)), ()),
            ("sat24", maxksat_objective(gen_ksat(24, 96, 3, seed)), ()),
            ("card40", cut40, (at_most(40, 10),)),
        ):
            n = objective.n
            relaxation = pipeline_relaxation(
                objective, alternating(n), constraints
            )
            lp = relaxation.lp()
            for eps in range(relaxation.saturation_budget(range(n + 1))):
                lps.append(
                    (
                        f"{name}/{seed}/eps={eps}", lp,
                        relaxation.windows(eps), relaxation.model(eps),
                    )
                )
    return lps


def test_prepared_matrix_is_every_entry_as_a_float(pipeline_lps):
    """The matrix is filled from nonzero entries only; it must be the
    float of every entry of every general row, one that has a bound and
    two or more nonzero entries, each Fraction put over its row's
    denominator first.  The one-coefficient rows are the rest of the rows
    with a bound and a nonzero entry, and the integer matrix holds the
    general rows' numerators over those denominators: in int64 on the
    reference and pipeline models, in Python ints past int64's exact
    range."""
    models = reference_models() + [past_int64_model()]
    cases = [(prepared_model(model)[0], model) for model in models]
    cases += [(lp, model) for _, lp, _, model in pipeline_lps]
    assert [lp.integer.dtype for lp, _ in cases].count(object) == 1
    singles = 0
    for lp, model in cases:
        bounded = [
            i for i, (_, lo, hi) in enumerate(model.rows)
            if lo is not None or hi is not None
        ]
        nonzeros = [sum(1 for c in model.rows[i][0] if c) for i in bounded]
        assert lp.empty == [i for i, k in zip(bounded, nonzeros) if not k]
        assert lp.general == [i for i, k in zip(bounded, nonzeros) if k > 1]
        assert [i for i, *_ in lp.singles] == [
            i for i, k in zip(bounded, nonzeros) if k == 1
        ]
        singles += len(lp.singles)
        dense = np.array(
            [[float(c) for c in model.rows[i][0]] for i in lp.general],
            dtype=float,
        ).reshape(len(lp.general), model.num_vars)
        assert lp.matrix.tobytes() == dense.tobytes()
        numerators = [
            [int(c * d) for c in model.rows[i][0]]
            for i, d in zip(lp.general, lp.denoms)
        ]
        assert lp.integer.tolist() == numerators
    assert singles > 100


def test_pipeline_lps_agree_with_reference(pipeline_lps):
    statuses = set()
    for name, lp, windows, model in pipeline_lps:
        ours = lp.solve(windows)
        ref = reference_solve(model)
        assert agrees(ours, ref, 1e-9), (name, ours, ref)
        statuses.add(ours.status)
    assert statuses == {"optimal", "infeasible"}


def highs_solve(model):
    """The model through scipy's HiGHS, as an LpSolution."""
    from scipy.optimize import linprog
    a_ub, b_ub = [], []
    for coeffs, lo, hi in model.rows:
        a = [float(c) for c in coeffs]
        if hi is not None:
            a_ub.append(a)
            b_ub.append(float(hi))
        if lo is not None:
            a_ub.append([-v for v in a])
            b_ub.append(-float(lo))
    result = linprog(
        [-float(c) for c in model.objective],
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=b_ub or None,
        bounds=[(float(lo), float(hi)) for lo, hi in model.var_bounds],
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
        result.status, "numerical-failure"
    )
    value = -result.fun + float(model.offset) if status == "optimal" else None
    return lpsolve.LpSolution(status, (), value)


def test_pipeline_lps_agree_with_highs(pipeline_lps):
    pytest.importorskip("scipy")
    for name, lp, windows, model in pipeline_lps:
        ours = lp.solve(windows)
        theirs = highs_solve(model)
        assert agrees(ours, theirs, 1e-9), (name, ours, theirs)


# -- a long degenerate stretch ----------------------------------------------


@pytest.fixture(scope="module")
def degenerate_cut1000():
    """The eps = 0 LP of MAX-CUT G(1000, 0.05, seed 1) around the
    alternating prediction, as the pipeline solves it, and its solution.

    Every window is an equality at the prediction's activity, so every
    vertex the simplex visits is degenerate.  A solver that switched to
    Bland's rule after 1000 pivots that made no progress ran into its
    100,000-pivot cap here and returned numerical-failure after 443 s;
    Dantzig pricing alone ends after 1247 pivots, 898 of which make no
    progress."""
    relaxation = pipeline_relaxation(
        maxcut_objective(gen_gnp(1000, 0.05, 1)), alternating(1000)
    )
    return relaxation, relaxation.lp().solve(relaxation.windows(0))


def test_degenerate_lp_at_n_1000_is_optimal(degenerate_cut1000):
    _, sol = degenerate_cut1000
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(12274, rel=1e-9, abs=0)
    assert sol.iterations < 3000


def test_degenerate_lp_at_n_1000_agrees_with_highs(degenerate_cut1000):
    pytest.importorskip("scipy")
    relaxation, sol = degenerate_cut1000
    theirs = highs_solve(relaxation.model(0))
    assert theirs.status == "optimal"
    assert sol.objective_value == pytest.approx(
        theirs.objective_value, rel=1e-9, abs=0
    )


# -- vectorized pivoting against plain loops --------------------------------


class LoopSimplex(lpsolve._Simplex):
    """Pricing, ratio test and inverse update as plain loops over every
    column and row, the reference for the vectorized ones; ``ran`` names
    each loop that ran."""

    ran: set = set()

    def _score(self, reduced, fixed):
        LoopSimplex.ran.add("_score")
        score = np.empty(len(reduced))
        for j in range(len(reduced)):
            if j in self.basis or self.lb[j] == self.ub[j]:
                score[j] = -math.inf
            else:
                score[j] = reduced[j] if self.at_upper[j] else -reduced[j]
        return score

    def _ratio_test(self, j, sigma, w):
        """The rule of the lpsolve module docstring: over the rows with
        |pivot| > PIVOT_TOL, a flip when no ratio lies 1e-12 below j's
        range; otherwise, of the rows with the smallest ratio or one below
        it plus 1e-12, the one of larger |pivot|, then of smaller column."""
        LoopSimplex.ran.add("_ratio_test")
        usable = []  # (ratio, position, leaves at its upper bound)
        for pos, col in enumerate(self.basis):
            piv = sigma * w[pos]
            if piv > lpsolve.PIVOT_TOL:
                usable.append((max((self.val[col] - self.lb[col]) / piv, 0.0),
                               pos, False))
            elif piv < -lpsolve.PIVOT_TOL:
                usable.append((max((self.val[col] - self.ub[col]) / piv, 0.0),
                               pos, True))
        span = self.ub[j] - self.lb[j]
        if not any(ratio < span - 1e-12 for ratio, _, _ in usable):
            return span, -1, False
        lowest = min(ratio for ratio, _, _ in usable)
        tied = [u for u in usable if u[0] < lowest + 1e-12 or u[0] == lowest]
        return min(tied, key=lambda u: (-abs(w[u[1]]), self.basis[u[1]]))

    def _update_inverse(self, leave_pos, w):
        LoopSimplex.ran.add("_update_inverse")
        row = self.Binv[leave_pos] / w[leave_pos]
        for i in range(self.m):
            self.Binv[i] -= w[i] * row
        self.Binv[leave_pos] = row


@pytest.mark.parametrize("rules", ["dantzig", "refresh"])
def test_vectorized_pivoting_matches_the_loops(
    rules, pipeline_lps, monkeypatch
):
    """Same status, y, value and iterations, to the last bit, on the
    reference models (from the lower corner) and on pipeline LPs (from
    the prediction, with and without broken rows), and each loop ran."""
    if rules == "refresh":
        monkeypatch.setattr(lpsolve, "REFRESH_EVERY", 3)
    cases = [prepared_model(model) for model in reference_models()]
    for name, lp, windows, _ in pipeline_lps:
        if name.startswith(("cut40/5/", "card40/5/", "sat24/5/")):
            cases.append((lp, windows))
    vectorized = [repr(lp.solve(windows)) for lp, windows in cases]
    monkeypatch.setattr(lpsolve, "_Simplex", LoopSimplex)
    LoopSimplex.ran.clear()
    assert [repr(lp.solve(windows)) for lp, windows in cases] == vectorized
    assert LoopSimplex.ran == {"_score", "_ratio_test", "_update_inverse"}


def chain_simplex(order):
    """A simplex whose rows in ``order`` hold basic columns 0, 1 and 2,
    each in [0, 1], at values that give the entering column 3, in [0, 1],
    ratios 0, 0.8e-12 and 1.6e-12 under pivots 1, 2 and 4, and that pivot
    column w."""
    sx = lpsolve._Simplex.__new__(lpsolve._Simplex)
    sx.basis = np.array(order, dtype=np.intp)
    sx.val = np.array([0.0, 1.6e-12, 6.4e-12, 0.0])
    sx.lb, sx.ub = np.zeros(4), np.ones(4)
    return sx, np.array([1.0, 2.0, 4.0])[sx.basis]


def test_the_ratio_rule_does_not_depend_on_the_row_order():
    """Ratios 0, 0.8e-12 and 1.6e-12, each within 1e-12 of the one
    before, with |pivot| growing: a scan in position order that let a
    ratio within 1e-12 of its best so far and of smaller key replace it
    went down the chain to column 2.  The written rule ties only the
    ratios below the smallest plus 1e-12 and takes the larger |pivot|
    among them, column 1, with its own ratio as the step, in every order
    of the rows, and the loop reference agrees."""
    assert 1.6e-12 / 4 < 0.8e-12 / 2 + 1e-12 and 0.8e-12 / 2 < 1e-12
    for order in itertools.permutations(range(3)):
        sx, w = chain_simplex(order)
        step, pos, upper = sx._ratio_test(3, 1.0, w)
        assert (step, sx.basis[pos], upper) == (0.8e-12, 1, False)
        loop = LoopSimplex.__new__(LoopSimplex)
        loop.basis, loop.val, loop.lb, loop.ub = sx.basis, sx.val, sx.lb, sx.ub
        assert loop._ratio_test(3, 1.0, w) == (step, pos, upper)


def test_the_smallest_ratio_ties_where_1e_12_rounds_away():
    """From a smallest ratio of 2**14 on, that ratio plus 1e-12 rounds to
    itself, so no row lies below it.  Basic column 0 in [0, 1] at 1 with
    pivot 5e-5 (ratio 2e4) and basic column 1 in [0, inf] at 1e5 with
    pivot 1 (ratio 1e5), the entering column 2 in [0, inf]: column 0's
    row still leaves, with its own ratio as the step, in either row
    order, and the loop reference agrees.  Taking the larger pivot's row
    would push column 0 to -4."""
    assert 2e4 + 1e-12 == 2e4
    for order in itertools.permutations(range(2)):
        sx = lpsolve._Simplex.__new__(lpsolve._Simplex)
        sx.basis = np.array(order, dtype=np.intp)
        sx.val = np.array([1.0, 1e5, 0.0])
        sx.lb, sx.ub = np.zeros(3), np.array([1.0, math.inf, math.inf])
        w = np.array([5e-5, 1.0])[sx.basis]
        step, pos, upper = sx._ratio_test(2, 1.0, w)
        assert (step, sx.basis[pos], upper) == (1.0 / 5e-5, 0, False)
        loop = LoopSimplex.__new__(LoopSimplex)
        loop.basis, loop.val, loop.lb, loop.ub = sx.basis, sx.val, sx.lb, sx.ub
        assert loop._ratio_test(2, 1.0, w) == (step, pos, upper)


class RecordingSimplex(lpsolve._Simplex):
    """A simplex that records (iteration, entering, leaving position,
    step) at each ratio test."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pivots = []

    def _ratio_test(self, j, sigma, w):
        step, pos, upper = super()._ratio_test(j, sigma, w)
        self.pivots.append((self.iterations, j, pos, step))
        return step, pos, upper


class RepricingSimplex(RecordingSimplex):
    """The loop of ``_Simplex.iterate`` with every pivot priced afresh:
    the reference for keeping the scores through bound flips."""

    def iterate(self, max_iterations: int) -> str:
        fixed = self.lb == self.ub
        while True:
            if self.iterations >= max_iterations:
                return lpsolve.NUMERICAL_FAILURE
            self.iterations += 1
            if self.iterations % lpsolve.REFRESH_EVERY == 0:
                if not self.refresh():
                    return lpsolve.NUMERICAL_FAILURE
            duals = self.cost[self.basis] @ self.Binv
            score = self._score(self.cost - duals @ self.M, fixed)
            j = int(np.argmax(score))
            if not score[j] > lpsolve.DUAL_TOL:
                return lpsolve.OPTIMAL
            sigma = -1.0 if self.at_upper[j] else 1.0
            w = self.Binv @ self.M[:, j]
            delta, leave_pos, leave_to_upper = self._ratio_test(j, sigma, w)
            if math.isinf(delta):
                return lpsolve.UNBOUNDED
            self.val[self.basis] -= sigma * delta * w
            self.val[j] += sigma * delta
            if leave_pos < 0:
                self.at_upper[j] = not self.at_upper[j]
                self.val[j] = self.ub[j] if self.at_upper[j] else self.lb[j]
                continue
            leaving = self.basis[leave_pos]
            self.val[leaving] = (
                self.ub[leaving] if leave_to_upper else self.lb[leaving]
            )
            self.at_upper[leaving] = leave_to_upper
            self.basis[leave_pos] = j
            self._update_inverse(leave_pos, w)


def recorded_solves(cases, simplex) -> tuple:
    """Each case's solution under ``simplex``, a RecordingSimplex, and per
    simplex made, its pivots and its final values and flags as bytes."""
    made = []

    class Kept(simplex):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lpsolve, "_Simplex", Kept)
        solutions = [repr(lp.solve(windows)) for lp, windows in cases]
    return solutions, [
        (sx.pivots, sx.val.tobytes(), sx.at_upper.tobytes()) for sx in made
    ]


@pytest.mark.parametrize("refresh_every", [200, 3])
def test_scores_kept_through_flips_match_pricing_every_pivot(
    refresh_every, pipeline_lps, monkeypatch
):
    """On every pipeline LP, the (entering, leaving, step) of each pivot,
    the final values and the solution equal those of a loop that prices
    every pivot.  With a refresh every third iteration, some run of bound
    flips crosses a refresh."""
    monkeypatch.setattr(lpsolve, "REFRESH_EVERY", refresh_every)
    cases = [(lp, windows) for _, lp, windows, _ in pipeline_lps]
    kept = recorded_solves(cases, RecordingSimplex)
    assert kept == recorded_solves(cases, RepricingSimplex)
    flips = {
        (k, it)
        for k, (pivots, _, _) in enumerate(kept[1])
        for it, _, pos, _ in pivots
        if pos < 0
    }
    assert len(flips) > 100
    if refresh_every == 3:
        assert any(it % 3 == 0 and (k, it - 1) in flips for k, it in flips)


# -- the start -----------------------------------------------------------


def start_state(sx) -> tuple:
    """A simplex's values, at_upper flags, upper bounds, artificial
    columns, basis and signs of its values, as bytes."""
    return (
        sx.val.tobytes(),
        sx.at_upper.tobytes(),
        sx.ub.tobytes(),
        sx.M[:, sx.n + sx.m :].tobytes(),
        np.asarray(sx.basis, dtype=np.intp).tobytes(),
        np.signbit(sx.val).tobytes(),
    )


def loop_start(lp, windows) -> tuple:
    """(start state, broken rows, whether x-hat moved) of a solve, the
    state built one variable and one row at a time: the reference for the
    solver's array form.  A row is judged on Fractions, its activity
    summed from its pairs at the start (every start here is a dyadic
    float, so exact), when no coordinate moved into the tightened box,
    and on the float activity otherwise."""
    n, m = lp.num_vars, len(lp.general)
    var_lb, var_ub, *_ = lp.presolve(windows)
    slack_lb, slack_ub = lp.slack_bounds(windows)
    sx = lpsolve._Simplex(lp, var_lb, var_ub, slack_lb, slack_ub)
    xhat = lp.warm_x.tolist()
    x = [min(max(v, lo), hi) for v, lo, hi in zip(xhat, var_lb, var_ub)]
    for j, v in enumerate(x):
        sx.val[j] = v
        sx.at_upper[j] = v == var_ub[j]
    moved = x != xhat
    product = lp.matrix @ np.array(x, dtype=float)
    basis = []
    for i, row in enumerate(lp.general):
        lo, hi = slack_lb[i], slack_ub[i]
        if moved:
            activity = product[i]
            below, above = activity < lo, activity > hi
        else:
            pairs, _, _, denom = lp.rows[row]
            exact = Fraction(
                sum(c * Fraction(xhat[j]) for j, c in pairs), denom
            )
            w_lo, w_hi, d = windows[row]
            activity = float(exact)
            below = w_lo is not None and exact < Fraction(w_lo, d)
            above = w_hi is not None and exact > Fraction(w_hi, d)
        slack = np.clip(activity, lo, hi)
        sx.val[n + i] = slack
        sx.at_upper[n + i] = above
        if below or above:
            residual = slack - activity
            sign = -1.0 if residual < 0 else 1.0
            sx.M[i, n + m + i] = sign
            sx.val[n + m + i] = residual * sign
            sx.ub[n + m + i] = math.inf
            basis.append(n + m + i)
        else:
            basis.append(n + i)
    sx.basis = basis
    broken = [i for i, col in enumerate(basis) if col >= n + m]
    return start_state(sx), broken, moved


def recorded_starts(cases) -> list:
    """The state of each case's simplex when its solve first sets a
    basis, which is its start."""
    states = []
    set_basis = lpsolve._Simplex.set_basis

    def recording(sx, columns, signs=None):
        ok = set_basis(sx, columns, signs)
        states.append(start_state(sx))
        return ok

    starts = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lpsolve._Simplex, "set_basis", recording)
        for lp, windows in cases:
            states.clear()
            lp.solve(windows)
            starts.append(states[0])
    return starts


def test_a_start_with_a_broken_row_matches_the_per_row_loop(pipeline_lps):
    """Every solve starts, to the bit, where the per-row loop puts it: on
    the reference models from their lower corners (sub-box variable
    bounds, so nonzero residuals), the card-40 LPs, rows on two variables
    under ties, one-sided rows and an equality with negative
    coefficients, those started at (1, 1) with x0 <= 1/2 cutting it off,
    x0 + x1 <= 2 - 2^-60 at (1, 1), broken though its float bound is 2,
    so that its residual is 0, and no kept row."""
    one = Fraction(1)
    bounds = [(-1, 1), (-2, 1), (-1, 3), (None, -1), (2, None)]
    rows = tuple(((one, one), lo, hi) for lo, hi in bounds)
    rows += (((-one, -one), Fraction(0), Fraction(0)),)
    cut = rows + (((2 * one, 0), None, one),)
    cases = [prepared_model(model) for model in reference_models()]
    for lo in (Fraction(0), Fraction(1, 4)):
        cases.append(prepared_model(LpModel(2, ((lo, one),) * 2, rows,
                                            (one, one))))
        for start in ((0, 0), (1, 1)):
            cases.append(prepared_model(
                LpModel(2, ((lo, one),) * 2, cut, (one, one)), start
            ))
    tie = LpModel(2, box(2), (((one, one), None, 2 - one / 2**60),),
                  (one, one))
    cases.append(prepared_model(tie, (1, 1)))
    no_row = prepared_model(
        LpModel(2, box(2), (((one, one), None, None), ((0, 0), -one, one)),
                (one, -one))
    )
    assert no_row[0].general == no_row[0].singles == []
    cases.append(no_row)
    cases += [
        (lp, windows) for name, lp, windows, _ in pipeline_lps
        if name.startswith("card40/")
    ]
    cases = [(lp, w) for lp, w in cases if lp.presolve(w) is not None]
    expected = [loop_start(lp, windows) for lp, windows in cases]
    assert sum(bool(broken) for _, broken, _ in expected) > 50
    assert any(broken and moved for _, broken, moved in expected)
    assert recorded_starts(cases) == [state for state, _, _ in expected]


def test_a_prediction_that_breaks_a_side_window_of_a_feasible_lp():
    """MAX-CUT G(16, 0.3) under sum x <= 6 around the alternating
    prediction, which sets 8: at eps = 0 the side row is the one row the
    prediction breaks, and the LP is feasible.  The start puts an
    artificial on that row alone, and the solve ends optimal, in
    agreement with the reference solver and, when scipy is there, HiGHS."""
    n = 16
    relaxation = pipeline_relaxation(
        maxcut_objective(gen_gnp(n, 0.3, 0)), alternating(n),
        (at_most(n, 6),),
    )
    lp, windows = relaxation.lp(), relaxation.windows(0)
    side = len(relaxation.rows) - 1
    below, above = lp.broken(windows)
    assert not below.any()
    assert [lp.general[i] for i in np.flatnonzero(above)] == [side]
    state, broken, moved = loop_start(lp, windows)
    assert broken == np.flatnonzero(above).tolist() and not moved
    assert recorded_starts([(lp, windows)]) == [state]
    ours = lp.solve(windows)
    assert ours.status == "optimal" and ours.iterations > 0
    model = relaxation.model(0)
    assert agrees(ours, reference_solve(model), 1e-9)
    try:
        import scipy  # noqa: F401
    except ImportError:
        return
    assert agrees(ours, highs_solve(model), 1e-9)


# -- the starting basis inverse -------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 5, 60, 260])
def test_diagonal_start_inverse_is_lapacks_to_the_bit(m):
    """A start's basis, slacks on the rows the start keeps and artificials
    on those it breaks, is a +-1 diagonal: all slacks, all artificials or
    a mix.  The inverse written down from its signs equals np.linalg.inv
    of the basis bit for bit, signs of zeros included."""
    rng = np.random.default_rng(m)
    model = LpModel(
        num_vars=2,
        var_bounds=box(2),
        rows=(((Fraction(1),) * 2, Fraction(0), Fraction(1)),) * m,
        objective=(Fraction(1),) * 2,
    )
    lp = prepared_model(model)[0]
    sx = lpsolve._Simplex(lp, lp.var_lb, lp.var_ub, np.zeros(m), np.ones(m))
    slacks = range(2, 2 + m)
    artificials = range(2 + m, 2 + 2 * m)
    for _ in range(3):
        signs = rng.choice([-1.0, 1.0], size=m)
        sx.M[range(m), artificials] = signs
        broken = rng.random(m) < 0.5
        for columns, diagonal in (
            (slacks, np.full(m, -1.0)),
            (artificials, signs),
            (
                np.where(broken, artificials, slacks),
                np.where(broken, signs, -1.0),
            ),
        ):
            lapack = np.linalg.inv(sx.M[:, columns])
            assert sx.set_basis(columns, diagonal)
            assert np.array_equal(sx.Binv, lapack)
            assert np.array_equal(np.signbit(sx.Binv), np.signbit(lapack))
