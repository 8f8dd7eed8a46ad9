import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import butterfly_masks_to_values, fraction_value
from helpers import at_most, random_bool_vector, random_multilinear
from test_golden import corpus
from smoothip import lpsolve, pipeline, poly, relax
from smoothip.pipeline import (
    EXACT_CAP,
    _masks_to_values,
    Instance,
    SolveConfig,
    approx_ratio_bound,
    exact_solve,
    guarantee_bound,
    guarantee_floor,
    prepare,
    report_csv,
    report_json,
    solve,
    solve_constrained,
)
from smoothip.poly import Polynomial, evaluate, min_smoothness, multilinearize
from smoothip.problems import (
    CnfFormula,
    Graph,
    gen_gnp,
    gen_kcsp,
    gen_ksat,
    maxcut_objective,
    maxkcsp_objective,
    maxksat_objective,
)
from smoothip.rat import E_UPPER, sqrt_upper
from smoothip.relax import ConstrainedProgram, gap_bound
from smoothip.rounding import greedy_round, rounding_deviation_term

TRIANGLE = maxcut_objective(Graph(3, ((0, 1), (0, 2), (1, 2))))
PATH3 = maxcut_objective(Graph(3, ((0, 1), (1, 2))))


def strip_wall(report):
    return [
        dataclasses.replace(r, wall_ms=0.0) for r in report.per_eps
    ]


# -- the basic loop -----------------------------------------------------


def test_path_graph_with_perfect_prediction():
    report = solve(Instance(PATH3), (0, 1, 0))
    assert report.best_value == 2
    assert report.best_z == (0, 1, 0)
    assert report.beta <= 2


def test_full_grid_records_every_budget():
    g = gen_gnp(8, 0.5, 4)
    report = solve(Instance(maxcut_objective(g)), (0, 1) * 4)
    assert len(report.per_eps) == 9
    assert [r.eps for r in report.per_eps] == list(range(9))
    assert all(r.status == "optimal" for r in report.per_eps)


def test_best_never_below_prediction_or_baseline():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(3, 8)
        p = random_multilinear(rng, n, rng.randint(2, 3))
        xhat = random_bool_vector(rng, n)
        report = solve(Instance(p), xhat, SolveConfig(grid=(0, n // 2)))
        tags = {c.tag: c for c in report.candidates}
        assert report.best_value >= tags["prediction"].value
        assert report.best_value >= tags["baseline"].value
        assert tags["prediction"].value == evaluate(p, xhat)
        assert report.best_value == evaluate(p, report.best_z)


def test_candidate_flags_drop_the_fallbacks():
    report = solve(
        Instance(TRIANGLE),
        (1, 1, 1),
        SolveConfig(
            include_prediction_candidate=False,
            include_baseline_candidate=False,
        ),
    )
    assert {c.tag for c in report.candidates} == {
        f"eps={e}" for e in range(4)
    }


def test_lp_values_monotone_in_eps():
    g = gen_gnp(8, 0.5, 11)
    report = solve(Instance(maxcut_objective(g)), (1, 0) * 4)
    values = [r.lp_value for r in report.per_eps]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-7


def test_consistency_with_perfect_predictions():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(4, 8)
        p = random_multilinear(rng, n, rng.randint(2, 3))
        if p.degree < 2:
            continue
        inst = Instance(p)
        star, opt = exact_solve(inst)
        report = solve(inst, star, SolveConfig(grid=(0,)))
        assert report.best_value == opt


def test_smoothness_floor_with_injected_error():
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(4, 8)
        g = gen_gnp(n, 0.6, rng.randrange(10**6))
        inst = Instance(maxcut_objective(g))
        star, opt = exact_solve(inst)
        xhat = list(star)
        flips = rng.randint(0, n)
        for i in rng.sample(range(n), flips):
            xhat[i] = 1 - xhat[i]
        report = solve(inst, tuple(xhat), SolveConfig(grid=(flips,)))
        beta = min_smoothness(inst.objective)
        assert report.best_value >= opt - gap_bound(beta, n, 2, flips)


def test_prediction_object_is_unwrapped():
    wrapped = SimpleNamespace(x_hat=(0, 1, 0), provenance="exact")
    assert solve(Instance(PATH3), wrapped).best_value == 2


def test_bad_predictions_rejected():
    with pytest.raises(ValueError):
        solve(Instance(PATH3), (0, 1))
    with pytest.raises(ValueError):
        solve(Instance(PATH3), (0, 1, 2))


# Entries that int() would truncate to 0 or 1, and one it would parse.
NOT_BOOLEAN = (0.5, 1.7, -0.4, "1", Fraction(1, 2), np.float64(0.25))
# Entries equal to 0 or 1 in other types than int.
BOOLEAN_SPELLINGS = (
    (False, True, False, True),
    (0.0, 1.0, 0.0, 1.0),
    tuple(np.array([0, 1, 0, 1], dtype=np.int8)),
    np.array([0, 1, 0, 1]),
    (Fraction(0), Fraction(1), 0, np.uint8(1)),
)


@pytest.mark.parametrize("entry", NOT_BOOLEAN, ids=repr)
def test_non_boolean_prediction_entries_are_rejected(entry):
    p = maxcut_objective(Graph(4, ((0, 1), (1, 2), (2, 3))))
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        solve(Instance(p), [entry, 1, 0, 1])
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        solve(prepare(Instance(p)), (1, 0, 1, entry))


@pytest.mark.parametrize("spelling", BOOLEAN_SPELLINGS, ids=repr)
def test_boolean_prediction_entries_of_any_type_are_accepted(spelling):
    p = maxcut_objective(Graph(4, ((0, 1), (1, 2), (2, 3))))
    report = solve(Instance(p), spelling)
    plain = solve(Instance(p), (0, 1, 0, 1))
    assert strip_wall(report) == strip_wall(plain)
    assert report.candidates == plain.candidates
    assert all(type(v) is int for v in report.candidates[0].z)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(strategy="annealing")
    with pytest.raises(ValueError):
        SolveConfig(randomized_rounds=0)
    with pytest.raises(ValueError):
        SolveConfig(k=0)
    with pytest.raises(ValueError):
        solve(Instance(PATH3), (0, 1, 0), SolveConfig(grid=(0, 4)))


def test_stride_and_explicit_grids():
    g = gen_gnp(10, 0.4, 9)
    inst = Instance(maxcut_objective(g))
    xhat = (0,) * 10
    # The CLI's --grid stride:S reaches the pipeline as an explicit grid.
    by_stride = solve(inst, xhat, SolveConfig(grid=tuple(range(0, 11, 3))))
    assert [r.eps for r in by_stride.per_eps] == [0, 3, 6, 9]
    explicit = solve(inst, xhat, SolveConfig(grid=(10, 0, 5, 5)))
    assert [r.eps for r in explicit.per_eps] == [0, 5, 10]


# -- degenerate sizes ---------------------------------------------------


def test_tiny_instances_are_brute_forced():
    p = Polynomial(2, {(0,): 1, (0, 1): 1})
    report = solve(Instance(p), (0, 0))
    assert report.per_eps == ()
    assert "exact" in {c.tag for c in report.candidates}
    assert report.best_value == 2
    assert report.best_z == (1, 1)


# -- randomized strategy ------------------------------------------------


def test_randomized_runs_are_reproducible():
    g = gen_gnp(7, 0.5, 21)
    inst = Instance(maxcut_objective(g))
    config = SolveConfig(strategy="randomized", seed=99, randomized_rounds=8)
    a = solve(inst, (0,) * 7, config)
    b = solve(inst, (0,) * 7, config)
    assert a.best_z == b.best_z and a.best_value == b.best_value
    assert strip_wall(a) == strip_wall(b)
    for record in a.per_eps:
        assert len(record.seed_values) == 8
        assert record.rounded_value == max(record.seed_values)


def force_the_simplex(monkeypatch):
    """Make no budget saturate, so that every budget's LP goes through
    pipeline.lp_solve, where a test can inject its result."""
    monkeypatch.setattr(
        relax.Relaxation, "saturation_budget", lambda self, grid: None
    )


def test_randomized_differs_across_seeds(monkeypatch):
    # Pin the LP answer to the all-halves point so the rounding stream is
    # the only source of variation.
    force_the_simplex(monkeypatch)
    monkeypatch.setattr(
        pipeline, "lp_solve",
        lambda lp, windows: lpsolve.LpSolution("optimal", (0.5,) * 12, 0.0),
    )
    g = gen_gnp(12, 0.5, 3)
    inst = Instance(maxcut_objective(g))
    runs = {
        solve(
            inst,
            (0,) * 12,
            SolveConfig(strategy="randomized", seed=s, grid=(6,)),
        ).per_eps[0].rounded_z
        for s in range(6)
    }
    assert len(runs) > 1


# -- the simplex and the closed form ------------------------------------


def canonical(report) -> dict:
    payload = json.loads(report_json(report))
    for record in payload["per_eps"]:
        del record["wall_ms"]
    return payload


def seeded_corpus(seed):
    """MAX-CUT, 3-SAT, 3-CSP and a cardinality-constrained MAX-CUT."""
    yield Instance(maxcut_objective(gen_gnp(16, 0.4, seed)))
    yield Instance(maxksat_objective(gen_ksat(12, 48, 3, seed)))
    yield Instance(maxkcsp_objective(gen_kcsp(10, 24, 3, seed)))
    card = Polynomial(14, {(j,): 1 for j in range(14)})
    yield Instance(
        maxcut_objective(gen_gnp(14, 0.4, seed)),
        ((card, None, Fraction(4)),),
    )


@pytest.mark.parametrize("strategy", ["greedy", "randomized"])
def test_closed_form_matches_the_simplex_at_every_budget(
    strategy, monkeypatch
):
    """Past the saturation budget the default solve skips the simplex; its
    report must equal the one from running the simplex at every budget."""
    simplex_calls = []
    original = pipeline.lp_solve

    def counted(lp, windows):
        simplex_calls.append(windows)
        return original(lp, windows)

    monkeypatch.setattr(pipeline, "lp_solve", counted)
    for seed in range(3):
        for instance in seeded_corpus(seed):
            n = instance.objective.n
            xhat = random_bool_vector(random.Random(seed), n)
            config = SolveConfig(
                strategy=strategy, seed=seed, randomized_rounds=4
            )
            del simplex_calls[:]
            default = solve(instance, xhat, config)
            assert len(simplex_calls) < n + 1  # some budgets saturated
            del simplex_calls[:]
            with monkeypatch.context() as forcing:
                force_the_simplex(forcing)
                forced = solve(instance, xhat, config)
            assert len(simplex_calls) == n + 1
            assert canonical(default) == canonical(forced)


def test_failed_eps_is_skipped_not_fatal(monkeypatch):
    force_the_simplex(monkeypatch)
    original = pipeline.lp_solve
    count = [0]

    def flaky(lp, windows):
        count[0] += 1
        if count[0] == 3:
            return lpsolve.LpSolution("numerical-failure", (), None)
        return original(lp, windows)

    monkeypatch.setattr(pipeline, "lp_solve", flaky)
    report = solve(Instance(TRIANGLE), (1, 0, 0))
    assert count[0] == 4
    bad = report.per_eps[2]
    assert bad.status == "numerical-failure"
    assert bad.lp_value is None and bad.rounded_z is None
    assert report.best_value == 2


def test_no_candidates_at_all_raises(monkeypatch):
    force_the_simplex(monkeypatch)
    monkeypatch.setattr(
        pipeline, "lp_solve",
        lambda lp, windows: lpsolve.LpSolution("numerical-failure", (), None),
    )
    with pytest.raises(RuntimeError):
        solve(
            Instance(TRIANGLE),
            (1, 0, 0),
            SolveConfig(
                include_prediction_candidate=False,
                include_baseline_candidate=False,
            ),
        )


# -- prepared instances -------------------------------------------------


@pytest.mark.parametrize("name", sorted(corpus()))
def test_a_prepared_instance_solves_like_the_instance(name):
    """One prepared value, solved for several predictions, gives the
    reports of solving the instance itself (MAX-CUT, 3-SAT, 3-CSP,
    cardinality-constrained, randomized strategy and n <= d)."""
    instance, xhat, config = corpus()[name]
    prepared = prepare(instance)
    flipped = tuple(1 - v for v in xhat)
    for prediction in (xhat, flipped, xhat):
        assert canonical(solve(prepared, prediction, config)) == canonical(
            solve(instance, prediction, config)
        )
    assert exact_solve(prepared) == exact_solve(instance)


@pytest.mark.parametrize("name", sorted(corpus()))
def test_the_baseline_rounds_the_halves_of_its_own_objective(name):
    instance, _, _ = corpus()[name]
    baseline = prepare(instance).baseline
    p = multilinearize(instance.objective)
    z = greedy_round(p, (Fraction(1, 2),) * p.n)
    assert baseline.tag == "baseline" and baseline.z == z
    assert baseline.value == evaluate(instance.objective, z)
    worst = Fraction(0)
    for poly, lower, upper in instance.constraints:
        value = evaluate(poly, z)
        worst = max(
            worst,
            Fraction(0) if lower is None else lower - value,
            Fraction(0) if upper is None else value - upper,
        )
    assert baseline.violation == worst


# -- constrained programs -----------------------------------------------


def test_unconstrained_program_matches_plain_solve():
    plain = solve(Instance(TRIANGLE), (1, 0, 0))
    wrapped = solve_constrained(ConstrainedProgram(TRIANGLE), (1, 0, 0))
    assert wrapped.best_z == plain.best_z
    assert wrapped.best_value == plain.best_value
    assert wrapped.candidates == plain.candidates
    assert strip_wall(wrapped) == strip_wall(plain)


def test_cardinality_constraint_respected_at_zero_error():
    # Quadratic objective wants everything on; the window keeps half off.
    n = 8
    p = Polynomial(
        n, {(i,): 1 for i in range(n)} | {(i, j): 1 for i in range(n) for j in range(i + 1, n)}
    )
    budget = Polynomial(n, {(i,): 1 for i in range(n)})
    prog = ConstrainedProgram(p, ((budget, None, Fraction(n // 2)),))
    star, opt = exact_solve(Instance(p, prog.constraints))
    report = solve_constrained(prog, star, SolveConfig(grid=(0,)))
    assert report.best_value >= opt
    record = report.per_eps[0]
    bound = record.gap + rounding_deviation_term(
        min_smoothness(p), n, 2, 1
    )
    assert record.violation_max <= bound


def test_vacuous_window_never_violated():
    budget = Polynomial(3, {(0,): 1, (1,): 1, (2,): 1})
    prog = ConstrainedProgram(
        TRIANGLE, ((budget, Fraction(0), Fraction(3)),)
    )
    report = solve_constrained(prog, (1, 0, 0))
    for record in report.per_eps:
        assert record.violation_max == 0
    assert report.best_value == 2


def test_infeasible_side_candidates_never_win():
    # Prediction violates the window; an LP-derived candidate must win
    # even when its value is lower.
    n = 4
    p = Polynomial(n, {(i,): 1 for i in range(n)}, degree=2)
    budget = Polynomial(n, {(i,): 1 for i in range(n)})
    prog = ConstrainedProgram(p, ((budget, None, Fraction(1)),))
    report = solve_constrained(prog, (1, 1, 1, 1), SolveConfig(grid=(0,)))
    best_tags = {
        c.tag for c in report.candidates if c.value == report.best_value
    }
    assert report.best_z != (1, 1, 1, 1) or "eps=0" in best_tags


# -- exact reference ----------------------------------------------------


def test_exact_triangle():
    z, value = exact_solve(Instance(TRIANGLE))
    assert value == 2
    assert z == (0, 0, 1)  # lexicographically smallest of six optima


def test_exact_zero_polynomial():
    z, value = exact_solve(Instance(Polynomial(3, {})))
    assert value == 0
    assert z == (0, 0, 0)


def test_exact_lex_tie_break():
    p = Polynomial(2, {(0,): 1, (1,): 1, (0, 1): -1})
    z, value = exact_solve(Instance(p))
    assert value == 1
    assert z == (0, 1)


def test_exact_honors_constraints():
    p = Polynomial(3, {(0,): 3, (1,): 2, (2,): 1})
    budget = Polynomial(3, {(0,): 1, (1,): 1, (2,): 1})
    inst = Instance(p, ((budget, None, 1),))
    z, value = exact_solve(inst)
    assert z == (1, 0, 0) and value == 3
    with pytest.raises(ValueError):
        exact_solve(Instance(p, ((budget, 5, None),)))


def test_exact_cap():
    with pytest.raises(ValueError):
        exact_solve(Instance(Polynomial(EXACT_CAP + 1, {(0,): 1})))


def test_exact_ignores_a_window_that_holds_everywhere():
    rng = random.Random(8)
    huge = Fraction(2**62)  # pushes the value table onto the object dtype
    polys = [random_multilinear(rng, n, 3) for n in (4, 6, 9)]
    polys.append(Polynomial(5, {(0, 1): huge, (2,): huge, (3, 4): -huge}))
    for p in polys:
        n = p.n
        everywhere = Polynomial(n, {(i,): 1 for i in range(n)})
        plain = exact_solve(Instance(p))
        windowed = exact_solve(Instance(p, ((everywhere, 0, n),)))
        assert windowed == plain
        values = {}
        for mask in range(2**n):
            point = tuple((mask >> (n - 1 - i)) & 1 for i in range(n))
            values[point] = evaluate(p, point)
        best = max(values.values())
        assert plain == (min(pt for pt, v in values.items() if v == best), best)


def test_exact_agrees_with_enumeration():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 7)
        p = random_multilinear(rng, n, rng.randint(1, min(3, n)))
        z, value = exact_solve(Instance(p))
        values = {}
        for mask in range(2**n):
            point = tuple((mask >> (n - 1 - i)) & 1 for i in range(n))
            values[point] = evaluate(p, point)
        assert value == max(values.values())
        assert z == min(pt for pt, v in values.items() if v == value)


def assert_table_matches_reference(p, dtype=None):
    table, denom = _masks_to_values(p, p.n)
    want, want_denom = butterfly_masks_to_values(p, p.n)
    assert denom == want_denom
    assert [int(v) for v in table] == [int(v) for v in want]
    if dtype is not None:
        assert table.dtype == np.dtype(dtype)


# Multipliers that put a polynomial with coefficients of size up to 8 on
# each table dtype: int16, int32, int64 and, past int64, Python ints.
SCALES = (1, 2**13, 2**29, 2**58, 2**70)


@st.composite
def table_polynomials(draw):
    """Polynomials on 1-10 variables of degree 1-4 with negative and
    fractional coefficients, scaled onto any of the table dtypes."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, min(4, n)))
    coeff = st.fractions(min_value=-8, max_value=8, max_denominator=12)
    monos = draw(
        st.lists(st.sets(st.integers(0, n - 1), max_size=d), max_size=20)
    )
    scale = draw(st.sampled_from(SCALES))
    coeffs = {}
    for mono in monos:
        key = tuple(sorted(mono))
        coeffs[key] = coeffs.get(key, 0) + draw(coeff) * scale
    return Polynomial(n, coeffs)


@settings(max_examples=150, deadline=None)
@given(table_polynomials())
def test_value_table_matches_the_full_butterfly(p):
    assert_table_matches_reference(p)


@pytest.mark.parametrize(
    "total, dtype",
    [
        (2**15 - 1, np.int16),
        (2**15, np.int32),
        (2**31 - 1, np.int32),
        (2**31, np.int64),
        (2**63 - 1, np.int64),
        (2**63, object),
    ],
)
def test_value_table_dtype_is_the_narrowest_that_holds_the_total(
    total, dtype
):
    # The coefficients' magnitudes sum to total.
    half = total // 2
    p = Polynomial(7, {(): 1, (0, 1): half, (2, 6): -(total - half - 1)})
    assert_table_matches_reference(p, dtype)


def test_value_table_of_the_zero_polynomial():
    for n in (1, 2, 5):
        table, denom = _masks_to_values(Polynomial(n, {}), n)
        assert denom == 1 and table.shape == (1 << n,) and not table.any()


def test_value_table_with_one_and_with_every_high_part():
    # n = 7 splits into k = 3 low variables (4, 5, 6) and 4 high ones.
    rng = random.Random(21)
    n, high = 7, range(4)
    low_only = {
        tuple(sorted(rng.sample(range(4, n), rng.randint(0, 3)))): Fraction(
            rng.randint(-9, 9), rng.randint(1, 4)
        )
        for _ in range(6)
    }
    every_high = {
        mono + low: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        for size in range(5)
        for mono in itertools.combinations(high, size)
        for low in [tuple(sorted(rng.sample(range(4, n), 1)))]
    }
    for coeffs in (low_only, every_high):
        assert_table_matches_reference(Polynomial(n, coeffs))
    assert len({tuple(i for i in m if i < 4) for m in every_high}) == 16


@pytest.mark.parametrize(
    "scale, dtype",
    [(1, np.int16), (2**14, np.int32), (2**30, np.int64), (2**62, object)],
)
def test_infeasible_points_lose_on_every_table_dtype(scale, dtype):
    # Every feasible value is negative, and the infeasible all-zeros
    # point has the largest value; it must not win.
    p = Polynomial(3, {(): -scale, (0,): -scale, (1,): -scale, (2,): -scale})
    assert _masks_to_values(p, 3)[0].dtype == np.dtype(dtype)
    at_least_one = Polynomial(3, {(0,): 1, (1,): 1, (2,): 1})
    z, value = exact_solve(Instance(p, ((at_least_one, 1, None),)))
    assert z == (0, 0, 1) and value == -2 * scale


def test_windows_far_outside_a_narrow_table():
    p = Polynomial(3, {(0,): 3, (1,): -2, (0, 2): 1})
    count = Polynomial(3, {(0,): 1, (1,): 1, (2,): 1})
    assert _masks_to_values(count, 3)[0].dtype == np.int16
    plain = exact_solve(Instance(p))
    for window in ((None, 10**30), (-(10**30), None), (-(10**30), 10**30)):
        assert exact_solve(Instance(p, ((count, *window),))) == plain
    for window in ((10**30, None), (None, -(10**30))):
        with pytest.raises(ValueError, match="no Boolean point satisfies"):
            exact_solve(Instance(p, ((count, *window),)))


def test_windows_at_the_edge_of_a_full_int16_table():
    # The constraint's total is the int16 maximum, so a bound one past it
    # does not fit the table's dtype.
    p = Polynomial(2, {(0,): -1, (1,): 1})
    heavy = Polynomial(2, {(0,): 2**15 - 1})
    assert _masks_to_values(heavy, 2)[0].dtype == np.int16
    assert exact_solve(Instance(p, ((heavy, 2**15 - 1, None),))) == (
        (1, 1), 0
    )
    assert exact_solve(Instance(p, ((heavy, None, 0),))) == ((0, 1), 1)
    for window in ((2**15, None), (None, -1)):
        with pytest.raises(ValueError, match="no Boolean point satisfies"):
            exact_solve(Instance(p, ((heavy, *window),)))


def test_exact_at_the_cap():
    # MAX-CUT of K_{12,12} with the even vertices on one side and the odd
    # ones on the other: every edge is cut by exactly the two points that
    # split the sides, and (0, 1, 0, 1, ...) is the smaller of them.
    assert EXACT_CAP == 24
    edges = tuple(
        (i, j) for i in range(0, 24, 2) for j in range(1, 24, 2)
    )
    z, value = exact_solve(Instance(maxcut_objective(Graph(24, edges))))
    assert z == (0, 1) * 12
    assert value == 144


# -- bounds -------------------------------------------------------------


def test_guarantee_bound_zero_error_greedy():
    inst = Instance(TRIANGLE)
    assert guarantee_bound(inst, 0) == 2


def test_guarantee_bound_formula_quadratic():
    inst = Instance(TRIANGLE)
    _, opt = exact_solve(inst)
    beta = min_smoothness(TRIANGLE)
    assert guarantee_bound(inst, 2) == opt - gap_bound(beta, 3, 2, 2)
    randomized = guarantee_bound(
        inst, 2, SolveConfig(strategy="randomized", k=2)
    )
    assert randomized == opt - gap_bound(beta, 3, 2, 2) - (
        rounding_deviation_term(beta, 3, 2, 2)
    )


def test_guarantee_floor_is_guarantee_bound_given_opt():
    sat = maxksat_objective(gen_ksat(10, 40, 3, 5))
    configs = (
        SolveConfig(),
        SolveConfig(strategy="randomized"),
        SolveConfig(strategy="randomized", k=2),
    )
    cases = [(Instance(TRIANGLE), (0, 1, 0)), (Instance(sat), (0, 1) * 5)]
    # beta = 0: the randomized deviation term must be left out
    cases.append((Instance(Polynomial(4, {})), (1, 0, 1, 0)))
    for inst, prediction in cases:
        _, opt = exact_solve(inst)
        for config in configs:
            for eps in range(inst.objective.n + 1):
                report = solve(
                    inst, prediction, dataclasses.replace(config, grid=(eps,))
                )
                floor = guarantee_floor(
                    opt, report.beta, report.n, report.degree, eps,
                    config.strategy, config.k,
                )
                assert floor == guarantee_bound(inst, eps, config)
    assert guarantee_floor(0, 0, 4, 2, 3, "randomized", 2) == 0


def test_guarantee_bound_accepts_a_prepared_instance(monkeypatch):
    """guarantee_bound(prepare(inst), eps) is guarantee_bound(inst, eps),
    and the prepared instance is not normalized again."""
    sat = maxksat_objective(gen_ksat(8, 30, 3, 2))
    cases = (
        Instance(TRIANGLE),
        Instance(sat),
        Instance(maxcut_objective(gen_gnp(7, 0.5, 3)), (at_most(7, 3),)),
    )
    configs = (SolveConfig(), SolveConfig(strategy="randomized", k=2))
    for inst in cases:
        prepared = prepare(inst)
        expected = [
            guarantee_bound(inst, eps, config)
            for config in configs
            for eps in range(inst.objective.n + 1)
        ]
        normalized = []
        original = pipeline._normalized
        monkeypatch.setattr(
            pipeline, "_normalized",
            lambda *args: normalized.append(args) or original(*args),
        )
        assert expected == [
            guarantee_bound(prepared, eps, config)
            for config in configs
            for eps in range(inst.objective.n + 1)
        ]
        assert normalized == []
        monkeypatch.undo()


def test_solve_takes_the_gap_factor_once_and_keeps_every_gap(monkeypatch):
    """One gap_factor call per solve; each record's gap is still
    2 * eta * beta * n^(d - 1) * sqrt_upper(n * eps), as gap_bound
    gives it, on the optimal and on the failed budgets."""
    cases = (
        (Instance(maxksat_objective(gen_ksat(9, 36, 3, 4))), (0, 1) * 4 + (1,)),
        (Instance(PATH3.with_degree(4)), (1, 0, 1)),
        (
            Instance(maxcut_objective(gen_gnp(8, 0.5, 1)), (at_most(8, 2),)),
            (0, 1) * 4,
        ),
    )
    for inst, xhat in cases:
        prepared = prepare(inst)
        calls = []
        original = pipeline.gap_factor
        monkeypatch.setattr(
            pipeline, "gap_factor",
            lambda *args: calls.append(args) or original(*args),
        )
        report = solve(prepared, xhat, SolveConfig())
        monkeypatch.undo()
        assert len(calls) == 1
        n, d, beta = report.n, report.degree, report.beta
        eta = 2 * E_UPPER * (d - 2) + 1
        for record in report.per_eps:
            eps = record.eps
            assert record.gap == gap_bound(beta, n, d, eps)
            assert record.gap == (
                2 * eta * beta * Fraction(n) ** (d - 1) * sqrt_upper(n * eps)
            )
    assert {r.status for r in report.per_eps} == {"optimal", "infeasible"}


def test_boolean_points_are_scored_from_integer_tables():
    """The prepared objective's tables and every side constraint's score
    table give the Fraction values and violations, constant-only
    polynomials included."""
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(3, 8)
        p = random_multilinear(rng, n, rng.randint(1, min(3, n)))
        if rng.random() < 0.2:
            p = Polynomial(n, {(): Fraction(rng.randrange(-9, 10), 7)})
        constraints = []
        for _ in range(rng.randint(0, 3)):
            q = random_multilinear(rng, n, rng.randint(1, min(3, n)))
            if rng.random() < 0.2:
                q = Polynomial(n, {(): Fraction(rng.randrange(-9, 10), 5)})
            lower = Fraction(rng.randrange(-20, 5), rng.randrange(1, 7))
            upper = lower + Fraction(rng.randrange(0, 20), rng.randrange(1, 7))
            constraints.append(
                (q, None if rng.random() < 0.3 else lower,
                 None if rng.random() < 0.3 else upper)
            )
        prepared = prepare(Instance(p, tuple(constraints)))
        assert len(prepared.constraint_scores) == len(constraints)
        for _ in range(8):
            z = tuple(random_bool_vector(rng, n))
            assert prepared.greedy.value(z) == fraction_value(p, z)
            worst = Fraction(0)
            for q, lower, upper in constraints:
                value = fraction_value(q, z)
                if lower is not None:
                    worst = max(worst, lower - value)
                if upper is not None:
                    worst = max(worst, value - upper)
            assert pipeline._violation(prepared.constraint_scores, z) == worst


def test_solve_of_a_prepared_instance_builds_nothing_per_objective(
    monkeypatch,
):
    """prepare builds one relaxation plan for the objective, one side plan
    and one score table per side constraint; a solve of the prepared
    instance builds none of them."""
    built = {}
    for name in ("RelaxationPlan", "constraint_plans", "ScoreTable",
                 "GreedyTables"):
        original = getattr(pipeline, name)
        built[name] = calls = []
        monkeypatch.setattr(
            pipeline, name,
            lambda *args, calls=calls, original=original: (
                calls.append(args) or original(*args)
            ),
        )
    cut = maxcut_objective(gen_gnp(9, 0.5, 2))
    inst = Instance(cut, (at_most(9, 4), at_most(9, Fraction(11, 2))))
    prepared = prepare(inst)
    counts = {name: len(calls) for name, calls in built.items()}
    assert counts == {
        "RelaxationPlan": 1, "constraint_plans": 1, "ScoreTable": 2,
        "GreedyTables": 1,
    }
    assert len(prepared.constraint_plans) == 2
    for xhat in ((0, 1) * 4 + (0,), (1,) * 9):
        report = solve(prepared, xhat, SolveConfig())
        assert report.per_eps
    assert {name: len(calls) for name, calls in built.items()} == counts


def test_prepare_builds_no_decomposition_tree(monkeypatch):
    """prepare reads every relaxation plan off the monomials: neither it
    nor a solve of what it returns calls decompose, under any module's
    name for it."""
    calls = []
    original = poly.decompose
    for module in (poly, relax, pipeline):
        monkeypatch.setattr(
            module, "decompose",
            lambda *args: calls.append(args) or original(*args),
        )
    cut = maxcut_objective(gen_gnp(9, 0.5, 2))
    sat = maxksat_objective(gen_ksat(9, 30, 3, 1))
    for inst in (
        Instance(cut, (at_most(9, 4), (sat, 20, None))),
        Instance(sat),
    ):
        report = solve(prepare(inst), (0, 1) * 4 + (0,), SolveConfig())
        assert report.per_eps
    assert calls == []


def test_prepare_takes_maxksat_smoothness_at_the_collapsed_degree():
    """A MAX-k-SAT objective declares its clause width as its degree, and
    min_smoothness judges it there; prepare multilinearizes, which
    resets the degree to the collapsed one, and takes beta at that
    degree.  (x0 | x1 | x2) + (~x0 | x1 | x2) is 1 + x1 + x2 - x1 x2."""
    p = maxksat_objective(
        CnfFormula(3, (((0, 1), (1, 1), (2, 1)), ((0, 0), (1, 1), (2, 1))))
    )
    assert p == Polynomial(3, {(): 1, (1,): 1, (2,): 1, (1, 2): -1})
    assert p.degree == 3 and min_smoothness(p) == Fraction(1, 3)
    prepared = prepare(Instance(p))
    assert prepared.p.degree == 2 and prepared.beta == 1
    report = solve(prepared, (0, 0, 0))
    assert (report.degree, report.beta) == (2, 1)


def test_unmeetable_side_window_names_the_real_cause():
    """No point meets 2 >= 5, so every budget's LP is infeasible; the
    error says so, and whether the fallbacks were disabled or violate
    the window."""
    cut = maxcut_objective(gen_gnp(6, 0.5, 1))
    prog = ConstrainedProgram(cut, ((Polynomial.constant(6, 2), 5, None),))
    xhat = (0, 1) * 3
    for config in (
        SolveConfig(),
        SolveConfig(include_baseline_candidate=False),
        SolveConfig(include_prediction_candidate=False),
    ):
        with pytest.raises(
            RuntimeError,
            match="no budget's LP was optimal, and every enabled fallback "
            "violates a side constraint",
        ):
            solve_constrained(prog, xhat, config)
    disabled = SolveConfig(
        include_prediction_candidate=False, include_baseline_candidate=False
    )
    with pytest.raises(
        RuntimeError,
        match="no budget's LP was optimal, and the prediction and baseline "
        "fallbacks are disabled",
    ):
        solve_constrained(prog, xhat, disabled)


def test_ratio_bound_cut_form():
    value = approx_ratio_bound(2, 100, 2, 4, 0.5, 0.5)
    assert value == pytest.approx(1 - (4 / 0.5) * 2 / 10.0)
    assert approx_ratio_bound(2, 50, 2, 0, 1.0, 0.5) == 1.0


def test_ratio_bound_general_form():
    eta = 2 * math.e + 1
    value = approx_ratio_bound(3, 64, 3, 9, 2.0, 0.25)
    assert value == pytest.approx(1 - (2 * eta * 3 / 2.0) * 3 / 64**0.25)


def test_ratio_bound_validation():
    with pytest.raises(ValueError):
        approx_ratio_bound(1, 10, 1, 1, 1.0, 0.5)
    with pytest.raises(ValueError):
        approx_ratio_bound(1, 10, 2, 1, 0.0, 0.5)
    with pytest.raises(ValueError):
        approx_ratio_bound(1, 10, 2, 1, 1.0, 0.7)


# -- serialization ------------------------------------------------------


def test_report_json_is_canonical_and_complete():
    report = solve(Instance(PATH3, label="p3"), (0, 1, 0))
    payload = json.loads(report_json(report))
    assert payload["label"] == "p3"
    assert payload["best_value"] == "2"
    assert payload["best_z"] == [0, 1, 0]
    assert len(payload["per_eps"]) == 4
    assert payload["per_eps"][0]["gap"] == "0"
    assert report_json(report) == report_json(report)


def test_report_csv_shape_and_determinism():
    inst = Instance(maxcut_objective(gen_gnp(6, 0.5, 8)))
    a = report_csv(solve(inst, (0, 1) * 3))
    b = report_csv(solve(inst, (0, 1) * 3))
    lines = a.splitlines()
    assert lines[0] == "eps,lp_value,rounded_value,violation_max,wall_ms"
    assert len(lines) == 8

    def drop_wall(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert drop_wall(a) == drop_wall(b)
