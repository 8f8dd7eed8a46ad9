import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import (
    butterfly_masks_to_values,
    every_round_scored,
    fraction_value,
    reference_report_json,
)
from helpers import at_most, random_bool_vector, random_multilinear
from test_golden import corpus
from smoothip import lpsolve, pipeline, poly, relax, rounding
from smoothip.pipeline import (
    EXACT_CAP,
    _value_tiles,
    Instance,
    SolveConfig,
    exact_solve,
    guarantee_bound,
    guarantee_floor,
    prepare,
    report_csv,
    report_json,
    solve,
    solve_constrained,
)
from smoothip.poly import (
    Polynomial,
    ScoreTable,
    evaluate,
    min_smoothness,
    multilinearize,
)
from smoothip.problems import (
    CnfFormula,
    Graph,
    cut_size,
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


def test_the_prediction_is_every_report_s_first_candidate():
    for name, (instance, xhat, config) in corpus().items():
        report = solve(instance, xhat, config)
        first = report.candidates[0]
        assert (first.tag, first.z) == ("prediction", tuple(xhat)), name


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


@pytest.mark.parametrize("field", ["seed", "randomized_rounds"])
def test_config_takes_only_integer_seeds_and_rounds(field):
    """A seed or a round count that is not an integer raises when the
    config is made, not deep inside solve; a NumPy integer is the same
    int."""
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match=field):
            SolveConfig(strategy="randomized", **{field: bad})
    numpy, plain = (
        SolveConfig(strategy="randomized", grid=(0, 2), **{field: value})
        for value in (np.int64(3), 3)
    )
    assert numpy == plain and type(getattr(numpy, field)) is int
    inst = Instance(maxcut_objective(gen_gnp(8, 0.5, seed=1)))
    assert strip_wall(solve(inst, (0, 1) * 4, numpy)) == strip_wall(
        solve(inst, (0, 1) * 4, plain)
    )


def test_config_takes_only_a_finite_positive_k():
    """A tail parameter k that is not a finite positive real raises when
    the config is made, under either strategy; a non-integer k such as
    2.5 or 3/2 is a valid tail parameter and solves."""
    for strategy in ("greedy", "randomized"):
        for bad in (math.nan, math.inf, -math.inf, "2", None, 0, -1):
            with pytest.raises(ValueError, match="tail parameter k"):
                SolveConfig(strategy=strategy, k=bad)
    inst = Instance(maxcut_objective(gen_gnp(8, 0.5, seed=1)))
    for k in (2.5, Fraction(3, 2), np.float64(2.0)):
        config = SolveConfig(strategy="randomized", grid=(0, 2), k=k)
        assert config.k == k
        solve(inst, (0, 1) * 4, config)


def test_stride_and_explicit_grids():
    g = gen_gnp(10, 0.4, 9)
    inst = Instance(maxcut_objective(g))
    xhat = (0,) * 10
    # The CLI's --grid stride:S reaches the pipeline as an explicit grid.
    by_stride = solve(inst, xhat, SolveConfig(grid=tuple(range(0, 11, 3))))
    assert [r.eps for r in by_stride.per_eps] == [0, 3, 6, 9]
    explicit = solve(inst, xhat, SolveConfig(grid=(10, 0, 5, 5)))
    assert [r.eps for r in explicit.per_eps] == [0, 5, 10]


def test_grid_values_that_are_not_integers_are_rejected_not_truncated():
    inst = Instance(PATH3)
    for grid in ((0.5, 2.9), ("3",), (1, 2.5), (math.nan,), (math.inf,)):
        with pytest.raises(ValueError, match="grid values must be integers"):
            solve(inst, (0, 1, 0), SolveConfig(grid=grid))
    report = solve(inst, (0, 1, 0), SolveConfig(grid=(2.0, np.int64(3), 1)))
    assert [r.eps for r in report.per_eps] == [1, 2, 3]
    assert all(type(r.eps) is int for r in report.per_eps)


def test_a_grid_is_read_once_into_a_sorted_tuple():
    """A generator grid solves what the same values in a list or a tuple
    solve; an empty grid raises."""
    inst = Instance(PATH3)
    generator = SolveConfig(grid=(e for e in (3, 0, 2, 0)))
    listed = SolveConfig(grid=[3, 0, 2, 0])
    assert generator.grid == listed.grid == (0, 2, 3)
    report = solve(inst, (0, 1, 0), generator)
    assert [r.eps for r in report.per_eps] == [0, 2, 3]
    assert strip_wall(report) == strip_wall(solve(inst, (0, 1, 0), listed))
    with pytest.raises(ValueError, match="grid is empty"):
        SolveConfig(grid=())


def test_grid_range_is_checked_on_the_brute_force_branch_too():
    """A grid value outside [0, n] raises whether n > d sends the solve
    to the LPs or not."""
    for inst, xhat in (
        (Instance(maxcut_objective(Graph(2, ((0, 1),)))), (0, 1)),
        (Instance(PATH3), (0, 1, 0)),
    ):
        message = rf"grid value 99 outside \[0, {len(xhat)}\]"
        with pytest.raises(ValueError, match=message):
            solve(inst, xhat, SolveConfig(grid=(99,)))


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


ROUNDING_POINTS = {
    "boolean floats": (1.0, 0.0, 1.0, 1.0, 0.0, 0.0),
    "boolean ints": (1, 0, 1, 1, 0, 1),
    "boolean fractions": tuple(map(Fraction, (0, 1, 1, 0, 1, 0))),
    "negative zero": (-0.0, 1.0, -0.0, 1, 0, Fraction(1)),
    "fractional": (0.5, 0.3, 0.9, 0.1, 0.7, 0.5),
    # One coordinate at 1/2 and two an ulp off 0 and 1: the rounds can
    # give only a few distinct points, so most repeat.
    "repeating": (0.5, 1.0 - 2.0**-53, 0.0, 1.0, 2.0**-1074, 1.0),
}


@pytest.mark.parametrize("rounds", [1, 16])
@pytest.mark.parametrize("name", sorted(ROUNDING_POINTS))
def test_randomized_rounding_matches_every_round_scored(name, rounds):
    """Skipping the draws at a Boolean point and scoring each distinct
    point once give what drawing and scoring every round gives."""
    y = ROUNDING_POINTS[name]
    instance = prepare(
        Instance(maxcut_objective(gen_gnp(6, 0.6, 2)), (at_most(6, 2),))
    )
    for seed, eps in ((3, 0), (2**64 + 5, 4)):
        config = SolveConfig(
            strategy="randomized", seed=seed, randomized_rounds=rounds
        )
        got = pipeline._round_and_score(instance, y, config, eps)
        want = every_round_scored(instance, y, config, eps)
        assert got == want
        assert all(type(v) is int for v in got[0])
        assert len(got[3]) == rounds
    if name == "repeating" and rounds == 16:
        assert len(set(got[3])) < len(got[3])


def test_randomized_round_is_called_only_for_fractional_optima(monkeypatch):
    """A full-grid randomized solve draws randomized_rounds points for
    each LP optimum with a coordinate strictly between 0 and 1, and none
    for a Boolean one (the box optimum, which is never passed to
    lp_solve, is Boolean)."""
    draws = recorded_results(monkeypatch, pipeline, "randomized_round")
    solved = recorded_results(monkeypatch, pipeline, "lp_solve")
    config = SolveConfig(strategy="randomized", seed=7, randomized_rounds=5)
    fractional = []
    for seed in (2, 7):
        instance = Instance(maxksat_objective(gen_ksat(14, 56, 3, seed)))
        del draws[:], solved[:]
        solve(instance, tuple(i % 2 for i in range(14)), config)
        optima = [
            sol.y for sol in solved if sol.status == lpsolve.OPTIMAL
        ]
        fractional.append(sum(not set(y) <= {0, 1} for y in optima))
        assert len(draws) == config.randomized_rounds * fractional[-1]
    assert fractional == [1, 0]


def recorded_results(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records what each call
    returns."""
    results = []
    original = getattr(module, name)

    def wrapper(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)
    return results


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


def test_the_baseline_makes_no_fraction_per_variable(monkeypatch):
    """prepare rounds the all-halves point as floats, whose ratios greedy
    rounding reads without a Fraction per variable."""
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(rounding, "Fraction", Counting)
    prepared = prepare(Instance(maxcut_objective(Graph(1000, ()))))
    assert made == []
    assert prepared.baseline.z == (0,) * 1000


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


def test_exact_solve_of_an_instance_builds_no_greedy_tables(monkeypatch):
    """The brute force only scores, so exact_solve of a plain instance
    builds no relaxation plan, which greedy rounding reads, and returns
    what it returns for the prepared instance."""
    cases = (
        Instance(TRIANGLE),
        Instance(maxksat_objective(gen_ksat(8, 30, 3, 2))),
        Instance(maxcut_objective(gen_gnp(7, 0.5, 3)), (at_most(7, 3),)),
    )
    for inst in cases:
        expected = exact_solve(prepare(inst))
        calls = []
        original = relax.RelaxationPlan.__init__
        monkeypatch.setattr(
            relax.RelaxationPlan, "__init__",
            lambda self, *args: calls.append(args) or original(self, *args),
        )
        assert exact_solve(inst) == expected
        assert calls == []
        monkeypatch.undo()


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


def value_table(table: ScoreTable):
    """(values, L): the values at all 2^n points, in index order,
    assembled from the brute force's tiles, each the index range from
    its offset."""
    values = None
    for offset, tile in _value_tiles(table):
        if values is None:
            values = np.empty(1 << table.n, dtype=tile.dtype)
        values[offset:offset + tile.size] = tile.reshape(-1)
    return values, table.scale


def assert_table_matches_reference(p, dtype=None):
    table, denom = value_table(ScoreTable(p))
    want, want_denom = butterfly_masks_to_values(p, p.n)
    assert denom == want_denom
    assert [int(v) for v in table] == [int(v) for v in want]
    if dtype is not None:
        assert table.dtype == np.dtype(dtype)


# Multipliers that put a polynomial with coefficients of size up to 8 on
# each table dtype: int16, int32, int64 and, past int64, Python ints.
SCALES = (1, 2**13, 2**29, 2**58, 2**70)


@st.composite
def table_polynomials(draw, n=None):
    """Polynomials on 1-10 variables (n when given) of degree 1-4 with
    negative and fractional coefficients, scaled onto any of the table
    dtypes."""
    n = draw(st.integers(1, 10)) if n is None else n
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
        table, denom = value_table(ScoreTable(Polynomial(n, {})))
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
    assert value_table(ScoreTable(p))[0].dtype == np.dtype(dtype)
    at_least_one = Polynomial(3, {(0,): 1, (1,): 1, (2,): 1})
    z, value = exact_solve(Instance(p, ((at_least_one, 1, None),)))
    assert z == (0, 0, 1) and value == -2 * scale


def test_windows_far_outside_a_narrow_table():
    p = Polynomial(3, {(0,): 3, (1,): -2, (0, 2): 1})
    count = Polynomial(3, {(0,): 1, (1,): 1, (2,): 1})
    assert value_table(ScoreTable(count))[0].dtype == np.int16
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
    assert value_table(ScoreTable(heavy))[0].dtype == np.int16
    assert exact_solve(Instance(p, ((heavy, 2**15 - 1, None),))) == (
        (1, 1), 0
    )
    assert exact_solve(Instance(p, ((heavy, None, 0),))) == ((0, 1), 1)
    for window in ((2**15, None), (None, -1)):
        with pytest.raises(ValueError, match="no Boolean point satisfies"):
            exact_solve(Instance(p, ((heavy, *window),)))


@st.composite
def windowed_instances(draw):
    """An objective on 1-6 variables with one or two side windows, each
    bound None, far beyond every table dtype (either sign), or a value
    the constraint takes, possibly negative, moved by a fraction of
    1 / L, so that its denominator need not divide the table's L."""
    n = draw(st.integers(1, 6))
    points = list(itertools.product((0, 1), repeat=n))
    constraints = []
    for _ in range(draw(st.integers(1, 2))):
        q = draw(table_polynomials(n))
        scale = ScoreTable(q).scale
        bounds = []
        for _ in range(2):
            kind = draw(st.sampled_from(("none", "far", "near")))
            if kind == "none":
                bounds.append(None)
            elif kind == "far":
                bounds.append(
                    draw(st.sampled_from((-1, 1))) * Fraction(2**80 + 1, 3)
                )
            else:
                value = evaluate(q, draw(st.sampled_from(points)))
                shift = draw(st.fractions(-1, 1, max_denominator=7))
                bounds.append(value + shift / scale)
        lower, upper = bounds
        if lower is not None and upper is not None and lower > upper:
            lower, upper = upper, lower
        constraints.append((q, lower, upper))
    return draw(table_polynomials(n)), tuple(constraints)


@settings(max_examples=200, deadline=None)
@given(windowed_instances())
def test_exact_with_side_windows_agrees_with_enumeration(case):
    """The brute force tests each side window on the constraint's own
    integer values V over L, V >= ceil(lower * L) and V <= floor(upper
    * L); that is the window on the exact values at every point, for
    bounds between two values, negative ones, absent ones and ones past
    the table's dtype."""
    p, constraints = case
    points = list(itertools.product((0, 1), repeat=p.n))  # ascending z
    feasible = [
        z for z in points
        if all(
            (lower is None or evaluate(q, z) >= lower)
            and (upper is None or evaluate(q, z) <= upper)
            for q, lower, upper in constraints
        )
    ]
    instance = Instance(p, constraints)
    if not feasible:
        for given_instance in (instance, prepare(instance)):
            with pytest.raises(ValueError, match="no Boolean point satisfies"):
                exact_solve(given_instance)
        return
    best = max(evaluate(p, z) for z in feasible)
    want = (next(z for z in feasible if evaluate(p, z) == best), best)
    assert exact_solve(instance) == want
    assert exact_solve(prepare(instance)) == want


@st.composite
def tiled_cases(draw):
    """A tile of 1, 2 or 8 entries, an objective on 1-10 variables on any
    table dtype and zero to two side windows.  A window sits at a value
    the constraint takes ([v, v], [v, None] or [None, v]), so that some
    tiles hold feasible points and others none, or past every value the
    constraint takes, so that no point meets it."""
    tile = draw(st.sampled_from((1, 2, 8)))
    p = draw(table_polynomials())
    constraints = []
    for _ in range(draw(st.integers(0, 2))):
        q = draw(table_polynomials(p.n))
        z = draw(st.tuples(*[st.integers(0, 1)] * p.n))
        v = evaluate(q, z)
        beyond = Fraction(2**90)
        constraints.append(
            (q, *draw(st.sampled_from(
                ((v, v), (v, None), (None, v), (beyond, None))
            )))
        )
    return tile, p, tuple(constraints)


@settings(max_examples=150, deadline=None)
@given(tiled_cases())
def test_tiled_brute_force_agrees_with_the_butterfly_and_enumeration(case):
    """With tiles of 1 to 8 entries, so that many tiles run, the tiles
    make up the full butterfly's table, and the brute force returns the
    first point of the full enumeration that is feasible and maximal."""
    tile, p, constraints = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "TILE", tile)
        assert_table_matches_reference(p)
        try:
            got = exact_solve(Instance(p, constraints))
        except ValueError as exc:
            assert "no Boolean point satisfies" in str(exc)
            got = None
    values, denom = butterfly_masks_to_values(p, p.n)
    sides = [
        (butterfly_masks_to_values(q, p.n), lower, upper)
        for q, lower, upper in constraints
    ]
    want = None
    for mask in range(1 << p.n):  # ascending z
        value = Fraction(int(values[mask]), denom)
        if (want is None or value > want[1]) and all(
            (lower is None or Fraction(int(v[mask]), d) >= lower)
            and (upper is None or Fraction(int(v[mask]), d) <= upper)
            for (v, d), lower, upper in sides
        ):
            want = (
                tuple((mask >> (p.n - 1 - i)) & 1 for i in range(p.n)),
                value,
            )
    assert got == want
    if got is not None:
        assert evaluate(p, got[0]) == got[1]


@pytest.mark.parametrize("scale", SCALES)
def test_a_tie_between_tiles_goes_to_the_earlier_tile(monkeypatch, scale):
    # n = 2 splits into one high variable z_0 and one low one z_1, and a
    # tile of 2 entries is one row: the first tile holds z = (0, 0) and
    # (0, 1), the second, from index 2, (1, 0) and (1, 1).  The cut of
    # one edge takes its maximum at (0, 1) in the first tile and at
    # (1, 0) in the second; the earlier tile's (0, 1) must win.
    monkeypatch.setattr(pipeline, "TILE", 2)
    p = Polynomial(2, {(0,): scale, (1,): scale, (0, 1): -2 * scale})
    tiles = [
        (offset, tile.reshape(-1).tolist())
        for offset, tile in _value_tiles(ScoreTable(p))
    ]
    assert tiles == [(0, [0, scale]), (2, [scale, 0])]
    count = Polynomial(2, {(0,): 1, (1,): 1})
    for constraints in ((), ((count, None, 2),), ((count, 1, 1),)):
        assert exact_solve(Instance(p, constraints)) == ((0, 1), scale)


@pytest.mark.parametrize("tile", (1, 2, 8, 1 << 10, 1 << 19))
def test_tiles_are_consecutive_index_ranges_within_tile(monkeypatch, tile):
    """From offset 0 up, each tile starts where the one before ended,
    they cover all 2^n points and none holds more than TILE entries."""
    monkeypatch.setattr(pipeline, "TILE", tile)
    rng = random.Random(tile)
    for n in range(1, 13):
        table = ScoreTable(random_multilinear(rng, n, min(3, n)))
        end = 0
        for offset, values in _value_tiles(table):
            assert offset == end and 0 < values.size <= tile
            end += values.size
        assert end == 1 << n


def counted_value_tiles(monkeypatch) -> list:
    """The tables that pipeline._value_tiles is called on, from now on."""
    tables = []
    original = pipeline._value_tiles

    def counted(table):
        tables.append(table)
        return original(table)

    monkeypatch.setattr(pipeline, "_value_tiles", counted)
    return tables


def test_a_side_window_every_point_meets_takes_no_tiles(monkeypatch):
    """sum x takes every value in [0, n] at a Boolean point: a bound at
    or past that range is dropped, and a side with no bound left is not
    tiled; a bound inside it still is."""
    n = 8
    objective = maxcut_objective(gen_gnp(n, 0.5, 2))
    count = Polynomial(n, {(j,): 1 for j in range(n)})
    free = exact_solve(Instance(objective))
    cases = (
        (((count, None, Fraction(n)),), 1),
        (((count, Fraction(-5), Fraction(n + 1, 2) * 3),), 1),
        (((count, Fraction(0), None), (count, None, Fraction(99))), 1),
        (((count, Fraction(1, 2), None),), 2),
        (((count, None, Fraction(3)), (count, Fraction(-1), None)), 2),
    )
    for constraints, calls in cases:
        tables = counted_value_tiles(monkeypatch)
        got = exact_solve(Instance(objective, constraints))
        assert len(tables) == calls
        if calls == 1:
            assert got == free
        monkeypatch.undo()


def test_a_side_window_no_point_meets_raises_before_any_tile(monkeypatch):
    n = 8
    objective = maxcut_objective(gen_gnp(n, 0.5, 2))
    count = Polynomial(n, {(j,): 1 for j in range(n)})
    for window in (
        (None, Fraction(-1)),
        (Fraction(n + 1), None),
        (Fraction(1, 3), Fraction(2, 3)),  # no integer between
    ):
        tables = counted_value_tiles(monkeypatch)
        with pytest.raises(ValueError, match="no Boolean point satisfies"):
            exact_solve(Instance(objective, ((count, *window),)))
        assert tables == []
        monkeypatch.undo()


def traced_peak(call):
    """(result, peak bytes that tracemalloc saw while call ran)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_brute_force_holds_a_tile_not_the_table():
    # A table of all 2^n values on int16, the narrowest dtype, takes
    # 2 MiB at n = 20 and 32 MiB at n = 24.  The brute force holds one
    # tile of TILE entries (1 MiB on int16) and the low half's table.
    assert pipeline.TILE == 1 << 19
    for n, opt in ((20, 69), (24, 94)):
        graph = gen_gnp(n, 0.5, 7)
        prepared = prepare(Instance(maxcut_objective(graph)))
        assert next(_value_tiles(prepared.table))[1].dtype == np.int16
        (z, value), peak = traced_peak(lambda: exact_solve(prepared))
        assert value == cut_size(graph, z) == opt
        assert peak < 3 << 19


@pytest.mark.parametrize(
    "scale, n, dtype",
    [(1, 18, np.int16), (2**13, 18, np.int32), (2**29, 18, np.int64),
     (2**70, 16, object)],
)
def test_brute_force_memory_is_a_fraction_of_the_table_on_every_dtype(
    monkeypatch, scale, n, dtype
):
    """With tiles of 2^10 entries, the brute force's traced peak, under a
    side window too, is below a quarter of the peak of assembling the
    table of all 2^n values on the same dtype (Python ints included)."""
    monkeypatch.setattr(pipeline, "TILE", 1 << 10)
    cut = maxcut_objective(gen_gnp(n, 0.5, 7))
    p = Polynomial(n, {m: c * scale for m, c in cut.coeffs.items()})
    count = Polynomial(n, {(i,): 1 for i in range(n)})
    table = ScoreTable(p)
    (values, _), full = traced_peak(lambda: value_table(table))
    assert values.dtype == np.dtype(dtype)
    for constraints in ((), ((count, None, n // 2),)):
        prepared = prepare(Instance(p, constraints))
        _, peak = traced_peak(lambda: exact_solve(prepared))
        assert peak < full / 4


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


def test_guarantee_bound_with_n_at_most_d_is_opt():
    """solve brute-forces when n <= d and rounds nothing, so the floor
    is opt at every budget, under either strategy, and solve reaches
    it."""
    clause = CnfFormula(3, (((0, 1), (1, 1), (2, 0)),))
    cases = (
        Instance(Polynomial(1, {(0,): 1})),
        Instance(Polynomial(2, {(0, 1): 3, (1,): -1})),
        Instance(maxksat_objective(clause)),
    )
    configs = (SolveConfig(), SolveConfig(strategy="randomized", k=2))
    for inst in cases:
        prepared = prepare(inst)
        assert prepared.table.n <= prepared.table.degree
        _, opt = exact_solve(inst)
        for config in configs:
            for eps in range(inst.objective.n + 1):
                assert guarantee_bound(inst, eps, config) == opt
                report = solve(
                    prepared, (0,) * inst.objective.n,
                    dataclasses.replace(config, grid=(eps,)),
                )
                assert report.best_value == opt


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


def test_guarantee_floor_rejects_an_unknown_strategy():
    """A misspelt strategy would otherwise drop the rounding deviation
    and report the greedy floor, which is above the randomized one."""
    randomized = guarantee_floor(100, 2, 30, 2, 4, "randomized")
    assert randomized < guarantee_floor(100, 2, 30, 2, 4, "greedy")
    for strategy in ("randomised", "Greedy", ""):
        for n in (30, 2):  # n <= d is checked too
            with pytest.raises(ValueError, match="unknown strategy"):
                guarantee_floor(100, 2, n, 2, 4, strategy)


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


def test_guarantee_bound_of_an_instance_builds_no_solve_tables(
    monkeypatch,
):
    """An unprepared instance is scored and certified for the brute
    force, with no relaxation plan, which greedy rounding would read,
    and gives the prepared instance's bound."""
    cases = (
        Instance(TRIANGLE),
        Instance(maxksat_objective(gen_ksat(8, 30, 3, 2))),
        Instance(maxcut_objective(gen_gnp(7, 0.5, 3)), (at_most(7, 3),)),
        Instance(Polynomial(2, {(0, 1): 3, (1,): -1})),  # n <= d
    )
    configs = (SolveConfig(), SolveConfig(strategy="randomized", k=2))
    expected = [
        guarantee_bound(prepare(inst), eps, config)
        for inst in cases
        for config in configs
        for eps in range(inst.objective.n + 1)
    ]

    def refuse(*args):
        raise AssertionError("a solve table was built")

    monkeypatch.setattr(pipeline, "RelaxationPlan", refuse)
    assert expected == [
        guarantee_bound(inst, eps, config)
        for inst in cases
        for config in configs
        for eps in range(inst.objective.n + 1)
    ]


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
            assert prepared.table.value(z) == fraction_value(p, z)
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
    """prepare builds one score table and one relaxation plan per
    polynomial: the objective's plan, which greedy rounding reads too,
    and one side plan per side constraint; a solve of the prepared
    instance builds none of them."""
    built = {}
    plans = built["plan builds"] = []
    original_plan = relax.RelaxationPlan.__init__
    monkeypatch.setattr(
        relax.RelaxationPlan, "__init__",
        lambda self, *args: (
            plans.append(args) or original_plan(self, *args)
        ),
    )
    for name in ("RelaxationPlan", "constraint_plans", "ScoreTable"):
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
        "plan builds": 3, "RelaxationPlan": 1, "constraint_plans": 1,
        "ScoreTable": 3,
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
    assert prepared.table.degree == 2 and prepared.beta == 1
    report = solve(prepared, (0, 0, 0))
    assert (report.degree, report.beta) == (2, 1)


def test_unmeetable_side_window_names_the_real_cause():
    """No point meets 2 >= 5, so every budget's LP is infeasible; the
    error says so, and that the fallbacks violate the window."""
    cut = maxcut_objective(gen_gnp(6, 0.5, 1))
    prog = ConstrainedProgram(cut, ((Polynomial.constant(6, 2), 5, None),))
    xhat = (0, 1) * 3
    for config in (
        SolveConfig(),
        SolveConfig(include_baseline_candidate=False),
    ):
        with pytest.raises(
            RuntimeError,
            match="no budget's LP was optimal, and every enabled fallback "
            "violates a side constraint",
        ):
            solve_constrained(prog, xhat, config)


# -- serialization ------------------------------------------------------


def golden_reports() -> list:
    return [solve(*case) for case in corpus().values()]


def test_report_json_is_canonical_and_complete():
    report = solve(Instance(PATH3, label="p3"), (0, 1, 0))
    payload = json.loads(report_json(report))
    assert payload["label"] == "p3"
    assert payload["best_value"] == "2"
    assert payload["best_z"] == [0, 1, 0]
    assert len(payload["per_eps"]) == 4
    assert payload["per_eps"][0]["gap"] == "0"
    assert report_json(report) == report_json(report)
    # The text of the field-by-field renderer, wall_ms included, on the
    # golden corpus: an infeasible record with null fields, a report
    # with no records (n <= d) and randomized seed_values among them.
    reports = golden_reports()
    records = [r for report in reports for r in report.per_eps]
    assert any(r.status != "optimal" for r in records)
    assert any(not report.per_eps for report in reports)
    assert any(r.seed_values for r in records)
    for report in [report, *reports]:
        assert report_json(report) == reference_report_json(report)


def test_every_rational_report_field_is_a_fraction():
    """report_json writes a Fraction as its num/den string; an int or a
    float in a rational field would be written as a JSON number."""
    for report in golden_reports():
        rationals = [report.beta, report.best_value]
        for c in report.candidates:
            rationals += [c.value, c.violation]
        for r in report.per_eps:
            rationals += [r.gap, r.rounding_radius, *r.seed_values]
            if r.status == "optimal":
                rationals += [r.rounded_value, r.violation_max]
            else:
                assert (r.rounded_value, r.violation_max) == (None, None)
        assert {type(v) for v in rationals} == {Fraction}


def test_report_json_rejects_a_numpy_integer():
    report = solve(Instance(PATH3), (0, 1, 0))
    bad = dataclasses.replace(report, best_z=(np.int64(0), 1, 0))
    for render in (report_json, reference_report_json):
        with pytest.raises(TypeError, match="int64"):
            render(bad)


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
