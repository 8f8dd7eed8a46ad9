import dataclasses
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import random_bool_vector, random_multilinear
from test_golden import corpus
from smoothip import lpsolve, pipeline, relax
from smoothip.pipeline import (
    EXACT_CAP,
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
    Graph,
    gen_gnp,
    gen_kcsp,
    gen_ksat,
    maxcut_objective,
    maxkcsp_objective,
    maxksat_objective,
)
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
