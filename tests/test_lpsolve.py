"""Embedded LP solver: worked examples, feasibility certificate,
determinism, warm starts, its vectorized pivoting against plain loops, and
agreement with the dense-tableau reference (and HiGHS, when scipy is
installed) on random models and on the relaxations the pipeline solves."""

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
    (m = 0) and returns the y that box_optimum takes in closed form, warm
    (zero costs stay at the warm start) or cold (at the lower bound)."""
    objective, offset = ((3, 0, -2, 0, 5), 4), Fraction(1, 2)
    rows = [((), -1, 1, 1), ((), None, None, 1), ((), 0, None, 3)]
    windows = [(lo, hi, d) for _, lo, hi, d in rows]
    x = (0, 1, 1, 0, 0)
    for warm, start in (((x, [(0, 1)] * 3), x), (None, (0,) * 5)):
        lp = PreparedLp(objective, offset, rows, box(5), warm)
        assert lp.kept == []
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
    # eps = 0, and a start that breaks a row must fall back to a cold start.
    for eps in (0, 1, 2, 3):
        model = build_relaxation(decompose(TRIANGLE), (1, 0, 0), eps, 2)
        cold = solve_model(model)
        for start in ((1, 0, 0), (0, 1, 1)):
            warm = solve_model(model, warm_start=start)
            assert cold.status == warm.status == "optimal"
            assert abs(cold.objective_value - warm.objective_value) < 1e-6
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
    activities = [(row.activity, row.denom) for row in relaxation.rows]
    PreparedLp(*unwarmed, ((1, 0, 0), activities))
    for start in (
        ((1, 0), activities),
        ((1, 0, 0, 1), activities),
        ((), activities),
        ((1, 0, 0), activities[:1]),
        ((1, 0, 0), activities + [(0, 1)]),
    ):
        with pytest.raises(ValueError, match="warm start length"):
            PreparedLp(*unwarmed, start)
    # A start off the variable bounds keeps its cold start.
    model = build_relaxation(decompose(TRIANGLE), (1, 0, 0), 1, 2)
    half = solve_model(model, warm_start=(Fraction(1, 2), 0, 0))
    assert repr(half) == repr(solve_model(model))


def agrees(ours, ref) -> bool:
    """Same status and, when optimal, objectives within 1e-6 relative."""
    if ours.status != ref.status:
        return False
    if ours.status != "optimal":
        return True
    scale = max(1.0, abs(ours.objective_value), abs(ref.objective_value))
    return abs(ours.objective_value - ref.objective_value) <= 1e-6 * scale


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
    float of every entry of every row that has a bound and a nonzero
    entry, each Fraction put over its row's denominator first."""
    cases = [(prepared_model(model)[0], model) for model in reference_models()]
    cases += [(lp, model) for _, lp, _, model in pipeline_lps]
    for lp, model in cases:
        bounded = [
            i for i, (_, lo, hi) in enumerate(model.rows)
            if lo is not None or hi is not None
        ]
        assert lp.kept == [i for i in bounded if any(model.rows[i][0])]
        assert lp.empty == [i for i in bounded if not any(model.rows[i][0])]
        dense = np.array(
            [[float(c) for c in model.rows[i][0]] for i in lp.kept],
            dtype=float,
        ).reshape(len(lp.kept), model.num_vars)
        assert lp.matrix.tobytes() == dense.tobytes()


def test_pipeline_lps_agree_with_reference(pipeline_lps):
    statuses = set()
    for name, lp, windows, model in pipeline_lps:
        ours = lp.solve(windows)
        ref = reference_solve(model)
        assert agrees(ours, ref), (name, ours.status, ref.status)
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
        assert agrees(ours, theirs), (name, ours.status, theirs.status)


# -- a long degenerate stretch ----------------------------------------------


@pytest.fixture(scope="module")
def degenerate_cut1000():
    """The eps = 0 LP of MAX-CUT G(1000, 0.05, seed 1) around the
    alternating prediction, as the pipeline solves it, and its solution.

    Every window is an equality at the prediction's activity, so every
    vertex the simplex visits is degenerate; the longest run of pivots
    that make no progress is 1262.  A solver that switched to Bland's rule
    after 1000 such pivots ran into its 100,000-pivot cap here and
    returned numerical-failure after 443 s; Dantzig pricing alone ends
    after 1451 pivots."""
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
    column and row, the reference for the vectorized ones."""

    def _pick_entering(self, reduced):
        best = None
        best_score = lpsolve.DUAL_TOL
        for j in range(len(reduced)):
            if j in self.basis or self.lb[j] == self.ub[j]:
                continue
            score = -reduced[j] if not self.at_upper[j] else reduced[j]
            if score <= best_score:
                continue
            best = j
            best_score = score
        return best

    def _ratio_test(self, j, sigma, w):
        best = self.ub[j] - self.lb[j]
        leave_pos = -1
        leave_to_upper = False
        for pos, col in enumerate(self.basis):
            piv = sigma * w[pos]
            if piv > lpsolve.PIVOT_TOL:
                limit = self.val[col] - self.lb[col]
                hits_upper = False
            elif piv < -lpsolve.PIVOT_TOL:
                limit = self.val[col] - self.ub[col]
                hits_upper = True
            else:
                continue
            ratio = max(limit / piv, 0.0)
            if ratio < best - 1e-12 or (
                leave_pos >= 0
                and ratio < best + 1e-12
                and self._prefer_leaving(pos, leave_pos, w)
            ):
                best = ratio
                leave_pos = pos
                leave_to_upper = hits_upper
        return best, leave_pos, leave_to_upper

    def _prefer_leaving(self, pos, incumbent, w) -> bool:
        if abs(w[pos]) != abs(w[incumbent]):
            return abs(w[pos]) > abs(w[incumbent])
        return self.basis[pos] < self.basis[incumbent]

    def _update_inverse(self, leave_pos, w):
        self.Binv[leave_pos, :] /= w[leave_pos]
        for i in range(self.m):
            if i != leave_pos and abs(w[i]) > 0:
                self.Binv[i, :] -= w[i] * self.Binv[leave_pos, :]


@pytest.mark.parametrize("rules", ["dantzig", "refresh"])
def test_vectorized_pivoting_matches_the_loops(
    rules, pipeline_lps, monkeypatch
):
    """Same status, y, value and iterations, to the last bit, on the
    reference models (cold) and on pipeline LPs (warm and cold)."""
    if rules == "refresh":
        monkeypatch.setattr(lpsolve, "REFRESH_EVERY", 3)
    cases = [prepared_model(model) for model in reference_models()]
    for name, lp, windows, _ in pipeline_lps:
        if name.startswith(("cut40/5/", "card40/5/", "sat24/5/")):
            cases.append((lp, windows))
    vectorized = [repr(lp.solve(windows)) for lp, windows in cases]
    monkeypatch.setattr(lpsolve, "_Simplex", LoopSimplex)
    assert [repr(lp.solve(windows)) for lp, windows in cases] == vectorized


# -- the cold start ----------------------------------------------------------


def start_state(sx) -> tuple:
    """A simplex's values, at_upper flags, artificial columns, basis and
    signs of its values, as bytes."""
    return (
        sx.val.tobytes(),
        sx.at_upper.tobytes(),
        sx.M[:, sx.n + sx.m :].tobytes(),
        np.asarray(sx.basis, dtype=np.intp).tobytes(),
        np.signbit(sx.val).tobytes(),
    )


def loop_cold_start(lp, windows) -> tuple:
    """The start state of a cold solve, built one row at a time: the
    reference for the solver's array form."""
    n, m = lp.num_vars, len(lp.kept)
    sx = lpsolve._Simplex(lp, *lp.slack_bounds(windows))
    sx.val[:n] = sx.lb[:n]
    for i in range(m):
        lo, hi = sx.lb[n + i], sx.ub[n + i]
        finite = [b for b in (lo, hi) if math.isfinite(b)]
        target = min(finite, key=lambda b: (abs(b), b))
        sx.val[n + i] = target
        sx.at_upper[n + i] = target == hi and target != lo
        residual = target - float(np.dot(sx.M[i, :n], sx.val[:n]))
        if residual < 0:
            sx.M[i, n + m + i] = -1.0
            residual = -residual
        else:
            sx.M[i, n + m + i] = 1.0
        sx.val[n + m + i] = residual
    sx.basis = range(n + m, n + 2 * m)
    return start_state(sx)


def test_cold_start_matches_the_per_row_loop(pipeline_lps, monkeypatch):
    """Every cold solve starts, to the bit, where the per-row loop puts
    it: on the reference models (sub-box variable bounds, so nonzero
    residuals), the cold card-40 LPs, one variable under ties, one-sided
    rows and an equality with a negative coefficient, and no kept row."""
    one = Fraction(1)
    bounds = [(-1, 1), (-2, 1), (-1, 3), (None, -1), (2, None)]
    rows = tuple(((one,), lo, hi) for lo, hi in bounds)
    rows += (((-one,), Fraction(0), Fraction(0)),)
    models = reference_models() + [
        LpModel(1, ((lo, one),), rows, (one,))
        for lo in (Fraction(0), Fraction(1, 4))
    ]
    no_row = prepared_model(
        LpModel(2, box(2), (((one, one), None, None), ((0, 0), -one, one)),
                (one, -one))
    )
    assert no_row[0].kept == []
    card = [
        (lp, windows) for name, lp, windows, _ in pipeline_lps
        if name.startswith("card40/") and not lp.warm_fits(windows)
    ]
    assert card
    cases = [prepared_model(model) for model in models] + [no_row] + card
    assert not any(lp.warm_fits(windows) for lp, windows in cases)
    expected = [loop_cold_start(lp, windows) for lp, windows in cases]
    states = []
    set_basis = lpsolve._Simplex.set_basis

    def recording(sx, columns, signs=None):
        ok = set_basis(sx, columns, signs)
        states.append(start_state(sx))
        return ok

    monkeypatch.setattr(lpsolve._Simplex, "set_basis", recording)
    starts = []
    for lp, windows in cases:
        states.clear()
        lp.solve(windows)
        starts.append(states[0])
    assert starts == expected


# -- the starting basis inverse -------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 5, 60, 260])
def test_diagonal_start_inverse_is_lapacks_to_the_bit(m):
    """The warm start's slack basis and the cold start's artificial basis
    are +-1 diagonals; the inverse written down from their signs equals
    np.linalg.inv of the basis bit for bit, signs of zeros included."""
    rng = np.random.default_rng(m)
    model = LpModel(
        num_vars=1,
        var_bounds=box(1),
        rows=(((Fraction(1),), Fraction(0), Fraction(1)),) * m,
        objective=(Fraction(1),),
    )
    sx = lpsolve._Simplex(
        prepared_model(model)[0], np.zeros(m), np.ones(m)
    )
    slacks = range(1, 1 + m)
    artificials = range(1 + m, 1 + 2 * m)
    for _ in range(3):
        signs = rng.choice([-1.0, 1.0], size=m)
        sx.M[range(m), artificials] = signs
        for columns, diagonal in (
            (slacks, np.full(m, -1.0)),
            (artificials, signs),
        ):
            lapack = np.linalg.inv(sx.M[:, columns])
            assert sx.set_basis(columns, diagonal)
            assert np.array_equal(sx.Binv, lapack)
            assert np.array_equal(np.signbit(sx.Binv), np.signbit(lapack))
