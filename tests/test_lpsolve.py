"""Embedded LP solver: worked examples, feasibility certificate,
determinism, warm starts, its vectorized pivoting against plain loops, and
agreement with the dense-tableau reference (and HiGHS, when scipy is
installed) on random models and on the relaxations the pipeline solves."""

import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import alternating, at_most, pipeline_relaxation, random_lp_model
from lp_reference import reference_solve
from smoothip import lpsolve
from smoothip.lpsolve import FEAS_TOL, LpModel, solve
from smoothip.poly import Polynomial, decompose
from smoothip.problems import (
    gen_gnp,
    gen_ksat,
    maxcut_objective,
    maxksat_objective,
)
from smoothip.relax import build_relaxation

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
    sol = solve(model)
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
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.objective_value == 7.0


def test_triangle_relaxation_full_budget():
    # At eps = n the feasible region contains every Boolean point, so the
    # LP value is at least the brute-force optimum 2.
    model = build_relaxation(decompose(TRIANGLE), (1, 0, 0), 3, 2)
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.objective_value >= 2 - 1e-7


def test_infeasible_row_detected():
    model = LpModel(
        num_vars=1,
        var_bounds=box(1),
        rows=(((Fraction(1),), Fraction(2), None),),
        objective=(Fraction(1),),
    )
    assert solve(model).status == "infeasible"


def test_empty_row_presolve():
    feasible = LpModel(
        num_vars=1,
        var_bounds=box(1),
        rows=(((Fraction(0),), Fraction(0), Fraction(0)),),
        objective=(Fraction(1),),
    )
    assert solve(feasible).status == "optimal"
    impossible = LpModel(
        num_vars=1,
        var_bounds=box(1),
        rows=(((Fraction(0),), Fraction(1), Fraction(2)),),
        objective=(Fraction(1),),
    )
    assert solve(impossible).status == "infeasible"


def test_optimal_solutions_satisfy_certificate():
    rng = random.Random(101)
    for _ in range(60):
        model = random_lp_model(rng, max_vars=12, max_rows=24)
        sol = solve(model)
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
        first = solve(model)
        second = solve(model)
        assert first.status == second.status
        assert first.y == second.y
        assert first.objective_value == second.objective_value


def test_warm_start_agrees_with_cold_start():
    # (1, 0, 0) is feasible at every budget; (0, 1, 1) breaks rows at
    # eps = 0, and a start that breaks a row must fall back to a cold start.
    for eps in (0, 1, 2, 3):
        model = build_relaxation(decompose(TRIANGLE), (1, 0, 0), eps, 2)
        cold = solve(model)
        for start in ((1, 0, 0), (0, 1, 1)):
            warm = solve(model, warm_start=start)
            assert cold.status == warm.status == "optimal"
            assert abs(cold.objective_value - warm.objective_value) < 1e-6
    one_row = LpModel(
        num_vars=2,
        var_bounds=box(2),
        rows=((tuple(map(Fraction, (1, 1))), None, Fraction(1)),),
        objective=tuple(map(Fraction, (1, 2))),
    )
    assert solve(one_row, warm_start=(1, 1)).y == solve(one_row).y == (0, 1)


def test_warm_start_of_the_wrong_length_is_rejected():
    model = build_relaxation(decompose(TRIANGLE), (1, 0, 0), 1, 2)
    for start in ((1, 0), (1, 0, 0, 1), ()):
        with pytest.raises(ValueError, match="warm start length"):
            solve(model, warm_start=start)
    # A start off the variable bounds keeps its cold start.
    half = solve(model, warm_start=(Fraction(1, 2), 0, 0))
    assert repr(half) == repr(solve(model))


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
        ours = solve(model)
        ref = reference_solve(model)
        assert agrees(ours, ref), (ours, ref)
        optimal_seen += ours.status == "optimal"
        infeasible_seen += ours.status == "infeasible"
    assert optimal_seen >= 30
    assert infeasible_seen >= 1


def test_reference_agreement():
    assert_reference_agreement()


def test_bland_rule_and_refresh_agree_with_reference(monkeypatch):
    # Bland's rule from the first degenerate pivot on, and a basis-inverse
    # refresh every third iteration.
    monkeypatch.setattr(lpsolve, "DEGENERATE_LIMIT", 0)
    monkeypatch.setattr(lpsolve, "REFRESH_EVERY", 3)
    assert_reference_agreement()


# -- the LPs the pipeline solves ------------------------------------------


@pytest.fixture(scope="module")
def pipeline_lps():
    """(name, model) of every budget below saturation, each relaxation
    around the alternating prediction: MAX-CUT G(40, 0.3) and G(60, 0.3),
    3-SAT n=24 m=96, and G(40, 0.3) under sum x <= 10, which the
    prediction breaks, so that eps = 0 is infeasible."""
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
            for eps in range(relaxation.saturation_budget(range(n + 1))):
                lps.append((f"{name}/{seed}/eps={eps}", relaxation.model(eps)))
    return lps


def test_prepared_matrix_is_every_entry_as_a_float(pipeline_lps):
    """The matrix is filled from nonzero entries only; it must be the
    float of every entry of every row that has a bound and a nonzero
    entry.  The random models spell their zeros as distinct Fractions,
    the relaxations share one."""
    models = reference_models() + [model for _, model in pipeline_lps]
    for model in models:
        lp = lpsolve.PreparedLp(model)
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
    for name, model in pipeline_lps:
        ours = solve(model, warm_start=alternating(model.num_vars))
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
    for name, model in pipeline_lps:
        ours = solve(model, warm_start=alternating(model.num_vars))
        theirs = highs_solve(model)
        assert agrees(ours, theirs), (name, ours.status, theirs.status)


# -- vectorized pivoting against plain loops --------------------------------


class LoopSimplex(lpsolve._Simplex):
    """Pricing, ratio test and inverse update as plain loops over every
    column and row, the reference for the vectorized ones."""

    def _pick_entering(self, reduced):
        best = None
        best_score = lpsolve.DUAL_TOL
        for j in range(len(reduced)):
            if self.basic[j] or self.lb[j] == self.ub[j]:
                continue
            score = -reduced[j] if not self.at_upper[j] else reduced[j]
            if score <= best_score:
                continue
            if self.bland:
                return j  # ascending scan: first eligible is the smallest
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
        if self.bland:
            return self.basis[pos] < self.basis[incumbent]
        if abs(w[pos]) != abs(w[incumbent]):
            return abs(w[pos]) > abs(w[incumbent])
        return self.basis[pos] < self.basis[incumbent]

    def _update_inverse(self, leave_pos, w):
        self.Binv[leave_pos, :] /= w[leave_pos]
        for i in range(self.m):
            if i != leave_pos and abs(w[i]) > 0:
                self.Binv[i, :] -= w[i] * self.Binv[leave_pos, :]


@pytest.mark.parametrize("rules", ["dantzig", "bland-and-refresh"])
def test_vectorized_pivoting_matches_the_loops(
    rules, pipeline_lps, monkeypatch
):
    """Same status, y, value and iterations, to the last bit, on the
    reference models (cold) and on pipeline LPs (warm and cold)."""
    if rules == "bland-and-refresh":
        monkeypatch.setattr(lpsolve, "DEGENERATE_LIMIT", 0)
        monkeypatch.setattr(lpsolve, "REFRESH_EVERY", 3)
    cases = [(model, None) for model in reference_models()]
    for name, model in pipeline_lps:
        if name.startswith(("cut40/5/", "card40/5/", "sat24/5/")):
            cases.append((model, alternating(model.num_vars)))
    vectorized = [repr(solve(m, warm_start=x)) for m, x in cases]
    monkeypatch.setattr(lpsolve, "_Simplex", LoopSimplex)
    assert [repr(solve(m, warm_start=x)) for m, x in cases] == vectorized


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
        lpsolve.PreparedLp(model), np.zeros(m), np.ones(m)
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
