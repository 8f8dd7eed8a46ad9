"""Acceptance gate: thirteen end-to-end checks, one per advertised
guarantee.  Each test prints a single PASS/FAIL line (visible under
pytest -s) and then asserts.

Numeric policy: inequalities that the package states in exact rational
arithmetic are checked exactly (zero tolerance); inequalities involving
e or sqrt are checked against the package's own upward-rounded constants,
plus an exact squared form where the quadratic case allows it; the two
solver-comparison checks use 1e-6 relative tolerance; the one Monte Carlo
check uses a failure ceiling of twice rounding_failure_probability (theory
0.08 at n = 50, so 0.16).
"""

import random
from fractions import Fraction

import numpy as np

from helpers import (
    random_lp_model,
    random_multilinear,
    random_point,
    solve_model,
)
from lp_reference import reference_solve
from smoothip.oracle import ErmProblem, erm_select, exact_prediction, perturb
from smoothip.pipeline import (
    Instance,
    SolveConfig,
    exact_solve,
    solve,
    solve_constrained,
)
from smoothip.poly import (
    Polynomial,
    component_bound,
    decompose,
    evaluate,
    global_bound,
    min_smoothness,
)
from smoothip.problems import (
    CspInstance,
    gen_gnp,
    gen_kcsp,
    gen_ksat,
    max_scope_multiplicity,
    maxcut_objective,
    maxkcsp_objective,
    maxksat_objective,
)
from smoothip.relax import (
    ConstrainedProgram,
    build_constrained_relaxation,
    constraint_violation_bound,
    gap_bound,
)
from smoothip.rounding import (
    greedy_round,
    randomized_round,
    rounding_error_bound,
    rounding_failure_probability,
)


def report(num: int, description: str, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] C{num} {description}: {verdict}")
    assert ok, f"criterion {num} failed: {description}"


def hamming(a, b) -> int:
    return sum(1 for u, v in zip(a, b) if u != v)


def family_instances():
    """100 small instances across the three families, with optima."""
    rng = random.Random(2024)
    out = []
    for i in range(100):
        n = rng.randint(4, 14)
        kind = i % 3
        if kind == 0:
            p = maxcut_objective(gen_gnp(n, 0.5, rng.randrange(10**6)))
        elif kind == 1:
            p = maxksat_objective(gen_ksat(n, 3 * n, 3, rng.randrange(10**6)))
        else:
            p = maxkcsp_objective(gen_kcsp(n, 2 * n, 2, rng.randrange(10**6)))
        inst = Instance(p)
        star, opt = exact_solve(inst)
        out.append((inst, star, opt))
    return out


FAMILIES = None


def families():
    global FAMILIES
    if FAMILIES is None:
        FAMILIES = family_instances()
    return FAMILIES


# ----------------------------------------------------------------------


def test_c1_decomposition_worked_example():
    tree = decompose(Polynomial(4, {(0, 1, 2): 1, (1, 3): 1, (): 3}))
    ok = (
        tree.constant == 3
        and tree.nodes[(0,)].poly == Polynomial(4, {(1, 2): 1})
        and tree.nodes[(0, 1)].poly == Polynomial(4, {(2,): 1})
        and tree.nodes[(0, 1, 2)].poly == Polynomial(4, {(): 1})
        and tree.nodes[(1,)].poly == Polynomial(4, {(3,): 1})
        and tree.nodes[(1, 3)].poly == Polynomial(4, {(): 1})
        and tree.component_keys()
        == [(0,), (0, 1), (0, 1, 2), (1,), (1, 3)]
    )
    report(1, "decomposition worked example", ok)


def test_c2_reconstruction_identity():
    rng = random.Random(11)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 10)
        p = random_multilinear(rng, n, rng.randint(1, min(4, n)))
        tree = decompose(p)
        for key, node in tree.nodes.items():
            rebuilt = Polynomial.constant(n, node.constant)
            for j in node.children:
                rebuilt = rebuilt + Polynomial.variable(n, j) * tree.nodes[
                    key + (j,)
                ].poly
            ok = ok and rebuilt == node.poly
    report(2, "reconstruction identity on 200 random trees", ok)


def test_c3_smoothness_certificates():
    rng = random.Random(17)
    ok = True
    for _ in range(50):
        g = gen_gnp(rng.randint(2, 12), rng.random(), rng.randrange(10**6))
        ok = ok and min_smoothness(maxcut_objective(g)) <= 2
    for _ in range(50):
        n = rng.randint(3, 12)
        f = gen_ksat(n, rng.randint(1, 4 * n), 3, rng.randrange(10**6))
        ok = ok and min_smoothness(maxksat_objective(f)) <= 4**3
    for _ in range(50):
        n = rng.randint(3, 10)
        base = gen_kcsp(n, rng.randint(1, 2 * n), 2, rng.randrange(10**6))
        # Force duplicated scopes so M > 1 is exercised.
        scope = base.constraints[0][0]
        extra = tuple(
            (scope, tuple(rng.randint(0, 1) for _ in range(4)))
            for _ in range(rng.randint(1, 3))
        )
        inst = CspInstance(n, 2, base.constraints + extra)
        bound = max_scope_multiplicity(inst) * 4
        ok = ok and min_smoothness(maxkcsp_objective(inst)) <= bound
    report(3, "smoothness certificates for all three encodings", ok)


def test_c4_component_and_global_bounds():
    rng = random.Random(23)
    ok = True
    for _ in range(500):
        d = rng.randint(1, 4)
        n = rng.randint(d + 1, 10)
        p = random_multilinear(rng, n, d)
        beta = min_smoothness(p)
        tree = decompose(p)
        d = p.degree
        for _ in range(20):
            x = random_point(rng, n)
            for key, node in tree.nodes.items():
                level = d - len(key)
                value = abs(evaluate(node.poly, x))
                ok = ok and value <= component_bound(beta, level, n)
            ok = ok and abs(evaluate(p, x)) <= global_bound(beta, d, n)
    report(4, "component and global magnitude bounds (10^4 pairs)", ok)


def test_c5_quadratic_tolerance():
    rng = random.Random(29)
    ok = True
    for _ in range(2000):
        n = rng.randint(2, 10)
        p = random_multilinear(rng, n, 2).with_degree(2)
        beta = min_smoothness(p)
        tree = decompose(p)
        level_one = [k for k in tree.component_keys() if len(k) == 1]
        for _ in range(5):
            a = tuple(rng.randint(0, 1) for _ in range(n))
            b = tuple(rng.randint(0, 1) for _ in range(n))
            eps = hamming(a, b)
            for key in level_one:
                node = tree.nodes[key].poly
                diff = evaluate(node, a) - evaluate(node, b)
                # |p_i(a) - p_i(b)| <= beta sqrt(n eps), squared form.
                ok = ok and diff * diff <= beta * beta * n * eps
    report(5, "quadratic component tolerance (10^4 triples)", ok)


def test_c6_consistency():
    ok = True
    for inst, star, opt in families():
        value = solve(inst, star).best_value
        ok = ok and value == opt
    report(6, "consistency: perfect prediction recovers OPT on 100", ok)


def test_c7_smoothness_guarantee():
    rng = random.Random(41)
    ok = True
    for inst, star, opt in families():
        n = inst.objective.n
        d = max(2, inst.objective.degree)
        beta = min_smoothness(inst.objective.with_degree(d))
        for eps in range(n + 1):
            guess = perturb(star, eps, rng.randrange(10**6))
            best = solve(inst, guess, SolveConfig(grid=(eps,))).best_value
            deficit = opt - best
            ok = ok and deficit <= gap_bound(beta, n, d, eps)
            if d == 2 and deficit > 0:
                # Exact form of the quadratic guarantee.
                ok = ok and deficit**2 <= 4 * beta**2 * n**3 * eps
    report(7, "smoothness guarantee at every injected error", ok)


def test_c8_greedy_monotonicity():
    rng = random.Random(43)
    ok = True
    for _ in range(2500):
        n = rng.randint(1, 9)
        p = random_multilinear(rng, n, rng.randint(1, min(4, n)))
        for _ in range(4):
            y = random_point(rng, n)
            z = greedy_round(p, y)
            ok = ok and evaluate(p, z) >= evaluate(p, y)
    report(8, "greedy rounding monotone on 10^4 pairs", ok)


def test_c9_randomized_concentration():
    rng = random.Random(47)
    n, seeds = 50, 1000
    pairs = {
        (i, j): rng.choice((-1, 0, 1))
        for i in range(n)
        for j in range(i + 1, n)
    }
    linear = {(i,): rng.randint(-n, n) for i in range(n)}
    p = Polynomial(n, {**pairs, **linear}, degree=2)
    assert min_smoothness(p) <= 1
    y = random_point(rng, n, den=8)
    center = evaluate(p, y)
    radius = rounding_error_bound(1, n, 2, 1)

    q_matrix = np.zeros((n, n), dtype=np.int64)
    for (i, j), c in pairs.items():
        q_matrix[i, j] = c
    c_vec = np.array([linear[(i,)] for i in range(n)], dtype=np.int64)
    z_rows = np.array(
        [randomized_round([float(v) for v in y], s) for s in range(seeds)],
        dtype=np.int64,
    )
    values = ((z_rows @ q_matrix) * z_rows).sum(axis=1) + z_rows @ c_vec
    failures = sum(
        1 for v in values if abs(Fraction(int(v)) - center) > radius
    )
    ok = failures / seeds <= 2 * rounding_failure_probability(n, 2, 1)
    print(f"[acceptance] C9 observed failure fraction {failures / seeds:.4f}")
    report(9, "randomized rounding concentration (n=50, 1000 seeds)", ok)


def test_c10_constrained_extension():
    rng = random.Random(53)
    ok = True
    for _ in range(50):
        n = rng.randint(4, 12)
        p = random_multilinear(rng, n, 2).with_degree(2)
        budget = Polynomial(n, {(i,): 1 for i in range(n)})
        cap = Fraction(n // 2)
        prog = ConstrainedProgram(p, ((budget, None, cap),))
        try:
            star, _ = exact_solve(Instance(p, prog.constraints))
        except ValueError:
            continue  # all-zeros always satisfies <= n/2, so unreachable
        beta = max(
            min_smoothness(p), min_smoothness(budget.with_degree(2))
        )
        xhat = tuple(rng.randint(0, 1) for _ in range(n))
        eps = hamming(xhat, star)
        model = build_constrained_relaxation(prog, xhat, eps, beta)
        for coeffs, lo, hi in model.rows:
            value = sum(c * z for c, z in zip(coeffs, star))
            ok = ok and (lo is None or value >= lo)
            ok = ok and (hi is None or value <= hi)
        record = solve_constrained(
            prog, xhat, SolveConfig(grid=(eps,))
        ).per_eps[0]
        delta = constraint_violation_bound(beta, n, 2, eps, 1)
        ok = ok and record.status == "optimal"
        ok = ok and record.violation_max <= delta
    report(10, "constrained feasibility and violation ceiling", ok)


def test_c11_lp_reference_agreement():
    rng = random.Random(59)
    ok = True
    optimal = 0
    for _ in range(200):
        model = random_lp_model(rng)
        ours = solve_model(model)
        ref = reference_solve(model)
        if ours.status != ref.status:
            ok = False
            continue
        if ours.status == "optimal":
            optimal += 1
            scale = 1 + abs(ref.objective_value)
            ok = ok and abs(
                ours.objective_value - ref.objective_value
            ) <= 1e-6 * scale
    ok = ok and optimal >= 50
    report(11, "embedded solver agrees with reference on 200 LPs", ok)


def test_c12_erm_selects_the_exact_oracle():
    rng = random.Random(61)
    training = []
    for i in range(20):
        n = rng.randint(4, 10)
        kind = i % 3
        if kind == 0:
            g = gen_gnp(n, 0.6, rng.randrange(10**6))
            inst = Instance(
                maxcut_objective(g), kind="maxcut",
                h=Fraction(len(g.edges)), label=f"t{i}",
            )
        elif kind == 1:
            f = gen_ksat(n, 3 * n, 3, rng.randrange(10**6))
            inst = Instance(
                maxksat_objective(f), kind="maxksat",
                h=Fraction(len(f.clauses)), label=f"t{i}",
            )
        else:
            c = gen_kcsp(n, 2 * n, 2, rng.randrange(10**6))
            inst = Instance(
                maxkcsp_objective(c), kind="maxkcsp",
                h=Fraction(len(c.constraints)), label=f"t{i}",
            )
        training.append(inst)

    config = SolveConfig(grid=(0,), include_baseline_candidate=False)

    def quarter_perturbed(seed):
        def candidate(inst):
            star = exact_prediction(inst)
            return perturb(star, len(star) // 4, seed)

        return candidate

    def complemented(inst):
        return tuple(1 - v for v in exact_prediction(inst))

    ok = True
    for run_seed in (0, 1, 2):
        candidates = (
            exact_prediction, quarter_perturbed(run_seed), complemented
        )
        chosen, cost = erm_select(
            ErmProblem(candidates, tuple(training)), config
        )
        ok = ok and chosen == 0
        rivals = []
        for cand in candidates[1:]:
            total = Fraction(0)
            for inst in training:
                value = solve(inst, cand(inst), config).best_value
                total += Fraction(inst.h) - value
            rivals.append(total / len(training))
        ok = ok and all(cost <= r for r in rivals)
    report(12, "empirical risk selection picks the exact oracle", ok)


def test_c13_full_grid_solve_count():
    ok = True
    for n, seed in ((20, 1), (40, 2), (80, 3)):
        inst = Instance(maxcut_objective(gen_gnp(n, 0.3, seed)))
        xhat = tuple(i % 2 for i in range(n))
        rep = solve(inst, xhat)
        ok = ok and len(rep.per_eps) == n + 1
        ok = ok and all(r.status == "optimal" for r in rep.per_eps)
    report(13, "full grid records n+1 LP solves with zero skips", ok)
