"""End-to-end solve loop: enumerate error budgets, relax, solve, round.

A solve has two parts.  :func:`prepare` does the work that no prediction
changes, once per instance: it multilinearizes the objective and the side
constraints and puts each polynomial's coefficients over one denominator
once, as the objective's greedy-rounding tables (which also score Boolean
points) and a score table per side constraint.  The smoothness
certificate beta and every polynomial's relaxation plan are read off
those integer tables, and the all-halves baseline is greedily rounded.
:func:`solve` accepts an instance, which it prepares on entry, or a
prepared one, so that a sweep or an empirical-risk selection solves many
predictions on one instance without repeating that work.

Per prediction, the relaxation computes only its node values and each
row's need; its rows and its float LP, warm-started at the prediction,
are built once, and only when some budget lies below the saturation
budget.  For each eps in a grid over [0, n] the pipeline derives that
budget's row windows, solves the LP, rounds the fractional optimum to a
Boolean point, and scores that point against the true objective in
exact arithmetic.  From the saturation budget on (the first grid eps at
which no row can cut the box) the embedded simplex is skipped: the box
LP's optimum is written down in closed form, and those budgets share one
rounded point.  Every Boolean point (the prediction, the baseline and
each rounding) is scored, and its violation of the side constraints
measured, on integers over one denominator.

The prediction itself and a cheap baseline (greedy rounding of the
all-halves vector) enter the candidate pool as well, so the returned
solution is never worse than either; the best candidate by exact value
wins, earliest tag on ties.

A failed LP solve skips that eps and is recorded as such; it never aborts
the run.  Tiny instances (n <= declared degree) bypass the LP machinery
entirely and are brute-forced, since the relaxation's bounds are vacuous
there.

Reports carry, per eps, the additive slack granted to the LP and the
concentration radius of randomized rounding, so downstream consumers can
check the advertised guarantees without re-deriving constants.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lpsolve import OPTIMAL, PreparedLp, box_optimum
# decompose, evaluate and the per-budget builders are not called here,
# since plans are read off the monomials, Boolean points are scored from
# integer tables and a solve prepares its relaxation once; they stay in
# this module's namespace, where the benchmark's traced run
# (perfbench/layers.py) looks them up.
from .poly import (  # noqa: F401
    Polynomial,
    ScoreTable,
    decompose,
    evaluate,
    min_smoothness,
    multilinearize,
)
from .relax import (  # noqa: F401
    ConstrainedProgram,
    RelaxationPlan,
    build_constrained_relaxation,
    build_relaxation,
    constraint_degree,
    constraint_plans,
    gap_bound,
    gap_factor,
    prediction_point,
    prepare_relaxation,
)
from .rat import sqrt_upper
from .rounding import (
    GreedyTables,
    greedy_round,
    randomized_round,
    rounding_deviation_term,
    rounding_error_bound,
)

# Every budget's LP is solved through this name, lp_solve(prepared,
# windows), which the benchmark's traced run (perfbench/layers.py) wraps.
lp_solve = PreparedLp.solve

GREEDY = "greedy"
RANDOMIZED = "randomized"

# Largest variable count that exact_solve (and so the exact prediction, a
# sweep's optimum and verify's density label) brute-forces: 2^24 points.
EXACT_CAP = 24


@dataclass(frozen=True)
class Instance:
    """A problem to maximize: objective polynomial, optional constraint
    windows (poly, lower, upper), a family tag, and the cost ceiling used
    by empirical-risk selection."""

    objective: Polynomial
    constraints: tuple = ()
    kind: str = "custom"
    h: Fraction | None = None
    label: str = ""

    def __post_init__(self):
        ConstrainedProgram(self.objective, self.constraints)  # validates


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for one pipeline run.

    grid = None walks every eps 0, 1, ..., n; an explicit grid is used as
    given (sorted, deduplicated).  k is the tail exponent in the reported
    concentration radii.
    """

    strategy: str = GREEDY
    seed: int = 0
    grid: tuple | None = None
    include_prediction_candidate: bool = True
    include_baseline_candidate: bool = True
    k: int = 1
    randomized_rounds: int = 16

    def __post_init__(self):
        if self.strategy not in (GREEDY, RANDOMIZED):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.randomized_rounds < 1:
            raise ValueError("need at least one randomized round")
        if self.k <= 0:
            raise ValueError("tail parameter k must be positive")


@dataclass(frozen=True)
class EpsRecord:
    eps: int
    status: str
    lp_value: float | None
    rounded_z: tuple | None
    rounded_value: Fraction | None
    violation_max: Fraction | None
    gap: Fraction
    rounding_radius: Fraction
    wall_ms: float
    seed_values: tuple = ()


@dataclass(frozen=True)
class Candidate:
    tag: str
    z: tuple
    value: Fraction
    violation: Fraction


@dataclass(frozen=True)
class SolveReport:
    n: int
    degree: int
    beta: Fraction
    strategy: str
    best_z: tuple
    best_value: Fraction
    per_eps: tuple
    candidates: tuple
    label: str = ""


def _grid(config: SolveConfig, n: int) -> list[int]:
    if config.grid is None:
        return list(range(n + 1))
    values = sorted(set(int(e) for e in config.grid))
    for e in values:
        if not 0 <= e <= n:
            raise ValueError(f"grid value {e} outside [0, {n}]")
    return values


def _violation(scores, z) -> Fraction:
    """How far the Boolean point z lies outside the worst of the side
    constraints' windows, given as (score table, lower, upper); 0 inside
    every window."""
    worst = Fraction(0)
    for table, lower, upper in scores:
        value = table.value(z)
        if lower is not None and lower - value > worst:
            worst = lower - value
        if upper is not None and value - upper > worst:
            worst = value - upper
    return worst


def _round_seed(base: int, eps: int, index: int) -> int:
    stream = np.random.SeedSequence((base % 2**64, eps, index))
    return int(stream.generate_state(1, np.uint64)[0])


def _round_and_score(
    instance: PreparedInstance, y, config: SolveConfig, eps: int
):
    """(z, exact value, violation, values of the randomized rounds) for
    the rounding of the LP optimum y, a point of [0,1]^n."""
    tables, scores = instance.greedy, instance.constraint_scores
    if config.strategy == GREEDY:
        z = greedy_round(tables, y)
        return z, tables.value(z), _violation(scores, z), ()
    outcomes = []
    for r in range(config.randomized_rounds):
        zr = randomized_round(y, _round_seed(config.seed, eps, r))
        outcomes.append((zr, tables.value(zr)))
    z, value = max(outcomes, key=lambda zv: zv[1])
    return (
        z, value, _violation(scores, z),
        tuple(v for _, v in outcomes),
    )


def _normalized(objective: Polynomial, constraints):
    """Multilinearize, pad the objective's degree to at least 2 and each
    side constraint's to its constraint degree, bounds as Fractions."""
    p = multilinearize(objective)
    normal = []
    for poly, lower, upper in constraints:
        q = multilinearize(poly)
        normal.append(
            (
                q.with_degree(constraint_degree(q)),
                None if lower is None else Fraction(lower),
                None if upper is None else Fraction(upper),
            )
        )
    return p.with_degree(max(2, p.degree)), tuple(normal)


@dataclass(frozen=True)
class PreparedInstance:
    """What every solve of one instance shares, whatever the prediction.

    The normalized objective p and side constraints (poly, lower, upper),
    the smoothness certificate beta, the relaxation plan of p and one
    side plan per side constraint (:mod:`smoothip.relax`), the
    greedy-rounding tables of p, which also score its Boolean points, one
    (score table, lower, upper) per side constraint, the baseline
    candidate (greedy rounding of the all-halves point, which depends on
    p alone) and the instance's label.  Built by :func:`prepare`; compares
    by value and pickles.
    """

    p: Polynomial
    constraints: tuple
    beta: Fraction
    plan: RelaxationPlan
    constraint_plans: tuple
    greedy: GreedyTables
    constraint_scores: tuple
    baseline: Candidate
    label: str


def prepare(instance: Instance) -> PreparedInstance:
    """Normalize an instance, build its greedy-rounding and scoring
    tables, read its smoothness certificate and relaxation plans off
    them and round its baseline, once; pass the result to :func:`solve`
    in place of the instance to solve it for many predictions."""
    p, constraints = _normalized(instance.objective, instance.constraints)
    greedy = GreedyTables(p)
    scores = tuple(
        (ScoreTable(poly), lower, upper) for poly, lower, upper in constraints
    )
    beta = max(
        min_smoothness(table)
        for table in (greedy, *(table for table, _, _ in scores))
    )
    z = greedy_round(greedy, (Fraction(1, 2),) * p.n)
    return PreparedInstance(
        p, constraints, beta, RelaxationPlan(greedy),
        constraint_plans(scores), greedy, scores,
        Candidate("baseline", z, greedy.value(z), _violation(scores, z)),
        instance.label,
    )


def solve(
    instance: Instance | PreparedInstance,
    prediction,
    config: SolveConfig = SolveConfig(),
) -> SolveReport:
    """Run the full loop on an instance, or on what :func:`prepare` made
    of one; see the module docstring."""
    if isinstance(instance, Instance):
        instance = prepare(instance)
    p, constraints, beta = instance.p, instance.constraints, instance.beta
    n, d = p.n, p.degree
    xhat = prediction_point(getattr(prediction, "x_hat", prediction), n)
    constrained = bool(constraints)

    candidates: list[Candidate] = []
    if config.include_prediction_candidate:
        candidates.append(
            Candidate(
                "prediction", xhat, instance.greedy.value(xhat),
                _violation(instance.constraint_scores, xhat),
            )
        )
    if config.include_baseline_candidate:
        candidates.append(instance.baseline)

    records: list[EpsRecord] = []
    if n <= d:
        # The relaxation's analysis needs n > d; brute force instead.
        z, value = _exact(p, constraints)
        candidates.append(Candidate("exact", z, value, Fraction(0)))
    else:
        relaxation = prepare_relaxation(
            instance.plan, xhat, beta, instance.constraint_plans
        )
        # gap_bound at eps is this factor times sqrt(n * eps).
        factor = gap_factor(beta, n, d)
        radius = (
            rounding_error_bound(beta, n, d, config.k)
            if config.strategy == RANDOMIZED and beta > 0
            else Fraction(0)
        )
        grid = _grid(config, n)
        # From the saturation budget on, no row cuts the box, so the
        # embedded simplex would only flip bounds from its warm start: its
        # result is taken in closed form.  Greedy rounding of that one y
        # gives one z, and since y is Boolean, randomized rounding returns
        # y under every seed; so the point is rounded and scored once.
        saturation = relaxation.saturation_budget(grid)
        box = (
            None if saturation is None
            else box_optimum(
                (relaxation.objective, relaxation.denom), relaxation.offset,
                xhat,
            )
        )
        box_rounded = None
        # Below saturation the float LP is prepared once, at the first
        # budget that needs it, and each budget passes only its windows.
        lp = None
        for eps in grid:
            started = time.perf_counter()
            saturated = saturation is not None and eps >= saturation
            if saturated:
                sol = box
            else:
                if lp is None:
                    lp = relaxation.lp()
                sol = lp_solve(lp, relaxation.windows(eps))
            gap = factor * sqrt_upper(n * eps)
            if sol.status != OPTIMAL:
                records.append(
                    EpsRecord(
                        eps, sol.status, None, None, None, None,
                        gap, radius,
                        (time.perf_counter() - started) * 1000.0,
                    )
                )
                continue
            if saturated and box_rounded is not None:
                rounded = box_rounded
            else:
                rounded = _round_and_score(instance, sol.y, config, eps)
                if saturated:
                    box_rounded = rounded
            z, value, violation, seed_values = rounded
            records.append(
                EpsRecord(
                    eps, OPTIMAL, float(sol.objective_value), z, value,
                    violation, gap, radius,
                    (time.perf_counter() - started) * 1000.0, seed_values,
                )
            )
            candidates.append(Candidate(f"eps={eps}", z, value, violation))

    best = None
    for cand in candidates:
        # In constrained mode only exactly-feasible side candidates
        # compete; LP-derived points carry the violation guarantee.
        if constrained and cand.violation > 0 and not cand.tag.startswith(
            ("eps=", "exact")
        ):
            continue
        if best is None or cand.value > best.value:
            best = cand
    if best is None:
        # Only side constraints or disabled fallbacks leave no candidate.
        raise RuntimeError(
            "no usable candidate: no budget's LP was optimal, and "
            + (
                "every enabled fallback violates a side constraint"
                if config.include_prediction_candidate
                or config.include_baseline_candidate
                else "the prediction and baseline fallbacks are disabled"
            )
        )
    return SolveReport(
        n, d, beta, config.strategy, best.z, best.value,
        tuple(records), tuple(candidates), instance.label,
    )


def solve_constrained(
    prog: ConstrainedProgram, prediction, config: SolveConfig = SolveConfig()
) -> SolveReport:
    """Same loop driven by an explicit constrained program."""
    return solve(Instance(prog.objective, prog.constraints), prediction, config)


# -- exact reference ----------------------------------------------------


def _masks_to_values(poly: Polynomial, n: int):
    """Objective value of every Boolean point as integers over a common
    denominator, indexed so that bit (n - 1 - i) holds z_i; ascending
    index order is then lexicographic order on z.

    Every entry is the sum of the scaled coefficients of the monomials
    that the point satisfies, a subset sum, so none exceeds the total
    of their magnitudes in size; the table is the narrowest of int16,
    int32 and int64 that holds that total, and Python ints (object)
    past int64.  The sums are Yates' subset-sum transform, one pass per
    bit, split in two: the low k = n // 2 bits are transformed on a
    table with one row per distinct high part among the monomials, and
    after the rows are scattered into the full table the n - k high
    passes each add whole contiguous blocks.
    """
    denom = math.lcm(
        *(c.denominator for c in poly.coeffs.values()), 1
    )
    scaled = {mono: int(c * denom) for mono, c in poly.coeffs.items()}
    total = sum(map(abs, scaled.values()))
    dtype = next(
        (t for t in (np.int16, np.int32, np.int64) if np.iinfo(t).max >= total),
        object,
    )
    k = n // 2
    rows: dict = {}
    cells = []
    for mono, value in scaled.items():
        mask = 0
        for i in mono:
            mask |= 1 << (n - 1 - i)
        row = rows.setdefault(mask >> k, len(rows))
        cells.append((row, mask & ((1 << k) - 1), value))
    low = np.zeros((len(rows), 1 << k), dtype=dtype)
    for row, mask, value in cells:
        low[row, mask] = value
    for b in range(k):
        view = low.reshape(len(rows), 1 << (k - b - 1), 2, 1 << b)
        view[:, :, 1, :] += view[:, :, 0, :]
    table = np.zeros((1 << (n - k), 1 << k), dtype=dtype)
    table[list(rows)] = low
    table = table.reshape(-1)
    for b in range(k, n):
        view = table.reshape(-1, 2, 1 << b)
        view[:, 1, :] += view[:, 0, :]
    return table, denom


def _exact(p: Polynomial, constraints) -> tuple:
    n = p.n
    if n > EXACT_CAP:
        raise ValueError(
            f"{n} variables exceeds the brute-force cap {EXACT_CAP}"
        )
    values, denom = _masks_to_values(p, n)
    # The feasibility mask and the masked copy of the values cost two more
    # 2^n arrays, so they are built only when there are side constraints.
    feasible = _feasible(constraints, n) if constraints else None
    # Both branches take the first maximum, the lexicographically smallest.
    if values.dtype == object:
        masks = range(1 << n) if feasible is None else np.flatnonzero(feasible)
        best_mask = int(max(masks, key=values.__getitem__))
    else:
        if feasible is not None:
            # The dtype's own minimum lies below every entry.
            values = np.where(feasible, values, np.iinfo(values.dtype).min)
        best_mask = int(np.argmax(values))
    z = tuple((best_mask >> (n - 1 - i)) & 1 for i in range(n))
    return z, Fraction(int(values[best_mask]), denom)


def _clamp(bound: int, dtype) -> int:
    """bound clamped to the dtype's range as a Python int, so that a
    table of that dtype is compared with a value it holds, whatever
    NumPy's promotion rules; the entries lie strictly above the minimum,
    so ``table > _clamp(lo - 1)`` and ``table <= _clamp(hi)`` answer as
    the unclamped comparisons do."""
    if dtype == object:
        return bound
    info = np.iinfo(dtype)
    return min(max(bound, int(info.min)), int(info.max))


def _feasible(constraints, n: int):
    """Boolean mask of the points that satisfy every constraint window."""
    feasible = np.ones(1 << n, dtype=bool)
    for poly, lower, upper in constraints:
        bounds_denom = math.lcm(
            1 if lower is None else Fraction(lower).denominator,
            1 if upper is None else Fraction(upper).denominator,
        )
        scaled = poly * bounds_denom
        table, qd = _masks_to_values(scaled, n)
        if lower is not None:
            lo = int(Fraction(lower) * bounds_denom * qd)
            feasible &= table > _clamp(lo - 1, table.dtype)
        if upper is not None:
            hi = int(Fraction(upper) * bounds_denom * qd)
            feasible &= table <= _clamp(hi, table.dtype)
    if not feasible.any():
        raise ValueError("no Boolean point satisfies the constraints")
    return feasible


def exact_solve(instance: Instance | PreparedInstance) -> tuple:
    """Exhaustive maximization honoring constraints, n <= EXACT_CAP; a
    prepared instance is not normalized again.

    Returns (z, value) with z the lexicographically smallest optimum.
    """
    if isinstance(instance, Instance):
        return _exact(*_normalized(instance.objective, instance.constraints))
    return _exact(instance.p, instance.constraints)


# -- theoretical floors -------------------------------------------------


def guarantee_floor(
    opt: Fraction | int,
    beta: Fraction | int,
    n: int,
    d: int,
    eps: int,
    strategy: str = GREEDY,
    k: int = 1,
) -> Fraction:
    """Value the pipeline is guaranteed to reach at prediction error eps
    on a normalized instance (n variables, degree d, smoothness beta)
    whose optimum is opt: opt minus the relaxation gap, minus the rounding
    deviation when the strategy is randomized (greedy rounding never loses
    value)."""
    floor = Fraction(opt) - gap_bound(beta, n, d, eps)
    if strategy == RANDOMIZED and beta > 0:
        floor -= rounding_deviation_term(beta, n, d, k)
    return floor


def guarantee_bound(
    instance: Instance | PreparedInstance,
    eps: int,
    config: SolveConfig = SolveConfig(),
) -> Fraction:
    """:func:`guarantee_floor` with opt brute-forced from the instance; a
    prepared instance is not normalized again."""
    if isinstance(instance, Instance):
        instance = prepare(instance)
    p = instance.p
    _, opt = _exact(p, instance.constraints)
    return guarantee_floor(
        opt, instance.beta, p.n, p.degree, eps, config.strategy, config.k
    )


def approx_ratio_bound(
    beta: Fraction | int, n: int, d: int, eps: int,
    kappa: float, xi: float,
) -> float:
    """Multiplicative guarantee 1 - (2 eta beta / kappa) sqrt(eps) / n^xi
    for instances whose optimum is at least kappa * n^(d - 1/2 + xi).

    For the cut encoding (beta = 2, d = 2) this is 1 - (4/kappa)
    sqrt(eps)/n^xi.
    """
    if d < 2:
        raise ValueError("ratio bound needs degree >= 2")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if not 0 < xi <= 0.5:
        raise ValueError("xi must lie in (0, 1/2]")
    if eps < 0:
        raise ValueError("negative error budget")
    eta = 2 * math.e * (d - 2) + 1
    return 1.0 - (2 * eta * float(beta) / kappa) * math.sqrt(eps) / n**xi


# -- serialization ------------------------------------------------------


def _frac(value) -> str | None:
    return None if value is None else str(Fraction(value))


def report_json(report: SolveReport) -> str:
    """Canonical JSON rendering; rationals appear as num/den strings."""
    payload = {
        "label": report.label,
        "n": report.n,
        "degree": report.degree,
        "beta": _frac(report.beta),
        "strategy": report.strategy,
        "best_z": list(report.best_z),
        "best_value": _frac(report.best_value),
        "candidates": [
            {
                "tag": c.tag,
                "z": list(c.z),
                "value": _frac(c.value),
                "violation": _frac(c.violation),
            }
            for c in report.candidates
        ],
        "per_eps": [
            {
                "eps": r.eps,
                "status": r.status,
                "lp_value": r.lp_value,
                "rounded_z": None if r.rounded_z is None else list(r.rounded_z),
                "rounded_value": _frac(r.rounded_value),
                "violation_max": _frac(r.violation_max),
                "gap": _frac(r.gap),
                "rounding_radius": _frac(r.rounding_radius),
                "wall_ms": r.wall_ms,
                "seed_values": [_frac(v) for v in r.seed_values],
            }
            for r in report.per_eps
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_csv(report: SolveReport) -> str:
    lines = ["eps,lp_value,rounded_value,violation_max,wall_ms"]
    for r in report.per_eps:
        lines.append(
            ",".join(
                (
                    str(r.eps),
                    "" if r.lp_value is None else repr(r.lp_value),
                    "" if r.rounded_value is None else repr(
                        float(r.rounded_value)
                    ),
                    "" if r.violation_max is None else repr(
                        float(r.violation_max)
                    ),
                    f"{r.wall_ms:.3f}",
                )
            )
        )
    return "\n".join(lines) + "\n"
