"""End-to-end solve loop: enumerate error budgets, relax, solve, round.

:func:`prepare` does, once per instance, the work that no prediction
changes.  It multilinearizes the objective and the side constraints and
keeps each polynomial once, as integers over one denominator: the
objective as its greedy-rounding tables, each side constraint as a score
table.  The smoothness certificate beta and the relaxation plans are
read off those tables, the brute force reads them too, and the
all-halves baseline is rounded.  :func:`solve` takes an instance, which
it prepares on entry, or a prepared one, so that a sweep or an
empirical-risk selection does that work once for many predictions.

Per prediction, the relaxation computes its node values and each row's
need; its rows and its float LP, warm-started at the prediction, are
built only when some budget lies below the saturation budget, the first
grid eps at which no row can cut the box.  Below it, each eps gets its
row windows, one LP solve and a rounding of the optimum to a Boolean
point; from it on, the box LP's optimum is taken in closed form and
rounded once.  Randomized rounding draws its rounds only for an optimum
with a coordinate strictly between 0 and 1: a Boolean optimum, such as
the box LP's, rounds to itself under every seed, so it is taken as is.
Every Boolean point (the prediction, the baseline and each distinct
rounding) is scored once, and its violation of the side constraints
measured, on integers.  The prediction and the baseline are candidates
too, so the result is never worse than either; the best exact value
wins, earliest tag on ties.

A failed LP solve is recorded and skipped; it never aborts the run.  An
instance with n <= its degree, where the relaxation's bounds are
vacuous, is brute-forced instead.  Reports carry, per eps, the additive
slack granted to the LP and the concentration radius of randomized
rounding.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, fields
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

# Most entries in one tile of the brute force's values: 1 MiB on int16.
# Timed on MAX-CUT G(n, 0.5) at n = 22 and 24 on a 2-core Xeon with a
# 4 MiB L2 cache (median of 5 best-of-7 exact_solve runs), tiles of 2^18
# entries took as long at n = 22 and 13% longer at n = 24, of 2^17 39%
# and 54% longer and of 2^20 36% and 56% longer.
TILE = 1 << 19


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

    grid = None walks every eps 0, 1, ..., n; an explicit grid, any
    nonempty iterable of integers, is read once and kept as a sorted
    tuple without repeats.  The prediction is always a candidate; the
    baseline is one unless include_baseline_candidate is False.  k is
    the tail exponent in the reported concentration radii.
    """

    strategy: str = GREEDY
    seed: int = 0
    grid: tuple | None = None
    include_baseline_candidate: bool = True
    k: int = 1
    randomized_rounds: int = 16

    def __post_init__(self):
        if self.strategy not in (GREEDY, RANDOMIZED):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.grid is not None:
            grid = tuple(self.grid)  # a generator is read once, here
            if not grid:
                raise ValueError("grid is empty")
            for e in grid:
                # 2.0 and np.int64(2) are 2; 2.9 or "3" raises.
                if not isinstance(e, numbers.Real) or e % 1:
                    raise ValueError(f"grid values must be integers, got {e!r}")
            grid = sorted(set(map(int, grid)))
            object.__setattr__(self, "grid", tuple(grid))
        for name in ("seed", "randomized_rounds"):
            # np.int64(3) is 3; 2.5 or "3" raises here, not inside solve.
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.randomized_rounds < 1:
            raise ValueError("need at least one randomized round")
        # nan, inf or "2" raises here, not inside a randomized solve.
        if not isinstance(self.k, numbers.Real) or not 0 < self.k < math.inf:
            raise ValueError(
                f"tail parameter k must be finite and positive, got {self.k!r}"
            )


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


def _grid(config: SolveConfig, n: int) -> tuple:
    if config.grid is None:
        return tuple(range(n + 1))
    for e in config.grid:
        if not 0 <= e <= n:
            raise ValueError(f"grid value {e} outside [0, {n}]")
    return config.grid


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
    the rounding of the LP optimum y, a point of [0,1]^n.

    Randomized rounding keeps the first round with the largest value.  A
    Boolean y rounds to itself under every seed, so it is not drawn on:
    z is y and every round has its value.  Otherwise each distinct z
    among the rounds is scored once."""
    tables, scores = instance.greedy, instance.constraint_scores
    if config.strategy == GREEDY:
        z = greedy_round(tables, y)
        return z, tables.value(z), _violation(scores, z), ()
    if set(y) <= {0, 1}:
        z = tuple(map(int, y))
        value = tables.value(z)
        return (
            z, value, _violation(scores, z),
            (value,) * config.randomized_rounds,
        )
    values: dict = {}  # z -> value, in order of the first round giving z
    seed_values = []
    for r in range(config.randomized_rounds):
        z = randomized_round(y, _round_seed(config.seed, eps, r))
        if z not in values:
            values[z] = tables.value(z)
        seed_values.append(values[z])
    z, value = max(values.items(), key=lambda zv: zv[1])
    return z, value, _violation(scores, z), tuple(seed_values)


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


def _scored(instance: Instance, objective_table=ScoreTable) -> tuple:
    """(objective, scores): the objective_table of the normalized
    objective, and each normalized side constraint as (score table,
    lower, upper)."""
    p, constraints = _normalized(instance.objective, instance.constraints)
    return objective_table(p), tuple(
        (ScoreTable(q), lower, upper) for q, lower, upper in constraints
    )


def _beta(objective: ScoreTable, scores) -> Fraction:
    """The smoothness certificate: the largest min_smoothness among the
    objective's and the side constraints' score tables."""
    return max(
        min_smoothness(table)
        for table in (objective, *(table for table, _, _ in scores))
    )


@dataclass(frozen=True)
class PreparedInstance:
    """What every solve of one instance shares, whatever the prediction.

    The smoothness certificate beta, the relaxation plan of the
    normalized objective and one side plan per side constraint
    (:mod:`smoothip.relax`), the objective's greedy-rounding tables, which
    also score its Boolean points and give its n and degree, one (score
    table, lower, upper) per side constraint, the baseline candidate
    (greedy rounding of the all-halves point, which depends on the
    objective alone) and the instance's label.  Each polynomial is held
    once, as its integer score table, plus the plan read off it.  Built
    by :func:`prepare`; compares by value and pickles.
    """

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
    greedy, scores = _scored(instance, GreedyTables)
    beta = _beta(greedy, scores)
    z = greedy_round(greedy, (0.5,) * greedy.n)
    return PreparedInstance(
        beta, RelaxationPlan(greedy),
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
    greedy, scores = instance.greedy, instance.constraint_scores
    n, d, beta = greedy.n, greedy.degree, instance.beta
    xhat = prediction_point(prediction, n)
    constrained = bool(scores)

    candidates = [
        Candidate(
            "prediction", xhat, greedy.value(xhat), _violation(scores, xhat)
        )
    ]
    if config.include_baseline_candidate:
        candidates.append(instance.baseline)

    records: list[EpsRecord] = []
    grid = _grid(config, n)
    if n <= d:
        # The relaxation's analysis needs n > d; brute force instead.
        z, value = _exact(greedy, scores)
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
        # From the saturation budget on, no row cuts the box, so the
        # embedded simplex would only flip bounds from its warm start: its
        # result is taken in closed form.  That y is the same at every
        # saturated budget and Boolean, so whatever the seed it rounds to
        # one z: the point is rounded and scored once, at the first of them.
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
        # Only side constraints can leave no candidate.
        raise RuntimeError(
            "no usable candidate: no budget's LP was optimal, and every "
            "enabled fallback violates a side constraint"
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


def _subset_sums(a, bits: int, run: int) -> None:
    """Yates' subset-sum transform of the array a, in place, over the
    `bits` index bits just above its lowest log2(run): the pass for the
    b-th adds each stretch of run << b entries with that bit clear to
    the stretch with it set.  No view of a outlives the call."""
    for b in range(bits):
        view = a.reshape(-1, 2, run << b)
        view[:, 1] += view[:, 0]


def _value_tiles(table: ScoreTable):
    """Yield (offset, tile): the value of the score table's polynomial,
    as integers over its denominator L, at the Boolean points whose
    index runs from offset to offset + tile.size; bit (n - 1 - i) of an
    index holds z_i, so ascending index order is lexicographic order on
    z.  A tile holds the point with index offset + j at flat position
    j, and the offsets ascend from 0, each tile starting where the one
    before ended.  A tile is one buffer, refilled for each offset, so a
    caller that keeps one copies it.

    Every entry is a subset sum of the table's integer coefficients, so
    none exceeds the total of their magnitudes in size; the tiles are on
    the narrowest of int16, int32 and int64 that holds that total, and
    on Python ints (object) past int64.  The sums are Yates' subset-sum
    transform, one pass per bit of the index.  Its low k = n // 2 bits
    are transformed once, on a table with one row per distinct high part
    (top n - k bits) among the monomials, laid out with the low bits as
    its outer axis, so that each pass runs over long stretches.  A high
    part splits into outer bits and the r inner bits below them, and a
    tile is the 2^r rows of one outer value by all 2^k columns, r the
    largest that keeps it within TILE entries: it starts as the sum of
    the transformed rows whose outer part lies inside the tile's outer
    value, each at its inner part, and runs the r inner passes.  When
    2^k columns alone exceed TILE, a tile is a block of one row's
    columns, the largest power of two within TILE, and runs no pass.
    """
    n = table.n
    total = sum(map(abs, table.coeffs))
    dtype = next(
        (t for t in (np.int16, np.int32, np.int64) if np.iinfo(t).max >= total),
        object,
    )
    k = n // 2
    rows: dict = {}
    cells = []
    for mono, value in zip(table.monomials, table.coeffs):
        mask = 0
        for i in mono:
            mask |= 1 << (n - 1 - i)
        row = rows.setdefault(mask >> k, len(rows))
        cells.append((mask & ((1 << k) - 1), row, value))
    # One row past the high parts' stays 0: a tile takes it at the inner
    # parts that no high part of outer part 0 has.
    zero = len(rows)
    low = np.zeros((1 << k, zero + 1), dtype=dtype)
    for mask, row, value in cells:
        low[mask, row] = value
    _subset_sums(low, k, zero + 1)
    low = np.ascontiguousarray(low.T)  # a row per high part, then zeros
    cols = 1 << k
    if cols <= TILE:
        r, width = min(n - k, (TILE // cols).bit_length() - 1), cols
    else:
        r, width = 0, 1 << (TILE.bit_length() - 1)
    base = np.full(1 << r, zero)  # per inner part, its row of outer 0
    more = []  # (outer part, inner part, row) of the other rows
    for h, row in rows.items():
        if h >> r:
            more.append((h >> r, h & ((1 << r) - 1), row))
        else:
            base[h] = row
    tile = np.empty((1 << r, width), dtype=dtype)
    for outer in range(1 << (n - k - r)):
        inside = [(at, row) for part, at, row in more if part & ~outer == 0]
        for c0 in range(0, cols, width):
            block = low[:, c0:c0 + width]
            # mode="clip" writes into the tile unbuffered.
            np.take(block, base, axis=0, out=tile, mode="clip")
            for at, row in inside:
                tile[at] += block[row]
            _subset_sums(tile, r, width)
            yield (outer << r << k) + c0, tile


def _exact(table: ScoreTable, scores) -> tuple:
    """(z, value) maximizing the objective's score table over the points
    inside every (score table, lower, upper) side window, z the first
    maximum in lexicographic order.

    The points are taken one tile of :func:`_value_tiles` at a time, the
    objective's and every side constraint's at the same points, so no
    table of all 2^n values is ever held.  With V / L a side
    constraint's value, V an integer, V / L >= lower exactly when V >=
    lo = ceil(lower * L), and V / L <= upper exactly when V <= hi =
    floor(upper * L).  V lies between the sums of the table's negative
    and of its positive integers, so a bound that every point meets is
    dropped, a window that none meets raises before any tile, and a side
    with no bound left is not tiled; the bounds left are in the tiles'
    dtype.  Each tile offers its first feasible maximum, at the tile's
    offset plus its flat position; a later tile holds only larger
    indices, so its maximum is kept only when strictly larger."""
    n = table.n
    if n > EXACT_CAP:
        raise ValueError(
            f"{n} variables exceeds the brute-force cap {EXACT_CAP}"
        )
    kept, windows = [], []  # the sides with a bound left, their (lo, hi)
    for q, lower, upper in scores:
        least = sum(c for c in q.coeffs if c < 0)
        most = sum(c for c in q.coeffs if c > 0)
        lo = least if lower is None else max(least, math.ceil(lower * q.scale))
        hi = most if upper is None else min(most, math.floor(upper * q.scale))
        if lo > hi:
            raise ValueError("no Boolean point satisfies the constraints")
        if lo > least or hi < most:
            kept.append(q)
            windows.append((lo if lo > least else None, hi if hi < most else None))
    best = None  # (value, index) of the first feasible maximum so far
    tiles = zip(_value_tiles(table), *map(_value_tiles, kept))
    for (offset, values), *sides in tiles:
        j = _first_maximum(values, [side for _, side in sides], windows)
        if j is not None and (best is None or values.flat[j] > best[0]):
            best = int(values.flat[j]), offset + j
    if best is None:
        raise ValueError("no Boolean point satisfies the constraints")
    value, index = best
    z = tuple((index >> (n - 1 - i)) & 1 for i in range(n))
    return z, Fraction(value, table.scale)


def _first_maximum(values, sides, windows):
    """Flat position of the first maximum of a tile among its entries
    inside every side window, or None when no entry is; sides holds the
    side constraints' tiles at the same points."""
    if not sides:
        return int(np.argmax(values))
    feasible = np.ones(values.shape, dtype=bool)
    for side, (lo, hi) in zip(sides, windows):
        if lo is not None:
            feasible &= side >= lo
        if hi is not None:
            feasible &= side <= hi
    if not feasible.any():
        return None
    # The largest feasible value, then the first feasible entry that has
    # it: Boolean temporaries only, no index array.
    hits = values == values[feasible].max()
    hits &= feasible
    return int(np.argmax(hits))


def exact_solve(instance: Instance | PreparedInstance) -> tuple:
    """Exhaustive maximization honoring constraints, n <= EXACT_CAP; a
    prepared instance is not normalized again.

    Returns (z, value) with z the lexicographically smallest optimum.
    The points are scored a tile of at most TILE consecutive indices at
    a time, so memory stays near one tile per polynomial plus a table of
    2^(n // 2) entries per distinct high part of its monomials, never 2^n
    values.
    """
    if isinstance(instance, Instance):
        # The brute force only scores: no greedy-rounding tables.
        return _exact(*_scored(instance))
    return _exact(instance.greedy, instance.constraint_scores)


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
    value).  With n <= d, where :func:`solve` brute-forces, that is opt.
    A strategy other than greedy or randomized raises ValueError."""
    if strategy not in (GREEDY, RANDOMIZED):
        raise ValueError(f"unknown strategy {strategy!r}")
    if n <= d:
        return Fraction(opt)
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
    prepared instance is not normalized again, and an unprepared one is
    only scored and certified, not prepared."""
    if isinstance(instance, Instance):
        objective, scores = _scored(instance)
        beta = _beta(objective, scores)
    else:
        objective, scores = instance.greedy, instance.constraint_scores
        beta = instance.beta
    _, opt = _exact(objective, scores)
    return guarantee_floor(
        opt, beta, objective.n, objective.degree, eps, config.strategy,
        config.k,
    )


# -- serialization ------------------------------------------------------


def _plain(value):
    """json.dumps's default hook: a report dataclass as the dict of its
    fields, a Fraction as its num/den string; anything else raises."""
    if isinstance(value, (SolveReport, EpsRecord, Candidate)):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def report_json(report: SolveReport) -> str:
    """Canonical JSON rendering: every field of the report, of its
    records and of its candidates, by name; rationals appear as num/den
    strings."""
    return json.dumps(report, default=_plain, sort_keys=True, indent=2) + "\n"


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
