"""Command-line front end.

Four subcommands: ``gen`` writes instance files, ``solve`` runs the
pipeline on one instance, ``sweep`` produces the ratio-versus-error CSV
across instances and trials, and ``verify`` prints an instance's
smoothness diagnostics, read from its score tables and relaxation plan
without rounding a baseline.  Instance kind is detected from file
content (DIMACS edge, DIMACS CNF, or the CSP JSON shape).

A sweep loads, prepares and brute-forces each file once, then solves one
cell per (file, eps, trial), in turn; every cell of a file carries that
file's one prepared instance.

Exit codes: 0 success, 2 parse or parameter failure, 3 when a solve
has no usable candidate or every relaxation in it failed.  All output
is deterministic for fixed flags and seed except solve's wall_ms, a
--csv column and a per-eps --json field; the sweep table has no timing
column.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .oracle import exact_prediction, perturb, read_prediction
# A sweep cell takes its floor from guarantee_floor and the opt it is
# given; guarantee_bound, which brute-forces opt again, is not called here.
# It stays in this module's namespace, where the benchmark's traced run
# (perfbench/layers.py) looks it up.
from .pipeline import (  # noqa: F401
    EXACT_CAP,
    Instance,
    PreparedInstance,
    SolveConfig,
    _beta,
    _exact,
    _round_seed,
    _scored,
    exact_solve,
    guarantee_bound,
    guarantee_floor,
    prepare,
    report_csv,
    report_json,
    solve,
)
from .problems import (
    gen_gnp,
    gen_kcsp,
    gen_ksat,
    maxcut_objective,
    maxkcsp_objective,
    maxksat_objective,
    parse_csp_json,
    parse_dimacs_cnf,
    parse_dimacs_graph,
    write_csp_json,
    write_dimacs_cnf,
    write_dimacs_graph,
)
from .relax import RelaxationPlan

# Advisory density thresholds printed by verify: "dense" wants the
# optimum around n^d, "near-dense" around n^(d - 1/2 + xi); we display
# the xi = 1/4 member of that family.
DENSE_FRACTION = Fraction(1, 8)
NEAR_DENSE_EXPONENT_DROP = 0.25


def load_instance(path) -> Instance:
    """Read an instance file, detecting its format from content."""
    text = Path(path).read_text()
    label = Path(path).stem
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p edge"):
            graph = parse_dimacs_graph(text)
            return Instance(
                maxcut_objective(graph), kind="maxcut",
                h=Fraction(len(graph.edges)), label=label,
            )
        if line.startswith("p cnf"):
            formula = parse_dimacs_cnf(text)
            return Instance(
                maxksat_objective(formula), kind="maxksat",
                h=Fraction(len(formula.clauses)), label=label,
            )
        break
    inst = parse_csp_json(text)
    return Instance(
        maxkcsp_objective(inst), kind="maxkcsp",
        h=Fraction(len(inst.constraints)), label=label,
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_grid(flag: str, n: int):
    """Grid flag: full | stride:S (eps 0, S, 2S, ... <= n) | e1,e2,...,
    each explicit value in [0, n]."""
    if flag == "full":
        return None
    if flag.startswith("stride:"):
        stride = int(flag.split(":", 1)[1])
        if stride < 1:
            raise ValueError("stride must be at least 1")
        return tuple(range(0, n + 1, stride))
    grid = tuple(int(part) for part in flag.split(","))
    for e in grid:
        if not 0 <= e <= n:
            raise ValueError(f"grid value {e} outside [0, {n}]")
    return grid


def _parse_opt(flag: str | None):
    """--opt as an exact rational, or None when the flag is absent."""
    try:
        return None if flag is None else Fraction(flag)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--opt {flag!r} is not a rational number") from None


def _prediction_for(flag: str, prepared: PreparedInstance, seed: int):
    if flag.startswith("file:"):
        return read_prediction(flag.split(":", 1)[1])
    if flag != "exact" and not flag.startswith("perturb:"):
        raise ValueError(
            f"prediction source {flag!r} is not exact, perturb:EPS, "
            "or file:PATH"
        )
    n = prepared.greedy.n
    if n > EXACT_CAP:
        raise ValueError(
            f"--prediction {flag} brute-forces the optimum, but "
            f"{prepared.label} has {n} variables, over the brute-force cap "
            f"{EXACT_CAP}; pass --prediction file:PATH instead"
        )
    eps = 0 if flag == "exact" else int(flag.split(":", 1)[1])
    if not 0 <= eps <= n:
        raise ValueError(f"flip count {eps} outside [0, {n}]")
    return perturb(exact_prediction(prepared), eps, seed)  # exact: no flips


# -- gen ----------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.family == "maxcut":
        text = write_dimacs_graph(gen_gnp(args.n, args.p, args.seed))
    elif args.family == "maxksat":
        text = write_dimacs_cnf(gen_ksat(args.n, args.m, args.k, args.seed))
    else:
        text = write_csp_json(gen_kcsp(args.n, args.m, args.k, args.seed))
    _emit(text, args.out)
    return 0


# -- solve --------------------------------------------------------------


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    config = SolveConfig(
        strategy=args.strategy,
        seed=args.seed,
        grid=_parse_grid(args.grid, instance.objective.n),
        k=args.k,
        randomized_rounds=args.rounds,
    )
    prepared = prepare(instance)
    prediction = _prediction_for(args.prediction, prepared, args.seed)
    try:
        report = solve(prepared, prediction, config)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        Path(args.json).write_text(report_json(report))
    if args.csv:
        Path(args.csv).write_text(report_csv(report))
    skips = sum(1 for r in report.per_eps if r.status != "optimal")
    print(
        f"instance: {report.label} (kind={instance.kind}, "
        f"n={report.n}, degree={report.degree})"
    )
    print(f"beta: {report.beta}")
    print(f"strategy: {report.strategy}")
    print(f"best value: {float(report.best_value):.6g} ({report.best_value})")
    print("best z: " + "".join(str(v) for v in report.best_z))
    print(f"eps records: {len(report.per_eps)} ({skips} skipped)")
    if report.per_eps and skips == len(report.per_eps):
        print("error: every relaxation failed", file=sys.stderr)
        return 3
    return 0


# -- sweep --------------------------------------------------------------


def _sweep_cell(payload):
    prepared, star, opt, eps, trial, strategy, seed, k = payload
    cell_seed = _round_seed(seed, eps, trial)
    prediction = perturb(star, eps, cell_seed)
    config = SolveConfig(strategy=strategy, seed=cell_seed, grid=(eps,), k=k)
    report = solve(prepared, prediction, config)
    achieved = report.best_value
    bound = guarantee_floor(
        opt, report.beta, report.n, report.degree, eps, strategy, k
    )
    ratio = "" if opt <= 0 else repr(float(Fraction(achieved) / opt))
    return (
        report.label, eps, trial,
        repr(float(achieved)), repr(float(opt)), ratio, repr(float(bound)),
    )


def cmd_sweep(args) -> int:
    eps_values = sorted(set(int(part) for part in args.eps.split(",")))
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    # The checks every cell's SolveConfig makes, made once up front.
    SolveConfig(strategy=args.strategy, k=args.k)
    instances = [load_instance(path) for path in args.instances]
    # Every file is checked before the first brute force starts.
    for path, instance in zip(args.instances, instances):
        n = instance.objective.n
        if n > EXACT_CAP:
            raise ValueError(
                f"{path} has {n} variables, over the brute-force cap "
                f"{EXACT_CAP}: a sweep perturbs the brute-forced optimum"
            )
        if eps_values[0] < 0 or eps_values[-1] > n:
            raise ValueError(f"eps values must lie in [0, {n}] for {path}")
    cells = []
    for prepared in [prepare(instance) for instance in instances]:
        star, opt = exact_solve(prepared)
        cells.extend(
            (prepared, star, opt, eps, trial, args.strategy, args.seed, args.k)
            for eps in eps_values
            for trial in range(args.trials)
        )
    rows = [_sweep_cell(cell) for cell in cells]
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    lines = ["instance,eps,trial,achieved,opt,ratio,bound"]
    lines.extend(
        ",".join(str(field) for field in row) for row in rows
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- verify -------------------------------------------------------------


def cmd_verify(args) -> int:
    opt = _parse_opt(args.opt)
    instance = load_instance(args.instance)
    # Only what is printed: no greedy-rounding tables, no baseline.
    objective, scores = _scored(instance)
    beta = _beta(objective, scores)
    nodes = len(RelaxationPlan(objective).constants)
    n, d = objective.n, objective.degree
    print(f"instance: {instance.label} (kind={instance.kind})")
    print(f"n: {n}")
    print(f"degree: {d}")
    print(f"monomials: {len(objective.monomials)}")
    print(f"beta: {float(beta):.6g} ({beta})")
    print(f"decomposition nodes: {nodes}")
    dense_at = DENSE_FRACTION * Fraction(n) ** d
    near_at = n ** (d - 0.5 + (0.5 - NEAR_DENSE_EXPONENT_DROP))
    if opt is None and n <= EXACT_CAP:
        _, opt = _exact(objective, scores)
    print(
        f"density thresholds: dense >= {float(dense_at):.6g} (n^d/8), "
        f"near-dense >= {near_at:.6g} (n^(d-1/4))"
    )
    if opt is None:
        print("density: unknown (instance too large to brute-force; pass --opt)")
    elif opt >= dense_at:
        print(f"density: dense (optimum {float(opt):.6g})")
    elif float(opt) >= near_at:
        print(f"density: near-dense (optimum {float(opt):.6g})")
    else:
        print(f"density: below both thresholds (optimum {float(opt):.6g})")
    return 0


# -- wiring -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothip",
        description="Prediction-guided Boolean polynomial maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument(
        "family", choices=("maxcut", "maxksat", "maxkcsp")
    )
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, default=0.5,
                     help="edge probability (maxcut)")
    gen.add_argument("--m", type=int, default=0,
                     help="clause/constraint count")
    gen.add_argument("--k", type=int, default=3,
                     help="clause/constraint width")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    solve_p = sub.add_parser("solve", help="run the pipeline on an instance")
    solve_p.add_argument("instance")
    solve_p.add_argument(
        "--prediction", default="exact",
        help="exact | perturb:EPS | file:PATH",
    )
    solve_p.add_argument(
        "--strategy", choices=("greedy", "randomized"), default="greedy"
    )
    solve_p.add_argument(
        "--grid", default="full", help="full | stride:S | e1,e2,..."
    )
    solve_p.add_argument("--seed", type=int, default=0)
    solve_p.add_argument("--k", type=int, default=1,
                         help="tail exponent for reported bounds")
    solve_p.add_argument("--rounds", type=int, default=16,
                         help="randomized rounding repetitions")
    solve_p.add_argument("--json", help="write the full report here")
    solve_p.add_argument("--csv", help="write per-eps rows here")
    solve_p.set_defaults(func=cmd_solve)

    sweep = sub.add_parser(
        "sweep", help="ratio-versus-error table over instances"
    )
    sweep.add_argument("instances", nargs="+")
    sweep.add_argument("--eps", required=True, help="comma-separated budgets")
    sweep.add_argument("--trials", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--strategy", choices=("greedy", "randomized"), default="greedy"
    )
    sweep.add_argument("--k", type=int, default=1)
    sweep.add_argument("--out", help="output CSV path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="print smoothness diagnostics")
    verify.add_argument("instance")
    verify.add_argument("--opt", help="known optimum for the density label")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
