"""The benchmark's seeded workloads and the checks on their outputs.

Every input is generated from the workload seed with the program's own
generators; the program sees only the generated instances.  A pass is the
workload's fixed work (one full-grid solve, or one whole ``sweep``
command); an op is one full-grid solve or one sweep cell.  Why each
workload exists is recorded in BENCHMARK.json and README.md beside this
file.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from smoothip import cli, pipeline, problems
from smoothip.poly import Polynomial
from smoothip.relax import ConstrainedProgram, constraint_violation_bound


@dataclass
class Op:
    seconds: float
    value: Fraction
    ratio: Fraction
    problems: list


@dataclass
class Pass:
    seconds: float
    ops: list
    expected_ops: int
    digest: str | None
    problems: list = field(default_factory=list)
    scale: float = 1.0  # machine-speed factor, set by the runner


def alternating(n: int) -> tuple:
    return tuple(i % 2 for i in range(n))


def report_digest(report) -> str:
    """sha256 of report_json with the timing fields removed."""
    payload = json.loads(pipeline.report_json(report))
    for record in payload["per_eps"]:
        del record["wall_ms"]
    text = json.dumps(payload, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(report, direct_value, constrained=False, infeasible_ok=()):
    """Problems found in one report: its best value against the direct
    evaluator, against the side candidates, and its LP statuses."""
    found = []
    direct = direct_value(report.best_z)
    if report.best_value != direct:
        found.append(f"best_value {report.best_value} != direct {direct}")
    for cand in report.candidates:
        competes = not constrained or cand.violation == 0
        if cand.tag in ("prediction", "baseline") and competes and (
            cand.value > report.best_value
        ):
            found.append(f"{cand.tag} value {cand.value} beats best")
    for record in report.per_eps:
        allowed = ("optimal", "infeasible") if (
            record.eps in infeasible_ok
        ) else ("optimal",)
        if record.status not in allowed:
            found.append(f"eps={record.eps}: LP status {record.status}")
    return found


def _failure() -> list:
    return [traceback.format_exc(limit=3).strip().splitlines()[-1]]


class GridWorkload:
    """One full-grid (eps = 0..n) solve of a fixed instance per pass."""

    n: int
    constrained = False
    infeasible_ok: tuple = ()

    def solve(self):
        raise NotImplementedError

    def direct_value(self, z) -> int:
        raise NotImplementedError

    def extra_checks(self, report) -> list:
        return []

    def close(self) -> None:
        pass

    def run_pass(self, tracer, index: int, clock) -> Pass:
        with tracer.span("pass"), tracer.span("op", op=index):
            start = clock()
            try:
                report = self.solve()
            except Exception:  # reported as a failed op, the run goes on
                report, found = None, _failure()
            seconds = clock() - start
        if report is None:
            return Pass(seconds, [], 1, None, found)
        found = check_report(
            report, self.direct_value, self.constrained, self.infeasible_ok
        )
        if [r.eps for r in report.per_eps] != list(range(self.n + 1)):
            found.append(f"{len(report.per_eps)} per-eps records, not n+1")
        found += self.extra_checks(report)
        op = Op(seconds, report.best_value, report.best_value / self.h, found)
        return Pass(seconds, [op], 1, report_digest(report))


class CutGrid(GridWorkload):
    n = 60

    def __init__(self, seed: int, scratch: Path):
        self.graph = problems.gen_gnp(self.n, 0.3, seed)
        self.h = Fraction(len(self.graph.edges))
        self.instance = pipeline.Instance(
            problems.maxcut_objective(self.graph), kind="maxcut", h=self.h,
            label="cut-grid",
        )
        self.xhat = alternating(self.n)

    def solve(self):
        return pipeline.solve(self.instance, self.xhat, pipeline.SolveConfig())

    def direct_value(self, z) -> int:
        return problems.cut_size(self.graph, z)


class SatGrid(GridWorkload):
    n = 36

    def __init__(self, seed: int, scratch: Path):
        self.formula = problems.gen_ksat(self.n, 144, 3, seed)
        self.h = Fraction(len(self.formula.clauses))
        self.instance = pipeline.Instance(
            problems.maxksat_objective(self.formula), kind="maxksat",
            h=self.h, label="sat-grid",
        )
        self.xhat = alternating(self.n)
        self.config = pipeline.SolveConfig(
            strategy="randomized", seed=seed, randomized_rounds=16
        )

    def solve(self):
        return pipeline.solve(self.instance, self.xhat, self.config)

    def direct_value(self, z) -> int:
        return problems.satisfied_count(self.formula, z)


class CardGrid(GridWorkload):
    """MAX-CUT under sum x <= 10; the alternating prediction sets 20."""

    n = 40
    limit = 10
    constrained = True
    infeasible_ok = (0,)

    def __init__(self, seed: int, scratch: Path):
        self.graph = problems.gen_gnp(self.n, 0.3, seed)
        self.h = Fraction(len(self.graph.edges))
        card = Polynomial(self.n, {(j,): 1 for j in range(self.n)})
        self.prog = ConstrainedProgram(
            problems.maxcut_objective(self.graph),
            ((card, None, Fraction(self.limit)),),
        )
        self.xhat = alternating(self.n)

    def solve(self):
        return pipeline.solve_constrained(
            self.prog, self.xhat, pipeline.SolveConfig()
        )

    def direct_value(self, z) -> int:
        return problems.cut_size(self.graph, z)

    def extra_checks(self, report) -> list:
        best = next(
            c for c in report.candidates
            if c.z == report.best_z and c.value == report.best_value
        )
        found = []
        direct = max(0, sum(best.z) - self.limit)
        if best.violation != direct:
            found.append(f"violation {best.violation} != direct {direct}")
        if best.tag.startswith("eps="):
            eps = int(best.tag[4:])
            ceiling = constraint_violation_bound(report.beta, self.n, 2, eps, 1)
            if best.violation > ceiling:
                found.append(f"violation {best.violation} > bound {ceiling}")
        elif best.violation != 0:
            found.append(f"infeasible side candidate {best.tag} won")
        return found


class SweepBf:
    """The ``sweep`` command, in-process, over two brute-forceable files.

    Both have 22 variables, so every cell brute-forces the same 2^22
    points and the cell times are not split into two clusters, which
    would make their median jump between them."""

    eps = (0, 2, 4, 8)
    trials = 5

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        graph = problems.gen_gnp(22, 0.5, seed)
        formula = problems.gen_ksat(22, 88, 3, seed)
        self.files = [scratch / "g22.graph", scratch / "sat22.cnf"]
        self.files[0].write_text(problems.write_dimacs_graph(graph))
        self.files[1].write_text(problems.write_dimacs_cnf(formula))
        self.out = scratch / "sweep.csv"
        self.direct = {
            "g22": lambda z: problems.cut_size(graph, z),
            "sat22": lambda z: problems.satisfied_count(formula, z),
        }
        for path in self.files:
            cli.load_instance(path)
        self.cells = len(self.files) * len(self.eps) * self.trials
        self._cells: list = []
        self._reports: list = []
        self._cell = cli._sweep_cell
        self._solve = cli.solve
        cli._sweep_cell = self._timed_cell
        cli.solve = self._captured_solve

    def close(self) -> None:
        cli._sweep_cell = self._cell
        cli.solve = self._solve

    def _captured_solve(self, *args, **kwargs):
        report = self._solve(*args, **kwargs)
        self._reports.append(report)
        return report

    def _timed_cell(self, payload):
        with self.tracer.span("op", op=(self._index, len(self._cells))):
            start = self.clock()
            row = self._cell(payload)
            seconds = self.clock() - start
        _, _, opt, eps, _ = payload[:5]
        self._cells.append((seconds, self._reports.pop(), opt, eps))
        return row

    def _check_cell(self, seconds, report, opt, eps) -> Op:
        found = check_report(report, self.direct[report.label])
        if [r.eps for r in report.per_eps] != [eps]:
            found.append(f"cell eps={eps} solved {len(report.per_eps)} eps")
        if report.best_value > opt or (eps == 0 and report.best_value != opt):
            found.append(f"eps={eps}: {report.best_value} against opt {opt}")
        return Op(seconds, report.best_value, report.best_value / opt, found)

    def run_pass(self, tracer, index: int, clock) -> Pass:
        self.tracer, self.clock = tracer, clock
        self._index, self._cells = index, []
        argv = ["sweep", *map(str, self.files),
                "--eps", ",".join(map(str, self.eps)),
                "--trials", str(self.trials), "--seed", str(self.seed),
                "--out", str(self.out)]
        with tracer.span("pass"):
            start = clock()
            try:
                code = cli.main(argv)
                found = [] if code == 0 else [f"sweep exited {code}"]
            except Exception:  # reported as failed cells, the run goes on
                found = _failure()
            seconds = clock() - start
        digest = None
        if not found:
            text = self.out.read_text()
            digest = hashlib.sha256(text.encode()).hexdigest()
            if len(text.splitlines()) != self.cells + 1:
                found.append("sweep table has the wrong number of rows")
        ops = [self._check_cell(*cell) for cell in self._cells]
        return Pass(seconds, ops, self.cells, digest, found)


WORKLOADS = {
    "cut-grid": CutGrid,
    "sat-grid": SatGrid,
    "sweep-bf": SweepBf,
    "card-grid": CardGrid,
}
