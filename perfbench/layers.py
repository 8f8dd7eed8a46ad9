"""Which program names the traced run wraps, and the per-layer metrics.

Each entry wraps the module attribute through which one layer is called:
``pipeline`` calls decompose, the relaxation builders, the LP, rounding and
evaluate; ``relax`` calls decompose and evaluate while building rows;
``cli`` calls loading, brute force, the floor and the solve of a sweep
cell.  The same function reached through two modules is traced under two
names (``poly.evaluate.in_relax`` and ``poly.evaluate.in_pipeline``), so
that each call site's share shows.
"""

from __future__ import annotations

from fractions import Fraction

from smoothip import cli, pipeline, relax
from smoothip.lpsolve import OPTIMAL

WRAPPED = (
    (pipeline, "decompose", "poly.decompose"),
    (relax, "decompose", "poly.decompose"),
    (relax, "evaluate", "poly.evaluate.in_relax"),
    (pipeline, "evaluate", "poly.evaluate.in_pipeline"),
    (pipeline, "build_relaxation", "relax.build"),
    (pipeline, "build_constrained_relaxation", "relax.build"),
    (pipeline, "lp_solve", "lpsolve"),
    (pipeline, "greedy_round", "rounding.greedy"),
    (pipeline, "randomized_round", "rounding.randomized"),
    (cli, "load_instance", "cli.load_instance"),
    (cli, "exact_solve", "pipeline.exact_solve"),
    (cli, "guarantee_bound", "pipeline.guarantee_bound"),
    (cli, "solve", "pipeline.solve"),
)

# Spans the benchmark itself opens around its unit of work.
BENCH_SPANS = ("pass", "op")


def live_rows(model) -> int:
    """Rows whose activity range over the variable box is not inside
    [lo, hi], in exact arithmetic; the other rows cannot cut the box."""
    live = 0
    for coeffs, lo, hi in model.rows:
        low = high = Fraction(0)
        for c, (var_lo, var_hi) in zip(coeffs, model.var_bounds):
            if c > 0:
                low += c * var_lo
                high += c * var_hi
            elif c < 0:
                low += c * var_hi
                high += c * var_lo
        if (lo is not None and low < lo) or (hi is not None and high > hi):
            live += 1
    return live


class LayerStats:
    """Counts observed at the wrapped names, beside the tracer's spans."""

    def __init__(self):
        self.passes = 0
        self.tree_nodes = 0
        self.rows = 0
        self.rows_live = 0
        self.lp_iterations = 0
        self.lp_not_optimal = 0
        self.live_by_eps: dict = {}
        self._models: list = []

    def install(self, tracer) -> None:
        observers = {
            "poly.decompose": self._saw_tree,
            "relax.build": self._saw_model,
            "lpsolve": self._saw_lp,
        }
        for module, attr, name in WRAPPED:
            tracer.wrap(module, attr, name, observers.get(name))

    def _saw_tree(self, args, tree) -> None:
        self.tree_nodes = max(self.tree_nodes, len(tree.nodes))

    def _saw_model(self, args, model) -> None:
        self._models.append((args[2], model))  # (eps, LpModel)

    def _saw_lp(self, args, solution) -> None:
        self.lp_iterations += solution.iterations
        self.lp_not_optimal += solution.status != OPTIMAL

    def pass_done(self) -> None:
        """Analyse the pass's models after its timing has ended."""
        self.passes += 1
        for eps, model in self._models:
            live = live_rows(model)
            self.rows += len(model.rows)
            self.rows_live += live
            self.live_by_eps[eps] = max(self.live_by_eps.get(eps, 0), live)
        self._models.clear()

    def saturation_eps(self) -> int:
        """Smallest traced eps from which no LP has a live row; one past
        the largest eps if the last one still has live rows."""
        saturated = max(self.live_by_eps, default=-1) + 1
        for eps in sorted(self.live_by_eps, reverse=True):
            if self.live_by_eps[eps]:
                break
            saturated = eps
        return saturated

    def metrics(self, tracer) -> dict:
        """Per-pass means of every layer's calls and self seconds, plus
        the counts above."""
        per = 1.0 / self.passes
        times = tracer.self_times()
        out = {}
        for name in dict.fromkeys(name for _, _, name in WRAPPED):
            calls, seconds = times.get(name, (0, 0.0))
            suffix = "self_s" if name == "pipeline.solve" else "s"
            out[f"{name}.calls"] = calls * per
            out[f"{name}.{suffix}"] = seconds * per
        lp_calls = times.get("lpsolve", (0, 0.0))[0]
        out["lpsolve.iters"] = self.lp_iterations * per
        out["lpsolve.not_optimal"] = self.lp_not_optimal * per
        out["lpsolve.s_per_call"] = (
            times["lpsolve"][1] / lp_calls if lp_calls else 0.0
        )
        out["poly.tree_nodes"] = self.tree_nodes
        out["relax.rows"] = self.rows * per
        out["relax.rows_live"] = self.rows_live * per
        out["relax.live_frac"] = (
            self.rows_live / self.rows if self.rows else 0.0
        )
        out["relax.saturation_eps"] = self.saturation_eps()
        pass_total = sum(
            span[2] - span[1] for span in tracer.spans if span[0] == "pass"
        )
        bench_self = sum(times.get(name, (0, 0.0))[1] for name in BENCH_SPANS)
        out["trace.accounted_frac"] = 1.0 - bench_self / pass_total
        out["trace.spans"] = len(tracer.spans) * per
        return out
