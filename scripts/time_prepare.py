"""Time the per-instance and the per-prediction set-up: the best of 7
runs of ``prepare``, and of one prediction's assembly, per instance.

``prepare`` normalizes an instance, builds its score tables and
relaxation plans, reads its smoothness certificate and rounds its
baseline.  The benchmark's traced run does not see it, so its cost
shows here.  Assembly is what a solve does around the alternating
prediction before its simplex runs: ``prepare_relaxation`` and
``Relaxation.lp()``, and, for every budget of the full grid below the
saturation budget, ``windows(eps)`` and the work ``PreparedLp.solve``
does before it builds its ``_Simplex`` (the check of the windows, the
presolve and the slack bounds).  The instances:

- the three grid workloads' instances at seed 7, built the way
  ``perfbench/workloads.py`` builds them: MAX-CUT of G(60, 0.3)
  (cut-grid), MAX-3-SAT with n = 36 and m = 144 (sat-grid) and MAX-CUT
  of G(40, 0.3) under sum x <= 10 (card-grid);
- MAX-CUT of G(600, 0.1) at seed 3;
- MAX-3-SAT with n = 300 and m = 1200 at seed 1.

Not a check: it always exits 0.

    python scripts/time_prepare.py
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from smoothip import lpsolve  # noqa: E402
from smoothip.pipeline import Instance, prepare  # noqa: E402
from smoothip.poly import Polynomial  # noqa: E402
from smoothip.problems import (  # noqa: E402
    gen_gnp,
    gen_ksat,
    maxcut_objective,
    maxksat_objective,
)
from smoothip.relax import prepare_relaxation  # noqa: E402

REPEATS = 7
SEED = 7


def instances():
    yield "cut-grid", Instance(maxcut_objective(gen_gnp(60, 0.3, SEED)))
    yield "sat-grid", Instance(maxksat_objective(gen_ksat(36, 144, 3, SEED)))
    card = Polynomial(40, {(j,): 1 for j in range(40)})
    yield "card-grid", Instance(
        maxcut_objective(gen_gnp(40, 0.3, SEED)),
        ((card, None, Fraction(10)),),
    )
    yield "G(600, 0.1)", Instance(maxcut_objective(gen_gnp(600, 0.1, 3)))
    yield "3-SAT n=300 m=1200", Instance(
        maxksat_objective(gen_ksat(300, 1200, 3, 1))
    )


class _Built(Exception):
    """Raised where a solve would build its simplex."""


def _stop(*args):
    raise _Built


def assemble(prepared) -> None:
    """One prediction's assembly, the alternating prediction's."""
    n = prepared.plan.n
    relaxation = prepare_relaxation(
        prepared.plan, tuple(i % 2 for i in range(n)), prepared.beta,
        prepared.constraint_plans,
    )
    saturation = relaxation.saturation_budget(range(n + 1))
    lp = relaxation.lp()
    for eps in range(n + 1 if saturation is None else saturation):
        try:
            lp.solve(relaxation.windows(eps))
        except _Built:
            pass


def best_time(work, *args) -> float:
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        work(*args)
        times.append(time.perf_counter() - started)
    return min(times)


def main() -> None:
    print(f"{f'best of {REPEATS}, ms':<20} {'prepare':>9}  {'assembly':>9}")
    simplex = lpsolve._Simplex
    lpsolve._Simplex = _stop
    try:
        for name, instance in instances():
            prepared = prepare(instance)
            print(
                f"{name:<20} {best_time(prepare, instance) * 1e3:9.3f}"
                f"  {best_time(assemble, prepared) * 1e3:9.3f}"
            )
    finally:
        lpsolve._Simplex = simplex


if __name__ == "__main__":
    main()
