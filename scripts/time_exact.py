"""Time the brute force: the best of 7 ``exact_solve`` runs per instance.

Each instance is prepared once, outside the clock, so the times are the
brute force's alone.  The instances, all generated at seed 7:

- MAX-CUT of G(n, 0.5) at n = 12, 16, 18, 20, 22 and 24;
- MAX-3-SAT with n = 22 and m = 88, the benchmark's sweep formula;
- MAX-CUT of G(16, 0.5) with every coefficient times 2^70, which puts
  the value tiles on Python ints (the object dtype).

Not a check: it always exits 0.

    python scripts/time_exact.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from smoothip.pipeline import Instance, exact_solve, prepare  # noqa: E402
from smoothip.poly import Polynomial  # noqa: E402
from smoothip.problems import (  # noqa: E402
    gen_gnp,
    gen_ksat,
    maxcut_objective,
    maxksat_objective,
)

REPEATS = 7
SEED = 7


def instances():
    for n in (12, 16, 18, 20, 22, 24):
        yield f"G({n}, 0.5)", maxcut_objective(gen_gnp(n, 0.5, SEED))
    yield "3-SAT n=22 m=88", maxksat_objective(gen_ksat(22, 88, 3, SEED))
    cut = maxcut_objective(gen_gnp(16, 0.5, SEED))
    yield "G(16, 0.5) * 2^70", Polynomial(
        16, {m: c * 2**70 for m, c in cut.coeffs.items()}
    )


def best_time(prepared) -> float:
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        exact_solve(prepared)
        times.append(time.perf_counter() - started)
    return min(times)


def main() -> None:
    print(f"exact_solve, best of {REPEATS}, ms")
    for name, objective in instances():
        prepared = prepare(Instance(objective))
        print(f"{name:<20} {best_time(prepared) * 1e3:9.3f}")


if __name__ == "__main__":
    main()
