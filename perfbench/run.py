"""smoothip benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload cut-grid --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  The workload repeats its fixed work (a pass) until
``--seconds`` have passed, checks every output, and prints an environment
block, a summary and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones listed in BENCHMARK.json, measured with tracing
off.  With ``--trace 1`` half the time runs untraced and half traced, and
the metrics are the per-layer ones; the spans are written to
``perfbench/out/``.  The exit code is 0 when every check passed, 1 when
one failed and 2 when the program or an argument is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5  # set-up repetitions; setup_s is their median


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one set-up in a fresh interpreter, print it and the
    # speed factor measured right after it.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(name: str, seed: int, scratch: Path):
    """Import the program and build the workload's inputs; returns the
    workload and the seconds this took."""
    start = time.perf_counter()
    import workloads  # imported here so that set-up includes the import

    workload = workloads.WORKLOADS[name](seed, scratch)
    return workload, time.perf_counter() - start


def probe_setup(args) -> tuple:
    """(set-up seconds, speed factor) measured in a fresh interpreter,
    import included."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw, factor = done.stdout.split()[-2:]
    return float(raw), float(factor)


def run_passes(workload, tracer, seconds: float, first: int, after=None):
    """Repeat the workload's pass until ``seconds`` have elapsed (at least
    once); each pass gets the speed factor sampled while it ran."""
    passes, windows = [], []
    start = time.perf_counter()
    with speed.SpeedSampler() as sampler:
        while not passes or time.perf_counter() - start < seconds:
            lo = len(sampler.samples)
            passes.append(
                workload.run_pass(tracer, first + len(passes), sampler.clock)
            )
            windows.append((lo, len(sampler.samples)))
            if after is not None:
                after()
    for done, (lo, hi) in zip(passes, windows):
        done.scale = sampler.window_factor(lo, hi)
    return passes


# -- environment --------------------------------------------------------


def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "smoothip").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workers) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SMOOTHIP_WORKERS": workers,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- results ------------------------------------------------------------


def tally(passes, reference_digest):
    """(attempted, failed, problems): an op fails when it raised or failed
    a check; every op of a pass fails when the pass itself failed or its
    canonical output differs from the reference."""
    attempted = failed = 0
    problems = []
    for p in passes:
        found = list(p.problems)
        if not found and p.digest != reference_digest:
            found.append(f"digest {p.digest} != {reference_digest}")
        attempted += p.expected_ops
        if found:
            failed += p.expected_ops
            problems += found
            continue
        failed += p.expected_ops - len(p.ops)
        for op in p.ops:
            failed += bool(op.problems)
            problems += op.problems
    return attempted, failed, problems


def end_to_end(passes, setup_samples) -> dict:
    ops = [op for p in passes for op in p.ops]
    return {
        "setup_s": statistics.median(
            raw * factor for raw, factor in setup_samples
        ),
        "wall_s": statistics.median(p.seconds * p.scale for p in passes),
        "op_s.p50": statistics.median(
            op.seconds * p.scale for p in passes for op in p.ops
        ),
        "setup_s.raw": statistics.median(raw for raw, _ in setup_samples),
        "wall_s.raw": statistics.median(p.seconds for p in passes),
        "op_s.p50.raw": statistics.median(op.seconds for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "value_mean": float(statistics.mean(op.value for op in ops)),
        "ratio_mean": float(statistics.mean(op.ratio for op in ops)),
    }


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in spec()[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smoothip" / "__init__.py").is_file():
        print(f"error: no program at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workers = os.environ.pop("SMOOTHIP_WORKERS", None)  # run single-process
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload, first_setup = setup(args.workload, args.seed, Path(tmp))
        first_setup = (first_setup, speed.factor_now())
        if args.setup_probe:
            print(*first_setup)
            return 0
        try:
            return measure(args, workload, first_setup, workers)
        finally:
            workload.close()


def measure(args, workload, first_setup, workers) -> int:
    import smoothip
    from spans import NullTracer, Tracer

    if not Path(smoothip.__file__).resolve().is_relative_to(SRC):
        print(f"error: smoothip imported from {smoothip.__file__}",
              file=sys.stderr)
        return 2
    env = environment(workers)
    setup_samples = [first_setup]
    if args.trace:
        from layers import LayerStats

        untraced = run_passes(workload, NullTracer(), args.seconds / 2, 0)
        tracer, stats = Tracer(), LayerStats()
        stats.install(tracer)
        try:
            passes = run_passes(workload, tracer, args.seconds / 2,
                                len(untraced), after=stats.pass_done)
        finally:
            tracer.unwrap_all()
        metrics = stats.metrics(tracer)
        metrics["trace.wall_s"] = statistics.median(
            p.seconds * p.scale for p in passes
        )
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            p.seconds * p.scale for p in untraced
        )
        kind = "per_layer"
        all_passes = untraced + passes
    else:
        setup_samples += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        passes = all_passes = run_passes(workload, NullTracer(),
                                         args.seconds, 0)
        metrics = end_to_end(passes, setup_samples)
        kind = "end_to_end"

    digests = sorted({p.digest for p in all_passes if p.digest})
    reference = all_passes[0].digest
    attempted, failed, problems = tally(all_passes, reference)
    units = declared(kind)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    ops = [op.seconds for p in passes for op in p.ops]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "digests": digests,
        "pass_seconds": [p.seconds for p in all_passes],
        "pass_scales": [p.scale for p in all_passes],
        "passes": len(passes), "ops": len(ops),
        "failed_frac": failed / attempted,
        "setup_samples": setup_samples, "problems": problems[:50],
        "metrics": metrics, "result": result,
    }
    if args.trace:
        record["live_rows_by_eps"] = dict(sorted(stats.live_by_eps.items()))
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with open(f"{stem}-spans.jsonl", "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(all_passes)} "
          f"passes ({len(passes)} measured), {failed}/{attempted} ops failed "
          f"(failed_frac {failed / attempted})")
    for digest in digests:
        print(f"digest {args.workload}: {digest}")
    for line in problems[:10]:
        print(f"problem: {line}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]!r} {units.get(name, '')}".rstrip())
    if args.trace:
        layers = sorted(
            (value, name) for name, value in metrics.items()
            if name.endswith((".s", ".self_s")) and value > 0
        )
        print("layers by self time: " + ", ".join(
            f"{name} {value:.3f}" for value, name in reversed(layers)
        ))
    else:
        print(f"op_s.p50 over n={len(ops)} ops")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
