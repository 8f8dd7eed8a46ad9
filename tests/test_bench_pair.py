"""scripts/bench_pair.py's summary of a paired record, on a record built
in memory."""

import importlib.util
import statistics
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower"}]}


def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(wall_s) -> dict:
    return {"result": {"metrics": {"wall_s": {"value": wall_s}}}}


def test_the_summary_keeps_each_seed_apart():
    """Seed 11 runs near 16 ms and seed 47 near 12 ms, and the change's
    median is the lower at both.  Pooled, the change's median would read
    the slower (14.25 against 14.2 ms) and the parent's quartiles would
    span both seeds; per seed, each median, quartile and pair count is
    the seed's own."""
    walls = {
        11: [(16.4, 15.9), (16.6, 16.0), (16.5, 16.1), (16.0, 16.2)],
        47: [(12.4, 12.0), (12.3, 11.9), (12.2, 12.1), (12.1, 12.6)],
    }
    runs = [
        {"workload": "cut-grid", "seed": seed, "pair": k,
         "parent": side(parent), "change": side(change)}
        for seed, pairs in walls.items()
        for k, (parent, change) in enumerate(pairs)
    ]
    pooled = [wall for pairs in walls.values() for wall in pairs]
    assert statistics.median(b for _, b in pooled) > statistics.median(
        a for a, _ in pooled
    )
    summary = bench_pair().summarize(runs, SPEC)
    assert list(summary) == ["cut-grid"]
    assert list(summary["cut-grid"]) == ["11", "47"]
    for seed, pairs in walls.items():
        table = summary["cut-grid"][str(seed)]["wall_s"]
        parent = [a for a, _ in pairs]
        change = [b for _, b in pairs]
        quartiles = statistics.quantiles(parent, n=4)
        assert table == {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "relative": statistics.median(change)
            / statistics.median(parent) - 1.0,
            "parent_quartiles": [quartiles[0], quartiles[2]],
            "change_better_pairs": 3,
            "pairs": 4,
        }
        assert table["change_median"] < table["parent_median"]
