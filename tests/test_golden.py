"""Golden corpus: the timing-free reports of seven small seeded solves.

The files under ``golden/`` hold ``report_json`` without ``wall_ms``, one
per instance below.  A change that is meant to keep behaviour must
reproduce them field for field; only ``lp_value``, a float sum that another
BLAS build may round differently, is compared to a relative 1e-9.  After a
change that is meant to alter reports, regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import random
from pathlib import Path

from helpers import alternating, at_most, random_bool_vector
from smoothip.pipeline import Instance, SolveConfig, report_json, solve
from smoothip.problems import (
    gen_gnp,
    gen_kcsp,
    gen_ksat,
    maxcut_objective,
    maxkcsp_objective,
    maxksat_objective,
)

GOLDEN = Path(__file__).parent / "golden"


def corpus() -> dict:
    """name -> (instance, prediction, config)."""
    return {
        "maxcut": (
            Instance(maxcut_objective(gen_gnp(24, 0.6, 1)), label="maxcut"),
            random_bool_vector(random.Random(1), 24),
            SolveConfig(),
        ),
        "max3sat": (
            Instance(maxksat_objective(gen_ksat(12, 48, 3, 2)), label="max3sat"),
            random_bool_vector(random.Random(2), 12),
            SolveConfig(),
        ),
        "max3csp": (
            Instance(maxkcsp_objective(gen_kcsp(10, 24, 3, 3)), label="max3csp"),
            random_bool_vector(random.Random(3), 10),
            SolveConfig(),
        ),
        # The prediction sets 7 > 4, so the low budgets start cold.
        "cardinality": (
            Instance(
                maxcut_objective(gen_gnp(14, 0.4, 4)), (at_most(14, 4),),
                label="cardinality",
            ),
            alternating(14),
            SolveConfig(),
        ),
        "randomized": (
            Instance(maxcut_objective(gen_gnp(16, 0.6, 5)), label="randomized"),
            random_bool_vector(random.Random(5), 16),
            SolveConfig(strategy="randomized", seed=5, randomized_rounds=4),
        ),
        # The eps=0 optimum has a coordinate at 1/2 and two a float ulp
        # off 0 and 1, so its 16 rounds give two points; from eps=1 on the
        # optimum is Boolean.
        "randomized-max3sat": (
            Instance(
                maxksat_objective(gen_ksat(14, 56, 3, 2)),
                label="randomized-max3sat",
            ),
            alternating(14),
            SolveConfig(strategy="randomized", seed=7, randomized_rounds=16),
        ),
        # One 3-clause on 3 variables, n <= d: brute force, no relaxation.
        "n-at-most-degree": (
            Instance(maxksat_objective(gen_ksat(3, 1, 3, 6)), label="tiny"),
            (0, 1, 0),
            SolveConfig(),
        ),
    }


def timing_free(report) -> dict:
    payload = json.loads(report_json(report))
    for record in payload["per_eps"]:
        del record["wall_ms"]
    return payload


def assert_same(actual, expected, where: str) -> None:
    assert type(actual) is type(expected), where
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert where.endswith(".lp_value"), where
        assert math.isclose(actual, expected, rel_tol=1e-9), where
    else:
        assert actual == expected, where


def test_reports_match_the_golden_corpus():
    for name, (instance, xhat, config) in corpus().items():
        expected = json.loads((GOLDEN / f"{name}.json").read_text())
        assert_same(timing_free(solve(instance, xhat, config)), expected, name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (instance, xhat, config) in corpus().items():
        payload = timing_free(solve(instance, xhat, config))
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        (GOLDEN / f"{name}.json").write_text(text)
