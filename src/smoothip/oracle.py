"""Prediction sources: exact optima, controlled noise, files, and
empirical-risk selection over a finite candidate family.

A prediction is a plain tuple of 0s and 1s.  Candidates for selection
are callables from a prepared instance to such a vector; selection
prepares every training instance once, runs the pipeline on it for
every candidate's prediction and keeps the candidate with the smallest
mean cost, where the cost of achieving value v on an instance with
ceiling h is h - v.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from .pipeline import (
    Instance,
    PreparedInstance,
    SolveConfig,
    exact_solve,
    prepare,
    solve,
)
from .relax import prediction_point


@dataclass(frozen=True)
class ErmProblem:
    """Finite candidate family plus training instances.

    Each candidate maps a prepared training instance to a prediction.
    Every training instance must carry a cost ceiling h at least its
    maximum achievable objective, so costs stay in [0, h].
    """

    candidates: tuple
    training: tuple

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("need at least one candidate")
        if not self.training:
            raise ValueError("need at least one training instance")
        for instance in self.training:
            if instance.h is None:
                raise ValueError(
                    f"training instance {instance.label!r} has no cost ceiling"
                )


def exact_prediction(instance: Instance | PreparedInstance) -> tuple:
    """The canonical optimum itself (lexicographically smallest), as a
    0/1 tuple; a prepared instance is not normalized again."""
    z, _ = exact_solve(instance)
    return z


def perturb(x_star, eps: int, seed: int) -> tuple:
    """Flip exactly eps coordinates, chosen uniformly by the seed.

    The result is a 0/1 tuple at Hamming distance eps from the input.
    """
    base = list(prediction_point(x_star))
    if not 0 <= eps <= len(base):
        raise ValueError(f"flip count {eps} outside [0, {len(base)}]")
    rng = random.Random(seed)
    for i in rng.sample(range(len(base)), eps):
        base[i] = 1 - base[i]
    return tuple(base)


def erm_select(
    prob: ErmProblem, config: SolveConfig = SolveConfig()
) -> tuple[int, Fraction]:
    """Pick the candidate with the smallest mean cost over the training
    set; ties go to the lowest index.  Each training instance is prepared
    once, and every candidate is called and solved on the prepared one."""
    prepared = [prepare(instance) for instance in prob.training]
    best_id, best_cost = None, None
    for i, candidate in enumerate(prob.candidates):
        total = Fraction(0)
        for instance, ready in zip(prob.training, prepared):
            report = solve(ready, candidate(ready), config)
            total += Fraction(instance.h) - report.best_value
        cost = total / len(prob.training)
        if best_cost is None or cost < best_cost:
            best_id, best_cost = i, cost
    return best_id, best_cost


# -- files --------------------------------------------------------------


def write_prediction(path, prediction) -> None:
    Path(path).write_text(
        "".join(str(v) for v in prediction_point(prediction)) + "\n"
    )


def read_prediction(path) -> tuple:
    text = Path(path).read_text().strip()
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"prediction file {path} is not a 0/1 line")
    return tuple(int(ch) for ch in text)

