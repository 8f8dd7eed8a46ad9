from fractions import Fraction

import pytest

from smoothip.oracle import (
    ErmProblem,
    erm_select,
    exact_prediction,
    perturb,
    read_prediction,
    write_prediction,
)
from smoothip import pipeline
from smoothip.pipeline import Instance, SolveConfig, exact_solve, solve
from smoothip.poly import Polynomial
from smoothip.problems import Graph, maxcut_objective


def clique_instance(n: int, label: str = "") -> Instance:
    # All pairwise products: unique optimum all-ones, value n(n-1)/2.
    p = Polynomial(
        n, {(i, j): 1 for i in range(n) for j in range(i + 1, n)}
    )
    return Instance(p, h=Fraction(n * (n - 1), 2), label=label)


def complement(instance):
    star, _ = exact_solve(instance)
    return tuple(1 - v for v in star)


# Selection that actually discriminates: single-point grid, no baseline.
STRICT = SolveConfig(grid=(0,), include_baseline_candidate=False)


# -- predictions --------------------------------------------------------


def test_prediction_validation():
    assert perturb((1, 0, True), 0, 0) == (1, 0, 1)
    with pytest.raises(ValueError):
        perturb((0, 2), 0, 0)


def test_exact_prediction_is_the_canonical_optimum():
    inst = Instance(maxcut_objective(Graph(3, ((0, 1), (0, 2), (1, 2)))))
    assert exact_prediction(inst) == (0, 0, 1)


def test_perturb_identity_and_complement():
    base = (1, 0, 1, 1, 0)
    assert perturb(base, 0, 3) == base
    assert perturb(base, 5, 3) == (0, 1, 0, 0, 1)


def test_perturb_flips_exactly_eps():
    base = (0,) * 10
    for seed in range(30):
        assert sum(perturb(base, 3, seed)) == 3
    assert perturb(base, 3, 7) == perturb(base, 3, 7)


def test_perturb_range_check():
    with pytest.raises(ValueError):
        perturb((0, 1), 3, 0)
    with pytest.raises(ValueError):
        perturb((0, 1), -1, 0)


@pytest.mark.parametrize(
    "entry", (0.5, 1.7, -0.4, "1", "0", Fraction(1, 2), 2), ids=repr
)
def test_non_boolean_entries_are_rejected_not_truncated(entry):
    for eps in (0, 1):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            perturb((1, entry, 0), eps, 0)


def test_boolean_entries_of_any_type_become_ints():
    import numpy as np

    for spelling in (
        (1.0, 0.0, True),
        np.array([1, 0, 1], dtype=np.int64),
        (Fraction(1), np.uint8(0), 1),
    ):
        assert perturb(spelling, 0, 0) == (1, 0, 1)
        assert all(type(v) is int for v in perturb(spelling, 0, 0))


# -- empirical risk selection -------------------------------------------


def test_erm_prefers_the_exact_oracle():
    training = (clique_instance(5, "a"), clique_instance(6, "b"))
    prob = ErmProblem((exact_prediction, complement), training)
    chosen, cost = erm_select(prob, STRICT)
    assert chosen == 0
    assert cost == 0  # ceilings equal the optima here


def test_erm_single_candidate_cost():
    inst = clique_instance(5)
    prob = ErmProblem((complement,), (inst,))
    chosen, cost = erm_select(prob, STRICT)
    achieved = solve(inst, complement(inst), STRICT).best_value
    assert chosen == 0
    assert cost == Fraction(inst.h) - achieved
    assert cost + achieved == inst.h  # duality


def test_erm_tie_goes_to_lowest_id():
    prob = ErmProblem(
        (exact_prediction, exact_prediction), (clique_instance(4),)
    )
    assert erm_select(prob, STRICT)[0] == 0


def test_erm_prepares_each_training_instance_once(monkeypatch):
    """One plan and one normalization per training instance: every
    candidate is called on the prepared instance."""
    plans, normalized = [], []
    plan, normalize = pipeline.RelaxationPlan, pipeline._normalized

    def counted(table):
        plans.append(table)
        return plan(table)

    def counted_normalize(*args):
        normalized.append(args)
        return normalize(*args)

    monkeypatch.setattr(pipeline, "RelaxationPlan", counted)
    monkeypatch.setattr(pipeline, "_normalized", counted_normalize)
    training = (clique_instance(5, "a"), clique_instance(6, "b"))
    candidates = (complement, exact_prediction, complement)
    chosen, cost = erm_select(ErmProblem(candidates, training), STRICT)
    assert [table.n for table in plans] == [5, 6]
    assert len(normalized) == 2
    # The same selection as solving each pair from scratch.
    costs = [
        sum(
            Fraction(inst.h) - solve(inst, candidate(inst), STRICT).best_value
            for inst in training
        ) / 2
        for candidate in candidates
    ]
    assert (chosen, cost) == (costs.index(min(costs)), min(costs))


def test_erm_validation():
    inst = clique_instance(4)
    with pytest.raises(ValueError):
        ErmProblem((), (inst,))
    with pytest.raises(ValueError):
        ErmProblem((exact_prediction,), ())
    with pytest.raises(ValueError):
        ErmProblem((exact_prediction,), (Instance(inst.objective),))


# -- files --------------------------------------------------------------


def test_prediction_file_round_trip(tmp_path):
    path = tmp_path / "pred.txt"
    write_prediction(path, (1, 0, 1))
    assert read_prediction(path) == (1, 0, 1)


def test_prediction_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("01x\n")
    with pytest.raises(ValueError):
        read_prediction(path)
    path.write_text("\n")
    with pytest.raises(ValueError):
        read_prediction(path)

