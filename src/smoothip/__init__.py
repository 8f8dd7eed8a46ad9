"""Prediction-guided solver for smooth Boolean polynomial integer programs.

The toolkit maximizes a degree-d polynomial with beta-smooth coefficients
over {0,1}^n by linearizing the objective around an oracle prediction,
solving an LP relaxation for every candidate prediction error, rounding the
fractional optima, and returning the best integral solution found.  Problem
encoders for MAX-CUT, MAX-k-SAT, and MAX-k-CSP are included, along with the
theoretical bound calculators matching each stage.
"""

__version__ = "0.1.0"

from .pipeline import (
    Instance,
    PreparedInstance,
    SolveConfig,
    SolveReport,
    exact_solve,
    guarantee_bound,
    guarantee_floor,
    prepare,
    solve,
    solve_constrained,
)
from .poly import Polynomial, evaluate, min_smoothness
from .relax import ConstrainedProgram, gap_bound
from .rounding import greedy_round, randomized_round, rounding_error_bound

__all__ = [
    "ConstrainedProgram",
    "Instance",
    "Polynomial",
    "PreparedInstance",
    "SolveConfig",
    "SolveReport",
    "evaluate",
    "exact_solve",
    "gap_bound",
    "greedy_round",
    "guarantee_bound",
    "guarantee_floor",
    "min_smoothness",
    "prepare",
    "randomized_round",
    "rounding_error_bound",
    "solve",
    "solve_constrained",
]
