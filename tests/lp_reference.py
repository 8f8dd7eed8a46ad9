"""Independent dense-tableau simplex used to cross-check the embedded solver.

Textbook standard-form recipe: shift variables to start at zero, expand
two-sided rows into inequality pairs, add slacks and artificials, and run
two phases of the classic tableau algorithm with Bland's rule throughout.
Deliberately structured nothing like the package's revised bounded-variable
solver, so agreement between the two is meaningful evidence.
"""

from dataclasses import dataclass

import numpy as np

_EPS = 1e-9
_PIVOT = 1e-10


@dataclass
class RefSolution:
    status: str
    y: tuple
    objective_value: float | None


def reference_solve(model) -> RefSolution:
    n = model.num_vars
    lo = [float(l) for l, _ in model.var_bounds]
    span = [float(h) - float(l) for l, h in model.var_bounds]
    sense = 1.0  # LpModel always maximizes

    # Inequality rows over the shifted variables u = x - lo, all "<= rhs".
    ineqs: list[tuple[list[float], float]] = []
    for j in range(n):
        unit = [0.0] * n
        unit[j] = 1.0
        ineqs.append((unit, span[j]))
    for coeffs, rlo, rhi in model.rows:
        a = [float(c) for c in coeffs]
        base = sum(ai * li for ai, li in zip(a, lo))
        if rhi is not None:
            ineqs.append((a[:], float(rhi) - base))
        if rlo is not None:
            ineqs.append(([-ai for ai in a], base - float(rlo)))

    m = len(ineqs)
    total = n + m + sum(1 for _, rhs in ineqs if rhs < 0)
    T = np.zeros((m, total + 1))
    basis = [0] * m
    art_cols = []
    next_art = n + m
    for i, (a, rhs) in enumerate(ineqs):
        if rhs < 0:
            T[i, :n] = [-v for v in a]
            T[i, n + i] = -1.0
            T[i, next_art] = 1.0
            T[i, -1] = -rhs
            basis[i] = next_art
            art_cols.append(next_art)
            next_art += 1
        else:
            T[i, :n] = a
            T[i, n + i] = 1.0
            T[i, -1] = rhs
            basis[i] = n + i

    def pivot(row: int, col: int) -> None:
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T[:] -= np.outer(factors, T[row])
        basis[row] = col

    def run(cost: np.ndarray, allowed: int) -> str:
        # Minimize cost . vars by Bland's rule over columns [0, allowed).
        for _ in range(20000):
            reduced = cost[:allowed] - cost[basis] @ T[:, :allowed]
            entering = next(
                (j for j in range(allowed) if reduced[j] < -_EPS), None
            )
            if entering is None:
                return "optimal"
            col = T[:, entering]
            best = None
            for i in range(m):
                if col[i] > _PIVOT:
                    ratio = T[i, -1] / col[i]
                    if (
                        best is None
                        or ratio < best[0] - _EPS
                        or (ratio < best[0] + _EPS and basis[i] < basis[best[1]])
                    ):
                        best = (ratio, i)
            if best is None:
                return "unbounded"
            pivot(best[1], entering)
        return "numerical-failure"

    if art_cols:
        phase1 = np.zeros(total)
        phase1[art_cols] = 1.0
        status = run(phase1, total)
        if status != "optimal":
            return RefSolution("numerical-failure", tuple(lo), None)
        infeas = sum(T[i, -1] for i in range(m) if basis[i] in art_cols)
        if infeas > 1e-7:
            return RefSolution("infeasible", tuple(lo), None)
        # Pivot basic artificials out where possible; a row with no usable
        # pivot is redundant and its artificial stays basic at zero, which
        # is harmless because phase 2 never lets artificials re-enter.
        for i in range(m):
            if basis[i] in art_cols:
                usable = next(
                    (j for j in range(n + m) if abs(T[i, j]) > 1e-7), None
                )
                if usable is not None:
                    pivot(i, usable)

    cost2 = np.zeros(total)
    cost2[:n] = [-sense * float(c) for c in model.objective]
    status = run(cost2, n + m)
    if status != "optimal":
        return RefSolution(status, tuple(lo), None)

    u = np.zeros(total)
    for i in range(m):
        u[basis[i]] = T[i, -1]
    y = tuple(
        min(max(lo[j] + u[j], lo[j]), lo[j] + span[j]) for j in range(n)
    )
    value = sum(float(c) * yj for c, yj in zip(model.objective, y)) + float(
        model.offset
    )
    return RefSolution("optimal", y, value)
