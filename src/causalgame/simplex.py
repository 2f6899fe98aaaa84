"""Dense phase-one simplex for small linear feasibility problems.

Decides whether A x = b has a solution with x >= 0 by minimizing the total
mass of artificial variables. Problem sizes here are tens of rows by a few
thousand columns, where a dense tableau is simple and fast. On infeasible
systems the simplex multipliers provide a Farkas certificate: a vector y
with y.A <= 0 componentwise and y.b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11
MAX_ITERS = 20000


@dataclass(frozen=True)
class FeasibilityResult:
    """Phase-one outcome.

    ``objective`` is the leftover artificial mass: zero (up to tolerance)
    exactly when the system is feasible. ``solution`` holds the feasible
    point when one exists, ``certificate`` the Farkas vector otherwise
    (both are always populated; interpret by the objective). ``converged``
    is False only if the iteration limit was hit.
    """

    objective: float
    solution: np.ndarray
    certificate: np.ndarray
    iterations: int
    converged: bool


def phase_one(a: np.ndarray, b: np.ndarray) -> FeasibilityResult:
    """Minimize the artificial mass of A x = b, x >= 0.

    Dantzig pricing with a switch to Bland's rule after a run of degenerate
    pivots, which guarantees termination, and a stop after MAX_ITERS
    pivots. Duals are recomputed from the inverse-basis block before
    answering, so the certificate does not inherit drift from incremental
    updates.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    m, n = a.shape

    signs = np.where(b < 0.0, -1.0, 1.0)
    a_work = a * signs[:, None]
    b_work = b * signs

    # Tableau [A | I | b] with the artificial block starting as the identity,
    # so columns n..n+m always hold the current basis inverse.
    tableau = np.hstack([a_work, np.eye(m), b_work[:, None]])
    basis = np.arange(n, n + m)
    costs = np.concatenate([np.zeros(n), np.ones(m)])
    reduced = costs - tableau[:, :-1].sum(axis=0)

    def current_objective() -> float:
        in_basis = basis >= n
        return float(tableau[in_basis, -1].sum())

    def fresh_duals() -> np.ndarray:
        weights = (basis >= n).astype(float)
        return weights @ tableau[:, n : n + m]

    def fresh_reduced(duals: np.ndarray) -> np.ndarray:
        return costs - np.concatenate([duals @ a_work, duals])

    bland = False
    stall = 0
    last_objective = np.inf
    iterations = 0
    converged = False

    while iterations < MAX_ITERS:
        candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if candidates.size == 0:
            duals = fresh_duals()
            reduced = fresh_reduced(duals)
            candidates = np.flatnonzero(reduced < -PIVOT_TOL)
            if candidates.size == 0:
                converged = True
                break
        if bland:
            order = candidates
        else:
            order = candidates[np.argsort(reduced[candidates])]

        pivot_col = -1
        pivot_row = -1
        for j in order:
            column = tableau[:, j]
            rows = np.flatnonzero(column > PIVOT_TOL)
            if rows.size == 0:
                continue
            ratios = tableau[rows, -1] / column[rows]
            best = ratios.min()
            ties = rows[np.flatnonzero(ratios <= best + 1e-15)]
            pivot_row = int(ties[np.argmin(basis[ties])])
            pivot_col = int(j)
            break
        if pivot_col < 0:
            break

        pivot_value = tableau[pivot_row, pivot_col]
        tableau[pivot_row] /= pivot_value
        column = tableau[:, pivot_col].copy()
        column[pivot_row] = 0.0
        tableau -= np.outer(column, tableau[pivot_row])
        reduced = reduced - reduced[pivot_col] * tableau[pivot_row, :-1]
        basis[pivot_row] = pivot_col
        iterations += 1

        objective = current_objective()
        if objective >= last_objective - 1e-15:
            stall += 1
            if stall >= 60:
                bland = True
        else:
            stall = 0
        last_objective = objective

    duals = fresh_duals()
    objective = current_objective()
    solution = np.zeros(n + m)
    solution[basis] = tableau[:, -1]
    return FeasibilityResult(
        objective=objective,
        solution=solution[:n],
        certificate=signs * duals,
        iterations=iterations,
        converged=converged,
    )
