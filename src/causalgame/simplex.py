"""Revised phase-one simplex for small linear feasibility problems.

Decides whether A x = b has a solution with x >= 0 by minimizing the total
mass of artificial variables, starting from the slack basis wherever A
has unit columns. The solver carries only the m x m basis inverse and the
basic solution (Dantzig and Orchard-Hays' basis-inverse form), so a pivot
costs one pricing product with A plus O(m^2). On infeasible systems the
simplex multipliers provide a Farkas certificate: a vector y with
y.A <= 0 componentwise and y.b > 0.
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

    Artificial column i is sign(b_i) e_i, so the starting basis inverse is
    diag(sign(b)) and ``a`` is read as given, never copied or sign-flipped.
    Where row i has b_i >= 0 and ``a`` has a unit column e_i, the first
    such column starts basic in place of artificial i (the textbook slack
    basis), which leaves that inverse unchanged.
    Every pivot prices with duals c_B B^-1 computed afresh, and the last
    of them, in the caller's row signs, is the certificate. Dantzig pricing
    with a switch to Bland's rule after a run of degenerate pivots, which
    guarantees termination, and a stop after MAX_ITERS pivots. Non-finite
    entries in ``a`` or ``b`` raise ``ValueError``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    for name, values in (("a", a), ("b", b)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} has non-finite entries")
    m, n = a.shape

    signs = np.where(b < 0.0, -1.0, 1.0)
    inverse = np.diag(signs)
    x_basic = b * signs
    basis = np.arange(n, n + m)
    nonzero = a != 0.0
    rows = nonzero.argmax(axis=0)  # each column's first nonzero row
    unit = (nonzero.sum(axis=0) == 1) & (a[rows, np.arange(n)] == 1.0) & (b[rows] >= 0.0)
    taken, first = np.unique(rows[unit], return_index=True)
    basis[taken] = np.flatnonzero(unit)[first]

    bland = False
    stall = 0
    last_objective = np.inf
    iterations = 0
    converged = False

    while True:
        artificial = basis >= n
        duals = artificial @ inverse
        reduced = np.concatenate([-(duals @ a), 1.0 - duals * signs])
        candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if candidates.size == 0:
            converged = True
            break
        if iterations >= MAX_ITERS:
            break
        if bland:
            order = candidates
        else:
            order = candidates[np.argsort(reduced[candidates])]

        pivot_row = -1
        for j in order:
            if j < n:
                column = inverse @ a[:, j]
            else:
                column = inverse[:, j - n] * signs[j - n]
            rows = np.flatnonzero(column > PIVOT_TOL)
            if rows.size == 0:
                continue
            ratios = x_basic[rows] / column[rows]
            best = ratios.min()
            ties = rows[np.flatnonzero(ratios <= best + 1e-15)]
            pivot_row = int(ties[np.argmin(basis[ties])])
            break
        if pivot_row < 0:
            break

        inverse[pivot_row] /= column[pivot_row]
        x_basic[pivot_row] /= column[pivot_row]
        column[pivot_row] = 0.0
        inverse -= np.outer(column, inverse[pivot_row])
        x_basic -= column * x_basic[pivot_row]
        basis[pivot_row] = j
        iterations += 1

        objective = x_basic[basis >= n].sum()
        if objective >= last_objective - 1e-15:
            stall += 1
            if stall >= 60:
                bland = True
        else:
            stall = 0
        last_objective = objective

    solution = np.zeros(n + m)
    solution[basis] = x_basic
    return FeasibilityResult(
        objective=float(x_basic[artificial].sum()),
        solution=solution[:n],
        certificate=duals,
        iterations=iterations,
        converged=converged,
    )
