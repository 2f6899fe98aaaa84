"""Revised phase-one simplex for small linear feasibility problems.

Decides whether A x = b has a solution with x >= 0 by minimizing the total
mass of artificial variables, starting from the slack basis wherever A
has unit columns. The solver carries only the m x m basis inverse and the
basic solution (Dantzig and Orchard-Hays' basis-inverse form), so a pivot
costs one pricing product with A plus O(m^2): the products run in numpy,
the ratio test and the bookkeeping on Python floats, whose IEEE division
and comparison give the same bits without a numpy call per m-vector.
Pricing is Dantzig's rule, the column of most negative reduced cost
entering and ties going to the lowest index, so the choice among exactly
tied columns does not depend on numpy's sort dispatch. On infeasible
systems the simplex multipliers provide a Farkas certificate: a vector y
with y.A <= 0 componentwise and y.b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11
MAX_ITERS = 20000
STALL_PIVOTS = 60  # degenerate pivots in a row before Bland's rule takes over


@dataclass(frozen=True)
class FeasibilityResult:
    """Phase-one outcome.

    ``objective`` is the leftover artificial mass: zero (up to tolerance)
    exactly when the system is feasible. ``solution`` holds the feasible
    point when one exists, ``certificate`` the Farkas vector otherwise
    (both are always populated; interpret by the objective). ``converged``
    is False only if the iteration limit was hit, ``bland`` True if Bland's rule took over.
    """

    objective: float
    solution: np.ndarray
    certificate: np.ndarray
    iterations: int
    converged: bool
    bland: bool = False


def _ratios(column: np.ndarray, x_basic: np.ndarray) -> dict[int, float]:
    """The ratio test's x_B[i] / column[i] by row i where column[i] > PIVOT_TOL, in Python floats."""
    return {i: x / c for i, (c, x) in enumerate(zip(column.tolist(), x_basic.tolist())) if c > PIVOT_TOL}


def phase_one(a: np.ndarray, b: np.ndarray) -> FeasibilityResult:
    """Minimize the artificial mass of A x = b, x >= 0.

    Artificial column i is sign(b_i) e_i, so the starting basis inverse is
    diag(sign(b)) and ``a`` is read as given, never copied or sign-flipped.
    Where row i has b_i >= 0 and ``a`` has a unit column e_i, the first
    such column starts basic in place of artificial i (the textbook slack
    basis), which leaves that inverse unchanged.
    Only the columns of ``a`` are priced: an artificial that leaves the
    basis never returns, and the certificate's y.A <= 0 needs only the
    reduced costs of ``a``. B^-1 and x_B are kept side by side as one
    m x (m + 1) array, so one product with c_B gives each pivot's duals
    c_B B^-1, computed afresh, and the objective, and one rank-one step
    updates both. The last duals, in the caller's row signs, are the
    certificate. Pricing is one argmax of c_B B^-1 A (Dantzig's rule,
    the lowest index among ties); only if that column has no positive
    entry are the other candidates tried, by price, then index. After
    STALL_PIVOTS degenerate pivots in a row Bland's rule (lowest index
    with negative reduced cost) takes over for good, which guarantees
    termination, and the solve stops after MAX_ITERS pivots. Non-finite
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
    tableau = np.zeros((m, m + 1))  # [B^-1 | x_B], updated in place
    tableau.flat[:: m + 2], tableau[:, m] = signs, b * signs  # B^-1's diagonal, x_B
    inverse, x_basic = tableau[:, :m], tableau[:, m]
    basis = list(range(n, n + m))
    nonzero = a != 0.0
    rows = nonzero.argmax(axis=0)  # each column's first nonzero row
    unit = (nonzero.sum(axis=0) == 1) & (a[rows, np.arange(n)] == 1.0) & (b[rows] >= 0.0)
    for j, row in zip(np.flatnonzero(unit).tolist(), rows[unit].tolist()):
        basis[row] = min(basis[row], j)  # the first unit column of a row takes it

    cost = np.array([float(k >= n) for k in basis])  # c_B: 1 on an artificial row, 0 once it pivots
    at = np.ascontiguousarray(a.T)
    bland = False
    stall = 0
    last_objective = np.inf
    iterations = 0
    converged = False

    while True:
        priced = cost @ tableau  # c_B B^-1, then the objective c_B x_B
        duals, objective = priced[:m], priced.item(m)
        stall = stall + 1 if objective >= last_objective - 1e-15 else 0
        bland = bland or stall >= STALL_PIVOTS
        last_objective = objective
        prices = duals @ a  # minus the reduced costs
        j = int((prices > PIVOT_TOL).argmax() if bland else prices.argmax())
        if prices.item(j) <= PIVOT_TOL:
            converged = True
            break
        if iterations >= MAX_ITERS:
            break
        column = inverse @ at[j]
        ratios = _ratios(column, x_basic)
        if not ratios:
            candidates = np.flatnonzero(prices > PIVOT_TOL)
            if not bland:
                candidates = candidates[np.argsort(-prices[candidates], kind="stable")]
            for j in candidates.tolist():
                column = inverse @ at[j]
                ratios = _ratios(column, x_basic)
                if ratios:
                    break
            else:
                break
        low = min(ratios.values()) + 1e-15
        ties = [i for i, ratio in ratios.items() if ratio <= low]
        pivot_row = min(ties, key=basis.__getitem__)  # the lowest basis index among ties

        tableau[pivot_row] /= column[pivot_row]
        column[pivot_row] = 0.0
        tableau -= column[:, None] * tableau[pivot_row]
        basis[pivot_row] = j
        cost[pivot_row] = 0.0
        iterations += 1

    solution = np.zeros(n + m)
    solution[basis] = x_basic
    return FeasibilityResult(
        objective=float(objective),
        solution=solution[:n],
        certificate=duals,
        iterations=iterations,
        converged=converged,
        bland=bland,
    )
