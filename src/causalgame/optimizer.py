"""Random-restart exact block-coordinate ascent for the game's two searches.

Both objectives are multilinear in their blocks, and every block has a
closed-form maximizer given the others: a unit-normalized partial
gradient on a Bloch sphere, or the dual-gauge point of the positivity
ball. One engine sweeps every block in turn to its maximizer
(Gauss-Seidel, the higher-order power method of De Lathauwer, De Moor
and Vandewalle, SIAM J. Matrix Anal. Appl. 21, 1324, 2000), batched
across restarts, and retires a restart at its first sweep that gains no
more than ``SWEEP_TOL``.
The instrument search moves five Bloch vectors against a fixed process;
the process-family search moves six correlation coefficients inside
their positivity region together with Bob's decoding axis. Every
reported optimum is rebuilt from its parameters and re-scored through
the full Born pipeline, so a search bug cannot ship a stale number, and
carries a closed-form upper bound on what any point could score.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .game import (
    GameSpec,
    NumericalIntegrityError,
    joint_distribution,
    success_probability,
)
from .instruments import ObservableSpec, _branch_stack, alice_z
from .processes import PSD_ATOL, validate, w_ansatz

REEVAL_ATOL = 1e-10
SWEEP_TOL = 1e-9
MAX_SWEEPS = 2000
ANSATZ_CEILING = 0.25 * (2.0 + math.sqrt(2.0))


@dataclass(frozen=True)
class OptimizerConfig:
    """``seed`` is a non-negative integer of any size. Each search makes one
    ``numpy.random.default_rng(seed)`` and draws every restart's start
    from it as one block per quantity, row k for restart k."""

    restarts: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.restarts, bool) or not isinstance(self.restarts, numbers.Integral):
            raise ValueError(f"restarts must be an integer, got {self.restarts!r}")
        if self.restarts <= 0:
            raise ValueError("restarts must be positive")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best point found, re-scored through the full pipeline.

    ``value`` is the Born-rule success probability of the reported
    parameters; ``trace`` is the winning restart's objective history
    (non-decreasing), one entry per sweep, ending at the sweep where that
    restart retired or at ``MAX_SWEEPS``. The instrument search fills
    ``alice`` and ``bob``, the process-family search ``coefficients`` and
    ``axis`` (read-only, like the specs' vectors). ``feasible`` records
    that the reported point passed its positivity checks. ``converged`` is
    true when the winning restart retired, at a sweep that gained no more
    than ``SWEEP_TOL``, within ``MAX_SWEEPS`` sweeps. ``upper_bound`` is a
    closed-form ceiling on the score of any point of the searched space.
    """

    value: float
    trace: tuple[float, ...]
    feasible: bool
    converged: bool
    upper_bound: float
    alice: ObservableSpec | None = None
    bob: ObservableSpec | None = None
    coefficients: tuple[float, ...] | None = None
    axis: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        """Sweeps the winning restart ran, counted on ``trace``."""
        return len(self.trace) - 1

    @property
    def gap(self) -> float:
        """Certified optimality gap, ``upper_bound`` minus ``value``.

        Both searches refuse a value above the ceiling by more than
        ``REEVAL_ATOL``; a rounding-sized excess reads as 0.
        """
        return max(self.upper_bound - self.value, 0.0)


def _ascend(objective, sweep, theta: np.ndarray):
    """Batched exact block-coordinate ascent over the rows of ``theta``.

    ``sweep`` replaces every block of every row, in turn, by its exact
    maximizer given the other blocks, so no sweep lowers the objective.
    A sweep is accepted where it gains more than ``SWEEP_TOL``; a restart
    retires at its first sweep that does not, keeping its previous point.
    Returns the best restart's point, value, trace (its value after each
    sweep it ran) and whether it retired within ``MAX_SWEEPS`` sweeps.
    """
    values = objective(theta)
    active = np.ones(theta.shape[0], dtype=bool)
    ran = np.zeros(theta.shape[0], dtype=int)
    history = [values.copy()]
    for _ in range(MAX_SWEEPS):
        if not active.any():
            break
        ran += active
        candidate = sweep(theta.copy())
        cand_values = objective(candidate)
        active &= cand_values > values + SWEEP_TOL
        theta[active] = candidate[active]
        values[active] = cand_values[active]
        history.append(values.copy())
    best = int(np.argmax(values))
    trace = tuple(sweep_values[best] for sweep_values in history[: ran[best] + 1])
    return theta[best], values[best], trace, not active[best]


def _check_rescore(value: float, searched: float, upper_bound: float) -> None:
    """Refuse a Born-rule re-score that misses the search's own value or
    beats the closed-form ceiling."""
    if abs(value - searched) > REEVAL_ATOL:
        raise NumericalIntegrityError(
            f"search value {searched!r} not reproduced by the Born pipeline ({value!r})"
        )
    if value > upper_bound + REEVAL_ATOL:
        raise NumericalIntegrityError(f"value {value!r} exceeds its ceiling {upper_bound!r}")


def _set_unit(block: np.ndarray, direction: np.ndarray) -> None:
    """Overwrite each row of ``block`` with the unit vector along the same
    row of ``direction``, keeping the old row where the direction is zero."""
    norms = np.sqrt(np.add.reduce(direction * direction, axis=1, keepdims=True))
    np.divide(direction, norms, out=block, where=norms > 0)


def _instrument_objective(theta: np.ndarray, corr3: np.ndarray, pair2: np.ndarray, beta: float) -> np.ndarray:
    """Rowwise success probability of the rank-1 instrument parameters.

    Each row of ``theta`` holds Alice's measure and encode axes (m, n)
    and Bob's relay, decode and encode axes (r, t, o), three entries each.
    """
    m, n, r, t, o = (theta[:, 3 * b : 3 * b + 3] for b in range(5))
    corr = np.einsum("ikl,ri,rk,rl->r", corr3, m, t, o)
    pair = np.einsum("jk,rj,rk->r", pair2, n, r)
    return 0.5 + 2.0 * beta * corr + 2.0 * (1.0 - beta) * pair


def _instrument_sweep(theta: np.ndarray, corr3: np.ndarray, pair2: np.ndarray) -> np.ndarray:
    """One Gauss-Seidel sweep of ``_instrument_objective``, in place.

    The objective is linear in each Bloch vector, so a block's maximizer
    on the unit sphere is its unit partial gradient; the positive channel
    weights 2 beta and 2 (1 - beta) drop out. Blocks go m, t, o (the
    trilinear channel), then n, r (the bilinear channel).
    """
    m, n, r, t, o = (theta[:, 3 * b : 3 * b + 3] for b in range(5))
    _set_unit(m, np.einsum("ikl,rk,rl->ri", corr3, t, o))
    _set_unit(t, np.einsum("ikl,ri,rl->rk", corr3, m, o))
    _set_unit(o, np.einsum("ikl,ri,rk->rl", corr3, m, t))
    _set_unit(n, np.einsum("jk,rk->rj", pair2, r))
    _set_unit(r, np.einsum("jk,rj->rk", pair2, n))
    return theta


def _instrument_starts(config: OptimizerConfig) -> np.ndarray:
    """Every restart's instrument start: one ``normal`` block of shape
    (restarts, 15) from ``default_rng(seed)``, each Bloch vector normalized."""
    theta = np.random.default_rng(config.seed).normal(size=(config.restarts, 15))
    blocks = theta.reshape(-1, 3)
    _set_unit(blocks, blocks)
    return theta


def maximize_instruments(w, beta: float, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Best success probability of a fixed process over one instrument family.

    The family is the measure-and-reprepare product one of
    ``alice_general`` and ``bob_general``: Alice's measure and encode
    axes, Bob's decode, encode and relay axes, at alpha = 1/2. It is not
    every local operation, and ``upper_bound`` bounds only this family: on
    ``ordered_ba`` at beta = 1/2 the search and its bound both read 0.5,
    while deterministic causal strategies reach 0.75. The returned value
    is the Born-rule score of the best parameters.
    """
    config = config or OptimizerConfig()
    spec = GameSpec(0.5, beta)
    report = validate(w)
    if not report.is_valid:
        raise ValueError("process matrix failed validation: " + "; ".join(report.failures))
    # corr3[i, k, l] weighs Alice's input axis against Bob's decode and
    # encode axes (the message-to-Alice channel, words i0kl); pair2[j, k]
    # Alice's encode axis against Bob's relay axis (the message-to-Bob
    # channel, words 0jk0), indices running over X, Y, Z. Adding 0.0 makes
    # a -0.0 coefficient +0.0, so a zero word scores the same whatever its sign.
    words = report.coefficients.reshape(4, 4, 4, 4)
    corr3 = words[1:, 0, 1:, 1:] + 0.0
    pair2 = words[0, 1:, 1:, 0] + 0.0

    point, searched, trace, converged = _ascend(
        lambda theta: _instrument_objective(theta, corr3, pair2, beta),
        lambda theta: _instrument_sweep(theta, corr3, pair2),
        _instrument_starts(config),
    )

    alice_spec = ObservableSpec(measure=point[0:3], encode=point[3:6])
    bob_spec = ObservableSpec(measure=point[9:12], encode=point[12:15], relay=point[6:9])
    dist = joint_distribution(w, alice_spec.alice_stack, bob_spec.bob_stack)
    value = success_probability(dist, spec)
    # t (x) o is a unit vector, so sigma_max of corr3 flattened to 3x9
    # bounds the trilinear channel; the bilinear one peaks at sigma_max(pair2).
    # svd returns the singular values sorted, largest first.
    corr, pair = (np.linalg.svd(x, compute_uv=False)[0] for x in (corr3.reshape(3, 9), pair2))
    upper_bound = float(0.5 + 2.0 * beta * corr + 2.0 * (1.0 - beta) * pair)
    _check_rescore(value, searched, upper_bound)
    return OptimizationResult(
        value=value,
        trace=trace,
        feasible=True,
        converged=converged,
        upper_bound=upper_bound,
        alice=alice_spec,
        bob=bob_spec,
    )


def _gauge(coeffs: np.ndarray) -> np.ndarray:
    """Positivity gauge of the six-term family: feasible iff <= 1.

    The family's smallest eigenvalue is (1 - gauge) / 4, from splitting
    the anticommuting pair (b0, c0) against the aligned worst case of the
    commuting signs on (a0, d0, f0) and the overall e0 shift.
    """
    coeffs = np.atleast_2d(coeffs)
    heavy = np.abs(coeffs[:, 0]) + np.abs(coeffs[:, 3]) + np.abs(coeffs[:, 5])
    return np.abs(coeffs[:, 4]) + np.sqrt(coeffs[:, 1] ** 2 + coeffs[:, 2] ** 2 + heavy**2)


def _gauge_maximizer(g: np.ndarray) -> np.ndarray:
    """Rowwise maximizer of g . c over the positivity ball gauge(c) <= 1.

    The gauge is |c4| + ||(c1, c2, |c0| + |c3| + |c5|)||, so the best
    score is the dual gauge max(|g4|, rho) with h = max(|g0|, |g3|, |g5|)
    and rho = ||(g1, g2, h)||. Where |g4| wins, the maximizer is
    sign(g4) e4; otherwise it is (g1, g2, g_k) / rho on coordinates
    1, 2 and the first k in (0, 3, 5) reaching h, and zero elsewhere.
    Either point has gauge exactly 1.
    """
    rows = np.arange(g.shape[0])
    candidates = g[:, [0, 3, 5]]
    k = np.argmax(np.abs(candidates), axis=1)
    g_heavy = candidates[rows, k]
    rho = np.sqrt(g[:, 1] ** 2 + g[:, 2] ** 2 + g_heavy**2)
    scale = np.divide(1.0, rho, out=np.zeros_like(rho), where=rho > 0)
    c = np.zeros_like(g)
    c[:, 1:3] = g[:, 1:3] * scale[:, None]
    c[rows, np.array([0, 3, 5])[k]] = g_heavy * scale
    edge = np.abs(g[:, 4]) > rho
    c[edge] = 0.0
    c[edge, 4] = np.sign(g[edge, 4])
    return c


def _ansatz_objective(theta: np.ndarray, alpha: float) -> np.ndarray:
    """Rowwise success of the six coefficients and Bob's decoding axis."""
    c = theta[:, 0:6]
    t = theta[:, 6:9]
    return 0.25 * (
        2.0
        + c[:, 0]
        + t[:, 0] * c[:, 1]
        + t[:, 1] * c[:, 2]
        + t[:, 2] * c[:, 3]
        + (2.0 * alpha - 1.0) * (c[:, 4] + c[:, 5])
    )


def _ansatz_gradient(theta: np.ndarray, alpha: float) -> np.ndarray:
    """Exact rowwise gradient of ``_ansatz_objective`` in the six coefficients (columns 0-5)."""
    grad = np.full((theta.shape[0], 6), 0.25)
    grad[:, 1:4] *= theta[:, 6:9]
    grad[:, 4:6] *= 2.0 * alpha - 1.0
    return grad


def _ansatz_sweep(theta: np.ndarray, alpha: float) -> np.ndarray:
    """One Gauss-Seidel sweep of ``_ansatz_objective``, in place.

    Bob's axis t becomes the unit vector along (c1, c2, c3) (kept where
    that is zero); the coefficients then move to the positivity-ball
    point that maximizes their linear score given t.
    """
    _set_unit(theta[:, 6:9], theta[:, 1:4])
    theta[:, 0:6] = _gauge_maximizer(_ansatz_gradient(theta, alpha))
    return theta


def _ansatz_starts(config: OptimizerConfig) -> np.ndarray:
    """Every restart's ansatz start (c0..c5, t0, t1, t2, scale) from one
    ``default_rng(seed)``, drawn as three blocks in this order: the six
    normal coefficients, the scale uniform on [0.2, 0.95), the three
    normal axis entries. The axes (columns 6-8) come out normalized.

    A stack of (1, 3) @ (3, 1) products runs numpy's ``dot`` loop once
    per row, as the 1-D ``np.linalg.norm`` does, so each axis comes out
    as ``axis / np.linalg.norm(axis)``; an ``einsum`` or a row sum of
    squares can differ in the last bit.
    """
    rng, restarts = np.random.default_rng(config.seed), config.restarts
    coeffs, scale = rng.normal(size=(restarts, 6)), rng.uniform(0.2, 0.95, restarts)
    axes = rng.normal(size=(restarts, 3))
    axes /= np.sqrt(axes[:, None, :] @ axes[:, :, None])[:, 0]
    return np.column_stack([coeffs, axes, scale])


def maximize_ansatz(alpha: float, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Best success probability over the six-term family at beta = 1/2.

    Jointly searches the coefficients, inside their positivity ball
    (whose defining gauge is a norm), and Bob's decoding axis. The
    optimum sits on the positivity boundary, where every coefficient
    block maximizer lands. The family's ceiling is (2 + sqrt 2) / 4 at
    every alpha: the dual gauge of the coefficient gradient is at most
    sqrt(2) / 4.
    """
    config = config or OptimizerConfig()
    spec = GameSpec(alpha, 0.5)
    theta0 = _ansatz_starts(config)
    theta0[:, 0:6] *= (theta0[:, 9] / _gauge(theta0[:, 0:6]))[:, None]
    point, searched, trace, converged = _ascend(
        lambda theta: _ansatz_objective(theta, alpha),
        lambda theta: _ansatz_sweep(theta, alpha),
        theta0[:, 0:9].copy(),
    )

    coefficients = tuple(float(v) for v in point[0:6])
    axis = point[6:9].copy()
    axis.setflags(write=False)  # value was scored at this axis
    dist = joint_distribution(w_ansatz(*coefficients), alice_z, _branch_stack(axis))
    value = success_probability(dist, spec)
    upper_bound = ANSATZ_CEILING
    _check_rescore(value, searched, upper_bound)
    return OptimizationResult(
        value=value,
        trace=trace,
        # The family's smallest eigenvalue is (1 - gauge) / 4.
        feasible=bool(_gauge(point[0:6])[0] <= 1.0 + 4.0 * PSD_ATOL),
        converged=converged,
        upper_bound=upper_bound,
        coefficients=coefficients,
        axis=axis,
    )


def threshold_alpha(config: OptimizerConfig | None = None) -> float:
    """Input bias above which the six-term family stops violating the bound.

    The family's best score is its ceiling (2 + sqrt 2) / 4 at every alpha,
    so the threshold is where the causal bound 1/2 + alpha/2 at beta = 1/2
    reaches it: 2 * value - 1 for the value of one search at alpha = 1/2.
    A search that stops more than ``REEVAL_ATOL`` short of the ceiling
    raises NumericalIntegrityError.
    """
    result = maximize_ansatz(0.5, config or OptimizerConfig(restarts=16))
    if result.gap > REEVAL_ATOL:
        raise NumericalIntegrityError(
            f"family search stopped {result.gap:.3e} short of its ceiling {result.upper_bound!r}"
        )
    return 2.0 * result.value - 1.0
