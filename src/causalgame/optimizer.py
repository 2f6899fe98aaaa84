"""Random-restart projected ascent for the game's two search problems.

Both searches use the same engine: closed-form gradients of their
polynomial objectives, a step that shrinks geometrically on rejected
moves, unit-norm blocks renormalized after every step, and batched
evaluation across restarts.
The instrument search walks five Bloch vectors against a fixed process;
the process-family search walks six correlation coefficients inside their
positivity region together with Bob's decoding axis. Every reported
optimum is rebuilt from its parameters and re-scored through the full
Born pipeline, so a search bug cannot ship a stale number.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .game import (
    GameSpec,
    NumericalIntegrityError,
    causal_bound,
    joint_distribution,
    success_probability,
)
from .instruments import ObservableSpec, alice_general, alice_z, bob_branch, bob_general
from .processes import ProcessMatrix, validate, w_ansatz
from .tensor import pauli_decompose

REEVAL_ATOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 64
    max_iters: int = 2000
    initial_step: float = 0.1
    decay: float = 0.97
    tol: float = 1e-9
    seed: int = 0
    general_corr: bool = False

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("initial_step", "decay", "tol"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.restarts <= 0 or self.max_iters <= 0:
            raise ValueError("restarts and max_iters must be positive")
        if self.initial_step <= 0 or not 0 < self.decay <= 1:
            raise ValueError("step sizes must be positive and decay in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best point found, re-scored through the full pipeline.

    ``value`` is the Born-rule success probability of the reported
    parameters; ``trace`` is the winning restart's objective history
    (non-decreasing), ending at the iteration where that restart retired
    or at the cap. Instrument searches fill ``alice`` and ``bob``;
    process-family searches fill ``coefficients`` and ``axis``.
    ``feasible`` records that the reported point passed its positivity
    checks. ``converged`` is true when the winning restart retired
    because its step collapsed, before the iteration cap.
    """

    value: float
    trace: tuple[float, ...]
    feasible: bool
    converged: bool
    alice: ObservableSpec | None = None
    bob: ObservableSpec | None = None
    coefficients: tuple[float, ...] | None = None
    axis: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        """Ascent iterations the winning restart ran, counted on ``trace``."""
        return len(self.trace) - 1


def _ascend(objective, gradient, project, theta: np.ndarray, config: OptimizerConfig, steer=None):
    """Batched monotone ascent with closed-form gradients.

    Returns the final points, their values, the per-restart traces, the
    iterations each restart ran and a mask of the restarts that retired.
    ``gradient`` gives the exact
    rowwise gradient of ``objective``, so each iteration costs one
    gradient call and one candidate evaluation. The step shrinks
    geometrically on each rejected move and re-expands on acceptance up
    to its initial value, a trust-region style schedule that survives
    long boundary crawls. A restart retires once its step collapses.
    ``steer`` may bend the raw gradient into a constraint-compatible
    direction before the step is taken.
    """
    theta = project(theta.copy())
    values = objective(theta)
    steps = np.full(theta.shape[0], config.initial_step)
    active = np.ones(theta.shape[0], dtype=bool)
    ran = np.zeros(theta.shape[0], dtype=int)
    history = [values.copy()]
    for _ in range(config.max_iters):
        if not active.any():
            break
        ran += active
        grad = gradient(theta)
        if steer is not None:
            grad = steer(theta, grad)
        candidate = project(theta + steps[:, None] * grad)
        cand_values = objective(candidate)
        improve = cand_values > values + config.tol
        accept = improve & active
        reject = ~improve & active
        theta[accept] = candidate[accept]
        values[accept] = cand_values[accept]
        steps[accept] = np.minimum(steps[accept] / config.decay, config.initial_step)
        steps[reject] *= config.decay
        active &= steps >= 1e-9
        history.append(values.copy())
    return theta, values, np.array(history).T, ran, ~active


def _restart_generators(config: OptimizerConfig) -> list[np.random.Generator]:
    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    return [np.random.default_rng(s) for s in seeds]


def _unit_rows(block: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(block, axis=1, keepdims=True)
    return np.divide(block, norms, out=block.copy(), where=norms > 0)


def _correlation_data(w) -> tuple[np.ndarray, np.ndarray]:
    """Process coefficients feeding the two scoring channels.

    corr3[i, k, l] weights Alice's input axis against Bob's decode and
    encode axes (the message-to-Alice channel); pair2[j, k] weights
    Alice's encode axis against Bob's relay axis (the message-to-Bob
    channel).
    """
    matrix = w.matrix if isinstance(w, ProcessMatrix) else np.asarray(w, dtype=complex)
    coefficients = pauli_decompose(matrix)
    corr3 = np.zeros((3, 3, 3))
    pair2 = np.zeros((3, 3))
    for word, value in coefficients.items():
        i, j, k, l = word
        if j == 0 and i > 0 and k > 0 and l > 0:
            corr3[i - 1, k - 1, l - 1] = value
        elif i == 0 and l == 0 and j > 0 and k > 0:
            pair2[j - 1, k - 1] = value
    return corr3, pair2


def _instrument_objective(theta: np.ndarray, corr3: np.ndarray, pair2: np.ndarray, beta: float) -> np.ndarray:
    """Rowwise success probability of the rank-1 instrument parameters.

    Each row of ``theta`` holds Alice's measure and encode axes (m, n)
    and Bob's relay, decode and encode axes (r, t, o), three entries each.
    """
    m, n, r, t, o = (theta[:, 3 * b : 3 * b + 3] for b in range(5))
    corr = np.einsum("ikl,ri,rk,rl->r", corr3, m, t, o)
    pair = np.einsum("jk,rj,rk->r", pair2, n, r)
    return 0.5 + 2.0 * beta * corr + 2.0 * (1.0 - beta) * pair


def _instrument_gradient(theta: np.ndarray, corr3: np.ndarray, pair2: np.ndarray, beta: float) -> np.ndarray:
    """Exact rowwise gradient of ``_instrument_objective``."""
    m, n, r, t, o = (theta[:, 3 * b : 3 * b + 3] for b in range(5))
    weighted = np.einsum("ikl,rl->rik", corr3, o)
    grad = np.empty_like(theta)
    grad[:, 0:3] = 2.0 * beta * np.einsum("rik,rk->ri", weighted, t)
    grad[:, 3:6] = 2.0 * (1.0 - beta) * np.einsum("jk,rk->rj", pair2, r)
    grad[:, 6:9] = 2.0 * (1.0 - beta) * np.einsum("jk,rj->rk", pair2, n)
    grad[:, 9:12] = 2.0 * beta * np.einsum("ri,rik->rk", m, weighted)
    grad[:, 12:15] = 2.0 * beta * np.einsum("ikl,ri,rk->rl", corr3, m, t)
    return grad


def _unit_blocks(theta: np.ndarray) -> np.ndarray:
    """Renormalize each consecutive three-entry block of every row."""
    return _unit_rows(theta.reshape(-1, 3)).reshape(theta.shape)


def maximize_instruments(w, beta: float, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Best success probability of a fixed process over local operations.

    Searches Alice's measure/encode axes and Bob's decode/encode/relay
    axes at alpha = 1/2. With ``config.general_corr`` Bob's decode
    element is reported as an explicit unit-Frobenius correlation tensor
    with no single-axis terms; positivity confines such tensors to the
    rank-1 products, so the search space is unchanged. The returned
    value is the Born-rule score of the best parameters.
    """
    config = config or OptimizerConfig()
    if not 0.5 <= beta < 1.0:
        raise ValueError(f"beta must lie in [1/2, 1), got {beta}")
    report = validate(w)
    if not report.is_valid:
        raise ValueError("process matrix failed validation: " + "; ".join(report.failures))
    corr3, pair2 = _correlation_data(w)

    def steer(theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        # The two scoring channels are separable and their gradients
        # scale with beta and 1 - beta; normalizing per block keeps the
        # weak channel moving at the same arc rate as the strong one.
        return _unit_blocks(grad)

    rows = []
    for rng in _restart_generators(config):
        rows.append(rng.normal(size=15))
    theta0 = np.vstack(rows)
    theta, values, traces, ran, retired = _ascend(
        lambda theta: _instrument_objective(theta, corr3, pair2, beta),
        lambda theta: _instrument_gradient(theta, corr3, pair2, beta),
        _unit_blocks,
        theta0,
        config,
        steer=steer,
    )

    best = int(np.argmax(values))
    point = theta[best]
    alice_spec = ObservableSpec(measure=point[0:3], encode=point[3:6])
    if config.general_corr:
        # Unit-Frobenius decode tensors compatible with positivity at
        # both corr signs are exactly the rank-1 products (the nuclear
        # norm is bounded by 1 yet can never drop below the Frobenius
        # norm), so the free-tensor search walks the same manifold; the
        # tensor is reported explicitly with the single-axis terms
        # dropped.
        bob_spec = ObservableSpec(
            measure=np.zeros(3),
            encode=np.zeros(3),
            corr=np.outer(point[9:12], point[12:15]),
            relay=point[6:9],
        )
    else:
        bob_spec = ObservableSpec(measure=point[9:12], encode=point[12:15], relay=point[6:9])
    dist = joint_distribution(
        w,
        lambda x, a: alice_general(x, a, alice_spec),
        lambda y, b, bp: bob_general(y, b, bp, bob_spec),
    )
    value = success_probability(dist, GameSpec(0.5, beta))
    if abs(value - values[best]) > REEVAL_ATOL:
        raise NumericalIntegrityError(
            f"search value {values[best]!r} not reproduced by the Born pipeline ({value!r})"
        )
    return OptimizationResult(
        value=value,
        trace=tuple(traces[best, : ran[best] + 1]),
        feasible=True,
        converged=bool(retired[best]),
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


def _gauge_subgradient(coeffs: np.ndarray) -> np.ndarray:
    """A subgradient of the gauge, rowwise; zero entries at kinks."""
    sub = np.zeros_like(coeffs)
    heavy = np.abs(coeffs[:, 0]) + np.abs(coeffs[:, 3]) + np.abs(coeffs[:, 5])
    root = np.sqrt(coeffs[:, 1] ** 2 + coeffs[:, 2] ** 2 + heavy**2)
    safe = root > 0
    ratio = np.divide(heavy, root, out=np.zeros_like(root), where=safe)
    for col in (0, 3, 5):
        sub[:, col] = np.sign(coeffs[:, col]) * ratio
    for col in (1, 2):
        sub[:, col] = np.divide(coeffs[:, col], root, out=np.zeros_like(root), where=safe)
    sub[:, 4] = np.sign(coeffs[:, 4])
    return sub


def ansatz_min_eigenvalue(coeffs) -> float:
    """Closed-form smallest eigenvalue of w_ansatz at these coefficients."""
    return float(0.25 * (1.0 - _gauge(np.asarray(coeffs, dtype=float))[0]))


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
    """Exact rowwise gradient of ``_ansatz_objective``."""
    grad = np.empty_like(theta)
    grad[:, 0] = 0.25
    grad[:, 1:4] = 0.25 * theta[:, 6:9]
    grad[:, 4:6] = 0.25 * (2.0 * alpha - 1.0)
    grad[:, 6:9] = 0.25 * theta[:, 1:4]
    return grad


def maximize_ansatz(alpha: float, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Best success probability over the six-term family at beta = 1/2.

    Jointly searches the coefficients (projected radially into their
    positivity ball, whose defining gauge is a norm) and Bob's decoding
    axis. The optimum sits on the positivity boundary, so candidates are
    projected rather than discarded.
    """
    config = config or OptimizerConfig()
    spec = GameSpec(alpha, 0.5)

    def project(theta: np.ndarray) -> np.ndarray:
        scale = np.maximum(_gauge(theta[:, 0:6]), 1.0)
        theta[:, 0:6] /= scale[:, None]
        theta[:, 6:9] = _unit_rows(theta[:, 6:9])
        return theta

    # Coefficients entering the gauge through an absolute value kink at 0.
    pin_cols = np.array([True, False, False, True, True, True])

    def steer(theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        # On the positivity boundary, slide along it: remove the
        # outward component of the coefficient gradient so the radial
        # rescale in `project` only has to absorb curvature, not the
        # whole step. Without this the walk stalls where the gradient
        # is radial, which is not the constrained optimum. Coordinates
        # sitting on an absolute-value kink are pinned there; their
        # sign-based subgradient would otherwise promise gauge budget
        # that evaporates after a sub-step-size crossing.
        coeffs = theta[:, 0:6]
        pinned = pin_cols[None, :] & (np.abs(coeffs) <= 1e-6)
        normal = np.where(pinned, 0.0, _gauge_subgradient(coeffs))
        reduced = np.where(pinned, 0.0, grad[:, 0:6])
        outward = np.einsum("rp,rp->r", reduced, normal)
        weight = np.einsum("rp,rp->r", normal, normal)
        at_boundary = (_gauge(coeffs) >= 1.0 - 1e-9) & (outward > 0) & (weight > 0)
        scale = np.where(at_boundary, outward / np.where(weight > 0, weight, 1.0), 0.0)
        steered = grad.copy()
        steered[:, 0:6] = np.where(
            at_boundary[:, None], reduced - scale[:, None] * normal, grad[:, 0:6]
        )
        return steered

    rows = []
    for rng in _restart_generators(config):
        coeffs = rng.normal(size=6)
        coeffs *= rng.uniform(0.2, 0.95) / _gauge(coeffs)[0]
        axis = rng.normal(size=3)
        rows.append(np.concatenate([coeffs, axis / np.linalg.norm(axis)]))
    theta0 = np.vstack(rows)
    theta, values, traces, ran, retired = _ascend(
        lambda theta: _ansatz_objective(theta, alpha),
        lambda theta: _ansatz_gradient(theta, alpha),
        project,
        theta0,
        config,
        steer=steer,
    )

    best = int(np.argmax(values))
    coefficients = tuple(float(v) for v in theta[best, 0:6])
    axis = theta[best, 6:9].copy()
    candidate, report = w_ansatz(*coefficients)
    dist = joint_distribution(
        candidate,
        alice_z,
        lambda y, b, bp: bob_branch(y, b, bp, t=axis),
    )
    value = success_probability(dist, spec)
    if abs(value - values[best]) > REEVAL_ATOL:
        raise NumericalIntegrityError(
            f"search value {values[best]!r} not reproduced by the Born pipeline ({value!r})"
        )
    return OptimizationResult(
        value=value,
        trace=tuple(traces[best, : ran[best] + 1]),
        feasible=report.is_valid,
        converged=bool(retired[best]),
        coefficients=coefficients,
        axis=axis,
    )


def threshold_alpha(
    config: OptimizerConfig | None = None,
    *,
    lo: float = 0.5,
    hi: float = 0.95,
    xtol: float = 1e-5,
) -> float:
    """Input bias above which the six-term family stops violating the bound.

    Bisects the sign of [best family success - causal bound] at beta = 1/2.
    The family optimum is essentially flat in alpha, so the crossing sits
    where the causal bound overtakes it. The bracket must satisfy
    ``lo < hi`` and ``xtol`` must be a positive finite width; bisection
    also stops once the bracket holds no float strictly inside it.
    """
    if not lo < hi:
        raise ValueError(f"bisection needs lo < hi, got lo={lo!r}, hi={hi!r}")
    if not (math.isfinite(xtol) and xtol > 0):
        raise ValueError(f"xtol must be positive and finite, got {xtol!r}")
    config = config or OptimizerConfig(restarts=16)

    def excess(alpha: float) -> float:
        result = maximize_ansatz(alpha, config)
        return result.value - causal_bound(GameSpec(alpha, 0.5))

    f_lo = excess(lo)
    f_hi = excess(hi)
    if f_lo <= 0 or f_hi >= 0:
        raise RuntimeError(
            f"bisection bracket lost: excess({lo}) = {f_lo!r}, excess({hi}) = {f_hi!r}"
        )
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
