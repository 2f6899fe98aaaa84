"""Random-restart exact block-coordinate ascent for the game's two searches.

Both objectives are multilinear in their blocks, and every block has a
closed-form maximizer given the others: a unit-normalized partial
gradient on a Bloch sphere, or the dual-gauge point of the positivity
ball. One engine sweeps every block in turn to its maximizer
(Gauss-Seidel, the higher-order power method of De Lathauwer, De Moor
and Vandewalle, SIAM J. Matrix Anal. Appl. 21, 1324, 2000), batched
across restarts, and retires a restart at its first sweep that gains no
more than ``tol``.
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
    causal_bound,
    joint_distribution,
    success_probability,
)
from .instruments import ObservableSpec, alice_general, alice_z, bob_branch, bob_general
from .processes import ProcessMatrix, validate, w_ansatz
from .tensor import pauli_decompose

REEVAL_ATOL = 1e-10
ANSATZ_CEILING = 0.25 * (2.0 + math.sqrt(2.0))


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 64
    max_iters: int = 2000
    tol: float = 1e-9
    seed: int = 0
    general_corr: bool = False

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.tol, numbers.Real) or not math.isfinite(self.tol):
            raise ValueError(f"tol must be a finite number, got {self.tol!r}")
        if self.restarts <= 0 or self.max_iters <= 0:
            raise ValueError("restarts and max_iters must be positive")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best point found, re-scored through the full pipeline.

    ``value`` is the Born-rule success probability of the reported
    parameters; ``trace`` is the winning restart's objective history
    (non-decreasing), one entry per sweep, ending at the sweep where that
    restart retired or at the cap. Instrument searches fill ``alice``
    and ``bob``; process-family searches fill ``coefficients`` and
    ``axis``. ``feasible`` records that the reported point passed its
    positivity checks. ``converged`` is true when the winning restart
    retired, at a sweep that gained no more than ``tol``, before the
    sweep cap. ``upper_bound`` is a closed-form ceiling on the score of
    any point of the searched space.
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


def _ascend(objective, sweep, theta: np.ndarray, config: OptimizerConfig):
    """Batched exact block-coordinate ascent.

    ``sweep`` replaces every block of every row, in turn, by its exact
    maximizer given the other blocks, so no sweep lowers the objective.
    A sweep is accepted where it gains more than ``config.tol``; a
    restart retires at its first sweep that does not, keeping its
    previous point. Returns the final points, their values, the
    per-restart traces, the sweeps each restart ran and a mask of the
    restarts that retired.
    """
    values = objective(theta)
    active = np.ones(theta.shape[0], dtype=bool)
    ran = np.zeros(theta.shape[0], dtype=int)
    history = [values.copy()]
    for _ in range(config.max_iters):
        if not active.any():
            break
        ran += active
        candidate = sweep(theta.copy())
        cand_values = objective(candidate)
        active &= cand_values > values + config.tol
        theta[active] = candidate[active]
        values[active] = cand_values[active]
        history.append(values.copy())
    return theta, values, np.array(history).T, ran, ~active


def _check_rescore(value: float, searched: float, upper_bound: float) -> None:
    """Refuse a Born-rule re-score that misses the search's own value or
    beats the closed-form ceiling."""
    if abs(value - searched) > REEVAL_ATOL:
        raise NumericalIntegrityError(
            f"search value {searched!r} not reproduced by the Born pipeline ({value!r})"
        )
    if value > upper_bound + REEVAL_ATOL:
        raise NumericalIntegrityError(f"value {value!r} exceeds its ceiling {upper_bound!r}")


def _restart_generators(config: OptimizerConfig) -> list[np.random.Generator]:
    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    return [np.random.default_rng(s) for s in seeds]


def _set_unit(block: np.ndarray, direction: np.ndarray) -> None:
    """Overwrite each row of ``block`` with the unit vector along the same
    row of ``direction``, keeping the old row where the direction is zero."""
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    np.divide(direction, norms, out=block, where=norms > 0)


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

    theta0 = np.vstack([rng.normal(size=15) for rng in _restart_generators(config)])
    blocks = theta0.reshape(-1, 3)
    _set_unit(blocks, blocks)
    theta, values, traces, ran, retired = _ascend(
        lambda theta: _instrument_objective(theta, corr3, pair2, beta),
        lambda theta: _instrument_sweep(theta, corr3, pair2),
        theta0,
        config,
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
    # t (x) o is a unit vector, so sigma_max of corr3 flattened to 3x9
    # bounds the trilinear channel; the bilinear one peaks at sigma_max(pair2).
    corr, pair = np.linalg.norm(corr3.reshape(3, 9), 2), np.linalg.norm(pair2, 2)
    upper_bound = float(0.5 + 2.0 * beta * corr + 2.0 * (1.0 - beta) * pair)
    _check_rescore(value, values[best], upper_bound)
    return OptimizationResult(
        value=value,
        trace=tuple(traces[best, : ran[best] + 1]),
        feasible=True,
        converged=bool(retired[best]),
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
    heavy = np.array([0, 3, 5])[np.argmax(np.abs(g[:, [0, 3, 5]]), axis=1)]
    rho = np.sqrt(g[:, 1] ** 2 + g[:, 2] ** 2 + g[rows, heavy] ** 2)
    scale = np.divide(1.0, rho, out=np.zeros_like(rho), where=rho > 0)
    c = np.zeros_like(g)
    c[:, 1:3] = g[:, 1:3] * scale[:, None]
    c[rows, heavy] = g[rows, heavy] * scale
    edge = np.abs(g[:, 4]) > rho
    c[edge] = 0.0
    c[edge, 4] = np.sign(g[edge, 4])
    return c


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


def _ansatz_sweep(theta: np.ndarray, alpha: float) -> np.ndarray:
    """One Gauss-Seidel sweep of ``_ansatz_objective``, in place.

    Bob's axis t becomes the unit vector along (c1, c2, c3) (kept where
    that is zero); the coefficients then move to the positivity-ball
    point that maximizes their linear score given t.
    """
    _set_unit(theta[:, 6:9], theta[:, 1:4])
    theta[:, 0:6] = _gauge_maximizer(_ansatz_gradient(theta, alpha)[:, 0:6])
    return theta


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

    rows = []
    for rng in _restart_generators(config):
        coeffs = rng.normal(size=6)
        coeffs *= rng.uniform(0.2, 0.95) / _gauge(coeffs)[0]
        axis = rng.normal(size=3)
        rows.append(np.concatenate([coeffs, axis / np.linalg.norm(axis)]))
    theta0 = np.vstack(rows)
    theta, values, traces, ran, retired = _ascend(
        lambda theta: _ansatz_objective(theta, alpha),
        lambda theta: _ansatz_sweep(theta, alpha),
        theta0,
        config,
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
    upper_bound = ANSATZ_CEILING
    _check_rescore(value, values[best], upper_bound)
    return OptimizationResult(
        value=value,
        trace=tuple(traces[best, : ran[best] + 1]),
        feasible=report.is_valid,
        converged=bool(retired[best]),
        upper_bound=upper_bound,
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
    The family optimum is (2 + sqrt 2) / 4 at every alpha, so the crossing
    sits where the causal bound overtakes it. The bracket must satisfy
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
