"""The biased communication game and its probability rule.

One round runs both tasks at once: Bob holds a round bit b_prime with
p(b_prime=0) = beta deciding whether his bit b must reach Alice (she wins
if x = b) or whether he must guess Alice's bit a (he wins if y = a). The
input bits a and b are drawn with p(0) = alpha. Probabilities come from
the generalized Born rule Tr[W (M_A tensor M_B)], the bilinear pairing
of a process matrix with the two parties' 4x4 Choi matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import _check_stack
from .processes import _matrix_of

BORN_IMAG_ATOL = 1e-10
NORMALIZATION_ATOL = 1e-9
ENTRY_ATOL = 1e-12


class NumericalIntegrityError(ArithmeticError):
    """A quantity that must be real came out with a large imaginary part."""


@dataclass(frozen=True)
class GameSpec:
    """Bias parameters: alpha weights the input bits, beta the round bit."""

    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        if not 0.5 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [1/2, 1), got {self.alpha}")
        if not 0.5 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [1/2, 1), got {self.beta}")


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Conditional outcome table p[x, y, a, b, b_prime].

    Entries are probabilities of the outcome pair (x, y) given the inputs;
    each setting (a, b, b_prime) must be normalized.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.table, dtype=float)
        if arr.shape != (2, 2, 2, 2, 2):
            raise ValueError(f"table must have shape (2,2,2,2,2), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("table entries must be finite")
        if arr.min() < -ENTRY_ATOL or arr.max() > 1.0 + ENTRY_ATOL:
            raise ValueError(
                f"entries outside [0, 1]: min {arr.min()!r}, max {arr.max()!r}"
            )
        sums = arr.sum(axis=(0, 1))
        worst = float(np.abs(sums - 1.0).max())
        if worst > NORMALIZATION_ATOL:
            raise ValueError(f"settings are not normalized: worst residual {worst:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    def to_csv(self) -> str:
        """Render as CSV with columns x,y,a,b,bprime,p."""
        lines = ["x,y,a,b,bprime,p"]
        for x, y, a, b, bp in np.ndindex(2, 2, 2, 2, 2):
            lines.append(f"{x},{y},{a},{b},{bp},{self.table[x, y, a, b, bp]:.9g}")
        return "\n".join(lines) + "\n"


def _real(values: np.ndarray) -> np.ndarray:
    """Real part of Born values, refusing any imaginary residue above 1e-10."""
    residue = values.imag.flat[np.argmax(np.abs(values.imag))]
    if not abs(residue) <= BORN_IMAG_ATOL:
        raise NumericalIntegrityError(f"Born value has imaginary residue {residue:.3e}")
    return values.real


def joint_distribution(w, alice, bob) -> JointDistribution:
    """Evaluate the full conditional table for the given local operations.

    ``alice`` is Alice's stack of 4x4 Choi matrices indexed [x, a] and
    ``bob`` Bob's indexed [y, b, b_prime], as ``ObservableSpec`` builds
    them; a callable ``alice(x, a)`` or ``bob(y, b, b_prime)`` returning
    one element is tabulated into its stack. Both are checked to be
    instruments at every setting, in one pass, before one contraction of
    W, viewed as [A, B, A', B'] over the parties' 4-dimensional spaces,
    with the two stacks; an imaginary residue above 1e-10 in any entry
    raises NumericalIntegrityError instead of being discarded.
    """
    if callable(alice):
        alice = [[alice(x, a) for a in (0, 1)] for x in (0, 1)]
    if callable(bob):
        bob = [[[bob(y, b, bp) for bp in (0, 1)] for b in (0, 1)] for y in (0, 1)]
    alice, bob = np.asarray(alice, dtype=complex), np.asarray(bob, dtype=complex)
    w_arr = _matrix_of(w)
    if alice.shape != (2, 2, 4, 4) or bob.shape != (2, 2, 2, 4, 4):
        raise ValueError(f"need 4x4 instrument elements, got stacks {alice.shape} and {bob.shape}")
    _check_stack(alice, bob)
    table = np.einsum("pqrs,xarp,ybcsq->xyabc", w_arr.reshape(4, 4, 4, 4), alice, bob)
    return JointDistribution(_real(table))


def _channel_scores(table: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The game's scoring rule, applied to a stack of tables at once.

    ``table`` is indexed [x, y, a, b, b_prime, ...], any trailing axes
    stacking tables. Returns p(x=b | b_prime=0) and p(y=a | b_prime=1),
    averaged over alpha-biased inputs, each with the stack's shape.
    """
    a, b = np.divmod(np.arange(4), 2)
    weights = np.array([alpha, 1.0 - alpha])
    pair = (weights[a] * weights[b]).reshape((4,) + (1,) * (table.ndim - 5))
    decode = table[b, :, a, b, 0].sum(axis=1)  # Alice names b; Bob's answer is free
    guess = table[:, a, a, b, 1].sum(axis=0)  # Bob names a; Alice's answer is free
    return (pair * decode).sum(axis=0), (pair * guess).sum(axis=0)


def success_components(dist: JointDistribution, alpha: float) -> tuple[float, float]:
    """The two winning probabilities, averaged over alpha-biased inputs.

    Returns (p(x=b | b_prime=0), p(y=a | b_prime=1)).
    """
    decode, guess = _channel_scores(dist.table, alpha)
    return float(decode), float(guess)


def success_probability(dist: JointDistribution, spec: GameSpec) -> float:
    """Overall winning probability beta * p(x=b|0) + (1-beta) * p(y=a|1)."""
    decode, guess = success_components(dist, spec.alpha)
    return spec.beta * decode + (1.0 - spec.beta) * guess


def causal_bound(spec: GameSpec) -> float:
    """Best winning probability compatible with a definite causal order."""
    return spec.beta + spec.alpha * (1.0 - spec.beta)


def analytic_max_dbit(beta: float) -> float:
    """Largest winning probability of the w_beta family at alpha = 1/2."""
    if not 0.5 <= beta < 1.0:
        raise ValueError(f"beta must lie in [1/2, 1), got {beta}")
    return 0.5 * (1.0 + np.sqrt(1.0 - 2.0 * beta + 2.0 * beta * beta))
