"""The biased communication game and its probability rule.

One round runs both tasks at once: Bob holds a round bit b_prime with
p(b_prime=0) = beta deciding whether his bit b must reach Alice (she wins
if x = b) or whether he must guess Alice's bit a (he wins if y = a). The
input bits a and b are drawn with p(0) = alpha. Probabilities come from
the generalized Born rule Tr[W (M_A tensor M_B)], the bilinear pairing
of a process matrix with the two parties' 4x4 Choi matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .processes import _matrix_of

BORN_IMAG_ATOL = 1e-10
NORMALIZATION_ATOL = 1e-9
ENTRY_ATOL = 1e-12
_A, _B = np.divmod(np.arange(4), 2)  # Alice's and Bob's input bits at the four input pairs
# The winning entries of a table p[x, y, a, b, bp] at the four input pairs: at
# bp = 0 Alice names b and Bob's answer is free, at bp = 1 Bob names a and Alice's is.
_DECODE, _GUESS = np.s_[_B, :, _A, _B, 0], np.s_[:, _A, _A, _B, 1]


def _pair_weights(alpha: float) -> np.ndarray:
    """p(a) p(b) at the four input pairs, each bit 0 with probability alpha."""
    weights = np.array([alpha, 1.0 - alpha])
    return weights[_A] * weights[_B]


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

    @cached_property
    def functional(self) -> np.ndarray:
        """Read-only f[x, y, a, b, bp] with f . p the winning probability of table p."""
        pair = _pair_weights(self.alpha)
        f = np.zeros((2, 2, 2, 2, 2))
        f[_DECODE] = (self.beta * pair)[:, None]
        f[_GUESS] = (1.0 - self.beta) * pair
        f.setflags(write=False)
        return f


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Conditional outcome table p[x, y, a, b, b_prime].

    Entries are probabilities of the outcome pair (x, y) given the inputs;
    each setting (a, b, b_prime) must be normalized.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.table)
        if np.iscomplexobj(arr):
            if arr.imag.any():  # a NaN part counts as nonzero
                raise ValueError("table entries must be real, got a nonzero imaginary part")
            arr = arr.real
        arr = np.array(arr, dtype=float)
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
    one element is tabulated into its stack (``alice_z`` and ``bob_branch``
    at its default axis stand for their built stacks). A stack with the
    dtype, shape and bytes of a live stack that ``ObservableSpec`` built
    is that instrument, however it was made (a copy, or the tabulated
    elements of the library's element functions); every other is checked
    to be one at every setting, in one pass: each element finite,
    Hermitian and positive, and each setting's elements summing to a
    trace-preserving map, else ValueError names the first failing setting.
    Then two contractions of W, viewed as [A, B, A', B'] over the parties'
    4-dimensional spaces: Alice's stack first, summing over her two
    indices, then Bob's. Where each of Alice's elements has one nonzero
    entry (``alice_z``) every sum over her indices has one nonzero term,
    so the table has the bits of one contraction over all four indices;
    on a general stack it differs from that by rounding only. An
    imaginary residue above 1e-10 in any entry raises
    NumericalIntegrityError instead of being discarded.
    """
    from .instruments import _X_BRANCH, _Z_STRATEGY, _check_stack, _proven, alice_z, bob_branch

    if alice is alice_z:
        alice = _Z_STRATEGY.alice_stack
    elif callable(alice):
        alice = [[alice(x, a) for a in (0, 1)] for x in (0, 1)]
    if bob is bob_branch:
        bob = _X_BRANCH.bob_stack
    elif callable(bob):
        bob = [[[bob(y, b, bp) for bp in (0, 1)] for b in (0, 1)] for y in (0, 1)]
    alice, bob = np.asarray(alice, dtype=complex), np.asarray(bob, dtype=complex)
    w_arr = _matrix_of(w)
    if alice.shape != (2, 2, 4, 4) or bob.shape != (2, 2, 2, 4, 4):
        raise ValueError(f"need 4x4 instrument elements, got stacks {alice.shape} and {bob.shape}")
    unproven_alice, unproven_bob = (None if _proven(s) else s for s in (alice, bob))
    if unproven_alice is not None or unproven_bob is not None:
        _check_stack(unproven_alice, unproven_bob)
    halves = np.einsum("xarp,pqrs->xaqs", alice, w_arr.reshape(4, 4, 4, 4))
    table = np.einsum("xaqs,ybcsq->xyabc", halves, bob)
    return JointDistribution(_real(table))


def success_components(dist: JointDistribution, alpha: float) -> tuple[float, float]:
    """The two winning probabilities, averaged over alpha-biased inputs.

    Returns (p(x=b | b_prime=0), p(y=a | b_prime=1)).
    """
    pair = _pair_weights(alpha)
    decode, guess = dist.table[_DECODE].sum(axis=1), dist.table[_GUESS].sum(axis=0)
    return float((pair * decode).sum(axis=0)), float((pair * guess).sum(axis=0))


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
    return 0.5 * (1.0 + math.sqrt(1.0 - 2.0 * beta + 2.0 * beta * beta))
