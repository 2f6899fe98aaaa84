"""Local operations as 4x4 Choi matrices on an input-output qubit pair.

Each instrument element is a measure-and-reprepare product E (x) rho: a
qubit projector on the party's input tensor a qubit state on its output,
input factor first. Both factors are (I + (-1)^bit axis . sigma)/2, so
every element is positive by construction. Alice measures in the z basis
and reprepares a z eigenstate. Bob runs one of two branches: measure
immediately and forward the maximally mixed state, or decode along an
axis and encode his own bit. Both parties also have general forms with
arbitrary measure, encode and relay axes. Each operation is built as one
read-only stack of its elements by one broadcast product and recorded by
its bytes as an instrument by construction, so any stack with the same
dtype, shape and bytes is not checked again; the per-element functions
return copies of its entries, and Bob's branch stacks of the last few
decode axes are kept.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .tensor import _hermitian_part, _not_hermitian

CP_ATOL = 1e-9
TP_ATOL = 1e-10
UNIT_ATOL = 1e-10

X_AXIS = np.array([1.0, 0.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def _check_bit(value, name: str) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def _unit3(vec, name: str, allow_zero: bool = False) -> np.ndarray:
    arr = np.asarray(vec)
    if np.iscomplexobj(arr) and arr.imag.any():  # a NaN part counts as nonzero
        raise ValueError(f"{name} must be real, got a nonzero imaginary part")
    arr = np.asarray(arr.real, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    norm = math.hypot(*arr)  # no overflow for huge finite entries
    if not (abs(norm - 1.0) <= UNIT_ATOL or (allow_zero and norm <= UNIT_ATOL)):
        hint = " (or zero to omit it)" if allow_zero else ""
        raise ValueError(f"{name} must be a unit vector{hint}, got norm {norm!r}")
    return arr


def _projectors(axes: np.ndarray) -> np.ndarray:
    """(I + (-1)^bit axis . sigma)/2 for one float axis (3,) or a row of them (n, 3),
    indexed [..., bit, i, j]: the two projectors of a unit axis, I/2 twice for zero.

    Written out entry by entry on Python floats, with the bits of the
    broadcast complex expression (I + s (x X + y Y + z Z)) / 2 for s = +-1,
    the sign of each zero included. Each Pauli entry is 0, +-1 or +-1j, so
    every product in that expression is exact and its entries are
    (1 + s z) / 2 and (1 - s z) / 2 on the diagonal and s (x -+ i y) / 2 off
    it; adding the entries of I (1 and 0, each with imaginary part +0.0)
    before halving turns every zero part into +0.0. Hence 0.0 + x, never x
    alone: that shorter form gives some zeros the other sign.
    """
    parts = []  # the real and imaginary part of each entry, in [bit, i, j] order
    for x, y, z in axes.reshape(-1, 3).tolist():
        up, down = (1.0 + z) / 2, (1.0 - z) / 2
        px, py, mx, my = (0.0 + x) / 2, (0.0 + y) / 2, (0.0 - x) / 2, (0.0 - y) / 2
        parts += [up, 0.0, px, my, px, py, down, 0.0, down, 0.0, mx, py, mx, my, up, 0.0]
    return np.array(parts).view(complex).reshape(*axes.shape[:-1], 2, 2, 2)


def _pairs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p (x) q of broadcast stacks of 2x2 factors; each entry of each 4x4
    product is the one product p[i, j] * q[k, l]."""
    prod = p[..., :, None, :, None] * q[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], 4, 4)


# ObservableSpec stacks by their bytes; an entry leaves with its stack.
_PROVEN: weakref.WeakValueDictionary[bytes, np.ndarray] = weakref.WeakValueDictionary()


def _prove(stack: np.ndarray) -> np.ndarray:
    """A read-only copy of an ObservableSpec stack, recorded by its bytes as an
    instrument; a live stack with the same bytes is returned in its place."""
    stack = stack.copy()  # owns its data, so no writeable base can change it
    stack.setflags(write=False)
    return _PROVEN.setdefault(stack.tobytes(), stack)


def _proven(stack) -> bool:
    """Whether ``stack`` has the dtype, shape and bytes of a live stack built by
    ObservableSpec, which makes it that instrument, however it was made."""
    if not isinstance(stack, np.ndarray) or stack.dtype != complex:
        return False
    built = _PROVEN.get(stack.tobytes())
    return built is not None and built.shape == stack.shape


# Bob's factors, indexed [y, b, b_prime], as 2 * axis + bit into the projectors of
# (measure, relay, encode, 0): y read along measure or relay, b xor y or I/2 written.
_BOB_READ = np.array([[[0, 2], [0, 2]], [[1, 3], [1, 3]]])
_BOB_WRITTEN = np.array([[[4, 6], [5, 6]], [[5, 6], [4, 6]]])


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """Bloch-vector parameterization of one party's general operation.

    ``measure`` is the axis read on the input qubit and ``encode`` the axis
    of the state written on the output qubit; either may be the zero
    vector, which turns its factor into I/2. ``relay`` is the axis Bob
    measures in his forward-immediately branch, defaulting to z.
    """

    measure: np.ndarray
    encode: np.ndarray
    relay: np.ndarray | None = None

    def __post_init__(self) -> None:
        measure = _unit3(self.measure, "measure", allow_zero=True)
        encode = _unit3(self.encode, "encode", allow_zero=True)
        relay = Z_AXIS if self.relay is None else _unit3(self.relay, "relay")
        for name, value in (("measure", measure), ("encode", encode), ("relay", relay)):
            value = value.copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @cached_property
    def alice_stack(self) -> np.ndarray:
        """Alice's elements P(x, measure) (x) P(a, encode), indexed [x, a], built once, read-only."""
        measure, encode = _projectors(np.array([self.measure, self.encode]))
        return _prove(_pairs(measure[:, None], encode[None, :]))

    @cached_property
    def bob_stack(self) -> np.ndarray:
        """Bob's elements, indexed [y, b, b_prime], built once, read-only.

        The b_prime = 1 branch measures along ``relay`` and forwards the
        maximally mixed state: P(y, relay) (x) I/2. The b_prime = 0 branch
        decodes along ``measure`` and encodes b xor y along ``encode``:
        P(y, measure) (x) P(b xor y, encode).
        """
        axes = np.array([self.measure, self.relay, self.encode, np.zeros(3)])
        factors = _projectors(axes).reshape(8, 2, 2)
        return _prove(_pairs(factors[_BOB_READ], factors[_BOB_WRITTEN]))


# alice_z and bob_branch at its default axis; their stacks are built on first use.
_Z_STRATEGY, _X_BRANCH = ObservableSpec(Z_AXIS, Z_AXIS), ObservableSpec(X_AXIS, Z_AXIS)
# The state bob_branch writes in its decode branch, indexed [y, b]: P(b xor y, z).
_Z_WRITTEN = _projectors(Z_AXIS)[np.bitwise_xor.outer(range(2), range(2))]


def alice_z(x, a) -> np.ndarray:
    """Measure the input in the z basis, reprepare the z eigenstate of a.

    Outcome x is the measurement result; the repreparation encodes the
    input bit a regardless of x, which makes the two-outcome family trace
    preserving for each a.
    """
    return _Z_STRATEGY.alice_stack[_check_bit(x, "x"), _check_bit(a, "a")].copy()


def bob_branch(y, b, b_prime, t=X_AXIS) -> np.ndarray:
    """Bob's two-branch operation, selected by the round bit b_prime.

    For b_prime = 1 he measures z immediately (outcome y) and forwards the
    maximally mixed state. For b_prime = 0 he decodes the incoming qubit
    along the axis t and encodes b xor y on the output, so the receiving
    side can recover b from a z measurement.
    """
    index = _check_bit(y, "y"), _check_bit(b, "b"), _check_bit(b_prime, "b_prime")
    return _branch_stack(t)[index].copy()  # t is checked, though b_prime = 1 does not read it


def _branch_stack(t) -> np.ndarray:
    """Every element of ``bob_branch`` at a unit decode axis t, indexed [y, b, b_prime];
    a float64 3-vector goes to the memo as is, and is checked only on a miss."""
    if not (isinstance(t, np.ndarray) and t.dtype == np.float64 and t.shape == (3,)):
        t = _unit3(t, "t")
    return _axis_branch(t.tobytes())


@lru_cache(maxsize=4)  # one table asks for one axis eight times
def _axis_branch(axis: bytes) -> np.ndarray:
    """ObservableSpec(t, Z_AXIS).bob_stack, built from the default branch's stack:
    only its b_prime = 0 block, P(y, t) (x) P(b xor y, z), reads t, and only its
    first factor moves with t; each entry is the same one product."""
    stack = _X_BRANCH.bob_stack.copy()
    stack[:, :, 0] = _pairs(_projectors(_unit3(np.frombuffer(axis), "t"))[:, None], _Z_WRITTEN)
    return _prove(stack)


def alice_general(x, a, spec: ObservableSpec) -> np.ndarray:
    """Alice's operation for arbitrary axes: a copy of ``spec.alice_stack[x, a]``."""
    return spec.alice_stack[_check_bit(x, "x"), _check_bit(a, "a")].copy()


def bob_general(y, b, b_prime, spec: ObservableSpec) -> np.ndarray:
    """Bob's operation for arbitrary axes: a copy of ``spec.bob_stack[y, b, b_prime]``."""
    return spec.bob_stack[_check_bit(y, "y"), _check_bit(b, "b"), _check_bit(b_prime, "b_prime")].copy()


def _stacks(alice, bob) -> tuple[np.ndarray, np.ndarray]:
    """Alice's (2, 2, 4, 4) and Bob's (2, 2, 2, 4, 4) stacks of 4x4 elements, each an instrument.

    A callable ``alice(x, a)`` or ``bob(y, b, b_prime)`` returning one
    element is tabulated into its stack; ``alice_z`` and ``bob_branch`` at
    its default axis stand for their built stacks. A stack with the dtype,
    shape and bytes of a live ObservableSpec stack is that instrument,
    however it was made; every other is checked by ``_check_stack``,
    Alice's first.
    """
    if alice is alice_z:
        alice = _Z_STRATEGY.alice_stack
    elif callable(alice):
        alice = [[alice(x, a) for a in (0, 1)] for x in (0, 1)]
    if bob is bob_branch:
        bob = _X_BRANCH.bob_stack
    elif callable(bob):
        bob = [[[bob(y, b, bp) for bp in (0, 1)] for b in (0, 1)] for y in (0, 1)]
    alice, bob = np.asarray(alice, dtype=complex), np.asarray(bob, dtype=complex)
    if alice.shape != (2, 2, 4, 4) or bob.shape != (2, 2, 2, 4, 4):
        raise ValueError(f"need 4x4 instrument elements, got stacks {alice.shape} and {bob.shape}")
    for party, stack in (("A", alice), ("B", bob)):
        if not _proven(stack):
            _check_stack(party, stack)
    return alice, bob


def _check_stack(party: str, stack: np.ndarray) -> None:
    """Complete positivity and trace preservation of one party's stack of 4x4
    elements, outcome first, in one pass over its settings.

    Every element must be finite, Hermitian by the rule of
    ``tensor._hermitian_part``, with a Hermitian part inside the float
    range, and positive; the elements of each setting must sum to a
    trace-preserving map, a residual that overflows counting as infinite.
    Raises ValueError naming ``party`` and the first failing setting, with
    its failure messages, which are built only for that setting.
    """
    elements = stack.reshape(2, -1, 4, 4)
    finite = np.isfinite(elements).all(axis=(-2, -1))
    safe = np.where(finite[..., None, None], elements, 0.0)
    herm, residual, skewed = _hermitian_part(safe)
    bounded = np.isfinite(herm).all(axis=(-2, -1))  # finite entries can sum past the float range
    low = np.linalg.eigvalsh(np.where(bounded[..., None, None], herm, 0.0))[..., 0]
    # Trace out the output qubit of the summed map: in (2,2,2,2) form an
    # element is indexed [in, out, in', out'].
    with np.errstate(over="ignore", invalid="ignore"):
        reduced = np.einsum("kiojo->kij", safe.sum(axis=0).reshape(-1, 2, 2, 2, 2))
        tp = np.linalg.norm(reduced - np.eye(2), axis=(-2, -1))
    if finite.all() and bounded.all() and not skewed.any() and (low >= -CP_ATOL).all() and (tp <= TP_ATOL).all():
        return
    for setting, index in enumerate(np.ndindex(stack.shape[1:-2])):
        found = []
        for k in range(2):
            if not finite[k, setting]:
                found.append(f"element {k} has non-finite entries")
            elif skewed[k, setting]:
                found.append(f"element {k} is {_not_hermitian(residual[k, setting])}")
            elif not bounded[k, setting]:
                found.append(f"element {k} has a Hermitian part that overflows")
            elif low[k, setting] < -CP_ATOL:
                found.append(f"element {k} is not positive: minimum eigenvalue {low[k, setting]:.6e}")
        if not tp[setting] <= TP_ATOL:
            found.append(f"summed map is not trace preserving: residual {tp[setting]:.3e}")
        if found:
            raise ValueError(f"party {party} instrument at setting {index} is invalid: " + "; ".join(found))
