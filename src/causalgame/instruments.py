"""Local operations as 4x4 Choi matrices on an input-output qubit pair.

Each instrument element is a measure-and-reprepare product E (x) rho: a
qubit projector on the party's input tensor a qubit state on its output,
input factor first. Both factors are (I + (-1)^bit axis . sigma)/2, so
every element is positive by construction. Alice measures in the z basis
and reprepares a z eigenstate. Bob runs one of two branches: measure
immediately and forward the maximally mixed state, or decode along an
axis and encode his own bit. Both parties also have general forms with
arbitrary measure, encode and relay axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import PAULI

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
    arr = np.asarray(vec, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    norm = math.hypot(*arr)  # no overflow for huge finite entries
    if not (abs(norm - 1.0) <= UNIT_ATOL or (allow_zero and norm <= UNIT_ATOL)):
        hint = " (or zero to omit it)" if allow_zero else ""
        raise ValueError(f"{name} must be a unit vector{hint}, got norm {norm!r}")
    return arr


def _projector(bit: int, axis: np.ndarray) -> np.ndarray:
    """(I + (-1)^bit axis . sigma)/2: a projector for a unit axis, I/2 for zero."""
    sign = -1.0 if bit else 1.0
    return (np.eye(2) + sign * (axis[0] * PAULI[1] + axis[1] * PAULI[2] + axis[2] * PAULI[3])) / 2


def _pair(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p (x) q of 2x2 factors; each entry is the one product p[i, j] * q[k, l]."""
    return (p[:, None, :, None] * q[None, :, None, :]).reshape(4, 4)


_Z = (_projector(0, Z_AXIS), _projector(1, Z_AXIS))
_MIXED = _projector(0, np.zeros(3))  # the state Bob forwards when b_prime = 1


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

    def to_record(self) -> dict:
        """Plain-data form, as ``optimize --json`` prints it.

        ``corr`` is the measure-encode outer product and ``table`` is
        always None; both keys keep the printed format stable.
        """
        return {
            "measure": self.measure.tolist(),
            "encode": self.encode.tolist(),
            "corr": np.outer(self.measure, self.encode).tolist(),
            "table": None,
            "relay": self.relay.tolist(),
        }


def alice_z(x, a) -> np.ndarray:
    """Measure the input in the z basis, reprepare the z eigenstate of a.

    Outcome x is the measurement result; the repreparation encodes the
    input bit a regardless of x, which makes the two-outcome family trace
    preserving for each a.
    """
    x = _check_bit(x, "x")
    a = _check_bit(a, "a")
    return _pair(_Z[x], _Z[a])


def bob_branch(y, b, b_prime, t=X_AXIS) -> np.ndarray:
    """Bob's two-branch operation, selected by the round bit b_prime.

    For b_prime = 1 he measures z immediately (outcome y) and forwards the
    maximally mixed state. For b_prime = 0 he decodes the incoming qubit
    along the axis t and encodes b xor y on the output, so the receiving
    side can recover b from a z measurement.
    """
    y = _check_bit(y, "y")
    b = _check_bit(b, "b")
    b_prime = _check_bit(b_prime, "b_prime")
    if b_prime:
        return _pair(_Z[y], _MIXED)
    return _pair(_projector(y, _unit3(t, "t")), _Z[b ^ y])


def alice_general(x, a, spec: ObservableSpec) -> np.ndarray:
    """Alice's operation for arbitrary axes: P(x, measure) (x) P(a, encode)."""
    x = _check_bit(x, "x")
    a = _check_bit(a, "a")
    return _pair(_projector(x, spec.measure), _projector(a, spec.encode))


def bob_general(y, b, b_prime, spec: ObservableSpec) -> np.ndarray:
    """Bob's operation for arbitrary axes.

    The b_prime = 1 branch measures along ``spec.relay`` and forwards the
    maximally mixed state: P(y, relay) (x) I/2. The b_prime = 0 branch
    decodes along ``spec.measure`` and encodes b xor y along
    ``spec.encode``: P(y, measure) (x) P(b xor y, encode).
    """
    y = _check_bit(y, "y")
    b = _check_bit(b, "b")
    b_prime = _check_bit(b_prime, "b_prime")
    if b_prime:
        return _pair(_projector(y, spec.relay), _MIXED)
    return _pair(_projector(y, spec.measure), _projector(b ^ y, spec.encode))


def _check_stack(elements: np.ndarray) -> tuple[tuple[int, ...], list[str]] | None:
    """Positivity and trace preservation of stacked instrument elements.

    ``elements`` holds 4x4 Choi matrices with the outcome on axis 0 and any
    setting axes after it, so one call checks a whole family. Returns the
    first failing setting, as its index tuple in row-major order, with its
    failure messages; None means every setting is an instrument.
    """
    finite = np.isfinite(elements).all(axis=(-2, -1))
    safe = np.where(finite[..., None, None], elements, 0.0)
    herm = (safe + np.swapaxes(safe, -1, -2).conj()) / 2
    low = np.linalg.eigvalsh(herm)[..., 0]
    # Trace out the output qubit of the summed map: in (2,2,2,2) form an
    # element is indexed [in, out, in', out'].
    total = safe.sum(axis=0).reshape(*elements.shape[1:-2], 2, 2, 2, 2)
    reduced = np.einsum("...iojo->...ij", total)
    tp = np.linalg.norm(reduced - np.eye(2), axis=(-2, -1))
    if finite.all() and (low >= -CP_ATOL).all() and (tp <= TP_ATOL).all():
        return None
    for setting in np.ndindex(tp.shape):
        found = []
        for outcome in range(elements.shape[0]):
            value = low[(outcome, *setting)]
            if not finite[(outcome, *setting)]:
                found.append(f"element {outcome} has non-finite entries")
            elif value < -CP_ATOL:
                found.append(f"element {outcome} is not positive: minimum eigenvalue {value:.6e}")
        if not tp[setting] <= TP_ATOL:
            found.append(f"summed map is not trace preserving: residual {tp[setting]:.3e}")
        if found:
            return setting, found
