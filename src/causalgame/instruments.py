"""Local operations as 4x4 Choi matrices on an input-output qubit pair.

Each instrument element is a plain array on the party's input qubit
tensor its output qubit, input factor first. Alice measures in the z
basis and reprepares a z eigenstate. Bob runs one of two branches:
measure immediately and forward the maximally mixed state, or decode
along an axis and encode his own bit. Both parties also have general
forms parameterized by Bloch vectors, a correlation tensor and an
explicit encoding table, with a positivity guard so parameter searches
can treat unphysical points as infeasible rather than crashing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import PAULI, hermitian_eigenvalues

CP_ATOL = 1e-9
TP_ATOL = 1e-10
UNIT_ATOL = 1e-10

# Default encoding tables, indexed [outcome, input bit].
ALICE_TABLE = np.array([[0, 1], [0, 1]])  # send the input bit a
BOB_TABLE = np.array([[0, 1], [1, 0]])  # send b xor y

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])
_MIXED = np.eye(2, dtype=complex) / 2  # the state Bob forwards when b_prime = 1


class InfeasibleOperationError(ValueError):
    """Requested parameters do not define a completely positive map."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


def _sign(bit: int) -> float:
    return -1.0 if bit else 1.0


def _check_bit(value, name: str) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def _unit3(vec, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if not abs(norm - 1.0) <= UNIT_ATOL:
        raise ValueError(f"{name} must be a unit vector, got norm {norm!r}")
    return arr


def _unit3_or_zero(vec, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if not (norm <= UNIT_ATOL or abs(norm - 1.0) <= UNIT_ATOL):
        raise ValueError(f"{name} must be a unit vector (or zero to omit it), got norm {norm!r}")
    return arr


def _bloch(vec: np.ndarray) -> np.ndarray:
    return vec[0] * PAULI[1] + vec[1] * PAULI[2] + vec[2] * PAULI[3]


def _corr_operator(tensor: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for k in range(3):
        for l in range(3):
            if tensor[k, l] != 0.0:
                out += tensor[k, l] * np.kron(PAULI[k + 1], PAULI[l + 1])
    return out


def _guard_psd(matrix: np.ndarray, party: str) -> None:
    low = float(hermitian_eigenvalues(matrix)[0])
    if low < -CP_ATOL:
        raise InfeasibleOperationError(
            f"{party} operation is not completely positive: minimum eigenvalue {low:.6e}",
            low,
        )


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """Bloch-vector parameterization of one party's general operation.

    ``measure`` is the axis read on the input qubit and ``encode`` the axis
    written on the output qubit; either may be the zero vector to omit its
    term (the positivity guard still applies to whatever remains). ``corr``
    is the 3x3 input-output correlation tensor, defaulting to the rank-1
    product measure x encode (unit Frobenius norm, and automatically
    completely positive); an explicit tensor must have Frobenius norm 1,
    or 0 to drop the term. ``table`` maps (outcome, input bit) to the
    encoded bit; None selects the party default when the spec is consumed.
    ``relay`` is the axis Bob measures in his forward-immediately branch,
    defaulting to z.
    """

    measure: np.ndarray
    encode: np.ndarray
    corr: np.ndarray | None = None
    table: np.ndarray | None = None
    relay: np.ndarray | None = None

    def __post_init__(self) -> None:
        measure = _unit3_or_zero(self.measure, "measure")
        encode = _unit3_or_zero(self.encode, "encode")
        if self.corr is None:
            corr = np.outer(measure, encode)
        else:
            corr = np.asarray(self.corr, dtype=float)
            if corr.shape != (3, 3):
                raise ValueError(f"corr must be 3x3, got shape {corr.shape}")
            norm = float(np.linalg.norm(corr))
            if not (norm <= UNIT_ATOL or abs(norm - 1.0) <= UNIT_ATOL):
                raise ValueError(
                    f"corr must have Frobenius norm 1 (or 0 to omit the term), got {norm!r}"
                )
        table = self.table
        if table is not None:
            table = np.asarray(table, dtype=int)
            if table.shape != (2, 2) or not np.isin(table, (0, 1)).all():
                raise ValueError("table must be a 2x2 array of bits")
            table.setflags(write=False)
        relay = Z_AXIS if self.relay is None else _unit3(self.relay, "relay")
        for name, value in (
            ("measure", measure),
            ("encode", encode),
            ("corr", corr),
            ("relay", relay),
        ):
            value = value.copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "table", table)

    def to_record(self) -> dict:
        """Plain-data form, as ``optimize --json`` prints it."""
        return {
            "measure": self.measure.tolist(),
            "encode": self.encode.tolist(),
            "corr": self.corr.tolist(),
            "table": None if self.table is None else self.table.tolist(),
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
    meas = (np.eye(2) + _sign(x) * PAULI[3]) / 2
    prep = (np.eye(2) + _sign(a) * PAULI[3]) / 2
    return np.kron(meas, prep)


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
        return np.kron((np.eye(2) + _sign(y) * PAULI[3]) / 2, _MIXED)
    axis = _unit3(t, "t")
    meas = (np.eye(2) + _sign(y) * _bloch(axis)) / 2
    prep = (np.eye(2) + _sign(b ^ y) * PAULI[3]) / 2
    return np.kron(meas, prep)


def alice_general(x, a, spec: ObservableSpec) -> np.ndarray:
    """Alice's operation for arbitrary axes and encoding table.

    Builds (1/4)[1 + (-1)^x measure . sigma on the input
    + (-1)^F encode . sigma on the output + (-1)^(x xor F) corr term]
    where F = table[x, a]. Raises InfeasibleOperationError when the four
    terms do not assemble into a positive operator.
    """
    x = _check_bit(x, "x")
    a = _check_bit(a, "a")
    table = ALICE_TABLE if spec.table is None else spec.table
    f = int(table[x, a])
    matrix = 0.25 * (
        np.eye(4, dtype=complex)
        + _sign(x) * np.kron(_bloch(spec.measure), np.eye(2))
        + _sign(f) * np.kron(np.eye(2), _bloch(spec.encode))
        + _sign(x ^ f) * _corr_operator(spec.corr)
    )
    _guard_psd(matrix, "Alice")
    return matrix


def bob_general(y, b, b_prime, spec: ObservableSpec) -> np.ndarray:
    """Bob's operation for arbitrary axes and encoding table.

    The b_prime = 1 branch measures along ``spec.relay`` and forwards the
    maximally mixed state; the b_prime = 0 branch decodes along
    ``spec.measure`` and encodes G = table[y, b] along ``spec.encode``
    with the corr term signed by y xor G. Positivity is guarded the same
    way as for Alice.
    """
    y = _check_bit(y, "y")
    b = _check_bit(b, "b")
    b_prime = _check_bit(b_prime, "b_prime")
    if b_prime:
        matrix = np.kron((np.eye(2) + _sign(y) * _bloch(spec.relay)) / 2, _MIXED)
    else:
        table = BOB_TABLE if spec.table is None else spec.table
        g = int(table[y, b])
        matrix = 0.25 * (
            np.eye(4, dtype=complex)
            + _sign(y) * np.kron(_bloch(spec.measure), np.eye(2))
            + _sign(g) * np.kron(np.eye(2), _bloch(spec.encode))
            + _sign(y ^ g) * _corr_operator(spec.corr)
        )
    _guard_psd(matrix, "Bob")
    return matrix


def _check_stack(elements: np.ndarray) -> dict:
    """Positivity and trace preservation of stacked instrument elements.

    ``elements`` holds 4x4 Choi matrices with the outcome on axis 0 and any
    setting axes after it, so one call checks a whole family. Returns the
    failure messages of each failing setting, keyed by its index tuple in
    row-major order; an empty dict means every setting is an instrument.
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
    failures = {}
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
            failures[setting] = found
    return failures
