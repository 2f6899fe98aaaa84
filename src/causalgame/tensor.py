"""Dense complex linear algebra over labeled tensor-product spaces.

Everything downstream works on small (at most 16x16) complex matrices living
on an ordered list of qubit subsystems. This module supplies Kronecker
products of several factors, partial traces over named subsystems, a guarded
Hermitian eigenvalue routine (numpy's ``eigvalsh`` behind Hermiticity and
finiteness checks), and the Hilbert-Schmidt (Pauli) decomposition used to
classify process-matrix terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

HERMITICITY_ATOL = 1e-12

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
PAULI_LABELS = "IXYZ"
_PAULI_STACK = np.stack(PAULI)


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered (label, dimension) pairs naming the tensor factors of a matrix."""

    subsystems: tuple[tuple[str, int], ...] = (
        ("A_I", 2),
        ("A_O", 2),
        ("B_I", 2),
        ("B_O", 2),
    )

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError("subsystem labels must be unique")
        if any(dim < 1 for _, dim in self.subsystems):
            raise ValueError("subsystem dimensions must be positive")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def dim(self) -> int:
        out = 1
        for dim in self.dims:
            out *= dim
        return out

    def index(self, label: str) -> int:
        for i, (name, _) in enumerate(self.subsystems):
            if name == label:
                return i
        raise ValueError(f"unknown subsystem label {label!r}; have {self.labels}")

    def all_qubits(self) -> bool:
        return all(dim == 2 for dim in self.dims)


DEFAULT_LAYOUT = SubsystemLayout()


def _as_square(matrix: np.ndarray) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def hermiticity_residual(matrix: np.ndarray) -> float:
    """Largest entrywise deviation of M from its conjugate transpose."""
    arr = _as_square(matrix)
    return float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0


def kron_all(*operators: np.ndarray) -> np.ndarray:
    """Kronecker product of several factors, left to right."""
    if not operators:
        raise ValueError("need at least one operator")
    return reduce(np.kron, (_as_square(op) for op in operators))


def partial_trace(matrix: np.ndarray, layout: SubsystemLayout, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` is an iterable of subsystem labels; the kept subsystems retain
    their order from the layout. Tracing everything returns a 1x1 matrix
    holding the full trace.
    """
    arr = _as_square(matrix)
    if arr.shape[0] != layout.dim:
        raise ValueError(
            f"matrix dimension {arr.shape[0]} does not match layout dimension {layout.dim}"
        )
    keep_set = set(keep)
    for label in keep_set:
        layout.index(label)

    dims = layout.dims
    traced = [i for i, label in enumerate(layout.labels) if label not in keep_set]
    tensor = arr.reshape(*dims, *dims)
    n_current = len(dims)
    # Trace highest-index subsystems first so remaining axis numbers stay valid.
    for axis in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=axis, axis2=axis + n_current)
        n_current -= 1
    kept_dim = 1
    for i, dim in enumerate(dims):
        if i not in traced:
            kept_dim *= dim
    return np.asarray(tensor).reshape(kept_dim, kept_dim)


def hermitian_eigenvalues(matrix: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix in ascending order.

    Raises ValueError on non-finite entries, which LAPACK would turn into
    plausible-looking numbers, and on a Hermiticity residual above ``atol``.
    The eigenvalues are those of the Hermitian part.
    """
    arr = _as_square(matrix)
    if not np.isfinite(arr).all():
        raise ValueError("matrix has non-finite entries")
    residual = hermiticity_residual(arr)
    if residual > atol:
        raise ValueError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {atol:.1e}"
        )
    return np.linalg.eigvalsh((arr + arr.conj().T) / 2)


def pauli_word(indices: tuple[int, ...]) -> np.ndarray:
    """Tensor product of Pauli matrices selected by ``indices`` (0=I,1=X,2=Y,3=Z)."""
    if not indices:
        raise ValueError("need at least one index")
    if any(i not in (0, 1, 2, 3) for i in indices):
        raise ValueError(f"Pauli indices must lie in 0..3, got {indices}")
    return reduce(np.kron, [PAULI[i] for i in indices])


@cache
def _trace_pattern(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero entry of each column of every n-qubit Pauli word.

    Column r of sigma(t) is nonzero only in row c = r ^ x(t), where x(t)
    flags the X and Y factors, and that entry is the product of the
    per-qubit phases. Returns c and the entry as (2**n, 4**n) arrays
    indexed by r and the flat word t.
    """
    rows = np.arange(2**n)[:, None]
    words = np.arange(4**n)[None, :]
    cols = np.zeros((2**n, 4**n), dtype=np.intp)
    phase = np.ones((2**n, 4**n), dtype=complex)
    for k in range(n):
        r = (rows >> (n - 1 - k)) & 1
        t = (words >> (2 * (n - 1 - k))) & 3
        c = r ^ ((t == 1) | (t == 2))
        cols |= c << (n - 1 - k)
        phase = phase * _PAULI_STACK[t, c, r]
    cols.flags.writeable = phase.flags.writeable = False  # shared by every caller
    return cols, phase


def pauli_decompose(
    matrix: np.ndarray,
    layout: SubsystemLayout = DEFAULT_LAYOUT,
    zero_atol: float = 0.0,
) -> dict[tuple[int, ...], float]:
    """Expand a Hermitian matrix in the multi-qubit Pauli basis.

    Returns the sparse map from index tuples (0=I, 1=X, 2=Y, 3=Z per
    subsystem) to real coefficients, with coefficient(t) = Tr[M sigma(t)]
    divided by the total dimension. Entries with |c| <= ``zero_atol`` are
    dropped; the default keeps everything nonzero at working precision.
    """
    if not layout.all_qubits():
        raise ValueError("Pauli decomposition requires an all-qubit layout")
    arr = _as_square(matrix)
    if arr.shape[0] != layout.dim:
        raise ValueError(
            f"matrix dimension {arr.shape[0]} does not match layout dimension {layout.dim}"
        )
    n = len(layout.dims)
    cols, phase = _trace_pattern(n)
    # Tr[M sigma(t)] = sum_r M[r, c] sigma(t)[c, r] over the one nonzero c
    # of each column of sigma(t). The products are exact (unit phases), so
    # only the row sum rounds; summing the rows in order keeps every
    # coefficient bit-identical to a single contraction over all indices.
    terms = np.take_along_axis(arr, cols, axis=1) * phase
    coeffs = terms[0].copy()
    for row in terms[1:]:
        coeffs += row
    coeffs /= layout.dim
    worst_imag = float(np.max(np.abs(coeffs.imag)))
    if worst_imag > HERMITICITY_ATOL:
        raise ValueError(
            f"coefficients are not real (residual {worst_imag:.3e}); input is not Hermitian"
        )
    values = coeffs.real
    out: dict[tuple[int, ...], float] = {}
    for flat in np.flatnonzero(np.abs(values) > max(zero_atol, 0.0)).tolist():
        word = tuple((flat >> (2 * (n - 1 - k))) & 3 for k in range(n))
        out[word] = float(values[flat])
    return out


def pauli_compose(
    coefficients: dict[tuple[int, ...], float],
    layout: SubsystemLayout = DEFAULT_LAYOUT,
) -> np.ndarray:
    """Rebuild the matrix from a sparse Pauli coefficient map."""
    if not layout.all_qubits():
        raise ValueError("Pauli composition requires an all-qubit layout")
    n = len(layout.dims)
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    for word, value in coefficients.items():
        if len(word) != n:
            raise ValueError(f"index tuple {word} does not match {n} subsystems")
        out += value * pauli_word(word)
    return out
