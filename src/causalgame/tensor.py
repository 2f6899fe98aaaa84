"""Dense complex linear algebra over labeled tensor-product spaces.

Everything downstream works on 16x16 complex matrices on the four qubits
A_I, A_O, B_I, B_O, in that fixed order. This module supplies partial
traces over named qubits, a guarded Hermitian eigenvalue routine (numpy's
``eigvalsh`` behind Hermiticity and finiteness checks), and the
Hilbert-Schmidt (Pauli) decomposition used to classify process-matrix
terms.
"""

from __future__ import annotations

from functools import cache

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

# The fixed tensor order of every process matrix: Alice's input and output
# qubits, then Bob's.
LABELS = ("A_I", "A_O", "B_I", "B_O")


def _as_square(matrix: np.ndarray) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def hermiticity_residual(matrix: np.ndarray) -> float:
    """Largest entrywise deviation of M from its conjugate transpose."""
    arr = _as_square(matrix)
    return float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0


def partial_trace(matrix: np.ndarray, keep) -> np.ndarray:
    """Trace a 16x16 matrix over every qubit of LABELS not listed in ``keep``.

    The kept qubits retain their LABELS order. Tracing everything returns a
    1x1 matrix holding the full trace.
    """
    arr = _as_square(matrix)
    if arr.shape[0] != 16:
        raise ValueError(f"expected a 16x16 matrix, got shape {arr.shape}")
    keep_set = set(keep)
    unknown = keep_set - set(LABELS)
    if unknown:
        raise ValueError(f"unknown subsystem labels {sorted(unknown)}; have {LABELS}")
    traced = [i for i, label in enumerate(LABELS) if label not in keep_set]
    tensor = arr.reshape((2,) * 8)
    # Trace highest-index qubits first so remaining axis numbers stay valid.
    for done, axis in enumerate(sorted(traced, reverse=True)):
        tensor = np.trace(tensor, axis1=axis, axis2=axis + 4 - done)
    kept_dim = 2 ** (4 - len(traced))
    return np.asarray(tensor).reshape(kept_dim, kept_dim)


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix in ascending order.

    Raises ValueError on non-finite entries, which LAPACK would turn into
    plausible-looking numbers, and on a Hermiticity residual above
    HERMITICITY_ATOL. The eigenvalues are those of the Hermitian part.
    """
    arr = _as_square(matrix)
    if not np.isfinite(arr).all():
        raise ValueError("matrix has non-finite entries")
    residual = hermiticity_residual(arr)
    if residual > HERMITICITY_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds {HERMITICITY_ATOL:.1e}"
        )
    return np.linalg.eigvalsh((arr + arr.conj().T) / 2)


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


def pauli_decompose(matrix: np.ndarray, zero_atol: float = 0.0) -> dict[tuple[int, ...], float]:
    """Expand a Hermitian 2**n x 2**n matrix in the n-qubit Pauli basis.

    Returns the sparse map from index tuples (0=I, 1=X, 2=Y, 3=Z per
    qubit) to real coefficients, with coefficient(t) = Tr[M sigma(t)]
    divided by the dimension. Entries with |c| <= ``zero_atol`` are
    dropped; the default keeps everything nonzero at working precision.
    """
    arr = _as_square(matrix)
    dim = arr.shape[0]
    n = dim.bit_length() - 1
    if n < 1 or dim != 2**n:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    cols, phase = _trace_pattern(n)
    # Tr[M sigma(t)] = sum_r M[r, c] sigma(t)[c, r] over the one nonzero c
    # of each column of sigma(t). The products are exact (unit phases), so
    # only the row sum rounds; summing the rows in order keeps every
    # coefficient bit-identical to a single contraction over all indices.
    terms = np.take_along_axis(arr, cols, axis=1) * phase
    coeffs = terms[0].copy()
    for row in terms[1:]:
        coeffs += row
    coeffs /= dim
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


def pauli_compose(coefficients: dict[tuple[int, ...], float]) -> np.ndarray:
    """Rebuild the 16x16 matrix from a sparse four-qubit Pauli coefficient map."""
    # Each term adds into its word's one nonzero entry per column, in dict order.
    cols, phase = _trace_pattern(4)
    out = np.zeros((16, 16), dtype=complex)
    for word, value in coefficients.items():
        if len(word) != 4:
            raise ValueError(f"index tuple {word} does not match {len(LABELS)} subsystems")
        if any(i not in (0, 1, 2, 3) for i in word):
            raise ValueError(f"Pauli indices must lie in 0..3, got {word}")
        flat = 64 * word[0] + 16 * word[1] + 4 * word[2] + word[3]
        out[cols[:, flat], np.arange(16)] += value * phase[:, flat]
    return out
