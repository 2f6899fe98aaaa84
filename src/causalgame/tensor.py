"""Dense complex linear algebra over labeled tensor-product spaces.

Everything downstream works on 16x16 complex matrices on the four qubits
A_I, A_O, B_I, B_O, in that fixed order. This module supplies the
Hilbert-Schmidt (Pauli) decomposition of a 16x16 matrix, and its inverse,
used to classify process-matrix terms.
"""

from __future__ import annotations

import itertools
import math
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
# Every four-qubit Pauli word as an index tuple, at its flat index 64 t0 + 16 t1 + 4 t2 + t3.
_WORDS = tuple(itertools.product(range(4), repeat=4))


@cache
def _trace_pattern() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entry of each column of every four-qubit Pauli word.

    Column r of sigma(t) is nonzero only in row c = r ^ x(t), where x(t)
    flags the X and Y factors, and that entry is the product of the
    per-qubit phases. Returns c, the entry and the flat index 16 r + c
    of M[r, c] as (16, 256) arrays indexed by r and the flat word t.
    """
    rows = np.arange(16)[:, None]
    words = np.arange(256)[None, :]
    cols = np.zeros((16, 256), dtype=np.intp)
    phase = np.ones((16, 256), dtype=complex)
    for k in range(4):
        r = (rows >> (3 - k)) & 1
        t = (words >> (2 * (3 - k))) & 3
        c = r ^ ((t == 1) | (t == 2))
        cols |= c << (3 - k)
        phase = phase * _PAULI_STACK[t, c, r]
    flat = cols + 16 * rows
    cols.flags.writeable = phase.flags.writeable = flat.flags.writeable = False  # shared by every caller
    return cols, phase, flat


def pauli_decompose(matrix: np.ndarray, zero_atol: float = 0.0) -> dict[tuple[int, ...], float]:
    """Expand a Hermitian 16x16 matrix in the four-qubit Pauli basis.

    Returns the sparse map from index tuples (0=I, 1=X, 2=Y, 3=Z per
    qubit) to real coefficients, with coefficient(t) = Tr[M sigma(t)] / 16.
    Entries with |c| <= ``zero_atol`` are dropped; the default keeps
    everything nonzero at working precision. ``zero_atol`` must be finite
    and non-negative.
    """
    if not (math.isfinite(zero_atol) and zero_atol >= 0):
        raise ValueError(f"zero_atol must be finite and non-negative, got {zero_atol!r}")
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (16, 16):
        raise ValueError(f"expected a 16x16 matrix, got shape {arr.shape}")
    _, phase, flat = _trace_pattern()
    # Tr[M sigma(t)] = sum_r M[r, c] sigma(t)[c, r] over the one nonzero c
    # of each column of sigma(t). The products are exact (unit phases), so
    # only the sum over rows rounds; numpy adds the rows in order, which
    # keeps every coefficient bit-identical to one contraction over all indices.
    coeffs = (arr.ravel().take(flat) * phase).sum(axis=0) / 16
    worst_imag = float(np.max(np.abs(coeffs.imag)))
    if worst_imag > HERMITICITY_ATOL:
        raise ValueError(
            f"coefficients are not real (residual {worst_imag:.3e}); input is not Hermitian"
        )
    kept = np.flatnonzero(np.abs(coeffs.real) > zero_atol)
    return dict(zip(map(_WORDS.__getitem__, kept.tolist()), coeffs.real[kept].tolist()))


def pauli_compose(coefficients: dict[tuple[int, ...], float]) -> np.ndarray:
    """Rebuild the 16x16 matrix from a sparse four-qubit Pauli coefficient map."""
    words = list(coefficients)
    if not (set(map(len, words)) <= {4} and set().union(*words) <= {0, 1, 2, 3}):
        for word in words:  # name the first bad word
            if len(word) != 4:
                raise ValueError(f"index tuple {word} does not match {len(LABELS)} subsystems")
            if any(i not in (0, 1, 2, 3) for i in word):
                raise ValueError(f"Pauli indices must lie in 0..3, got {word}")
    cols, phase, _ = _trace_pattern()
    flat = np.array(words, dtype=np.intp).reshape(-1, 4) @ (64, 16, 4, 1)
    out = np.zeros((16, 16), dtype=complex)
    # Each term adds into its word's one nonzero entry per column, in dict order.
    terms = np.array(list(coefficients.values())) * phase[:, flat]
    np.add.at(out, (cols[:, flat], np.arange(16)[:, None]), terms)
    return out
