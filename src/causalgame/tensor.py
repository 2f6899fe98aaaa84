"""Dense complex linear algebra over labeled tensor-product spaces.

Everything downstream works on 16x16 complex matrices on the four qubits
A_I, A_O, B_I, B_O, in that fixed order. This module supplies the
Hilbert-Schmidt (Pauli) decomposition of a 16x16 matrix, and its inverse,
used to classify process-matrix terms, and the one Hermiticity rule that
process matrices, decompositions and instrument elements are held to.
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
# The types a Pauli coefficient may have (bool, a subclass of int, is refused apart):
# concrete types, because an isinstance test against numbers.Real is several times slower.
_REAL_TYPES = (int, float, np.integer, np.floating)


@cache
def _trace_pattern() -> tuple[np.ndarray, np.ndarray]:
    """Where each four-qubit Pauli word reads and writes a 16x16 complex matrix.

    Column r of sigma(t) is nonzero only in row c = r ^ x(t), where x(t)
    flags the X and Y factors, and that entry is the product of the
    per-qubit phases, one of 1, -1, 1j and -1j. Returns the real part of
    M[r, c] * entry as an index into the float view of a flattened 16x16
    complex M with the sign it carries there: M[r, c].real for a phase of
    +-1, M[r, c].imag for +-1j. Since sigma(t)[r, c] is the conjugate of
    that entry, the same part with the same sign is where sigma(t) itself
    holds +-1. Both are (16, 256) arrays indexed by r and the flat word t.
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
    imaginary = phase.imag != 0
    part = 2 * (cols + 16 * rows) + imaginary
    sign = np.where(imaginary, -phase.imag, phase.real)
    for shared in (part, sign):  # shared by every caller
        shared.flags.writeable = False
    return part, sign


def _check_tolerance(name: str, value) -> None:
    """Refuse a tolerance that is a bool (which would read as 0 or 1), not finite, or negative."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got the bool {value!r}")
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _hermitian_part(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hermiticity rule of every process matrix and instrument element.

    For a matrix or a stack of them, returns the Hermitian part (M + M^H) / 2,
    the residual max |M - M^H| of each matrix, and whether that residual
    exceeds HERMITICITY_ATOL.
    """
    adjoint = np.swapaxes(matrix, -1, -2).conj()
    # Finite entries can sum past the float range: the part or the residual
    # comes out infinite, which each caller refuses or reports, unwarned.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(matrix - adjoint).max(axis=(-2, -1))
        return (matrix + adjoint) / 2, residual, residual > HERMITICITY_ATOL


def _not_hermitian(residual: float) -> str:
    """The failure text of a residual that exceeds HERMITICITY_ATOL."""
    return f"not Hermitian: residual {residual:.3e} exceeds {HERMITICITY_ATOL:.1e}"


def _coefficients(arr: np.ndarray) -> np.ndarray:
    """The 256 real Pauli coefficients Tr[M sigma(t)] / 16 of a finite Hermitian 16x16 complex array.

    Word t = (t0, t1, t2, t3) sits at flat index 64 t0 + 16 t1 + 4 t2 + t3,
    the order of ``_WORDS``.
    """
    part, sign = _trace_pattern()
    # Tr[M sigma(t)] = sum_r M[r, c] sigma(t)[c, r] over the one nonzero c of
    # each column of sigma(t). That entry is +-1 or +-1j, so the real part
    # of each product is exactly +- one part of M[r, c]: the real part for
    # +-1, the imaginary part for +-1j, read here from the float view. Only
    # the sum over rows rounds, and numpy adds the rows in order from +0.0
    # whether they hold these parts or the complex products, so every
    # coefficient, a zero's sign included, is the one the complex products
    # give, and bit-identical to one contraction over all indices up to the
    # sign of a zero.
    return (arr.ravel().view(float).take(part) * sign).sum(axis=0) / 16


def pauli_decompose(matrix: np.ndarray, zero_atol: float = 0.0) -> dict[tuple[int, ...], float]:
    """Expand a Hermitian 16x16 matrix in the four-qubit Pauli basis.

    Returns the sparse map from index tuples (0=I, 1=X, 2=Y, 3=Z per
    qubit) to real coefficients, with coefficient(t) = Tr[M sigma(t)] / 16.
    Entries with |c| <= ``zero_atol`` are dropped; the default keeps
    everything nonzero at working precision. ``zero_atol`` must be finite
    and non-negative, and not a bool. A matrix with a non-finite entry, one
    that fails the Hermiticity rule of ``_hermitian_part``, or one whose
    coefficient sums overflow raises ValueError.
    """
    _check_tolerance("zero_atol", zero_atol)
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (16, 16):
        raise ValueError(f"expected a 16x16 matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    _, residual, skewed = _hermitian_part(arr)
    if skewed:
        raise ValueError(f"input is {_not_hermitian(residual)}")
    with np.errstate(over="ignore", invalid="ignore"):  # finite entries can sum past the float range
        values = _coefficients(arr)
    if not np.isfinite(values).all():
        raise ValueError("Pauli coefficients overflow: matrix entries are too large")
    kept = np.flatnonzero(np.abs(values) > zero_atol)
    return dict(zip(map(_WORDS.__getitem__, kept.tolist()), values[kept].tolist()))


def pauli_compose(coefficients: dict[tuple[int, ...], float]) -> np.ndarray:
    """Rebuild the 16x16 matrix from a sparse four-qubit Pauli coefficient map.

    Each coefficient must be a finite Python or NumPy integer or float;
    a bool is refused.
    """
    for word, value in coefficients.items():  # name the first bad word
        if len(word) != 4:
            raise ValueError(f"index tuple {word} does not match {len(LABELS)} subsystems")
        if not {0, 1, 2, 3}.issuperset(word):
            raise ValueError(f"Pauli indices must lie in 0..3, got {word}")
        if isinstance(value, bool) or not isinstance(value, _REAL_TYPES) or not math.isfinite(value):
            raise ValueError(f"coefficient of {word} must be a finite real number, got {value!r}")
    part, sign = _trace_pattern()
    flat = np.array(list(coefficients), dtype=np.intp).reshape(-1, 4) @ (64, 16, 4, 1)
    out = np.zeros((16, 16), dtype=complex)
    # Each term adds +-value into one part of its word's one nonzero entry
    # per row, in dict order. The complex sum would also add +-0.0 to the
    # other part, which changes no value but -0.0, and a part summed from
    # +0.0 is never -0.0: the same bits.
    terms = np.array(list(coefficients.values())) * sign[:, flat]
    np.add.at(out.reshape(-1).view(float), part[:, flat], terms)
    return out
