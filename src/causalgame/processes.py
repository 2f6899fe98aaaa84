"""Process matrices for the two-party causal game.

Constructors for the correlated w_beta family, the one-way ordered
processes and their convex mixtures, a six-coefficient ansatz family for
numerical searches, validity checking against the allowed correlation
terms, and the witness operator that certifies causal nonseparability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    PAULI_LABELS, _WORDS, _check_tolerance, _coefficients, _hermitian_part, _not_hermitian, pauli_compose,
)

PSD_ATOL = 1e-9
TRACE_ATOL = 1e-9
SUPPORT_ATOL = 1e-10

# Which of A_I, A_O, B_I, B_O each Pauli word acts on, by flat index 64 t0 + 16 t1 + 4 t2 + t3.
_ON_A_I, _ON_A_O, _ON_B_I, _ON_B_O = ((np.arange(256) >> np.array([[6], [4], [2], [0]])) & 3) != 0
# The words of a one-way process, by direction (Oreshkov, Costa and Brukner,
# Nat. Commun. 3, 1092 (2012); Araujo et al., NJP 17, 102001 (2015)): none
# acts on the second party's output, and one on the first party's output
# acts on the second party's input too. Any other word would let an
# instrument signal to its own past. A valid process carries weight only
# on ALLOWED, the union of the two.
ONE_WAY = {
    "a_to_b": ~_ON_B_O & (_ON_B_I | ~_ON_A_O),
    "b_to_a": ~_ON_A_O & (_ON_A_I | ~_ON_B_O),
}
ALLOWED = ONE_WAY["a_to_b"] | ONE_WAY["b_to_a"]
for _mask in (*ONE_WAY.values(), ALLOWED):
    _mask.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """A 16x16 process matrix on A_I, A_O, B_I, B_O (the order of LABELS).

    The matrix itself is stored read-only; ``tag`` records which family and
    parameters produced it, for reports and serialized files, on one line
    (a Pauli file stores it in one comment).
    """

    matrix: np.ndarray
    tag: str = ""

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"process matrix must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("process matrix entries must be finite")
        if arr.shape[0] != 16:
            raise ValueError(f"process matrix dimension must be 16, got {arr.shape[0]}")
        if "".join(self.tag.splitlines()) != self.tag:
            raise ValueError(f"tag must be one line, got {self.tag!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the process-matrix checks, one failure string per violation.

    ``coefficients`` holds the 256 Pauli coefficients of W's Hermitian part
    that the support check read, read-only, by flat word index.
    """

    is_valid: bool
    hermiticity_residual: float
    min_eigenvalue: float
    trace: float
    forbidden_terms: tuple[tuple[tuple[int, ...], float], ...] = ()
    failures: tuple[str, ...] = ()
    coefficients: np.ndarray | None = field(default=None, repr=False, compare=False)


def _matrix_of(w) -> np.ndarray:
    """The matrix of ``w``, checked as ProcessMatrix checks it: square, finite, 16x16."""
    if isinstance(w, ProcessMatrix):
        return w.matrix
    return ProcessMatrix(w).matrix


def term_label(word: tuple[int, ...]) -> str:
    """Human-readable name of a Pauli word, e.g. (0, 3, 3, 0) -> 'IZZI'."""
    return "".join(PAULI_LABELS[i] for i in word)


def validate(w, *, tol: float | None = None) -> ValidityReport:
    """Check Hermiticity, positivity, normalization and term structure.

    A process matrix must be positive semidefinite, have trace 4 (the
    product of the two output dimensions), and carry Pauli weight only on
    the words of the ALLOWED mask. Each violated condition contributes
    one entry to ``failures``; a non-Hermitian input is reported rather
    than raised, with the remaining checks run on its Hermitian part.
    ``tol`` replaces the PSD, trace and support tolerances at once; it
    must be finite and non-negative, and not a bool.
    """
    if tol is None:
        psd_tol, trace_tol, support_tol = PSD_ATOL, TRACE_ATOL, SUPPORT_ATOL
    else:
        _check_tolerance("tol", tol)
        psd_tol = trace_tol = support_tol = tol
    arr = _matrix_of(w)

    herm, residual, skewed = _hermitian_part(arr)  # herm is exactly Hermitian: eigvalsh reads it as it is
    failures = [_not_hermitian(residual)] if skewed else []
    if not np.isfinite(herm).all():  # W is finite, but the sum can overflow
        raise ValueError("matrix has non-finite entries")

    min_eigenvalue = float(np.linalg.eigvalsh(herm)[0])
    if min_eigenvalue < -psd_tol:
        failures.append(
            f"not positive semidefinite: minimum eigenvalue {min_eigenvalue:.6e}"
        )

    trace = float(np.trace(arr).real)
    if abs(trace - 4.0) > trace_tol:
        failures.append(f"trace {trace!r} differs from {4.0!r}")

    coefficients = _coefficients(herm)
    coefficients.setflags(write=False)
    # Flat index order is the sorted word order; a NaN coefficient (from a
    # row sum that overflows) is not named.
    flat = np.flatnonzero(~ALLOWED & (np.abs(coefficients) > support_tol)).tolist()
    forbidden = [(_WORDS[t], c) for t, c in zip(flat, coefficients[flat].tolist())]
    if forbidden:
        named = ", ".join(f"{term_label(t)}={c:.6g}" for t, c in forbidden)
        failures.append(f"forbidden terms present: {named}")

    return ValidityReport(
        is_valid=not failures,
        hermiticity_residual=float(residual),
        min_eigenvalue=min_eigenvalue,
        trace=trace,
        forbidden_terms=tuple(forbidden),
        failures=tuple(failures),
        coefficients=coefficients,
    )


def w_beta_weights(beta: float) -> tuple[float, float]:
    """The two correlation weights (f1, f2) of w_beta; f1^2 + f2^2 = 1."""
    norm = np.sqrt(1.0 - 2.0 * beta + 2.0 * beta * beta)
    return float((1.0 - beta) / norm), float(beta / norm)


def _six_terms(*weights: float) -> np.ndarray:
    """I / 4 plus weights / 4 on the six Pauli words that can score in the game.

    The words, in w_ansatz's order: Z on A_O with Z on B_I; Z on A_I with
    X, Y or Z on B_I and Z on B_O; Z on A_I alone; Z on B_I alone. A zero
    weight adds nothing to the matrix, so it is skipped.
    """
    words = ((0, 3, 3, 0), (3, 0, 1, 3), (3, 0, 2, 3), (3, 0, 3, 3), (3, 0, 0, 0), (0, 0, 3, 0))
    terms = {(0, 0, 0, 0): 0.25}
    terms.update((word, 0.25 * w) for word, w in zip(words, weights) if w != 0.0)
    return pauli_compose(terms)


def w_beta(beta: float) -> ProcessMatrix:
    """The one-parameter family of causally nonseparable processes.

    For beta in [1/2, 1) this interpolates between the maximally
    inseparable process at beta = 1/2 and a pure one-way channel in the
    beta -> 1 limit. Always a valid process matrix.
    """
    if not 0.5 <= beta < 1.0:
        raise ValueError(f"beta must lie in [1/2, 1), got {beta}")
    f1, f2 = w_beta_weights(beta)
    return ProcessMatrix(_six_terms(f1, f2, 0.0, 0.0, 0.0, 0.0), tag=f"w_beta@{float(beta)!r}")


def w_ocb() -> ProcessMatrix:
    """The symmetric causally nonseparable process, w_beta(1/2)."""
    return ProcessMatrix(_six_terms(*w_beta_weights(0.5), 0.0, 0.0, 0.0, 0.0), tag="w_ocb")


def w_ansatz(a0: float, b0: float, c0: float, d0: float, e0: float, f0: float) -> ProcessMatrix:
    """Six-coefficient family spanning the terms that can score in the game.

    Builds the candidate at any coefficients without checking it, so a
    search can probe infeasible regions; ``validate`` tells which
    constraint fails. Term structure is allowed by construction;
    positivity is the live constraint.
    """
    tag = f"ansatz({a0!r},{b0!r},{c0!r},{d0!r},{e0!r},{f0!r})"
    return ProcessMatrix(_six_terms(a0, b0, c0, d0, e0, f0), tag=tag)


_ORDERED: dict[str, ProcessMatrix] = {}  # each direction's one process, built on first use


def ordered_identity_channel_process(direction: str) -> ProcessMatrix:
    """One-way process: maximally mixed input to the first party, identity
    channel from its output to the second party's input, second output free.

    ``direction`` is "a_to_b" or "b_to_a". The Choi operator of the
    identity channel contributes the XX, -YY, ZZ correlations between the
    connected output/input pair. Each direction's matrix is built once;
    every call returns that one read-only ProcessMatrix.
    """
    if direction not in ("a_to_b", "b_to_a"):
        raise ValueError(f"direction must be 'a_to_b' or 'b_to_a', got {direction!r}")
    if direction not in _ORDERED:
        # The connected pair: A_O and B_I, or B_O and A_I.
        sender, receiver, tag = (1, 2, "ordered_ab") if direction == "a_to_b" else (3, 0, "ordered_ba")
        terms = {(0, 0, 0, 0): 0.25}
        for pauli, weight in ((1, 0.25), (2, -0.25), (3, 0.25)):
            terms[tuple(pauli if i in (sender, receiver) else 0 for i in range(4))] = weight
        _ORDERED[direction] = ProcessMatrix(pauli_compose(terms), tag=tag)
    return _ORDERED[direction]


def causal_mixture(w_b_to_a, w_a_to_b, q: float) -> ProcessMatrix:
    """Convex mixture q * w_b_to_a + (1 - q) * w_a_to_b.

    The first argument is the component with influence at most from B to A,
    the second the one with influence at most from A to B. Validity of the
    inputs is the caller's obligation; the mixture of valid processes is
    valid by convexity.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {q}")
    first = _matrix_of(w_b_to_a)
    second = _matrix_of(w_a_to_b)
    return ProcessMatrix(q * first + (1.0 - q) * second, tag=f"mix@{float(q)!r}")


def witness_s() -> np.ndarray:
    """Witness operator separating w_beta from all causally separable processes."""
    return _six_terms(-1.0, -1.0, 0.0, 0.0, 0.0, 0.0)


def witness_value(s: np.ndarray, w) -> float:
    """Tr[S W]: nonnegative on every causally separable process, negative on w_beta."""
    return float(np.einsum("ij,ji->", _matrix_of(s), _matrix_of(w)).real)
