import warnings
from functools import reduce

import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    LABELS,
    PAULI,
    PAULI_LABELS,
    pauli_compose,
    pauli_decompose,
)
from causalgame.tensor import _coefficients, _hermitian_part, _trace_pattern


def test_pauli_algebra():
    ident, x, y, z = PAULI
    npt.assert_array_equal(ident, np.eye(2))
    for sigma in (x, y, z):
        npt.assert_allclose(sigma @ sigma, np.eye(2), atol=1e-15)
        npt.assert_allclose(sigma, sigma.conj().T, atol=1e-15)
    npt.assert_allclose(x @ y, 1j * z, atol=1e-15)
    assert PAULI_LABELS == "IXYZ"


def test_default_layout_is_the_four_party_wire_order():
    assert LABELS == ("A_I", "A_O", "B_I", "B_O")


def test_pauli_word_matches_explicit_kron():
    npt.assert_array_equal(pauli_compose({(0, 0, 0, 0): 1.0}), np.eye(16))
    word = (3, 0, 1, 3)
    expected = np.kron(np.kron(np.kron(PAULI[3], PAULI[0]), PAULI[1]), PAULI[3])
    npt.assert_array_equal(pauli_compose({word: 1.0}), expected)


def _reference_compose(coefficients):
    """The dense form: add value * (Kronecker product of the word), in dict order."""
    out = np.zeros((16, 16), dtype=complex)
    for word, value in coefficients.items():
        out += value * reduce(np.kron, [PAULI[i] for i in word])
    return out


def test_compose_is_bit_identical_to_the_dense_sum():
    rng = np.random.default_rng(11)
    for _ in range(250):
        count = int(rng.integers(1, 14))
        words = [tuple(int(i) for i in rng.integers(0, 4, size=4)) for _ in range(count)]
        values = rng.standard_normal(count) * 10.0 ** rng.integers(-6, 7, size=count)
        values[rng.random(count) < 0.2] = 0.0
        values[rng.random(count) < 0.1] = -0.0
        coefficients = dict(zip(words, values.tolist()))
        actual, expected = pauli_compose(coefficients), _reference_compose(coefficients)
        assert actual.tobytes() == expected.tobytes(), coefficients


def test_decompose_isolates_a_single_word():
    coeffs = pauli_decompose(pauli_compose({(3, 0, 1, 3): 1.0}), zero_atol=1e-14)
    assert coeffs == {(3, 0, 1, 3): 1.0}


def test_decompose_compose_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(5):
        raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        matrix = raw + raw.conj().T
        coeffs = pauli_decompose(matrix)
        npt.assert_allclose(pauli_compose(coeffs), matrix, atol=1e-12)


def _reference_coefficients(matrix):
    """Tr[M sigma(t)] / 16 as one einsum over every row and column bit."""
    operands = [matrix.reshape((2,) * 8), list(range(8))]
    for k in range(4):
        operands += [np.stack(PAULI), [8 + k, 4 + k, k]]
    return np.einsum(*operands, list(range(8, 12))).ravel().real / 16


def test_decompose_is_bit_identical_to_one_contraction():
    from causalgame import causal_mixture, ordered_identity_channel_process, w_beta, w_ocb

    mix = causal_mixture(
        ordered_identity_channel_process("b_to_a"), ordered_identity_channel_process("a_to_b"), 0.3
    )
    rng = np.random.default_rng(29)
    cases = [w.matrix for w in (w_ocb(), w_beta(0.7), mix)]
    for _ in range(3):
        raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        cases.append(raw + raw.conj().T)
    for matrix in cases:
        reference = _reference_coefficients(matrix)
        coeffs = pauli_decompose(matrix)
        dense = np.zeros(256)
        for word, value in coeffs.items():
            dense[sum(index << (2 * (3 - k)) for k, index in enumerate(word))] = value
        assert dense.tobytes() == np.where(reference == 0.0, 0.0, reference).tobytes()


def _complex_product_coefficients(arr):
    """The coefficients as the complex products M[r, c] * sigma(t)[c, r], summed over rows, real part last."""
    cols, phase = _trace_pattern()[:2]
    flat = cols + 16 * np.arange(16)[:, None]
    return ((arr.ravel().take(flat) * phase).sum(axis=0) / 16).real


def test_coefficients_have_the_bits_of_the_complex_products():
    # The real view reads one part of each entry; compared by bytes, so a
    # zero coefficient of the other sign would fail. Some entries are exact
    # zeros of either sign, which is where a sign could flip.
    rng = np.random.default_rng(37)
    for k in range(200):
        raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        if k % 2:
            for part in (raw.real, raw.imag):
                zeros = rng.random((16, 16)) < 0.7
                part[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        herm = _hermitian_part(raw)[0]
        for matrix in (herm, raw + raw.conj().T):
            expected = _complex_product_coefficients(matrix)
            assert _coefficients(matrix).tobytes() == expected.tobytes()


@pytest.mark.parametrize("zero_atol", [True, False, np.True_, np.False_])
def test_decompose_rejects_a_bool_zero_atol(zero_atol):
    with pytest.raises(ValueError, match="zero_atol must be a number, got the bool"):
        pauli_decompose(np.eye(16) / 4, zero_atol=zero_atol)


def test_decompose_rejects_non_hermitian_input():
    matrix = np.zeros((16, 16), dtype=complex)
    matrix[0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        pauli_decompose(matrix)


def test_decompose_needs_a_power_of_two_dimension():
    # Only the four-qubit size is read: a power of two is not enough.
    for matrix in (np.eye(6), np.eye(8), np.eye(32), np.zeros((16, 4))):
        with pytest.raises(ValueError, match="16x16"):
            pauli_decompose(matrix)


def test_compose_rejects_malformed_words():
    with pytest.raises(ValueError, match="does not match"):
        pauli_compose({(0, 0): 1.0})
    with pytest.raises(ValueError, match="0..3"):
        pauli_compose({(0, 0, 0, 4): 1.0})
    with pytest.raises(ValueError, match=r"0\.\.3, got \(0, 5, 0, 0\)"):  # the first bad word
        pauli_compose({(0, 0, 0, 0): 1.0, (0, 5, 0, 0): 1.0, (0, 0): 1.0})


def test_decompose_refuses_by_the_entry_residual():
    # The skew adds at most 2e-12 / 16 to any coefficient's imaginary part,
    # but the entrywise residual max |M - M^H| is 2e-12.
    matrix = np.eye(16, dtype=complex) / 4
    matrix[0, 1] = 2e-12
    with pytest.raises(ValueError, match=r"^input is not Hermitian: residual 2\.000e-12 exceeds 1\.0e-12$"):
        pauli_decompose(matrix)
    matrix[1, 0] = 2e-12
    assert pauli_decompose(matrix)[(0, 0, 0, 1)] == 0.25e-12


@pytest.mark.parametrize(
    "entries",
    [{(0, 0): np.nan}, {(0, 1): np.inf, (1, 0): np.inf}, {(0, 1): -np.inf, (1, 0): -np.inf}],
)
def test_decompose_refuses_non_finite_entries(entries):
    # A NaN residual passes no Hermiticity bound and a NaN coefficient no
    # zero_atol, so a decomposition would drop them without a word.
    matrix = np.eye(16, dtype=complex) / 4
    for index, value in entries.items():
        matrix[index] = value
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        pauli_decompose(matrix)


def test_decompose_refuses_coefficient_sums_that_overflow():
    # Finite and exactly Hermitian, but the sums for IIIX to ZZZX pass 1.8e308.
    matrix = np.eye(16, dtype=complex) / 4
    matrix[0, 1] = matrix[1, 0] = 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^Pauli coefficients overflow: matrix entries are too large$"):
            pauli_decompose(matrix)
