import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    DEFAULT_LAYOUT,
    PAULI,
    PAULI_LABELS,
    SubsystemLayout,
    hermitian_eigenvalues,
    kron_all,
    partial_trace,
    pauli_compose,
    pauli_decompose,
    pauli_word,
)


def test_pauli_algebra():
    ident, x, y, z = PAULI
    npt.assert_array_equal(ident, np.eye(2))
    for sigma in (x, y, z):
        npt.assert_allclose(sigma @ sigma, np.eye(2), atol=1e-15)
        npt.assert_allclose(sigma, sigma.conj().T, atol=1e-15)
    npt.assert_allclose(x @ y, 1j * z, atol=1e-15)
    assert PAULI_LABELS == "IXYZ"


def test_default_layout_is_the_four_party_wire_order():
    assert DEFAULT_LAYOUT.labels == ("A_I", "A_O", "B_I", "B_O")
    assert DEFAULT_LAYOUT.dim == 16


def test_pauli_word_matches_explicit_kron():
    npt.assert_array_equal(pauli_word((0, 0, 0, 0)), np.eye(16))
    word = (3, 0, 1, 3)
    expected = kron_all(PAULI[3], PAULI[0], PAULI[1], PAULI[3])
    npt.assert_array_equal(pauli_word(word), expected)


def test_decompose_isolates_a_single_word():
    coeffs = pauli_decompose(pauli_word((3, 0, 1, 3)), zero_atol=1e-14)
    assert coeffs == {(3, 0, 1, 3): 1.0}


def test_decompose_compose_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(5):
        raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        matrix = raw + raw.conj().T
        coeffs = pauli_decompose(matrix)
        npt.assert_allclose(pauli_compose(coeffs), matrix, atol=1e-12)


def _reference_coefficients(matrix, n):
    """Tr[M sigma(t)] / 2**n as one einsum over every row and column bit."""
    operands = [matrix.reshape((2,) * 2 * n), list(range(2 * n))]
    for k in range(n):
        operands += [np.stack(PAULI), [2 * n + k, n + k, k]]
    return np.einsum(*operands, list(range(2 * n, 3 * n))).ravel().real / 2**n


def test_decompose_is_bit_identical_to_one_contraction():
    from causalgame import causal_mixture, ordered_identity_channel_process, w_beta, w_ocb

    mix = causal_mixture(
        ordered_identity_channel_process("b_to_a"), ordered_identity_channel_process("a_to_b"), 0.3
    )
    rng = np.random.default_rng(29)
    cases = [(w.matrix, DEFAULT_LAYOUT) for w in (w_ocb(), w_beta(0.7), mix)]
    for n in (1, 2, 3, 4, 4, 4):
        raw = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        layout = SubsystemLayout(tuple((f"q{k}", 2) for k in range(n)))
        cases.append((raw + raw.conj().T, layout))
    for matrix, layout in cases:
        n = len(layout.dims)
        reference = _reference_coefficients(matrix, n)
        coeffs = pauli_decompose(matrix, layout)
        dense = np.zeros(4**n)
        for word, value in coeffs.items():
            dense[sum(index << (2 * (n - 1 - k)) for k, index in enumerate(word))] = value
        assert dense.tobytes() == np.where(reference == 0.0, 0.0, reference).tobytes()


def test_decompose_rejects_non_hermitian_input():
    matrix = np.zeros((16, 16), dtype=complex)
    matrix[0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        pauli_decompose(matrix)


def test_compose_rejects_malformed_words():
    with pytest.raises(ValueError, match="does not match"):
        pauli_compose({(0, 0): 1.0})
    with pytest.raises(ValueError, match="0..3"):
        pauli_compose({(0, 0, 0, 4): 1.0})


def test_partial_trace_of_product_splits():
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
    full = kron_all(*blocks)
    kept = partial_trace(full, DEFAULT_LAYOUT, keep=("A_I", "B_I"))
    scale = np.trace(blocks[1]) * np.trace(blocks[3])
    npt.assert_allclose(kept, scale * np.kron(blocks[0], blocks[2]), atol=1e-12)


def test_partial_trace_preserves_total_trace():
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    for keep in (("A_I",), ("A_O", "B_O"), ("A_I", "A_O", "B_I", "B_O")):
        reduced = partial_trace(matrix, DEFAULT_LAYOUT, keep=keep)
        npt.assert_allclose(np.trace(reduced), np.trace(matrix), atol=1e-12)


def test_partial_trace_rejects_unknown_labels():
    with pytest.raises(ValueError):
        partial_trace(np.eye(16), DEFAULT_LAYOUT, keep=("A_I", "nope"))


def test_custom_layout_dimensions():
    layout = SubsystemLayout((("in", 2), ("out", 3)))
    assert layout.dim == 6
    reduced = partial_trace(np.eye(6), layout, keep=("out",))
    npt.assert_allclose(reduced, 2.0 * np.eye(3), atol=1e-15)


def test_hermitian_eigenvalues_match_numpy():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    matrix = raw + raw.conj().T
    npt.assert_allclose(hermitian_eigenvalues(matrix), np.linalg.eigvalsh(matrix), atol=1e-12)


def test_hermitian_eigenvalues_reject_skew_input():
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 1] = 2.0
    with pytest.raises(ValueError):
        hermitian_eigenvalues(matrix)


def test_hermitian_eigenvalues_reject_non_finite_input():
    # LAPACK alone answers [0, -0, 1, 1] here without any error.
    matrix = np.eye(4, dtype=complex)
    matrix[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigenvalues(matrix)
