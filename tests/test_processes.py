import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    ProcessMatrix,
    causal_mixture,
    ordered_identity_channel_process,
    pauli_compose,
    pauli_decompose,
    term_label,
    validate,
    w_ansatz,
    w_beta,
    w_beta_weights,
    w_ocb,
    witness_s,
    witness_value,
)
from causalgame.processes import ALLOWED, ONE_WAY
from conftest import VALID_SUPPORTS, support, word_at

BETA_GRID = np.linspace(0.5, 0.99, 50)

def forbidden_words():
    return [word_at(flat) for flat in range(256) if support(word_at(flat)) not in VALID_SUPPORTS]


def test_the_forbidden_word_count():
    assert len(forbidden_words()) == 168


def test_the_allowed_mask_is_the_union_of_the_two_one_way_supports():
    assert ALLOWED.tolist() == [support(word_at(flat)) in VALID_SUPPORTS for flat in range(256)]
    assert ALLOWED.sum() == 88
    # A one-way process leaves the second party's output alone.
    for direction, idle in (("a_to_b", "B_O"), ("b_to_a", "A_O")):
        supports = [support(word_at(flat)) for flat in range(256)]
        assert ONE_WAY[direction].tolist() == [s in VALID_SUPPORTS and idle not in s for s in supports]
        words = pauli_decompose(ordered_identity_channel_process(direction).matrix)
        assert all(ONE_WAY[direction][64 * t0 + 16 * t1 + 4 * t2 + t3] for t0, t1, t2, t3 in words)
    assert (ONE_WAY["a_to_b"] | ONE_WAY["b_to_a"]).tolist() == ALLOWED.tolist()
    for mask in (ALLOWED, *ONE_WAY.values()):
        assert mask.dtype == bool and mask.shape == (256,) and not mask.flags.writeable


def test_w_ocb_is_the_symmetric_family_member():
    npt.assert_allclose(w_ocb().matrix, w_beta(0.5).matrix, atol=1e-15)
    assert w_ocb().tag == "w_ocb"


def test_w_beta_weights_are_normalized():
    for beta in BETA_GRID:
        f1, f2 = w_beta_weights(beta)
        npt.assert_allclose(f1 * f1 + f2 * f2, 1.0, atol=1e-12)
    f1, f2 = w_beta_weights(0.5)
    npt.assert_allclose(f1, f2, atol=1e-15)


def test_w_beta_carries_exactly_three_terms():
    beta = 0.7
    f1, f2 = w_beta_weights(beta)
    coeffs = pauli_decompose(w_beta(beta).matrix, zero_atol=1e-14)
    assert set(coeffs) == {(0, 0, 0, 0), (0, 3, 3, 0), (3, 0, 1, 3)}
    npt.assert_allclose(coeffs[(0, 0, 0, 0)], 0.25, atol=1e-15)
    npt.assert_allclose(coeffs[(0, 3, 3, 0)], 0.25 * f1, atol=1e-15)
    npt.assert_allclose(coeffs[(3, 0, 1, 3)], 0.25 * f2, atol=1e-15)


def test_w_beta_domain_is_enforced():
    with pytest.raises(ValueError, match="beta"):
        w_beta(0.4)
    with pytest.raises(ValueError, match="beta"):
        w_beta(1.0)


def test_family_and_ordered_processes_validate():
    for beta in BETA_GRID:
        assert validate(w_beta(beta)).is_valid
    for direction in ("a_to_b", "b_to_a"):
        assert validate(ordered_identity_channel_process(direction)).is_valid
    assert validate(np.eye(16) / 4.0).is_valid


def test_ordered_direction_is_checked():
    with pytest.raises(ValueError, match="direction"):
        ordered_identity_channel_process("sideways")
    with pytest.raises(ValueError, match="direction"):
        ordered_identity_channel_process(["a_to_b"])


def test_each_direction_is_one_shared_read_only_process():
    # The identity channel's Choi correlations XX, -YY, ZZ on the connected pair.
    expected = {
        "a_to_b": ("ordered_ab", {(0, 0, 0, 0): 0.25, (0, 1, 1, 0): 0.25, (0, 2, 2, 0): -0.25, (0, 3, 3, 0): 0.25}),
        "b_to_a": ("ordered_ba", {(0, 0, 0, 0): 0.25, (1, 0, 0, 1): 0.25, (2, 0, 0, 2): -0.25, (3, 0, 0, 3): 0.25}),
    }
    for direction, (tag, terms) in expected.items():
        w = ordered_identity_channel_process(direction)
        assert w is ordered_identity_channel_process(direction)
        assert w.tag == tag and not w.matrix.flags.writeable
        assert pauli_decompose(w.matrix) == terms


def test_validate_flags_each_failure_mode():
    base = w_ocb().matrix

    skew = np.array(base)
    skew[0, 1] += 0.5j
    report = validate(skew)
    assert not report.is_valid
    assert any("Hermitian" in f or "hermit" in f.lower() for f in report.failures)

    report = validate(2.0 * base)
    assert not report.is_valid
    assert any("trace" in f.lower() for f in report.failures)

    dented = 0.25 * (np.eye(16) + pauli_compose({(3, 0, 0, 0): 3.0}))
    report = validate(dented)
    assert not report.is_valid
    assert report.min_eigenvalue < -0.4
    assert any("eigenvalue" in f.lower() for f in report.failures)

    poisoned = base + pauli_compose({(0, 3, 0, 0): 0.05})
    report = validate(poisoned)
    assert not report.is_valid
    assert dict(report.forbidden_terms)[(0, 3, 0, 0)] == pytest.approx(0.05, abs=1e-12)
    assert any("IZII" in f for f in report.failures)


def test_validate_tolerances_are_adjustable():
    # Correlation weights slightly over unit norm dig the least eigenvalue
    # just below zero while keeping trace, hermiticity, and support intact.
    matrix = 0.25 * (
        np.eye(16)
        + pauli_compose({(0, 3, 3, 0): 0.708})
        + pauli_compose({(3, 0, 1, 3): 0.708})
    )
    report = validate(matrix)
    assert not report.is_valid
    assert -1e-3 < report.min_eigenvalue < -1e-5
    assert validate(matrix, tol=1e-3).is_valid


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
def test_validate_rejects_a_non_finite_or_negative_tol(tol):
    # Every comparison against a nan tolerance is false, so nan would pass
    # this matrix although its lowest eigenvalue is -0.068.
    matrix = 0.25 * (np.eye(16) + pauli_compose({(0, 3, 3, 0): 0.9, (3, 0, 1, 3): 0.9}))
    assert validate(matrix).min_eigenvalue < -0.05
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        validate(matrix, tol=tol)


@pytest.mark.parametrize("tol", [True, False, np.True_, np.False_])
def test_validate_rejects_a_bool_tol(tol):
    # True would read as a tolerance of 1.0 and pass this matrix.
    matrix = 0.25 * (np.eye(16) + pauli_compose({(0, 3, 3, 0): 0.9, (3, 0, 1, 3): 0.9}))
    assert validate(matrix, tol=1.0).is_valid
    with pytest.raises(ValueError, match="tol must be a number, got the bool"):
        validate(matrix, tol=tol)


def test_every_forbidden_term_is_rejected_and_named():
    base = w_beta(0.6).matrix
    for word in forbidden_words()[:20]:
        report = validate(base + pauli_compose({word: 0.05}))
        assert not report.is_valid
        assert term_label(word) in " ".join(report.failures)


@pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"])
def test_tag_is_one_line(brk):
    # A Pauli file stores the tag in one comment; it would read a second line as a term.
    with pytest.raises(ValueError, match="^tag must be one line"):
        ProcessMatrix(w_ocb().matrix, tag=f"lab run 7{brk}ZIII 0.05")


def test_causal_mixture_interpolates():
    w_ba = ordered_identity_channel_process("b_to_a")
    w_ab = ordered_identity_channel_process("a_to_b")
    mixed = causal_mixture(w_ba, w_ab, 0.3)
    npt.assert_allclose(mixed.matrix, 0.3 * w_ba.matrix + 0.7 * w_ab.matrix, atol=1e-15)
    assert mixed.tag == "mix@0.3"
    assert validate(mixed).is_valid
    with pytest.raises(ValueError, match="weight"):
        causal_mixture(w_ba, w_ab, 1.2)
    with pytest.raises(ValueError, match="dimension"):
        causal_mixture(np.eye(16), np.eye(4), 0.5)


def test_witness_closed_form_on_the_family():
    s = witness_s()
    for beta in BETA_GRID:
        expected = 1.0 - 1.0 / np.sqrt(1.0 - 2.0 * beta + 2.0 * beta * beta)
        npt.assert_allclose(witness_value(s, w_beta(beta)), expected, atol=1e-12)
        assert witness_value(s, w_beta(beta)) < 0.0


def test_witness_is_nonnegative_on_ordered_mixtures():
    s = witness_s()
    w_ba = ordered_identity_channel_process("b_to_a")
    w_ab = ordered_identity_channel_process("a_to_b")
    rng = np.random.default_rng(23)
    for _ in range(20):
        q = float(rng.uniform())
        assert witness_value(s, causal_mixture(w_ba, w_ab, q)) >= -1e-10


def test_witness_shape_mismatch_raises():
    with pytest.raises(ValueError, match="dimension"):
        witness_value(np.eye(4), w_ocb())
    with pytest.raises(ValueError, match="dimension"):
        witness_value(np.eye(4), np.eye(4))


def test_ansatz_reports_validity_instead_of_raising():
    candidate = w_ansatz(1.0 / np.sqrt(2), 1.0 / np.sqrt(2), 0.0, 0.0, 0.0, 0.0)
    assert validate(candidate).is_valid
    npt.assert_allclose(candidate.matrix, w_ocb().matrix, atol=1e-14)
    report = validate(w_ansatz(0.9, 0.9, 0.0, 0.0, 0.0, 0.0))
    assert not report.is_valid
    assert report.min_eigenvalue < -1e-3


def test_process_matrix_is_read_only():
    w = w_ocb()
    with pytest.raises(ValueError):
        w.matrix[0, 0] = 99.0


def test_process_matrix_shape_guard():
    with pytest.raises(ValueError, match="square"):
        ProcessMatrix(np.zeros((16, 4)))
    with pytest.raises(ValueError, match="dimension"):
        ProcessMatrix(np.eye(8))


def test_term_label():
    assert term_label((0, 3, 3, 0)) == "IZZI"
    assert term_label((3, 0, 1, 3)) == "ZIXZ"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_process_matrix_rejects_non_finite_entries(bad):
    matrix = np.array(w_ocb().matrix)
    matrix[3, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        ProcessMatrix(matrix)


def test_validate_refuses_a_hermitian_part_that_overflows():
    # Each entry is finite, but W + W^H is not; the eigenvalues of an
    # infinite matrix would be NaN, so validate raises instead of reporting.
    matrix = np.eye(16, dtype=complex) / 4
    matrix[0, 1] = matrix[1, 0] = 1.5e308
    # No RuntimeWarning comes first, so under -W error the caller still gets the ValueError.
    with pytest.raises(ValueError, match="non-finite"):
        validate(ProcessMatrix(matrix))
    # A difference that overflows is reported as an infinite residual.
    matrix[1, 0] = -1.5e308
    report = validate(ProcessMatrix(matrix))
    assert report.hermiticity_residual == np.inf and not report.is_valid
