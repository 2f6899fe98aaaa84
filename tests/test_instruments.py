import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    CJOperator,
    InfeasibleOperationError,
    Instrument,
    ObservableSpec,
    alice_general,
    alice_z,
    bob_branch,
    bob_general,
    instrument_validate,
)
from causalgame.instruments import X_AXIS, Y_AXIS, Z_AXIS


def test_alice_elements_form_an_instrument():
    for a in (0, 1):
        elements = {x: alice_z(x, a) for x in (0, 1)}
        report = instrument_validate(Instrument(elements))
        assert report.is_valid, report.failures
        assert report.tp_residual <= 1e-12


def test_bob_elements_form_an_instrument_in_both_rounds():
    for b in (0, 1):
        for bp in (0, 1):
            elements = {y: bob_branch(y, b, bp) for y in (0, 1)}
            report = instrument_validate(Instrument(elements))
            assert report.is_valid, report.failures


def test_cj_operators_are_psd_and_labeled():
    op = alice_z(1, 0)
    assert op.party == "A"
    assert op.outcome == 1
    assert op.setting == (0,)
    eigs = np.linalg.eigvalsh(op.matrix)
    assert eigs.min() >= -1e-12


def test_cj_shape_guard():
    with pytest.raises(ValueError, match="4x4"):
        CJOperator(np.eye(2), party="A", outcome=0)


def test_bit_arguments_are_checked():
    with pytest.raises(ValueError):
        alice_z(2, 0)
    with pytest.raises(ValueError):
        bob_branch(0, 0, 3)


def test_bob_branch_requires_a_unit_axis():
    with pytest.raises(ValueError, match="unit"):
        bob_branch(0, 0, 0, t=np.array([1.0, 1.0, 0.0]))


def test_general_forms_reduce_to_the_named_instruments():
    alice_spec = ObservableSpec(measure=Z_AXIS, encode=Z_AXIS)
    for x in (0, 1):
        for a in (0, 1):
            npt.assert_allclose(
                alice_general(x, a, alice_spec).matrix, alice_z(x, a).matrix, atol=1e-12
            )
    bob_spec = ObservableSpec(measure=X_AXIS, encode=Z_AXIS)
    for y in (0, 1):
        for b in (0, 1):
            for bp in (0, 1):
                npt.assert_allclose(
                    bob_general(y, b, bp, bob_spec).matrix,
                    bob_branch(y, b, bp).matrix,
                    atol=1e-12,
                )


def test_rotated_axes_still_build_instruments():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m, e, r = rng.standard_normal((3, 3))
        spec = ObservableSpec(
            measure=m / np.linalg.norm(m),
            encode=e / np.linalg.norm(e),
            relay=r / np.linalg.norm(r),
        )
        report = instrument_validate(
            Instrument({x: alice_general(x, 0, spec) for x in (0, 1)})
        )
        assert report.is_valid, report.failures
        report = instrument_validate(
            Instrument({y: bob_general(y, 1, 0, spec) for y in (0, 1)})
        )
        assert report.is_valid, report.failures


def test_dropping_the_correlation_term_is_infeasible():
    # Without the measure-encode correlation the element has eigenvalue -1/4.
    spec = ObservableSpec(measure=Z_AXIS, encode=Z_AXIS, corr=np.zeros((3, 3)))
    with pytest.raises(InfeasibleOperationError) as excinfo:
        alice_general(0, 0, spec)
    assert excinfo.value.min_eigenvalue == pytest.approx(-0.25, abs=1e-12)
    with pytest.raises(InfeasibleOperationError):
        bob_general(0, 0, 0, spec)


def test_zero_axes_omit_terms():
    spec = ObservableSpec(measure=np.zeros(3), encode=np.zeros(3))
    npt.assert_allclose(spec.corr, np.zeros((3, 3)), atol=1e-15)
    # Fully trivial operation: identity output state, uniform outcome.
    op = bob_general(0, 0, 0, spec)
    npt.assert_allclose(op.matrix, np.eye(4) / 4.0, atol=1e-12)


def test_observable_spec_guards():
    with pytest.raises(ValueError, match="measure"):
        ObservableSpec(measure=np.array([1.0, 1.0, 0.0]), encode=Z_AXIS)
    with pytest.raises(ValueError, match="relay"):
        ObservableSpec(measure=X_AXIS, encode=Z_AXIS, relay=np.zeros(3))
    with pytest.raises(ValueError, match="Frobenius"):
        ObservableSpec(measure=X_AXIS, encode=Z_AXIS, corr=np.full((3, 3), 0.5))
    with pytest.raises(ValueError, match="3x3"):
        ObservableSpec(measure=X_AXIS, encode=Z_AXIS, corr=np.eye(2))
    with pytest.raises(ValueError, match="bits"):
        ObservableSpec(measure=X_AXIS, encode=Z_AXIS, table=np.array([[0, 2], [1, 0]]))


def test_observable_spec_record_round_trip():
    spec = ObservableSpec(measure=Y_AXIS, encode=X_AXIS, relay=Z_AXIS)
    clone = ObservableSpec.from_record(spec.to_record())
    npt.assert_allclose(clone.measure, spec.measure, atol=1e-15)
    npt.assert_allclose(clone.encode, spec.encode, atol=1e-15)
    npt.assert_allclose(clone.corr, spec.corr, atol=1e-15)
    npt.assert_allclose(clone.relay, spec.relay, atol=1e-15)
    assert clone.table is None


def test_instrument_validate_catches_broken_families():
    # Doubling one element breaks trace preservation.
    elements = {x: alice_z(x, 0) for x in (0, 1)}
    doubled = CJOperator(2.0 * elements[0].matrix, party="A", outcome=0, setting=(0,))
    report = instrument_validate(Instrument({0: doubled, 1: elements[1]}))
    assert not report.is_valid
    assert any("trace" in f.lower() for f in report.failures)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"measure": [np.nan, 0.0, 0.0], "encode": X_AXIS},
        {"measure": Z_AXIS, "encode": [np.inf, 0.0, 0.0]},
        {"measure": Z_AXIS, "encode": X_AXIS, "corr": np.full((3, 3), np.nan)},
        {"measure": Z_AXIS, "encode": X_AXIS, "relay": [np.nan, 0.0, 1.0]},
    ],
)
def test_observable_spec_rejects_non_finite_axes(kwargs):
    with pytest.raises(ValueError):
        ObservableSpec(**kwargs)


def test_bob_branch_rejects_a_non_finite_axis():
    with pytest.raises(ValueError, match="unit vector"):
        bob_branch(0, 0, 0, t=np.array([np.nan, 0.0, 0.0]))


def test_instrument_validate_flags_non_finite_elements():
    poisoned = np.array(alice_z(0, 0).matrix)
    poisoned[0, 3] = np.nan  # off the blocks the trace-preservation check reads
    element = CJOperator(poisoned, party="A", outcome=0, setting=(0,))
    report = instrument_validate(Instrument({0: element, 1: alice_z(1, 0)}))
    assert not report.is_valid
    assert any("non-finite" in f for f in report.failures)
