import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    PAULI,
    ObservableSpec,
    alice_general,
    alice_z,
    bob_branch,
    bob_general,
    joint_distribution,
    w_ocb,
)
from causalgame.instruments import X_AXIS, Z_AXIS


def _projector(bit, axis):
    """Reference (I + (-1)^bit axis . sigma)/2, one projector per call."""
    sign = -1.0 if bit else 1.0
    return (np.eye(2) + sign * (axis[0] * PAULI[1] + axis[1] * PAULI[2] + axis[2] * PAULI[3])) / 2


def _tp_residual(elements):
    """Distance of the summed map's output-traced Choi matrix from the identity."""
    total = sum(elements).reshape(2, 2, 2, 2)  # [in, out, in', out']
    return np.linalg.norm(np.einsum("iojo->ij", total) - np.eye(2))


def test_alice_elements_form_an_instrument():
    joint_distribution(w_ocb(), alice_z, bob_branch)  # checks every setting
    for a in (0, 1):
        assert _tp_residual([alice_z(x, a) for x in (0, 1)]) <= 1e-12


def test_bob_elements_form_an_instrument_in_both_rounds():
    joint_distribution(w_ocb(), alice_z, bob_branch)
    for b in (0, 1):
        for bp in (0, 1):
            elements = [bob_branch(y, b, bp) for y in (0, 1)]
            assert _tp_residual(elements) <= 1e-12


def test_cj_operators_are_psd_and_labeled():
    op = alice_z(1, 0)
    assert op.shape == (4, 4)
    eigs = np.linalg.eigvalsh(op)
    assert eigs.min() >= -1e-12


def test_bit_arguments_are_checked():
    with pytest.raises(ValueError):
        alice_z(2, 0)
    with pytest.raises(ValueError):
        bob_branch(0, 0, 3)


def test_bob_branch_requires_a_unit_axis():
    with pytest.raises(ValueError, match="unit"):
        bob_branch(0, 0, 0, t=np.array([1.0, 1.0, 0.0]))


def _assert_same_bits(actual, expected):
    """Equal values and dtype, with equal signs of zero: the raw bytes match."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def test_elements_are_bit_identical_to_kron_of_their_factors():
    rng = np.random.default_rng(8)
    units = [X_AXIS, -Z_AXIS, *(v / np.linalg.norm(v) for v in rng.standard_normal((8, 3)))]
    axes = [np.zeros(3), *units]
    mixed = _projector(0, np.zeros(3))
    for i, measure in enumerate(axes):
        encode = axes[(i + 4) % len(axes)]
        relay, t = units[i % len(units)], units[(i + 3) % len(units)]
        alice, bob = ObservableSpec(measure, encode), ObservableSpec(measure, encode, relay)
        for first in (0, 1):
            for second in (0, 1):
                _assert_same_bits(
                    alice_z(first, second),
                    np.kron(_projector(first, Z_AXIS), _projector(second, Z_AXIS)),
                )
                _assert_same_bits(
                    alice_general(first, second, alice),
                    np.kron(_projector(first, measure), _projector(second, encode)),
                )
                y, b = first, second
                _assert_same_bits(bob_branch(y, b, 1, t=t), np.kron(_projector(y, Z_AXIS), mixed))
                _assert_same_bits(
                    bob_branch(y, b, 0, t=t), np.kron(_projector(y, t), _projector(b ^ y, Z_AXIS))
                )
                _assert_same_bits(bob_general(y, b, 1, bob), np.kron(_projector(y, relay), mixed))
                _assert_same_bits(
                    bob_general(y, b, 0, bob),
                    np.kron(_projector(y, measure), _projector(b ^ y, encode)),
                )


def test_general_forms_reduce_to_the_named_instruments():
    alice_spec = ObservableSpec(measure=Z_AXIS, encode=Z_AXIS)
    for x in (0, 1):
        for a in (0, 1):
            npt.assert_allclose(
                alice_general(x, a, alice_spec), alice_z(x, a), atol=1e-12
            )
    bob_spec = ObservableSpec(measure=X_AXIS, encode=Z_AXIS)
    for y in (0, 1):
        for b in (0, 1):
            for bp in (0, 1):
                npt.assert_allclose(
                    bob_general(y, b, bp, bob_spec),
                    bob_branch(y, b, bp),
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
        # Raises "party A/B instrument at setting ... is invalid" on any
        # element that is not positive or family that is not trace preserving.
        joint_distribution(
            w_ocb(),
            lambda x, a: alice_general(x, a, spec),
            lambda y, b, bp: bob_general(y, b, bp, spec),
        )


def test_zero_axes_omit_terms():
    spec = ObservableSpec(measure=np.zeros(3), encode=np.zeros(3))
    # Fully trivial operation: identity output state, uniform outcome.
    op = bob_general(0, 0, 0, spec)
    npt.assert_allclose(op, np.eye(4) / 4.0, atol=1e-12)


def test_observable_spec_guards():
    with pytest.raises(ValueError, match="measure"):
        ObservableSpec(measure=np.array([1.0, 1.0, 0.0]), encode=Z_AXIS)
    with pytest.raises(ValueError, match="relay"):
        ObservableSpec(measure=X_AXIS, encode=Z_AXIS, relay=np.zeros(3))


def test_joint_distribution_catches_broken_families():
    # Doubling one element breaks trace preservation.
    def doubled(x, a):
        return 2.0 * alice_z(x, a) if x == 0 else alice_z(x, a)

    with pytest.raises(ValueError, match=r"party A instrument at setting \(0,\) is invalid: .*trace"):
        joint_distribution(w_ocb(), doubled, bob_branch)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"measure": [np.nan, 0.0, 0.0], "encode": X_AXIS},
        {"measure": Z_AXIS, "encode": [np.inf, 0.0, 0.0]},
        {"measure": Z_AXIS, "encode": X_AXIS, "relay": [np.inf, 0.0, 0.0]},
        {"measure": Z_AXIS, "encode": X_AXIS, "relay": [np.nan, 0.0, 1.0]},
    ],
)
def test_observable_spec_rejects_non_finite_axes(kwargs):
    with pytest.raises(ValueError):
        ObservableSpec(**kwargs)


def test_bob_branch_rejects_a_huge_axis_without_overflow():
    # The norm is about 1.4e200; squaring the entries would overflow.
    with pytest.raises(ValueError, match="t must be a unit vector"):
        bob_branch(0, 0, 0, t=np.array([1e200, 1e200, 0.0]))


def test_bob_branch_rejects_a_non_finite_axis():
    with pytest.raises(ValueError, match="unit vector"):
        bob_branch(0, 0, 0, t=np.array([np.nan, 0.0, 0.0]))


def test_joint_distribution_flags_non_finite_elements():
    def poisoned(x, a):
        element = alice_z(x, a)
        if (x, a) == (0, 0):
            element[0, 3] = np.nan  # off the blocks the trace-preservation check reads
        return element

    with pytest.raises(ValueError, match=r"setting \(0,\) is invalid: element 0 has non-finite"):
        joint_distribution(w_ocb(), poisoned, bob_branch)
