import gc
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    PAULI,
    instruments,
    ObservableSpec,
    alice_general,
    alice_z,
    bob_branch,
    bob_general,
    joint_distribution,
    w_ocb,
)
from causalgame.instruments import _PROVEN, X_AXIS, Z_AXIS, _proven


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


def _alice_z_plus(term):
    """alice_z's stack, indexed [x, a], with ``term`` added at x = 0 and taken
    away at x = 1: the summed map, and so trace preservation, is unchanged."""
    stack = np.array([[alice_z(x, a) for a in (0, 1)] for x in (0, 1)])
    stack[0] += term
    stack[1] -= term
    return stack


def test_joint_distribution_refuses_a_non_hermitian_instrument():
    # i times a Hermitian term: the elements' Hermitian parts stay alice_z's.
    stack = _alice_z_plus(0.3j * np.kron(PAULI[1], PAULI[0]))
    skewed = "is not Hermitian: residual 6.000e-01 exceeds 1.0e-12"
    expected = f"party A instrument at setting (0,) is invalid: element 0 {skewed}; element 1 {skewed}"
    for alice in (stack, lambda x, a: stack[x, a]):
        with pytest.raises(ValueError) as info:
            joint_distribution(w_ocb(), alice, bob_branch)
        assert str(info.value) == expected


def test_joint_distribution_names_an_element_that_is_not_positive():
    # 0.3 X on the input qubit: eigenvalue -0.3 where the output projector is zero.
    stack = _alice_z_plus(0.3 * np.kron(PAULI[1], PAULI[0]))
    with pytest.raises(ValueError) as info:
        joint_distribution(w_ocb(), stack, bob_branch)
    assert re.fullmatch(
        r"party A instrument at setting \(0,\) is invalid: element 0 is not positive: minimum eigenvalue "
        r"-3\.000000e-01; element 1 is not positive: minimum eigenvalue -3\.000000e-01",
        str(info.value),
    )


def test_joint_distribution_names_a_fault_at_the_last_bob_setting():
    # i times a Hermitian term added at y = 0 and taken away at y = 1 of
    # setting (b, b') = (1, 1) alone: the summed map stays trace preserving.
    stack = np.array([[[bob_branch(y, b, bp) for bp in (0, 1)] for b in (0, 1)] for y in (0, 1)])
    term = 0.3j * np.kron(PAULI[1], PAULI[0])
    stack[0, 1, 1] += term
    stack[1, 1, 1] -= term
    skewed = "is not Hermitian: residual 6.000e-01 exceeds 1.0e-12"
    expected = f"party B instrument at setting (1, 1) is invalid: element 0 {skewed}; element 1 {skewed}"
    for bob in (stack, lambda y, b, bp: stack[y, b, bp]):
        with pytest.raises(ValueError) as info:
            joint_distribution(w_ocb(), alice_z, bob)
        assert str(info.value) == expected


@pytest.mark.parametrize(
    "index, value, failure",
    [
        # Exactly Hermitian, but the Hermitian part (M + M^H) / 2 overflows.
        ((0, 1), 1.5e308, "element 0 has a Hermitian part that overflows"),
        # Positive, but the trace-preservation residual overflows its norm.
        ((0, 0), 1e200, "summed map is not trace preserving: residual inf"),
    ],
    ids=["hermitian_part", "trace_residual"],
)
def test_joint_distribution_refuses_an_element_too_large_to_check(index, value, failure):
    stack = np.array([[alice_z(x, a) for a in (0, 1)] for x in (0, 1)])
    stack[0, 0][index] = stack[0, 0][index[::-1]] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            joint_distribution(w_ocb(), stack, bob_branch)
    assert str(info.value) == f"party A instrument at setting (0,) is invalid: {failure}"


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


@pytest.mark.parametrize("t", [[np.nan, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0], [[1.0, 0.0, 0.0]]])
def test_bob_branch_checks_t_for_every_element(t):
    with pytest.raises(ValueError) as refused:
        bob_branch(0, 0, 0, t=t)
    for y, b in np.ndindex(2, 2):
        with pytest.raises(ValueError) as info:
            bob_branch(y, b, 1, t=t)  # the b_prime = 1 branch does not read t, but still checks it
        assert str(info.value) == str(refused.value)
    assert str(refused.value).startswith("t must be a ")


def test_a_tabulated_table_checks_its_decode_axis_once(monkeypatch):
    checked = []
    unit3 = instruments._unit3

    def counting(vec, name, allow_zero=False):
        checked.append(name)
        return unit3(vec, name, allow_zero)

    monkeypatch.setattr(instruments, "_unit3", counting)
    instruments._axis_branch.cache_clear()
    axis = np.array([0.6, 0.0, 0.8])
    for _ in range(2):  # the second table finds the axis's stack kept
        joint_distribution(w_ocb(), alice_z, lambda y, b, bp: bob_branch(y, b, bp, t=axis))
        assert checked.count("t") == 1


@pytest.mark.parametrize("t", [[1.0, 1.0, 0.0], [np.nan, 0.0, 0.0], [1e200, 1e200, 0.0], [0.0, 0.0, 0.0]])
def test_a_bad_float64_axis_is_refused_on_every_call(t):
    messages = set()
    for y, b, bp in np.ndindex(2, 2, 2):
        with pytest.raises(ValueError, match="^t must be a unit vector, got norm ") as info:
            bob_branch(y, b, bp, t=np.array(t))
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize(
    "t",
    [
        [2, 0, 0],
        np.array([2, 0, 0]),
        np.array([1.0, 1.0, 0.0], dtype=np.float32),
        np.array([2.0, 0.0, 0.0], dtype=object),
        np.array([2.0, 0.0, 0.0], dtype=">f8"),
        np.array([1.0, 0.0]),
        np.array([[1.0, 0.0, 0.0]]),
    ],
)
def test_an_axis_that_is_not_a_float64_3_vector_is_checked_first(t):
    with pytest.raises(ValueError, match="^t must be a "):
        bob_branch(0, 1, 0, t=t)


@pytest.mark.parametrize(
    "t",
    [
        [0, 0, 1],
        np.array([0, 0, 1]),
        np.array([0.0, 0.0, 1.0], dtype=np.float32),
        np.array([0, 0, 1.0], dtype=object),
        np.array([0.0, 0.0, 1.0], dtype=">f8"),
    ],
)
def test_an_axis_that_is_not_a_float64_3_vector_is_read_as_one(t):
    _assert_same_bits(bob_branch(0, 1, 0, t=t), bob_branch(0, 1, 0, t=Z_AXIS))


@pytest.mark.parametrize(
    "axis", [[1 + 0.5j, 0, 0], [0.6 + 2j, 0.8, 0], [complex(1.0, np.nan), 0, 0], [1, 1e-300j, 0]]
)
def test_an_axis_with_a_nonzero_imaginary_part_is_refused(axis):
    axis = np.array(axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not cast with a ComplexWarning
        with pytest.raises(ValueError, match="^measure must be real, got a nonzero imaginary part$"):
            ObservableSpec(measure=axis, encode=Z_AXIS)
        with pytest.raises(ValueError, match="^t must be real, got a nonzero imaginary part$"):
            bob_branch(0, 0, 0, t=axis)


def test_an_exactly_real_complex_axis_is_accepted():
    axis = np.array([0.6, 0.8, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = ObservableSpec(measure=axis.astype(complex), encode=Z_AXIS)
        element = bob_branch(0, 1, 0, t=axis.astype(complex))
    assert spec.alice_stack.tobytes() == ObservableSpec(measure=axis, encode=Z_AXIS).alice_stack.tobytes()
    assert element.tobytes() == bob_branch(0, 1, 0, t=axis).tobytes()


def test_only_an_array_with_a_built_stacks_dtype_shape_and_bytes_is_proven():
    built = ObservableSpec(Z_AXIS, X_AXIS).bob_stack
    assert _proven(built) and _proven(built.copy()) and _proven(np.array(built.tolist()))
    others = [
        None,
        0,
        built.tobytes(),
        built.tolist(),
        built.view("V16"),  # the same shape and bytes as another dtype
        built.view(np.float64),
        built.reshape(4, 2, 4, 4),  # the same dtype and bytes in another shape
        built.reshape(-1),
    ]
    for other in others:
        assert not _proven(other)


def test_a_registry_entry_leaves_when_its_spec_is_collected():
    spec = ObservableSpec(np.array([0.28, 0.96, 0.0]), np.array([0.0, -0.6, 0.8]))
    key, copy = spec.alice_stack.tobytes(), spec.alice_stack.copy()
    assert key in _PROVEN and _proven(copy)
    del spec
    gc.collect()
    assert key not in _PROVEN and not _proven(copy)
