"""Property tests of the instrument product form and its stacks, of the Born table's
contraction order and normalization,
of the one finiteness check every process entry point shares, of exact file
round trips, of causal-polytope membership and of the polytope's maximum."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from causalgame import (
    PAULI,
    PAULI_LABELS,
    ObservableSpec,
    ProcessMatrix,
    alice_general,
    alice_z,
    bob_branch,
    bob_general,
    causal_mixture,
    dense_text,
    is_causal,
    joint_distribution,
    ordered_identity_channel_process,
    parse_process,
    pauli_text,
    validate,
    w_ansatz,
    w_beta,
    w_ocb,
    witness_s,
    witness_value,
)
from causalgame import instruments
from causalgame.instruments import UNIT_ATOL, X_AXIS, Z_AXIS, _check_stack, _proven
from causalgame.oracle import _causal_max
from causalgame.processes import ValidityReport, term_label
from causalgame.tensor import _hermitian_part, _trace_pattern, pauli_compose, pauli_decompose
from conftest import VALID_SUPPORTS, support, word_at

# Deterministic examples keep the suite reproducible run to run.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

bits = st.integers(0, 1)
_coords = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array)
unit_axes = _coords.filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))
unit_or_zero_axes = st.one_of(st.just(np.zeros(3)), unit_axes)
specs = st.builds(ObservableSpec, measure=unit_or_zero_axes, encode=unit_or_zero_axes, relay=unit_axes)


def _sign(bit):
    return -1.0 if bit else 1.0


def _bloch(axis):
    return axis[0] * PAULI[1] + axis[1] * PAULI[2] + axis[2] * PAULI[3]


def _four_term(in_bit, in_axis, out_bit, out_axis):
    """The element as a Bloch sum: (1/4)[1 + input term + output term + correlation term]."""
    eye = np.eye(2)
    return 0.25 * (
        np.eye(4)
        + _sign(in_bit) * np.kron(_bloch(in_axis), eye)
        + _sign(out_bit) * np.kron(eye, _bloch(out_axis))
        + _sign(in_bit ^ out_bit) * np.kron(_bloch(in_axis), _bloch(out_axis))
    )


@PROPERTY
@given(spec=specs, x=bits, a=bits)
def test_alice_general_is_the_four_term_bloch_sum(spec, x, a):
    npt.assert_allclose(
        alice_general(x, a, spec), _four_term(x, spec.measure, a, spec.encode), rtol=0, atol=1e-15
    )


@PROPERTY
@given(spec=specs, y=bits, b=bits, b_prime=bits)
def test_bob_general_is_the_four_term_bloch_sum(spec, y, b, b_prime):
    if b_prime:
        expected = _four_term(y, spec.relay, 0, np.zeros(3))
    else:
        expected = _four_term(y, spec.measure, b ^ y, spec.encode)
    npt.assert_allclose(bob_general(y, b, b_prime, spec), expected, rtol=0, atol=1e-15)


@PROPERTY
@given(spec=specs, t=unit_axes)
def test_every_element_is_a_writeable_copy_of_its_stack_entry(spec, t):
    z_strategy, branch = ObservableSpec(Z_AXIS, Z_AXIS), ObservableSpec(t, Z_AXIS)
    pairs = [(alice_general(x, a, spec), spec.alice_stack[x, a]) for x, a in np.ndindex(2, 2)]
    pairs += [(alice_z(x, a), z_strategy.alice_stack[x, a]) for x, a in np.ndindex(2, 2)]
    for y, b, bp in np.ndindex(2, 2, 2):
        pairs.append((bob_general(y, b, bp, spec), spec.bob_stack[y, b, bp]))
        pairs.append((bob_branch(y, b, bp, t=t), branch.bob_stack[y, b, bp]))
        pairs.append((bob_branch(y, b, bp), ObservableSpec(X_AXIS, Z_AXIS).bob_stack[y, b, bp]))
    for element, entry in pairs:
        assert element.dtype == entry.dtype and element.shape == entry.shape == (4, 4)
        assert element.tobytes() == entry.tobytes()
        assert element.flags.writeable and not entry.flags.writeable
    assert spec.alice_stack is spec.alice_stack and spec.bob_stack is spec.bob_stack


# Every unit coordinate axis with each sign on each of its zeros.
signed_zero_axes = st.sampled_from(
    [
        np.array(v)
        for k in range(3)
        for one in (1.0, -1.0)
        for zeros in ((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0))
        for v in [list(zeros[:k]) + [one] + list(zeros[k:])]
    ]
)


@PROPERTY
@given(t=st.one_of(unit_axes, signed_zero_axes), scale=st.sampled_from([0.0, 0.5, 1.0 + 1e-9, 2.0]))
def test_a_decode_axis_branch_has_the_bytes_of_its_observable_spec_stack(t, scale):
    expected = ObservableSpec(t, Z_AXIS).bob_stack
    stack = instruments._branch_stack(t)
    assert stack.dtype == expected.dtype and stack.shape == expected.shape == (2, 2, 2, 4, 4)
    assert stack.tobytes() == expected.tobytes()
    assert not stack.flags.writeable and _proven(stack)
    with pytest.raises(ValueError, match="t must be a unit vector"):
        instruments._branch_stack(t * scale)


@PROPERTY
@given(alice=specs, bob=specs, beta=st.floats(0.5, 1.0, exclude_max=True))
def test_stacks_and_callables_give_bit_identical_tables(alice, bob, beta):
    w = w_beta(beta)
    from_stacks = joint_distribution(w, alice.alice_stack, bob.bob_stack).table
    assert from_stacks.tobytes() == _play(w, alice, bob).table.tobytes()


def _refusal(alice, bob) -> str:
    with pytest.raises(ValueError) as info:
        joint_distribution(w_ocb(), alice, bob)
    return str(info.value)


@PROPERTY
@given(
    spec=specs,
    party=st.sampled_from("AB"),
    position=st.integers(0, 2**16),
    defect=st.sampled_from(["nan", "doubled", "skewed", "shape"]),
)
def test_an_invalid_stack_is_refused_with_the_callable_forms_message(spec, party, position, defect):
    alice, bob = np.array(spec.alice_stack), np.array(spec.bob_stack)  # writeable copies
    stack = alice if party == "A" else bob
    index = np.unravel_index(position % (stack.size // 16), stack.shape[:-2])
    if defect == "nan":
        stack[index + divmod(position % 16, 4)] = np.nan
        expected = f"element {index[0]} has non-finite entries"
    elif defect == "doubled":
        stack[index] *= 2.0
        expected = "summed map is not trace preserving"
    elif defect == "skewed":
        stack[index] += 0.3j * np.kron(PAULI[1], PAULI[0])  # anti-Hermitian
        expected = f"element {index[0]} is not Hermitian: residual 6.000e-01 exceeds 1.0e-12"
    elif party == "A":
        alice, expected = alice[..., :2, :2], "need 4x4 instrument elements, got stacks (2, 2, 2, 2)"
    else:
        bob, expected = bob[..., :3], "need 4x4 instrument elements, got stacks (2, 2, 4, 4) and (2, 2, 2, 4, 3)"
    message = _refusal(alice, bob)
    assert message == _refusal(lambda x, a: alice[x, a], lambda y, b, bp: bob[y, b, bp])
    assert expected in message
    if defect != "shape":
        setting = tuple(int(i) for i in index[1:])
        assert message.startswith(f"party {party} instrument at setting {setting} is invalid: ")


def _play(w, alice, bob):
    return joint_distribution(
        w,
        lambda x, a: alice_general(x, a, alice),
        lambda y, b, bp: bob_general(y, b, bp, bob),
    )


def _assert_normalized(w, alice, bob):
    dist = _play(w, alice, bob)
    # One probability distribution over (x, y) for every setting (a, b, b').
    npt.assert_allclose(dist.table.sum(axis=(0, 1)), np.ones((2, 2, 2)), rtol=0, atol=1e-12)


@PROPERTY
@given(alice=specs, bob=specs, q=st.floats(0.0, 1.0))
def test_causal_mixture_tables_are_normalized(alice, bob, q):
    w = causal_mixture(
        ordered_identity_channel_process("b_to_a"), ordered_identity_channel_process("a_to_b"), q
    )
    _assert_normalized(w, alice, bob)


@PROPERTY
@given(alice=specs, bob=specs, beta=st.floats(0.5, 1.0, exclude_max=True))
def test_w_beta_tables_are_normalized(alice, bob, beta):
    _assert_normalized(w_beta(beta), alice, bob)


def _one_contraction(w, alice, bob):
    """The Born table by its definition: Tr[W (A (x) B)] as one contraction over all four indices."""
    return np.einsum("pqrs,xarp,ybcsq->xyabc", w.matrix.reshape(4, 4, 4, 4), alice, bob).real


born_processes = st.one_of(
    st.floats(0.5, 1.0, exclude_max=True).map(w_beta),
    st.floats(0.0, 1.0).map(
        lambda q: causal_mixture(
            ordered_identity_channel_process("b_to_a"), ordered_identity_channel_process("a_to_b"), q
        )
    ),
    # Six coefficients with |c| summing to at most 0.9 keep W >= 0.1 / 4.
    st.tuples(*[st.floats(-0.15, 0.15)] * 6).map(lambda c: w_ansatz(*c)),
)


@PROPERTY
@given(w=born_processes, t=unit_axes, alice=specs, bob=specs)
def test_the_born_table_is_the_one_contraction_over_all_indices(w, t, alice, bob):
    # Each of alice_z's elements has one nonzero entry, so contracting her
    # side first adds the same nonzero terms in the same order: same bits.
    table = joint_distribution(w, alice_z, lambda y, b, bp: bob_branch(y, b, bp, t=t)).table
    expected = _one_contraction(w, ObservableSpec(Z_AXIS, Z_AXIS).alice_stack, ObservableSpec(t, Z_AXIS).bob_stack)
    assert table.tobytes() == expected.tobytes()
    # General stacks sum in another order, which moves only the last bits.
    table = joint_distribution(w, alice.alice_stack, bob.bob_stack).table
    npt.assert_allclose(table, _one_contraction(w, alice.alice_stack, bob.bob_stack), rtol=0, atol=1e-15)


@PROPERTY
@given(row=st.integers(0, 15), col=st.integers(0, 15), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_every_process_entry_point_refuses_a_non_finite_entry(row, col, bad):
    matrix = np.array(w_ocb().matrix)
    matrix[row, col] = bad
    ordered = ordered_identity_channel_process("a_to_b")
    for call in (
        lambda: validate(matrix),
        lambda: joint_distribution(matrix, alice_z, bob_branch),
        lambda: causal_mixture(matrix, ordered, 0.5),
        lambda: witness_value(witness_s(), matrix),
    ):
        with pytest.raises(ValueError, match="entries must be finite"):
            call()


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(parts=arrays(np.float64, (2, 16, 16), elements=finite_floats))
def test_dense_round_trip_is_exact(parts):
    matrix = np.empty((16, 16), dtype=complex)
    matrix.real, matrix.imag = parts  # not re + 1j*im, which drops a -0.0 real part
    clone = parse_process(dense_text(ProcessMatrix(matrix)))
    assert clone.matrix.tobytes() == matrix.tobytes()


pauli_words = st.text(PAULI_LABELS, min_size=4, max_size=4)
dyadic = st.integers(-4096, 4096).filter(bool).map(lambda k: k / 2**10)


@PROPERTY
@given(terms=st.dictionaries(pauli_words, dyadic, min_size=1, max_size=24))
def test_pauli_round_trip_is_exact(terms):
    # Sums of k / 2**10 over at most 24 terms are exact, so every
    # coefficient comes back to the last bit and no other word appears.
    ordered = sorted(terms, key=lambda word: [PAULI_LABELS.index(c) for c in word])
    text = "".join(f"{word} {terms[word]!r}\n" for word in ordered)
    assert pauli_text(parse_process(text)) == text


@PROPERTY
@given(tag=st.text().filter(lambda tag: "".join(tag.splitlines()) == tag))
def test_a_one_line_tag_survives_both_forms(tag):
    w = ProcessMatrix(w_ocb().matrix, tag=tag)
    assert parse_process(dense_text(w)).tag == tag
    assert parse_process(pauli_text(w)).tag == tag


@settings(derandomize=True, max_examples=60, deadline=None)  # one LP per example
@given(
    columns=st.lists(st.integers(0, 2047), min_size=1, max_size=7, unique=True),
    raw=st.lists(st.floats(0.01, 1.0), min_size=7, max_size=7),
)
def test_vertex_mixtures_are_causal_and_their_weights_reproduce_them(columns, raw, vertex_stack):
    tables = vertex_stack
    mix = np.array(raw[: len(columns)]) / sum(raw[: len(columns)])
    table = tables[:, columns] @ mix
    decision = is_causal(table.reshape(2, 2, 2, 2, 2))
    assert decision.is_causal
    npt.assert_allclose(tables @ decision.weights, table, rtol=0, atol=1e-9)


@settings(derandomize=True, max_examples=15, deadline=None)  # one LP per example
@given(alice=specs, bob=specs, q=st.floats(0.0, 1.0))
def test_causal_mixture_tables_are_causal_and_their_weights_reproduce_them(
    alice, bob, q, vertex_stack
):
    w = causal_mixture(
        ordered_identity_channel_process("b_to_a"), ordered_identity_channel_process("a_to_b"), q
    )
    table = _play(w, alice, bob).table
    decision = is_causal(table)
    assert decision.is_causal
    npt.assert_allclose(vertex_stack @ decision.weights, table.reshape(32), rtol=0, atol=1e-9)


def _with_first_input(direction, state):
    """The ordered process of ``direction`` with the first party's input in the state
    (I + state . sigma) / 2 in place of I / 2: each word gains the state's terms there."""
    slot = 0 if direction == "a_to_b" else 2  # A_I or B_I
    terms = pauli_decompose(ordered_identity_channel_process(direction).matrix)
    for word, value in list(terms.items()):
        for pauli, r in enumerate(state, start=1):
            terms[word[:slot] + (pauli,) + word[slot + 1:]] = value * r
    return ProcessMatrix(pauli_compose(terms))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1 defect A")
@settings(derandomize=True, max_examples=15, deadline=None)  # one LP per example
@given(
    direction=st.sampled_from(["a_to_b", "b_to_a"]),
    state=st.builds(lambda axis, purity: axis * purity, unit_axes, st.one_of(st.just(1.0), st.floats(0.0, 1.0))),
    alice=specs,
    bob=specs,
)
# Bob is first, with input |0><0|: read along z at b' = 0 and along x at b' = 1, his
# answer y depends on b', which the shipped map's Bob-first leader cannot follow.
@example(
    direction="b_to_a",
    state=Z_AXIS,
    alice=ObservableSpec(Z_AXIS, Z_AXIS),
    bob=ObservableSpec(measure=Z_AXIS, encode=Z_AXIS, relay=X_AXIS),
)
def test_ordered_processes_with_a_first_party_input_state_give_causal_tables(direction, state, alice, bob):
    w = _with_first_input(direction, state)
    assert validate(w).is_valid
    assert is_causal(joint_distribution(w, alice.alice_stack, bob.bob_stack)).is_causal


@PROPERTY
@given(beta=st.floats(0.5, 0.95), axis=unit_axes, noise=st.floats(0.0, 0.5))
def test_every_verdict_carries_evidence_against_the_vertices(beta, axis, noise, vertex_stack):
    # w_beta decoded along x and little noise lies outside the polytope;
    # other axes and more noise bring it inside.
    played = joint_distribution(
        w_beta(beta), alice_z, lambda y, b, bp: bob_branch(y, b, bp, axis)
    ).table
    table = (1.0 - noise) * played + noise / 4
    decision = is_causal(table)
    if decision.is_causal:
        alice_first, bob_first = decision.parts
        assert alice_first.min() >= -1e-12 and bob_first.min() >= -1e-12
        npt.assert_allclose(alice_first + bob_first, table, rtol=0, atol=1e-9)
        npt.assert_allclose(vertex_stack @ decision.weights, table.reshape(32), rtol=0, atol=1e-9)
    else:
        functional = decision.functional.reshape(32)
        assert functional @ table.reshape(32) > (functional @ vertex_stack).max() + 1e-7


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_causal_max_is_the_largest_vertex_score(seed, vertex_stack):
    f = np.random.default_rng(seed).normal(size=32)
    brute = (f @ vertex_stack).max()
    npt.assert_allclose(_causal_max(f.reshape(2, 2, 2, 2, 2)), brute, rtol=0, atol=1e-12)


@PROPERTY
@given(f=arrays(np.int64, 32, elements=st.integers(-3, 3)))
def test_causal_max_matches_the_vertices_exactly_on_integer_functionals(f, vertex_stack):
    # Small integers sum exactly, and their many ties would expose a
    # maximum taken over a wrong set of strategies.
    f = f.astype(float)
    assert _causal_max(f.reshape(2, 2, 2, 2, 2)) == (f @ vertex_stack).max()


# --- Checks done once: the proof that skips the instrument check, and validate against its per-word form ---

def _at_edge(axis, f):
    """``axis`` scaled to norm 1 + f * UNIT_ATOL, stepped inward to the last norm the check accepts."""
    scale = 1.0 + f * UNIT_ATOL
    while not abs(math.hypot(*(axis * scale)) - 1.0) <= UNIT_ATOL:
        scale = np.nextafter(scale, 1.0)
    return axis * scale


edge_unit_axes = st.builds(_at_edge, unit_axes, st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
edge_axes = st.one_of(st.just(np.zeros(3)), edge_unit_axes)
edge_specs = st.builds(ObservableSpec, measure=edge_axes, encode=edge_axes, relay=edge_unit_axes)


@PROPERTY
@given(spec=edge_specs)
def test_every_observable_spec_stack_passes_the_instrument_check(spec):
    # Skipping _check_stack for these stacks is safe only because this holds.
    alice, bob = spec.alice_stack, spec.bob_stack
    _check_stack("A", alice)
    _check_stack("B", bob)
    assert _hermitian_part(alice)[1].max() == _hermitian_part(bob)[1].max() == 0.0  # exactly Hermitian
    assert _proven(alice) and _proven(bob)
    for stack in (alice, bob):  # no writeable array shares a proven stack's memory
        assert stack.base is None and not stack.flags.writeable
    assert _proven(alice.copy()) and _proven(np.array(bob)) and _proven(bob[:])  # the same bytes


_EYE, _SIGNS = np.eye(2), np.array([1.0, -1.0])[:, None, None]


def _reference_branch_element(y, b, t):
    """bob_branch(y, b, 0, t) as it was built element by element: the product of
    t's projector for y and z's projector for b xor y."""
    def projectors(axis):
        x1, x2, x3 = axis.T[..., None, None, None]
        return (_EYE + _SIGNS * (x1 * PAULI[1] + x2 * PAULI[2] + x3 * PAULI[3])) / 2

    p, q = projectors(t)[y], projectors(Z_AXIS)[b ^ y]
    return (p[:, None, :, None] * q[None, :, None, :]).reshape(4, 4)


@PROPERTY
@given(alice=specs, bob=specs, t=unit_axes, beta=st.floats(0.5, 1.0, exclude_max=True))
def test_element_function_callables_are_looked_up_not_checked(alice, bob, t, beta):
    w = w_beta(beta)
    for y, b in np.ndindex(2, 2):
        assert bob_branch(y, b, 0, t=t).tobytes() == _reference_branch_element(y, b, t).tobytes()
        assert bob_branch(y, b, 1, t=t).tobytes() == bob_branch(y, b, 1).tobytes()
    cases = [
        (
            (lambda x, a: alice_z(x, a), lambda y, b, bp: bob_branch(y, b, bp, t=t)),
            (ObservableSpec(Z_AXIS, Z_AXIS).alice_stack, ObservableSpec(t, Z_AXIS).bob_stack),
        ),
        (
            (lambda x, a: alice_general(x, a, alice), lambda y, b, bp: bob_general(y, b, bp, bob)),
            (alice.alice_stack, bob.bob_stack),
        ),
    ]
    for callables, stacks in cases:
        with mock.patch.object(instruments, "_check_stack", wraps=instruments._check_stack) as check:
            table = joint_distribution(w, *callables).table
        assert check.call_count == 0
        assert table.tobytes() == joint_distribution(w, *stacks).table.tobytes()


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), scale=st.one_of(st.floats(1e-3, 1e9), st.sampled_from([1e6, 1e9])))
def test_validate_reports_on_every_hermitian_matrix_and_never_raises(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    w = ProcessMatrix((a + a.conj().T) / 2 * scale)  # exactly Hermitian at every scale
    report = validate(w)
    assert report.hermiticity_residual == 0.0
    assert not any(failure.startswith("not Hermitian") for failure in report.failures)
    assert len(pauli_decompose(w.matrix)) > 0


def _reference_coefficients(matrix):
    """All 256 Pauli coefficients as they were read before the flat gather: by take_along_axis."""
    arr = np.asarray(matrix, dtype=complex)
    cols, phase = _trace_pattern()[:2]
    coeffs = (np.take_along_axis(arr, cols, axis=1) * phase).sum(axis=0) / 16
    return coeffs.real


def _reference_decompose(matrix, zero_atol=0.0):
    """pauli_decompose as one dict entry per word kept, refusing a matrix by the
    residual that validate reports: max |M - M^H| above 1e-12."""
    residual = float(np.max(np.abs(matrix - matrix.conj().T)))
    if residual > 1e-12:
        raise ValueError(f"input is not Hermitian: residual {residual:.3e} exceeds {1e-12:.1e}")
    values = _reference_coefficients(matrix)
    return {word_at(flat): float(values[flat]) for flat in np.flatnonzero(np.abs(values) > zero_atol).tolist()}


def _reference_validate(w, tol=None):
    """validate word by word: a support set per word, judged against the literal list of valid supports."""
    psd_tol, trace_tol, support_tol = (1e-9, 1e-9, 1e-10) if tol is None else (tol, tol, tol)
    arr = w.matrix
    failures = []
    residual = float(np.max(np.abs(arr - arr.conj().T)))
    if residual > 1e-12:
        failures.append(f"not Hermitian: residual {residual:.3e} exceeds {1e-12:.1e}")
    herm = (arr + arr.conj().T) / 2
    min_eigenvalue = float(np.linalg.eigvalsh(herm)[0])
    if min_eigenvalue < -psd_tol:
        failures.append(f"not positive semidefinite: minimum eigenvalue {min_eigenvalue:.6e}")
    trace = float(np.trace(arr).real)
    if abs(trace - 4.0) > trace_tol:
        failures.append(f"trace {trace!r} differs from {4.0!r}")
    coefficients = _reference_coefficients(herm)
    sparse = _reference_decompose(herm)
    forbidden = []
    for word in sorted(sparse):
        value = sparse[word]
        if abs(value) <= support_tol:
            continue
        if support(word) not in VALID_SUPPORTS:
            forbidden.append((word, value))
    if forbidden:
        failures.append("forbidden terms present: " + ", ".join(f"{term_label(t)}={c:.6g}" for t, c in forbidden))
    return ValidityReport(not failures, residual, min_eigenvalue, trace, tuple(forbidden), tuple(failures), coefficients)


def _bits(value):
    """``value`` with every float spelled by its exact bits, so == compares signs of zero and NaNs too;
    an array by its dtype, shape and bytes."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return tuple((_bits(k), _bits(v)) for k, v in value.items())
    if isinstance(value, ValidityReport):
        return _bits(dataclasses.astuple(value))
    return value


all_words = st.tuples(*[st.integers(0, 3)] * 4)
coefficient = st.one_of(st.floats(-0.3, 0.3), st.sampled_from([0.0, -0.0, 1e-11, -1e-11, 2e-10]))


@PROPERTY
@given(
    terms=st.dictionaries(all_words, coefficient, max_size=12),
    base=st.sampled_from([None, "w_ocb", "mixture"]),
    skew=st.sampled_from([0.0, 1e-14, 1e-12, 1e-6, 0.1]),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([None, 0.0, 1e-3]),
)
def test_validate_and_decompose_match_their_per_word_form_bit_for_bit(terms, base, skew, seed, tol):
    matrix = pauli_compose(terms) if terms else np.zeros((16, 16), dtype=complex)
    if base == "w_ocb":
        matrix = matrix + w_ocb().matrix
    elif base == "mixture":
        matrix = matrix + causal_mixture(
            ordered_identity_channel_process("b_to_a"), ordered_identity_channel_process("a_to_b"), 0.3
        ).matrix
    rng = np.random.default_rng(seed)
    matrix = matrix + skew * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    w = ProcessMatrix(matrix)
    report = validate(w, tol=tol)
    assert _bits(report) == _bits(_reference_validate(w, tol))  # the coefficients' bytes too
    assert report.coefficients.shape == (256,) and not report.coefficients.flags.writeable
    herm = (w.matrix + w.matrix.conj().T) / 2
    for zero_atol in (0.0, 1e-10, 0.05):
        assert _bits(pauli_decompose(herm, zero_atol)) == _bits(_reference_decompose(herm, zero_atol))
    try:  # W itself, accepted or refused by the Hermiticity rule, with the same message
        expected = _reference_decompose(w.matrix)
    except ValueError as refusal:
        with pytest.raises(ValueError, match=re.escape(str(refusal))):
            pauli_decompose(w.matrix)
    else:
        assert _bits(pauli_decompose(w.matrix)) == _bits(expected)
