"""Property tests of the instrument product form, of Born-table normalization,
of the one finiteness check every process entry point shares, of exact file
round trips, of causal-polytope membership and of the polytope's maximum."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
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
    w_beta,
    w_ocb,
    witness_s,
    witness_value,
)
from causalgame.oracle import _causal_max

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
