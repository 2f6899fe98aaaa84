"""Property tests of the instrument product form, of Born-table normalization,
of exact file round trips and of causal-polytope membership."""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from causalgame import (
    PAULI,
    PAULI_LABELS,
    ObservableSpec,
    ProcessMatrix,
    alice_general,
    bob_general,
    causal_mixture,
    dense_text,
    is_causal,
    joint_distribution,
    ordered_identity_channel_process,
    parse_process,
    pauli_text,
    w_beta,
)
from causalgame.oracle import _vertex_tables

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
def test_vertex_mixtures_are_causal_and_their_weights_reproduce_them(columns, raw):
    tables = _vertex_tables()
    mix = np.array(raw[: len(columns)]) / sum(raw[: len(columns)])
    table = tables[:, columns] @ mix
    decision = is_causal(table.reshape(2, 2, 2, 2, 2))
    assert decision.is_causal
    npt.assert_allclose(tables @ decision.weights, table, rtol=0, atol=1e-9)


@settings(derandomize=True, max_examples=15, deadline=None)  # one LP per example
@given(alice=specs, bob=specs, q=st.floats(0.0, 1.0))
def test_causal_mixture_tables_are_causal_and_their_weights_reproduce_them(alice, bob, q):
    w = causal_mixture(
        ordered_identity_channel_process("b_to_a"), ordered_identity_channel_process("a_to_b"), q
    )
    table = _play(w, alice, bob).table
    decision = is_causal(table)
    assert decision.is_causal
    npt.assert_allclose(_vertex_tables() @ decision.weights, table.reshape(32), rtol=0, atol=1e-9)
