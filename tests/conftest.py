import functools

import numpy as np
import pytest

from causalgame import (
    JointDistribution,
    ObservableSpec,
    PAULI,
    alice_general,
    alice_z,
    bob_branch,
    bob_general,
    causal_mixture,
    enumerate_strategies,
    joint_distribution,
    oracle,
    ordered_identity_channel_process,
    success_probability,
    w_beta,
)

# The supports (the subsystems a Pauli word acts on) a valid bipartite qubit
# process may carry: those of an A-before-B process and those of a
# B-before-A one (Oreshkov, Costa and Brukner, Nat. Commun. 3, 1092 (2012);
# Araujo et al., NJP 17, 102001 (2015)). Written out, not derived.
VALID_SUPPORTS = frozenset(
    map(
        frozenset,
        [
            (),
            ("A_I",),
            ("B_I",),
            ("A_I", "B_I"),
            ("A_O", "B_I"),
            ("A_I", "A_O", "B_I"),
            ("A_I", "B_O"),
            ("A_I", "B_I", "B_O"),
        ],
    )
)


def word_at(flat):
    """The Pauli word (0=I, 1=X, 2=Y, 3=Z on A_I, A_O, B_I, B_O) at flat index 64 t0 + 16 t1 + 4 t2 + t3."""
    return (flat >> 6, (flat >> 4) & 3, (flat >> 2) & 3, flat & 3)


@functools.cache
def word_entries():
    """Each Pauli word's one nonzero row c of each column r, and the entry sigma(t)[c, r] there.

    Read from the Kronecker product of the word's ``PAULI`` factors; both are
    (16, 256) arrays indexed by r and the flat word t, the word ``word_at(t)``.
    """
    sigma = np.array([functools.reduce(np.kron, [PAULI[i] for i in word_at(t)]) for t in range(256)])
    rows = np.abs(sigma).argmax(axis=1)  # [t, r]
    entries = np.take_along_axis(sigma, rows[:, None, :], axis=1)[:, 0]
    # C order: numpy then sums over r one row at a time, the order the references are written for.
    return np.ascontiguousarray(rows.T), np.ascontiguousarray(entries.T)


def support(word):
    """The subsystems a Pauli word acts on."""
    return frozenset(label for label, index in zip(("A_I", "A_O", "B_I", "B_O"), word) if index)


@pytest.fixture(scope="session")
def vertex_stack():
    """The 2048 strategies' flattened correlation tables, one per column.

    Columns follow ``enumerate_strategies()``, the order of
    ``CausalDecision.weights``; the reference the vertex-free oracle code
    is checked against.
    """
    stack = np.stack([s.correlation_table().reshape(32) for s in enumerate_strategies()], axis=1)
    stack.setflags(write=False)
    return stack


def strategy_success(strategy, spec):
    """Winning probability of a single deterministic strategy."""
    return success_probability(JointDistribution(strategy.correlation_table()), spec)


def membership_tables():
    """A seeded set of tables on both sides of the polytope's boundary."""
    rng = np.random.default_rng(41)
    for beta in np.linspace(0.5, 0.9, 5):
        played = joint_distribution(w_beta(float(beta)), alice_z, bob_branch).table
        for noise in np.linspace(0.0, 0.5, 6):
            yield (1.0 - noise) * played + noise / 4
    for q in rng.uniform(0.0, 1.0, 10):
        mix = causal_mixture(
            ordered_identity_channel_process("b_to_a"),
            ordered_identity_channel_process("a_to_b"),
            float(q),
        )
        yield joint_distribution(mix, alice_z, bob_branch).table


def general_mixture_tables():
    """Ordered-process mixtures played with seeded general instruments: members."""
    rng = np.random.default_rng(43)

    def axis():
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    for _ in range(40):
        alice, bob = ObservableSpec(axis(), axis()), ObservableSpec(axis(), axis(), axis())
        mix = causal_mixture(
            ordered_identity_channel_process("b_to_a"),
            ordered_identity_channel_process("a_to_b"),
            float(rng.uniform(0.0, 1.0)),
        )
        yield joint_distribution(
            mix, lambda x, a: alice_general(x, a, alice), lambda y, b, bp: bob_general(y, b, bp, bob)
        ).table


SETTINGS = np.arange(8)  # m = 4a + 2b + b'


@pytest.fixture(
    params=[
        pytest.param((None, 2048, False), id="shipped"),
        pytest.param((SETTINGS & 3, 5120, True), id="bob_reads_b_and_bprime"),
    ]
)
def read_map(request, monkeypatch):
    """(vertex stack, count, whether Bob reads b') under one leader read map:
    the shipped ``oracle.READS``, or the full one in which the Bob-first
    leader reads (b, b') instead of b alone."""
    bob_reads, count, reads_bprime = request.param
    if bob_reads is not None:
        monkeypatch.setitem(oracle.READS, "b_first", bob_reads)
    oracle._polytope.cache_clear()
    vertices = np.stack([s.correlation_table().reshape(32) for s in enumerate_strategies()], axis=1)
    yield vertices, count, reads_bprime
    oracle._polytope.cache_clear()
