import numpy as np
import pytest

from causalgame import (
    JointDistribution,
    alice_z,
    bob_branch,
    causal_mixture,
    enumerate_strategies,
    joint_distribution,
    ordered_identity_channel_process,
    success_probability,
    w_beta,
)


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
