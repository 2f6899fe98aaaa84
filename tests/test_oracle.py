import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    GameSpec,
    alice_z,
    bob_branch,
    causal_bound,
    causal_mixture,
    enumerate_strategies,
    is_causal,
    joint_distribution,
    oracle_bound,
    ordered_identity_channel_process,
    strategy_success,
    w_ocb,
)
from causalgame.oracle import _vertex_tables


def test_strategy_enumeration_covers_both_orders():
    strategies = enumerate_strategies()
    assert len(strategies) == 2048
    assert sum(1 for s in strategies if s.order == "a_first") == 1024
    tables = {s.correlation_table().tobytes() for s in strategies}
    assert len(tables) < 2048  # some vertices coincide across orders


def test_correlation_tables_are_deterministic_distributions():
    for strategy in enumerate_strategies()[::97]:
        table = strategy.correlation_table()
        npt.assert_allclose(table.sum(axis=(0, 1)), np.ones((2, 2, 2)), atol=1e-15)
        assert set(np.unique(table)) <= {0.0, 1.0}


def test_strategy_success_matches_its_table():
    spec = GameSpec(0.6, 0.7)
    weights = np.array([spec.alpha, 1.0 - spec.alpha])
    for strategy in enumerate_strategies()[::193]:
        table = strategy.correlation_table()
        total = 0.0
        for a in (0, 1):
            for b in (0, 1):
                w_ab = weights[a] * weights[b]
                total += w_ab * spec.beta * table[b, :, a, b, 0].sum()
                total += w_ab * (1.0 - spec.beta) * table[:, a, a, b, 1].sum()
        npt.assert_allclose(strategy_success(strategy, spec), total, atol=1e-12)


def test_oracle_bound_dominates_every_strategy():
    spec = GameSpec(0.55, 0.8)
    bound = oracle_bound(spec)
    for strategy in enumerate_strategies()[::131]:
        assert strategy_success(strategy, spec) <= bound + 1e-12


def test_oracle_bound_equals_the_closed_form():
    for alpha in np.linspace(0.5, 0.95, 4):
        for beta in np.linspace(0.5, 0.95, 4):
            spec = GameSpec(float(alpha), float(beta))
            npt.assert_allclose(oracle_bound(spec), causal_bound(spec), atol=1e-12)


def test_vertices_are_members():
    strategy = enumerate_strategies()[123]
    decision = is_causal(strategy.correlation_table())
    assert decision.is_causal
    assert decision.residual <= 1e-8


def test_membership_weights_reproduce_the_table():
    w = causal_mixture(
        ordered_identity_channel_process("b_to_a"),
        ordered_identity_channel_process("a_to_b"),
        0.4,
    )
    table = joint_distribution(w, alice_z, bob_branch).table
    decision = is_causal(table)
    assert decision.is_causal
    stack = np.stack(
        [s.correlation_table().reshape(32) for s in enumerate_strategies()], axis=1
    )
    npt.assert_allclose(stack @ decision.weights, table.reshape(32), atol=1e-7)


def test_rejection_comes_with_a_separating_functional():
    table = joint_distribution(w_ocb(), alice_z, bob_branch).table
    decision = is_causal(table)
    assert not decision.is_causal
    assert decision.value > decision.bound
    functional = decision.functional.reshape(32)
    for strategy in enumerate_strategies():
        score = float(functional @ strategy.correlation_table().reshape(32))
        assert score <= decision.bound + 1e-9


def test_is_causal_accepts_joint_distribution_objects():
    dist = joint_distribution(
        ordered_identity_channel_process("a_to_b"), alice_z, bob_branch
    )
    assert is_causal(dist).is_causal


def test_is_causal_rejects_malformed_tables():
    with pytest.raises(ValueError):
        is_causal(np.full((2, 2, 2, 2, 2), 0.9))


def test_vertex_table_matches_the_enumerated_strategies():
    tables = _vertex_tables()
    strategies = enumerate_strategies()
    assert tables.shape == (32, len(strategies))
    stacked = np.stack([s.correlation_table().reshape(32) for s in strategies], axis=1)
    npt.assert_array_equal(tables, stacked)
    assert not tables.flags.writeable
