import numpy as np
import pytest

from causalgame import JointDistribution, enumerate_strategies, success_probability


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
