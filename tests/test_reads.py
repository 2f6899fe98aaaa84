"""The leader read map ``oracle.READS`` is the polytope's one declaration.

Each test runs under the shipped map and under the full one, in which the
Bob-first leader reads (b, b') instead of b alone. Whatever depends on who
reads what (the vertices, the bound, the membership system and the
vertex weights) must follow the map with no other edit.
"""

import numpy as np
import numpy.testing as npt

from causalgame import GameSpec, is_causal
from causalgame.oracle import _causal_max
from conftest import SETTINGS


def test_vertex_count_follows_the_map(read_map):
    vertices, count, _ = read_map
    assert vertices.shape == (32, count)


def test_every_seventh_vertex_is_reproduced_by_its_weights(read_map):
    vertices, count, _ = read_map
    for column in range(0, count, 7):
        decision = is_causal(vertices[:, column].reshape(2, 2, 2, 2, 2))
        assert decision.is_causal, f"vertex {column} rejected"
        assert decision.weights.shape == (count,)
        assert decision.weights.min() >= -1e-12
        npt.assert_allclose(decision.weights.sum(), 1.0, rtol=0, atol=1e-9)
        npt.assert_allclose(vertices @ decision.weights, vertices[:, column], rtol=0, atol=1e-9)


def test_vertex_mixtures_are_reproduced_by_their_weights(read_map):
    # A vertex has mass 1 in its part, so only mixtures see how the weights are normalized.
    vertices, count, _ = read_map
    rng = np.random.default_rng(26)
    for _ in range(20):
        p = vertices[:, rng.choice(count, size=6, replace=False)] @ rng.dirichlet(np.ones(6))
        decision = is_causal(p.reshape(2, 2, 2, 2, 2))
        assert decision.is_causal
        npt.assert_allclose(vertices @ decision.weights, p, rtol=0, atol=1e-9)


def test_causal_max_is_the_largest_vertex_score(read_map):
    vertices, _, _ = read_map
    rng = np.random.default_rng(22)
    for _ in range(50):
        f = rng.normal(size=32)
        best = (f @ vertices).max()
        npt.assert_allclose(_causal_max(f.reshape(2, 2, 2, 2, 2)), best, rtol=0, atol=1e-12)


def test_table_that_tells_alice_his_bit_is_causal_iff_bob_reads_bprime(read_map):
    # Bob acts first, answers y = b' and tells Alice b, who answers x = b.
    _, _, reads_bprime = read_map
    table = np.zeros((2, 2, 8))
    table[(SETTINGS >> 1) & 1, SETTINGS & 1, SETTINGS] = 1.0
    assert is_causal(table.reshape(2, 2, 2, 2, 2)).is_causal == reads_bprime


def test_causal_max_gives_the_literature_bounds(read_map):
    # Guess your neighbour's input (x = b and y = a on uniform inputs) is won
    # causally with probability 1/2; the unbiased game with 3/4.
    x, y, a, b, _ = np.indices((2, 2, 2, 2, 2))
    gyni = ((x == b) & (y == a)) / 8.0
    assert _causal_max(gyni) == 0.5
    assert _causal_max(GameSpec(0.5, 0.5).functional) == 0.75
