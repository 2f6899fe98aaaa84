"""An independent reference for the causal oracle: scipy's HiGHS over explicit vertices.

The vertex sets are built here from the definition of a causal
strategy, not from ``enumerate_strategies`` or ``oracle.READS``: the party
acting first answers from its own inputs alone, the party acting second
from everything. The shipped set lets a leading Bob read b (2048
vertices); the full set lets him read (b, b') (5120). Membership is one
feasibility LP over a set's vertex columns.
"""

from itertools import product

import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    GameSpec,
    alice_z,
    bob_branch,
    is_causal,
    joint_distribution,
    oracle_bound,
    w_beta,
    w_ocb,
)

optimize = pytest.importorskip("scipy.optimize")


def _vertices(bob_reads_bprime: bool) -> np.ndarray:
    """Every deterministic causal strategy's table p[x, y, a, b, b'], one per column."""
    settings = list(product((0, 1), repeat=3))  # (a, b, b')
    alice_input = {s: s[0] for s in settings}
    bob_input = {s: 2 * s[1] + s[2] if bob_reads_bprime else s[1] for s in settings}
    columns = []
    for leader_input, alice_leads in ((alice_input, True), (bob_input, False)):
        for lead in product((0, 1), repeat=len(set(leader_input.values()))):
            for follow in product((0, 1), repeat=8):
                table = np.zeros((2, 2, 2, 2, 2))
                for s, reply in zip(settings, follow):
                    first = lead[leader_input[s]]
                    x, y = (first, reply) if alice_leads else (reply, first)
                    table[(x, y, *s)] = 1.0
                columns.append(table.reshape(32))
    return np.stack(columns, axis=1)


SHIPPED = _vertices(bob_reads_bprime=False)
FULL = _vertices(bob_reads_bprime=True)


def _reference_member(table: np.ndarray, vertices: np.ndarray) -> bool:
    """Whether some convex weights over the columns reproduce the table."""
    result = optimize.linprog(
        np.zeros(vertices.shape[1]),
        A_eq=np.vstack([vertices, np.ones(vertices.shape[1])]),
        b_eq=np.append(table.reshape(32), 1.0),
        bounds=(0, None),
        method="highs",
    )
    assert result.status in (0, 2), result.message  # solved, or proven infeasible
    return result.status == 0


def _tables() -> list[np.ndarray]:
    """40 seeded tables on both sides of both polytopes' boundaries."""
    rng = np.random.default_rng(11)
    played = [joint_distribution(w, alice_z, bob_branch).table for w in (w_ocb(), w_beta(0.7))]

    def mixture(vertices):
        k = rng.integers(1, 8)
        columns = rng.choice(vertices.shape[1], k, replace=False)
        return vertices[:, columns] @ rng.dirichlet(np.ones(k))

    tables = [mixture(SHIPPED) for _ in range(12)] + [mixture(FULL) for _ in range(12)]
    for i in range(8):  # a non-causal table blended with a causal one
        share = rng.uniform(0.2, 0.8)
        causal = mixture(FULL if i % 2 else SHIPPED)
        tables.append((1.0 - share) * played[i % 2].reshape(32) + share * causal)
    for i in range(8):  # and with white noise
        noise = rng.uniform(0.0, 0.6)
        tables.append((1.0 - noise) * played[i % 2].reshape(32) + noise / 4)
    return [table.reshape(2, 2, 2, 2, 2) for table in tables]


TABLES = _tables()


def _disagreements(vertices: np.ndarray) -> list[int]:
    verdicts = [is_causal(table).is_causal for table in TABLES]
    reference = [_reference_member(table, vertices) for table in TABLES]
    print(f"{sum(reference)} of {len(TABLES)} tables in the reference polytope")
    return [i for i, (ours, ref) in enumerate(zip(verdicts, reference)) if ours != ref]


def test_vertex_sets_have_their_sizes():
    assert SHIPPED.shape == (32, 2048) and FULL.shape == (32, 5120)
    assert len({column.tobytes() for column in FULL.T}) == 5056  # some coincide across orders


def test_is_causal_agrees_with_the_shipped_vertex_set():
    disagreements = _disagreements(SHIPPED)
    print(f"{len(disagreements)} disagreements with the 2048-vertex reference: {disagreements}")
    assert not disagreements
    for table in TABLES:
        decision = is_causal(table)
        if decision.is_causal:
            npt.assert_allclose(sum(decision.parts), table, rtol=0, atol=1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1 defect A: Bob's leader reads b, not b'")
def test_is_causal_agrees_with_the_full_vertex_set():
    disagreements = _disagreements(FULL)
    message = f"{len(disagreements)} disagreements with the 5120-vertex reference: {disagreements}"
    print(message)
    assert not disagreements, message


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (0.6, 0.7), (0.75, 0.55), (0.9, 0.95)])
def test_oracle_bound_is_the_game_maximum_over_the_full_vertex_set(alpha, beta):
    weight = (alpha, 1.0 - alpha)
    game = np.zeros((2, 2, 2, 2, 2))  # the winning probability's coefficients, p[x, y, a, b, b']
    for x, y, a, b in product((0, 1), repeat=4):
        game[x, y, a, b, 0] = weight[a] * weight[b] * beta * (x == b)
        game[x, y, a, b, 1] = weight[a] * weight[b] * (1.0 - beta) * (y == a)
    result = optimize.linprog(
        -(game.reshape(32) @ FULL),
        A_eq=np.ones((1, FULL.shape[1])),
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    assert result.status == 0, result.message
    npt.assert_allclose(oracle_bound(GameSpec(alpha, beta)), -result.fun, rtol=0, atol=1e-9)
