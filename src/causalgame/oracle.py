"""Brute force over deterministic one-way-signaling strategies.

The causal polytope for the biased game is the convex hull of 2048
deterministic strategies: the party acting first answers from its own
scored input alone, the party acting second may read everything upstream.
Enumerating the vertices verifies the causal bound exactly, and a small
linear feasibility solve decides polytope membership for any correlation
table, returning convex weights or a violated causal inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .game import GameSpec, JointDistribution, _channel_scores
from .simplex import phase_one

MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class DeterministicStrategy:
    """One vertex of the causal polytope.

    For order "a_first", ``x_table[a]`` fixes Alice's answer and
    ``y_table[a][b][bp]`` lets Bob react to everything; for "b_first" the
    roles swap, with Bob's answer ``y_table[b]`` read off his scored input
    only. The structural asymmetry is the closed-laboratory constraint:
    whoever acts first cannot see the other side's bits.
    """

    order: str
    x_table: tuple
    y_table: tuple

    def outcomes(self, a: int, b: int, bp: int) -> tuple[int, int]:
        if self.order == "a_first":
            return self.x_table[a], self.y_table[a][b][bp]
        return self.x_table[a][b][bp], self.y_table[b]

    def correlation_table(self) -> np.ndarray:
        table = np.zeros((2, 2, 2, 2, 2))
        for a, b, bp in np.ndindex(2, 2, 2):
            x, y = self.outcomes(a, b, bp)
            table[x, y, a, b, bp] = 1.0
        return table


def _nested(flat: tuple[int, ...]) -> tuple:
    return tuple(
        tuple(tuple(flat[4 * i + 2 * j + k] for k in (0, 1)) for j in (0, 1))
        for i in (0, 1)
    )


def enumerate_strategies() -> tuple[DeterministicStrategy, ...]:
    """All 2048 deterministic strategies, 1024 per causal order."""
    strategies: list[DeterministicStrategy] = []
    for leader in product((0, 1), repeat=2):
        for follower in product((0, 1), repeat=8):
            strategies.append(
                DeterministicStrategy("a_first", x_table=leader, y_table=_nested(follower))
            )
    for leader in product((0, 1), repeat=2):
        for follower in product((0, 1), repeat=8):
            strategies.append(
                DeterministicStrategy("b_first", x_table=_nested(follower), y_table=leader)
            )
    return tuple(strategies)


@cache
def _vertex_tables() -> np.ndarray:
    """The flattened correlation tables of all strategies, one per column.

    Column k is the (read-only) table of strategy k, in
    ``enumerate_strategies`` order. Within each order's block of 1024,
    bits 9-8 of the vertex index hold the leader's two answers and bits
    7-0 the follower's eight, the answer to inputs (a, b, bp) sitting at
    bit 7 - (4a + 2b + bp).
    """
    vertex = np.arange(1024)
    m = np.arange(8)[:, None]  # 4a + 2b + bp
    follower = (vertex >> (7 - m)) & 1
    x = np.hstack([(vertex >> (9 - (m >> 2))) & 1, follower])  # leader reads a
    y = np.hstack([follower, (vertex >> (9 - ((m >> 1) & 1))) & 1])  # leader reads b
    tables = np.zeros((32, 2048))
    tables[16 * x + 8 * y + m, np.arange(2048)] = 1.0
    tables.setflags(write=False)
    return tables


def strategy_success(strategy: DeterministicStrategy, spec: GameSpec) -> float:
    """Winning probability of a single deterministic strategy."""
    weights = np.array([spec.alpha, 1.0 - spec.alpha])
    pair = np.outer(weights, weights)
    total = 0.0
    for a, b in np.ndindex(2, 2):
        x0, _ = strategy.outcomes(a, b, 0)
        _, y1 = strategy.outcomes(a, b, 1)
        total += pair[a, b] * (
            spec.beta * (1.0 if x0 == b else 0.0)
            + (1.0 - spec.beta) * (1.0 if y1 == a else 0.0)
        )
    return float(total)


def oracle_bound(spec: GameSpec) -> float:
    """Maximum winning probability over all deterministic causal strategies.

    Equals the maximum over the whole causal polytope because the success
    probability is linear in the correlation table.
    """
    decode, guess = _channel_scores(_vertex_tables().reshape(2, 2, 2, 2, 2, -1), spec.alpha)
    return float((spec.beta * decode + (1.0 - spec.beta) * guess).max())


@dataclass(frozen=True)
class CausalDecision:
    """Membership verdict with its supporting evidence.

    For a causal table, ``weights`` holds convex weights over the vertex
    list reproducing it. For a non-causal table, ``functional`` (indexed
    like the correlation table) with ``bound`` form a causal inequality:
    every vertex scores at most ``bound``, the tested table scores
    ``value`` > ``bound``. ``residual`` is the leftover mass of the
    feasibility solve, zero up to tolerance exactly for members.
    """

    is_causal: bool
    residual: float
    weights: np.ndarray | None = None
    functional: np.ndarray | None = None
    bound: float | None = None
    value: float | None = None


def is_causal(table) -> CausalDecision:
    """Decide whether a correlation table admits a causal model.

    ``table`` is a JointDistribution or a (2,2,2,2,2) array of conditional
    probabilities p[x, y, a, b, bp]. Membership in the convex hull of the
    deterministic strategies is solved as a linear feasibility problem,
    with a leftover mass up to MEMBERSHIP_TOL counted as feasible; failure
    produces a separating functional certifying the violation.
    """
    if not isinstance(table, JointDistribution):
        table = JointDistribution(np.asarray(table, dtype=float))
    p = table.table.reshape(32)
    tables = _vertex_tables()
    count = tables.shape[1]
    a = np.vstack([tables, np.ones((1, count))])
    b = np.append(p, 1.0)
    result = phase_one(a, b)
    if not result.converged:
        raise RuntimeError(
            f"feasibility solve did not converge within {result.iterations} iterations"
        )
    if result.objective <= MEMBERSHIP_TOL:
        return CausalDecision(
            is_causal=True,
            residual=float(result.objective),
            weights=result.solution,
        )
    certificate = result.certificate
    functional = certificate[:32]
    bound = float((functional @ tables).max())
    value = float(functional @ p)
    return CausalDecision(
        is_causal=False,
        residual=float(result.objective),
        functional=functional.reshape(2, 2, 2, 2, 2),
        bound=bound,
        value=value,
    )
