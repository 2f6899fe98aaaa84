"""Brute force over deterministic one-way-signaling strategies.

The causal polytope for the biased game is the convex hull of 2048
deterministic strategies: the party acting first answers from its own
scored input alone, the party acting second may read everything upstream.
Enumerating the vertices verifies the causal bound exactly. Membership of
a correlation table is decided without the vertex list: a causal table is
the sum of an Alice-first part and a Bob-first part, each fixed by one
no-signaling condition, and one small linear feasibility solve for the two
parts returns them, with convex vertex weights in closed form, or a
violated causal inequality.
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


@cache
def _membership_system() -> np.ndarray:
    """The constant 57 x 64 matrix of the two-part feasibility solve.

    Columns are the Alice-first part P (32 entries, indexed like the
    table) and the Bob-first part S (32 unit columns). Rows 0-31 say
    P + S = p; rows 32-43 that Alice's marginal of P is the same for
    every (b, bp); row 44 that P has the same total for both a; rows
    45-56 that Bob's marginal of S = p - P is the same for every (a, bp),
    written on P as -Bob P = -Bob p, Bob being the 12 x 32 difference
    matrix; their right-hand side is the only one read off p.
    """
    eye = np.eye(32)
    alice = eye.reshape(2, 2, 2, 4, 32).sum(axis=1)  # [x, a, 2b + bp]
    total = alice.sum(axis=0)  # [a, 2b + bp]
    bob = eye.reshape(2, 2, 2, 2, 2, 32).sum(axis=0)  # [y, a, b, bp]
    bob = bob.transpose(0, 2, 1, 3, 4).reshape(2, 2, 4, 32)  # [y, b, (a, bp)]
    bob = (bob[:, :, 1:] - bob[:, :, :1]).reshape(12, 32)
    a = np.zeros((57, 64))
    a[:32] = np.hstack([eye, eye])
    a[32:44, :32] = (alice[:, :, 1:] - alice[:, :, :1]).reshape(12, 32)
    a[44, :32] = total[1, 0] - total[0, 0]
    a[45:, :32] = -bob
    a.setflags(write=False)
    return a


def _order_weights(part: np.ndarray, reads: np.ndarray) -> np.ndarray:
    """Weights over one order's 1024 vertices whose mixture is ``part``.

    ``part[l, f, m]`` is indexed by the leader's answer, the follower's
    answer and the setting m = 4a + 2b + bp, at which the leader reads its
    input ``reads[m]``. A vertex's weight is the leader's joint answer
    mass times the follower's conditional answer at each setting, laid
    out with the bits of ``_vertex_tables``: leader answers at bits 9-8,
    the follower's at 7-0. Where a leader answer has no mass the
    follower's conditional is arbitrary (1/2 each); its vertices weigh 0.
    """
    part = np.maximum(part, 0.0)
    marginal = part.sum(axis=1)  # [l, m]
    follower = np.divide(
        part, marginal[:, None], out=np.full_like(part, 0.5), where=marginal[:, None] > 0.0
    )
    leader = marginal @ np.eye(2)[reads] / 4  # [l, input]: mean over its 4 settings
    mass = leader[:, 0].sum()
    if mass <= 0.0:
        return np.zeros(1024)
    weights = np.outer(leader[:, 0] / mass, leader[:, 1])  # axes l0, l1, then one per setting
    for m in range(8):
        shape = [1] * (m + 3)
        shape[reads[m]] = shape[-1] = 2  # the leader answer it reads, its own answer
        weights = weights[..., None] * follower[:, :, m].reshape(shape)
    return weights.reshape(1024)


@dataclass(frozen=True)
class CausalDecision:
    """Membership verdict with its supporting evidence.

    For a causal table, ``parts`` holds its Alice-first and Bob-first
    parts, (2,2,2,2,2) tables that sum to it, and ``weights`` convex
    weights over the 2048 vertices of ``_vertex_tables`` reproducing it,
    computed from the parts in closed form. For a non-causal table,
    ``functional`` (indexed like the correlation table) with ``bound``
    form a causal inequality: every vertex scores at most ``bound`` (0 up
    to rounding), the tested table scores ``value`` > ``bound``.
    ``residual`` is the leftover mass of the two-part feasibility solve,
    zero up to tolerance exactly for members, and ``iterations`` its
    simplex pivot count.
    """

    is_causal: bool
    residual: float
    iterations: int
    weights: np.ndarray | None = None
    parts: tuple[np.ndarray, np.ndarray] | None = None
    functional: np.ndarray | None = None
    bound: float | None = None
    value: float | None = None


def is_causal(table) -> CausalDecision:
    """Decide whether a correlation table admits a causal model.

    ``table`` is a JointDistribution or a (2,2,2,2,2) array of conditional
    probabilities p[x, y, a, b, bp]. The table is causal exactly when it
    splits as p = P + S, both non-negative, with Alice's marginal of P
    independent of (b, bp) and Bob's marginal of S independent of
    (a, bp): the hull of each order's 1024 vertices. That split is a
    57 x 64 linear feasibility problem (``_membership_system``), solved
    from the start P = 0, S = p; a leftover mass up to MEMBERSHIP_TOL
    counts as feasible. Failure produces a separating functional, read
    off the Farkas certificate, certifying the violation.
    """
    if not isinstance(table, JointDistribution):
        table = JointDistribution(np.asarray(table, dtype=float))
    p = table.table.reshape(32)
    a = _membership_system()
    bob_rows = a[45:, :32]
    result = phase_one(a, np.concatenate([p, np.zeros(13), bob_rows @ p]))
    if not result.converged:
        raise RuntimeError(
            f"feasibility solve did not converge within {result.iterations} iterations"
        )
    if result.objective <= MEMBERSHIP_TOL:
        alice_first, bob_first = result.solution.reshape(2, 2, 2, 8)
        setting = np.arange(8)
        weights = np.concatenate(
            [
                _order_weights(alice_first, setting >> 2),  # Alice leads, reading a
                _order_weights(bob_first.transpose(1, 0, 2), (setting >> 1) & 1),  # Bob, b
            ]
        )
        return CausalDecision(
            is_causal=True,
            residual=float(result.objective),
            iterations=result.iterations,
            weights=weights,
            parts=(alice_first.reshape(2, 2, 2, 2, 2), bob_first.reshape(2, 2, 2, 2, 2)),
        )
    certificate = result.certificate
    # functional @ p is the certificate's y.b; every causal table scores <= 0.
    functional = certificate[:32] + bob_rows.T @ certificate[45:]
    bound = float((functional @ _vertex_tables()).max())
    value = float(functional @ p)
    return CausalDecision(
        is_causal=False,
        residual=float(result.objective),
        iterations=result.iterations,
        functional=functional.reshape(2, 2, 2, 2, 2),
        bound=bound,
        value=value,
    )
