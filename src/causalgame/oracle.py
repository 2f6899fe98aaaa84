"""The causal polytope of the biased game, described by what each leader reads.

The polytope is the convex hull of 2048 deterministic strategies: the
party acting first answers from its own scored input alone, the party
acting second may read everything upstream. No code here lists them.
The largest value of a linear functional over the polytope, and so the
exact causal bound, is a nested max/sum over the inputs of each order.
Membership of a correlation table is one small linear solve: a causal
table is the sum of an Alice-first and a Bob-first part, each fixed by one
no-signaling condition, and a six-row Farkas dual returns five margins
that give both parts and convex vertex weights in closed form, or a
violated causal inequality. ``enumerate_strategies`` keeps the vertices
themselves as a reference, and fixes the order of those weights.
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

    The party acting first (Alice for order "a_first", Bob for "b_first")
    answers ``leader[i]`` from its own scored input i alone (a for Alice,
    b for Bob); the other party may read everything and answers
    ``follower[4a + 2b + bp]``. The structural asymmetry is the
    closed-laboratory constraint: whoever acts first cannot see the other
    side's bits.
    """

    order: str
    leader: tuple[int, int]
    follower: tuple[int, ...]

    def outcomes(self, a: int, b: int, bp: int) -> tuple[int, int]:
        reply = self.follower[4 * a + 2 * b + bp]
        if self.order == "a_first":
            return self.leader[a], reply
        return reply, self.leader[b]

    def correlation_table(self) -> np.ndarray:
        table = np.zeros((2, 2, 2, 2, 2))
        for a, b, bp in np.ndindex(2, 2, 2):
            x, y = self.outcomes(a, b, bp)
            table[x, y, a, b, bp] = 1.0
        return table


def enumerate_strategies() -> tuple[DeterministicStrategy, ...]:
    """All 2048 deterministic strategies, 1024 per causal order."""
    return tuple(
        DeterministicStrategy(order, leader, follower)
        for order in ("a_first", "b_first")
        for leader in product((0, 1), repeat=2)
        for follower in product((0, 1), repeat=8)
    )


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


def _causal_max(f: np.ndarray) -> float:
    """Largest value of the linear functional ``f`` over the causal polytope.

    ``f`` is indexed like a correlation table, [x, y, a, b, bp]. A vertex's
    follower answers each setting on its own, so it takes the larger entry
    there; the leader answers each of its two inputs once for all four
    settings that share it. So each order's maximum is a nested max/sum,
    and the polytope's is the larger of the two.
    """
    alice_first = f.max(axis=1).sum(axis=(2, 3)).max(axis=0).sum()  # [x, a]: Alice reads a
    bob_first = f.max(axis=0).sum(axis=(1, 3)).max(axis=0).sum()  # [y, b]: Bob reads b
    return float(max(alice_first, bob_first))


def oracle_bound(spec: GameSpec) -> float:
    """Maximum winning probability over all deterministic causal strategies.

    Equals the maximum over the whole causal polytope because the success
    probability is linear in the correlation table: the game's scoring
    rule, applied to the 32 unit tables, gives that functional.
    """
    decode, guess = _channel_scores(np.eye(32).reshape(2, 2, 2, 2, 2, 32), spec.alpha)
    return _causal_max((spec.beta * decode + (1.0 - spec.beta) * guess).reshape(2, 2, 2, 2, 2))


# Entry k of a setting's 2 x 2 Alice-first block P_s, its margins fixed, is
# t = P_s[0, 0] plus or minus an affine term, so 0 <= P_s <= p_s confines t to
# [l_k, l_k + p_s[k]], l_k a form in (lambda, alpha, beta, p_s flattened).
_LOW = np.array(
    [[0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, -1, 0, 0], [0, 0, -1, 1, 0, 0, 0], [-1, 1, -1, 1, 0, 1, 0]]
)
_PAIRS = ((0, 2), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 1))


@cache
def _split_system() -> tuple[np.ndarray, np.ndarray]:
    """The constant G (72 x 5) and H (72 x 32): p is causal iff some z has G z <= H p.

    z = (lambda, alpha_0, alpha_1, beta_0, beta_1) fixes the margins of a
    split p = P + S: P has mass lambda, alpha_a of it on x = 0 at input a,
    and S has mass beta_b on y = 0 at input b. Rows 0-7 keep alpha_a in
    [0, lambda] and beta_b in [0, 1 - lambda], 1 read as the sum of p / 8;
    then eight rows per setting m = 4a + 2b + bp say l_i <= l_j + p_s[j]
    (the four other pairs i != j give rows 0-7).
    """
    g, h = np.zeros((72, 5)), np.zeros((72, 32))
    g[:8, 1:] = np.vstack([-np.eye(4), np.eye(4)])
    g[4:8, 0] = -1.0, -1.0, 1.0, 1.0
    h[6:8] = 1.0 / 8
    for row, (m, (i, j)) in enumerate(product(range(8), _PAIRS), start=8):
        form = _LOW[i] - _LOW[j]
        g[row, [0, 1 + (m >> 2), 3 + ((m >> 1) & 1)]] = form[:3]
        h[row, m::8] = np.eye(4)[j] - form[3:]  # p_s is p[m::8], flattened [x, y]
    g.setflags(write=False)
    h.setflags(write=False)
    return g, h


def _order_weights(part: np.ndarray, reads: np.ndarray) -> np.ndarray:
    """Weights over one order's 1024 vertices whose mixture is ``part``.

    ``part[l, f, m]`` is indexed by the leader's answer, the follower's
    answer and the setting m = 4a + 2b + bp, at which the leader reads its
    input ``reads[m]``. A vertex's weight is the leader's joint answer
    mass times the follower's conditional answer at each setting, laid
    out in ``enumerate_strategies`` order: the leader's answers to inputs
    0 and 1, then the follower's at m = 0..7, the last one varying
    fastest. Where a leader answer has no mass the
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
    weights over the 2048 vertices, indexed like ``enumerate_strategies()``,
    reproducing it, computed from the parts in closed form. For a
    non-causal table, ``functional`` (indexed like the correlation table)
    with ``bound`` form a causal inequality: every causal table scores at
    most ``bound`` (0 up to rounding; its maximum over the polytope), the
    tested table scores ``value`` (1 up to rounding) > ``bound``.
    ``residual`` is max(0, -least entry of the parts) for a member, and for
    a non-member the table's violation of the certificate's inequality
    with its multipliers scaled to sum 1; ``iterations`` is the pivot
    count of the dual solve.
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
    (a, bp), the hull of each order's 1024 vertices: when some z has
    G z <= H p (``_split_system``). By Farkas' lemma none does iff a 6 x 72
    phase-one solve finds u >= 0 with G'u = 0 and u.H p = -1 (up to a
    leftover mass of MEMBERSHIP_TOL); -H'u then separates p. Otherwise its
    certificate gives z, and each block's least free entry the two parts.
    """
    if not isinstance(table, JointDistribution):
        table = JointDistribution(table)
    p = table.table.reshape(32)
    g, h = _split_system()
    result = phase_one(np.vstack([g.T, h @ p]), np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.0]))
    if not result.converged:
        raise RuntimeError(
            f"feasibility solve did not converge within {result.iterations} iterations"
        )
    if result.objective <= MEMBERSHIP_TOL:
        # Causal q have G z <= H q for some z, so score -u.H q <= -u.G z = 0.
        u = result.solution
        functional = -(h.T @ u).reshape(2, 2, 2, 2, 2)
        return CausalDecision(
            is_causal=False,
            residual=float(1.0 / u.sum()),
            iterations=result.iterations,
            functional=functional,
            bound=_causal_max(functional),
            value=float(functional.reshape(32) @ p),
        )
    z = result.certificate[:5] / -result.certificate[5]  # G z <= H p: Farkas for the dual
    setting = np.arange(8)
    lam, alpha, beta = np.full(8, z[0]), z[1 + (setting >> 2)], z[3 + ((setting >> 1) & 1)]
    q = p.reshape(4, 8)  # [2x + y, m]
    t = (_LOW @ np.vstack([lam, alpha, beta, q])).max(axis=0)  # each block at its least t
    bottom = [q[0] + q[2] - beta - t, lam - alpha - q[0] - q[2] + beta + t]  # columns less top
    alice_first = np.array([[t, alpha - t], bottom])  # [x, y, m]
    bob_first = q.reshape(2, 2, 8) - alice_first
    weights = np.concatenate(
        [
            _order_weights(alice_first, setting >> 2),  # Alice leads, reading a
            _order_weights(bob_first.transpose(1, 0, 2), (setting >> 1) & 1),  # Bob, b
        ]
    )
    return CausalDecision(
        is_causal=True,
        residual=float(max(0.0, -alice_first.min(), -bob_first.min())),
        iterations=result.iterations,
        weights=weights,
        parts=(alice_first.reshape(2, 2, 2, 2, 2), bob_first.reshape(2, 2, 2, 2, 2)),
    )
