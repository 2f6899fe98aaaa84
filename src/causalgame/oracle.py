"""The causal polytope of the biased game, declared by what each leader reads.

The polytope is the convex hull of the deterministic strategies in which
the party acting first answers from its own inputs and the party acting
second may read everything upstream. ``READS`` names the input the leader
answers from at each setting, and ``_polytope`` derives from it, on first
use, all that depends on that choice: the 2048 vertices, the sums of the
exact bound (a nested max/sum, no vertex list) and the membership system,
five unknowns in a six-row Farkas dual with 72 columns. A causal table is
the sum of an Alice-first and a Bob-first part, each fixed by one
no-signaling condition; one small solve of that dual gives both parts and
convex vertex weights in closed form, or a violated causal inequality.
``enumerate_strategies`` keeps the vertices as a reference and fixes the
order of those weights.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .game import GameSpec, JointDistribution
from .simplex import phase_one

MEMBERSHIP_TOL = 1e-8

# The input each order's leader answers from at setting m = 4a + 2b + bp:
# Alice her a, Bob his b.
READS = {"a_first": np.arange(8) >> 2, "b_first": (np.arange(8) >> 1) & 1}

# Entry k of a setting's 2 x 2 Alice-first block P_s, its margins fixed, is
# t = P_s[0, 0] plus or minus an affine term, so 0 <= P_s <= p_s confines t to
# [l_k, l_k + p_s[k]], l_k a form in (lambda, alpha, beta, p_s flattened).
_LOW = np.array(
    [[0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, -1, 0, 0], [0, 0, -1, 1, 0, 0, 0], [-1, 1, -1, 1, 0, 1, 0]]
)
_PAIRS = ((0, 2), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 1))
_Polytope = namedtuple("_Polytope", "g h rhs columns onehot")


@cache
def _polytope() -> _Polytope:
    """Everything that follows from READS, built on first use.

    ``onehot[order]`` (8, inputs) has a 1 where the leader reads that
    input at that setting. p is causal iff some z has G z <= H p, where
    z = (lambda, alpha_i..., beta_j...) fixes the margins of a split
    p = P + S: P has mass lambda, alpha_i of it on x = 0 where Alice reads
    input i, S has mass beta_j on y = 0 where Bob reads input j, and
    ``columns`` (2, 8) is each setting's alpha and beta column of z. The
    first rows keep each alpha in [0, lambda] and each beta in
    [0, 1 - lambda], 1 read as the sum of p / 8; then eight rows per
    setting m say l_i <= l_j + p_s[j] (the first rows imply the four
    other pairs i != j). The Farkas dual is [G'; (H p)'] u = ``rhs``.
    """
    onehot = {order: np.eye(reads.max() + 1)[reads] for order, reads in READS.items()}
    alice, bob = onehot["a_first"].shape[1], onehot["b_first"].shape[1]
    columns = np.stack([1 + READS["a_first"], 1 + alice + READS["b_first"]])
    margins = alice + bob
    g, h = np.zeros((2 * margins + 64, 1 + margins)), np.zeros((2 * margins + 64, 32))
    g[: 2 * margins, 1:] = np.vstack([-np.eye(margins), np.eye(margins)])
    g[margins : 2 * margins, 0] = [-1.0] * alice + [1.0] * bob
    h[margins + alice : 2 * margins] = 1.0 / 8
    for row, (m, (i, j)) in enumerate(product(range(8), _PAIRS), start=2 * margins):
        form = _LOW[i] - _LOW[j]
        g[row, [0, *columns[:, m]]] = form[:3]
        h[row, m::8] = np.eye(4)[j] - form[3:]  # p_s is p[m::8], flattened [x, y]
    rhs = np.append(np.zeros(1 + margins), -1.0)
    for array in (g, h, rhs, columns, *onehot.values()):
        array.setflags(write=False)
    return _Polytope(g, h, rhs, columns, onehot)


@dataclass(frozen=True)
class DeterministicStrategy:
    """One vertex of the causal polytope.

    The party acting first (Alice for order "a_first", Bob for "b_first")
    answers ``leader[i]`` at the settings where it reads input i (its own
    scored input: a for Alice, b for Bob); the other party may read
    everything and answers ``follower[4a + 2b + bp]``. The structural
    asymmetry is the closed-laboratory constraint: whoever acts first
    cannot see the other side's bits.
    """

    order: str
    leader: tuple[int, ...]
    follower: tuple[int, ...]

    def correlation_table(self) -> np.ndarray:
        lead = np.array(self.leader)[READS[self.order]]  # the leader's answer at each setting
        x, y = (lead, self.follower) if self.order == "a_first" else (self.follower, lead)
        table = np.zeros((2, 2, 8))
        table[x, y, np.arange(8)] = 1.0
        return table.reshape(2, 2, 2, 2, 2)


def enumerate_strategies() -> tuple[DeterministicStrategy, ...]:
    """All deterministic strategies: 1024 per causal order, as each leader reads two inputs."""
    return tuple(
        DeterministicStrategy(order, leader, follower)
        for order in ("a_first", "b_first")
        for leader in product((0, 1), repeat=_polytope().onehot[order].shape[1])
        for follower in product((0, 1), repeat=8)
    )


def _causal_max(f: np.ndarray) -> float:
    """Largest value of the linear functional ``f`` over the causal polytope.

    ``f`` is indexed like a correlation table, [x, y, a, b, bp]. A vertex's
    follower answers each setting on its own, so it takes the larger entry
    there; the leader answers each input once for all the settings where
    it reads it. So each order's maximum is a nested max/sum, and the
    polytope's is the larger of the two.
    """
    onehot = _polytope().onehot
    f = f.reshape(2, 2, 8)
    best = []
    for order, answers in (("a_first", f.max(axis=1)), ("b_first", f.max(axis=0))):
        # [leader answer, input, a, (b, bp)]: (b, bp) summed first, then a
        per_input = (answers[:, None, :] * onehot[order].T).reshape(2, -1, 2, 4)
        best.append(per_input.sum(axis=3).sum(axis=2).max(axis=0).sum())
    return float(max(best))


def oracle_bound(spec: GameSpec) -> float:
    """Maximum winning probability over the causal polytope.

    The winning probability is linear in the table, f . p for f the
    ``spec.functional``, so its maximum is that functional's ``_causal_max``.
    """
    return _causal_max(spec.functional)


def _order_weights(part: np.ndarray, order: str) -> np.ndarray:
    """Weights over one order's vertices whose mixture is ``part``.

    ``part[l, f, m]`` is indexed by the leader's answer, the follower's
    answer and the setting m = 4a + 2b + bp, at which the leader reads the
    input ``READS[order]`` names. A vertex's weight is the leader's joint
    answer mass times the follower's conditional answer at each setting,
    laid out in ``enumerate_strategies`` order: the leader's answers to
    its inputs, then the follower's at m = 0..7, the last one varying
    fastest; so the map fixes the output size, 1024 for a leader with two
    inputs. Where a leader answer has no mass the follower's conditional
    is arbitrary (1/2 each); its vertices weigh 0.
    """
    onehot = _polytope().onehot[order]
    inputs = onehot.shape[1]
    part = np.maximum(part, 0.0)
    marginal = part.sum(axis=1)  # [l, m]
    follower = np.divide(
        part, marginal[:, None], out=np.full_like(part, 0.5), where=marginal[:, None] > 0.0
    )
    leader = marginal @ onehot / onehot.sum(axis=0)  # [l, input]: mean over its settings
    mass = leader[:, 0].sum()
    if mass <= 0.0:
        return np.zeros(2 ** (inputs + 8))
    weights = leader[:, 0] / mass ** (inputs - 1)  # the other inputs' axes also sum to mass
    for i in range(1, inputs):  # one axis per leader input
        weights = weights[..., None] * leader[:, i]
    for m, read in enumerate(READS[order]):
        shape = [1] * (m + inputs + 1)
        shape[read] = shape[-1] = 2  # the leader answer it reads, its own answer
        weights = weights[..., None] * follower[:, :, m].reshape(shape)
    return weights.reshape(-1)


@dataclass(frozen=True)
class CausalDecision:
    """Membership verdict with its supporting evidence.

    For a causal table, ``parts`` holds its Alice-first and Bob-first
    parts, (2,2,2,2,2) tables that sum to it, and ``weights`` convex
    weights over the vertices, indexed like ``enumerate_strategies()``
    (2048, as ``READS`` gives each leader two inputs), reproducing it,
    computed from the parts in closed form. For a non-causal table,
    ``functional`` (indexed like the correlation table) with ``bound``
    form a causal inequality: every causal table scores at most ``bound``
    (0 up to rounding; its maximum over the polytope), the tested table
    scores ``value`` (1 up to rounding) > ``bound``. ``residual`` is
    max(0, -least entry of the parts) for a member, and for a non-member
    the table's violation of the certificate's inequality with its
    multipliers scaled to sum 1; ``iterations`` is the pivot count of the
    dual solve and ``bland`` whether Bland's rule took over in it.
    """

    is_causal: bool
    residual: float
    iterations: int
    weights: np.ndarray | None = None
    parts: tuple[np.ndarray, np.ndarray] | None = None
    functional: np.ndarray | None = None
    bound: float | None = None
    value: float | None = None
    bland: bool = False


def is_causal(table) -> CausalDecision:
    """Decide whether a correlation table admits a causal model.

    ``table`` is a JointDistribution or a (2,2,2,2,2) array of conditional
    probabilities p[x, y, a, b, bp]. The table is causal exactly when it
    splits as p = P + S, both non-negative, with Alice's marginal of P
    constant over the settings where she reads one input and Bob's
    marginal of S over those where he reads one, the hull of each order's
    vertices: when some z has G z <= H p (``_polytope``). With the
    ``READS`` shipped, Alice reads a and Bob b, so z has five unknowns. By
    Farkas' lemma no z exists iff a 6 x 72 phase-one solve finds u >= 0
    with G'u = 0 and u.H p = -1 (up to a leftover mass of
    MEMBERSHIP_TOL); -H'u then separates p. Otherwise its certificate
    gives z, and each block's least free entry the two parts.
    """
    if not isinstance(table, JointDistribution):
        table = JointDistribution(table)
    p = table.table.reshape(32)
    g, h, rhs, columns, _ = _polytope()
    result = phase_one(np.vstack([g.T, h @ p]), rhs)
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
            bland=result.bland,
        )
    z = result.certificate[:-1] / -result.certificate[-1]  # G z <= H p: Farkas for the dual
    lam, alpha, beta = np.full(8, z[0]), *z[columns]
    q = p.reshape(4, 8)  # [2x + y, m]
    t = (_LOW @ np.vstack([lam, alpha, beta, q])).max(axis=0)  # each block at its least t
    bottom = [q[0] + q[2] - beta - t, lam - alpha - q[0] - q[2] + beta + t]  # columns less top
    alice_first = np.array([[t, alpha - t], bottom])  # [x, y, m]
    bob_first = q.reshape(2, 2, 8) - alice_first
    weights = np.concatenate(
        [
            _order_weights(alice_first, "a_first"),
            _order_weights(bob_first.transpose(1, 0, 2), "b_first"),  # [y, x, m]: Bob leads
        ]
    )
    return CausalDecision(
        is_causal=True,
        residual=float(max(0.0, -alice_first.min(), -bob_first.min())),
        iterations=result.iterations,
        weights=weights,
        parts=(alice_first.reshape(2, 2, 2, 2, 2), bob_first.reshape(2, 2, 2, 2, 2)),
        bland=result.bland,
    )
