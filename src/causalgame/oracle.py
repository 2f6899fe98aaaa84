"""The causal polytope of the biased game, declared by what each leader reads.

The polytope is the convex hull of the deterministic strategies in which
the party acting first answers from its own inputs and the party acting
second may read everything upstream. ``READS`` names the input the leader
answers from at each setting, and ``_polytope`` derives from it, on first
use, all that depends on that choice: the 2048 vertices, the sums of the
exact bound (a nested max/sum, no vertex list), the membership system,
five unknowns in a six-row Farkas dual with 72 columns, and the plan of
the vertex weights. A causal table is
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


# What ``_polytope`` derives from ``READS``.
_Polytope = namedtuple("_Polytope", "g h rhs onehot gather weight_plan")


@cache
def _polytope() -> _Polytope:
    """Everything that follows from READS, built on first use.

    ``onehot[order]`` (8, inputs) has a 1 where the leader reads that
    input at that setting. p is causal iff some z has G z <= H p, where
    z = (lambda, alpha_i..., beta_j...) fixes the margins of a split
    p = P + S: P has mass lambda, alpha_i of it on x = 0 where Alice reads
    input i, S has mass beta_j on y = 0 where Bob reads input j.
    ``gather`` (7, 8) indexes (z, p) for each setting's lambda, alpha,
    beta and p[x, y] (row 3 + 2x + y). The first rows of G keep each
    alpha in [0, lambda] and each beta in [0, 1 - lambda], 1 read as the
    sum of p / 8; then eight rows per setting m say l_i <= l_j + p_s[j]
    (the first rows imply the four other pairs i != j). The Farkas dual
    is [G'; (H p)'] u = ``rhs``. ``weight_plan`` is ``_weight_plan`` of
    ``onehot``: where a member's vertex weights find their factors.
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
    gather = np.vstack([np.zeros((1, 8), int), columns, 1 + margins + np.arange(32).reshape(4, 8)])
    for array in (g, h, rhs, gather, *onehot.values()):
        array.setflags(write=False)
    return _Polytope(g, h, rhs, onehot, gather, _weight_plan(onehot))


# The conditionals at the last _TAIL settings multiply the weights one
# setting at a time; the factors before them are gathered and multiplied
# once per distinct combination, one vertex in 2 ** _TAIL. So no
# temporary is larger than the weights, where a gather of every factor
# of every vertex would be ten times their size.
_TAIL = 3


def _weight_plan(onehot: dict[str, np.ndarray]) -> tuple:
    """Where ``_vertex_weights`` finds each vertex weight's factors.

    Its values are a 1, each order's leader marginals (2, inputs) and the
    follower conditionals [order, l, f, m]; ``factors`` holds them as
    they start, 1 for the 1 and 0.5 for each conditional. Vertex k's
    factors, in ``enumerate_strategies`` order, are the leader's answers
    to its inputs, then the follower's at m = 0..7, each conditioned on
    the leader answer at the input read there; an order whose leader
    reads fewer inputs than the other's starts on that many 1s. All but
    the last ``_TAIL`` depend only on k >> _TAIL: column j of ``head``
    lists them for vertices j << _TAIL on, ``spread`` is k >> _TAIL, and
    row i of ``tail`` is each vertex's factor at setting 8 - _TAIL + i.
    ``leaders`` holds, for each order, its onehot map, the settings per
    input and its slice of the values.
    """
    inputs = [array.shape[1] for array in onehot.values()]
    starts = np.cumsum([1, *(2 * k for k in inputs)]).tolist()  # each leader block, then the conditionals
    depth = max(inputs) + 8
    blocks, leaders = [], []
    for order, (reads, hot) in enumerate(zip(READS.values(), onehot.values())):
        k = hot.shape[1]
        answers = np.indices((2,) * (k + 8)).reshape(k + 8, -1)  # [leader answer per input, follower per m]
        leader = starts[order] + k * answers[:k] + np.arange(k)[:, None]
        follower = starts[-1] + 32 * order + 16 * answers[reads] + 8 * answers[k:] + np.arange(8)[:, None]
        blocks.append(np.vstack([np.zeros((depth - k - 8, answers.shape[1]), int), leader, follower]))
        leaders.append((hot, hot.sum(axis=0), slice(*starts[order : order + 2])))
    factors = np.concatenate([[1.0], np.zeros(starts[-1] - 1), np.full(64, 0.5)])
    plan = np.hstack(blocks).astype(np.intp)  # [factor, vertex]
    head = np.ascontiguousarray(plan[:-_TAIL, :: 2**_TAIL])
    spread, tail = np.arange(plan.shape[1]) >> _TAIL, plan[-_TAIL:].copy()
    for array in (factors, head, spread, tail, *(counts for _, counts, _ in leaders)):
        array.setflags(write=False)
    return factors, head, spread, tail, tuple(leaders)


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


def _vertex_weights(split: np.ndarray) -> np.ndarray:
    """Convex weights over both orders' vertices whose mixtures are the parts.

    ``split[order, l, f, m]`` holds each order's part indexed by the
    leader's answer, the follower's answer and the setting m = 4a + 2b +
    bp, at which the leader reads the input ``READS[order]`` names. A
    vertex's weight is the leader's joint answer mass times the
    follower's conditional answer at each setting: the leader's mean
    marginal on its first input over mass ** (inputs - 1) (the other
    inputs' marginals also sum to mass), its marginals on the others,
    then the conditionals at m = 0..7, multiplied left to right as
    ``_weight_plan`` lays them out, both orders at once. The orders
    follow ``enumerate_strategies``, each ``2 ** (inputs + 8)`` long.
    Where a leader answer has no mass the follower's conditional is
    arbitrary (1/2 each); an order whose part has no mass weighs 0
    throughout.
    """
    factors, head, spread, tail, leaders = _polytope().weight_plan
    part = np.maximum(split, 0.0)
    marginal = part.sum(axis=2)  # [order, l, m]
    values = factors.copy()
    np.divide(
        part,
        marginal[:, :, None],
        out=values[-64:].reshape(2, 2, 2, 8),
        where=marginal[:, :, None] > 0.0,
    )
    for order, (onehot, counts, block) in enumerate(leaders):
        leader = values[block].reshape(2, counts.size)
        np.matmul(marginal[order], onehot, out=leader)
        leader /= counts  # the mean over its settings
        low, high = leader[:, 0].tolist()
        if low + high > 0.0:  # else both first factors are +0.0, and so is every weight of the order
            leader[:, 0] /= (low + high) ** (counts.size - 1)
    weights = np.multiply.reduce(values.take(head), axis=0).take(spread)
    for row in tail:
        weights *= values.take(row)
    return weights


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
    g, h, rhs, _, gather, _ = _polytope()
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
    stack = np.concatenate([z, p])[gather]  # [lambda, alpha, beta, p[x, y]] by setting
    lam, alpha, beta, q0, _, q2, _ = stack
    split = np.empty((2, 2, 2, 8))  # [order, leader answer, follower answer, m]
    alice_first = split[0]  # [x, y, m]
    t = (_LOW @ stack).max(axis=0, out=alice_first[0, 0])  # each block at its least t
    np.subtract(alpha, t, out=alice_first[0, 1])
    np.subtract(q0 + q2 - beta, t, out=alice_first[1, 0])  # columns less top
    np.add(lam - alpha - q0 - q2 + beta, t, out=alice_first[1, 1])
    np.subtract(p.reshape(2, 2, 8).transpose(1, 0, 2), alice_first.transpose(1, 0, 2), out=split[1])
    return CausalDecision(
        is_causal=True,
        residual=float(max(0.0, -split.min())),
        iterations=result.iterations,
        weights=_vertex_weights(split),
        parts=(alice_first.reshape(2, 2, 2, 2, 2), split[1].transpose(1, 0, 2).reshape(2, 2, 2, 2, 2)),
        bland=result.bland,
    )
