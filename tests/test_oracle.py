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
    w_beta,
    w_ocb,
)
from causalgame import oracle, simplex
from causalgame.simplex import phase_one
from conftest import SETTINGS, general_mixture_tables, membership_tables, strategy_success


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


def test_membership_weights_reproduce_the_table(vertex_stack):
    w = causal_mixture(
        ordered_identity_channel_process("b_to_a"),
        ordered_identity_channel_process("a_to_b"),
        0.4,
    )
    table = joint_distribution(w, alice_z, bob_branch).table
    decision = is_causal(table)
    assert decision.is_causal
    npt.assert_allclose(vertex_stack @ decision.weights, table.reshape(32), atol=1e-7)


@pytest.mark.parametrize(
    "process",
    [
        ordered_identity_channel_process("a_to_b"),
        ordered_identity_channel_process("b_to_a"),
        causal_mixture(
            ordered_identity_channel_process("b_to_a"),
            ordered_identity_channel_process("a_to_b"),
            0.4,
        ),
    ],
)
def test_members_split_into_two_one_way_parts(process):
    table = joint_distribution(process, alice_z, bob_branch).table
    decision = is_causal(table)
    assert decision.is_causal
    alice_first, bob_first = decision.parts
    npt.assert_allclose(alice_first + bob_first, table, rtol=0, atol=1e-9)
    assert alice_first.min() >= -1e-12 and bob_first.min() >= -1e-12
    # Alice's marginal of the first part ignores (b, b'), Bob's of the
    # second ignores (a, b'), and each part has one mass at every setting.
    alice = alice_first.sum(axis=1).reshape(2, 2, 4)
    bob = bob_first.sum(axis=0).transpose(0, 2, 1, 3).reshape(2, 2, 4)
    for marginal in (alice, bob):
        assert np.ptp(marginal, axis=2).max() <= 1e-9
    for part in decision.parts:
        assert np.ptp(part.sum(axis=(0, 1))) <= 1e-9


def test_degenerate_vertex_mixtures_are_accepted(vertex_stack):
    # Replays 1,000 random vertex mixtures; on these five draws a phase-one
    # solve over the 2,048 vertex columns stalled and never converged.
    tables = vertex_stack
    rng = np.random.default_rng(1)
    for draw in range(1000):
        k = rng.integers(1, 8)
        columns = rng.choice(2048, k, replace=False)
        mix = rng.dirichlet(np.ones(k))
        if draw not in (7, 428, 529, 691, 771):
            continue
        table = tables[:, columns] @ mix
        decision = is_causal(table.reshape(2, 2, 2, 2, 2))
        assert decision.is_causal, f"draw {draw} rejected"
        assert decision.weights.min() >= -1e-12
        npt.assert_allclose(decision.weights.sum(), 1.0, rtol=0, atol=1e-9)
        npt.assert_allclose(tables @ decision.weights, table, rtol=0, atol=1e-9)


def test_rejection_comes_with_a_separating_functional():
    table = joint_distribution(w_ocb(), alice_z, bob_branch).table
    decision = is_causal(table)
    assert not decision.is_causal
    assert decision.value > decision.bound
    assert decision.bound <= 1e-9  # every causal table scores at most 0
    functional = decision.functional.reshape(32)
    for strategy in enumerate_strategies():
        score = float(functional @ strategy.correlation_table().reshape(32))
        assert score <= decision.bound + 1e-9


@pytest.mark.parametrize("offset", [-1e-6, 1e-6])
def test_white_noise_boundary_of_the_ocb_table(offset):
    # Played with these operations w_ocb scores (2 + sqrt 2)/4 at beta = 1/2,
    # white noise 1/2 and the causal bound is 3/4, so mixing in a share
    # 1 - 1/sqrt(2) of noise reaches the polytope's face exactly.
    table = joint_distribution(w_ocb(), alice_z, bob_branch).table
    noise = 1.0 - 1.0 / np.sqrt(2.0) + offset
    mixed = (1.0 - noise) * table + noise / 4
    decision = is_causal(mixed)
    assert decision.is_causal == (offset > 0)
    if offset < 0:
        # The functional's entries grow like 1/|offset|, so f.p cancels: its
        # rounding error is at most 32 eps sum |f p|, about 8e-9 here.
        terms = decision.functional * mixed
        assert abs(decision.value - 1.0) <= 32 * np.finfo(float).eps * np.abs(terms).sum()
        assert decision.bound <= 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1 defect A")
def test_bob_first_table_that_tells_alice_his_bit_is_causal():
    # Bob acts first, answers y = b' and tells Alice b, who answers x = b.
    table = np.zeros((2, 2, 2, 2, 2))
    for a, b, bp in np.ndindex(2, 2, 2):
        table[b, bp, a, b, bp] = 1.0
    assert is_causal(table).is_causal


def test_is_causal_accepts_joint_distribution_objects():
    dist = joint_distribution(
        ordered_identity_channel_process("a_to_b"), alice_z, bob_branch
    )
    assert is_causal(dist).is_causal


def test_is_causal_rejects_malformed_tables():
    with pytest.raises(ValueError):
        is_causal(np.full((2, 2, 2, 2, 2), 0.9))


def test_decision_reports_the_solve_pivot_count(monkeypatch):
    solves = []

    def recording(a, b):
        solves.append(phase_one(a, b))
        return solves[-1]

    monkeypatch.setattr(oracle, "phase_one", recording)
    member = joint_distribution(ordered_identity_channel_process("a_to_b"), alice_z, bob_branch)
    for table in (member, joint_distribution(w_ocb(), alice_z, bob_branch)):
        decision = is_causal(table)
        assert decision.iterations > 0
        assert decision.iterations == solves[-1].iterations


def test_membership_pivot_counts_are_pinned(vertex_stack):
    assert is_causal(joint_distribution(w_ocb(), alice_z, bob_branch)).iterations == 10
    mix = causal_mixture(
        ordered_identity_channel_process("b_to_a"), ordered_identity_channel_process("a_to_b"), 0.3
    )
    assert is_causal(joint_distribution(mix, alice_z, bob_branch)).iterations == 7
    # A vertex's system has unit columns, so phase_one starts most of its
    # rows on them; from the bare artificial basis some take 9 pivots.
    pivots = [is_causal(table.reshape(2, 2, 2, 2, 2)).iterations for table in vertex_stack.T[::8]]
    assert max(pivots) <= 4


def test_unconverged_solve_is_an_error(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERS", 1)
    table = joint_distribution(w_ocb(), alice_z, bob_branch).table
    with pytest.raises(RuntimeError, match="did not converge within 1 iterations"):
        is_causal(table)


def test_blands_rule_from_the_first_pivot_reaches_the_same_membership_verdicts(monkeypatch):
    g, h = oracle._polytope()[:2]
    b = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
    tables = list(membership_tables())
    default = [is_causal(table) for table in tables]
    assert {decision.is_causal for decision in default} == {True, False}
    monkeypatch.setattr(simplex, "STALL_PIVOTS", 0)
    bland = [is_causal(table) for table in tables]
    assert [d.iterations for d in bland] != [d.iterations for d in default]
    for table, before, after in zip(tables, default, bland):
        assert after.is_causal == before.is_causal
        a = np.vstack([g.T, h @ table.reshape(32)])
        result = phase_one(a, b)
        if after.is_causal:
            assert (result.certificate @ a <= 1e-9).all()
            assert result.certificate @ b > 0.0
        else:
            assert (result.solution >= -1e-12).all()
            npt.assert_allclose(a @ result.solution, b, rtol=0, atol=1e-9)


def _reference_order_weights(part, order):
    """One order's vertex weights with one broadcast product per factor."""
    onehot = oracle._polytope().onehot[order]
    inputs = onehot.shape[1]
    part = np.maximum(part, 0.0)
    marginal = part.sum(axis=1)  # [l, m]
    follower = np.divide(
        part, marginal[:, None], out=np.full_like(part, 0.5), where=marginal[:, None] > 0.0
    )
    leader = marginal @ onehot / onehot.sum(axis=0)
    mass = leader[:, 0].sum()
    if mass <= 0.0:
        return np.zeros(2 ** (inputs + 8))
    weights = leader[:, 0] / mass ** (inputs - 1)
    for i in range(1, inputs):
        weights = weights[..., None] * leader[:, i]
    for m, read in enumerate(oracle.READS[order]):
        shape = [1] * (m + inputs + 1)
        shape[read] = shape[-1] = 2
        weights = weights[..., None] * follower[:, :, m].reshape(shape)
    return weights.reshape(-1)


def _reference_evidence(table):
    """Every field of ``is_causal(table)``, the parts built from z and p row
    by row and each order's weights by ``_reference_order_weights``."""
    p = table.reshape(32)
    g, h, rhs = oracle._polytope()[:3]
    result = phase_one(np.vstack([g.T, h @ p]), rhs)
    fields = {"iterations": result.iterations, "bland": result.bland}
    if result.objective <= oracle.MEMBERSHIP_TOL:
        u = result.solution
        functional = -(h.T @ u).reshape(2, 2, 2, 2, 2)
        return fields | {
            "is_causal": False,
            "residual": float(1.0 / u.sum()),
            "weights": None,
            "parts": None,
            "functional": functional,
            "bound": oracle._causal_max(functional),
            "value": float(functional.reshape(32) @ p),
        }
    alice = oracle._polytope().onehot["a_first"].shape[1]
    columns = np.stack([1 + oracle.READS["a_first"], 1 + alice + oracle.READS["b_first"]])
    z = result.certificate[:-1] / -result.certificate[-1]
    lam, alpha, beta = np.full(8, z[0]), *z[columns]
    q = p.reshape(4, 8)
    t = (oracle._LOW @ np.vstack([lam, alpha, beta, q])).max(axis=0)
    bottom = [q[0] + q[2] - beta - t, lam - alpha - q[0] - q[2] + beta + t]
    alice_first = np.array([[t, alpha - t], bottom])
    bob_first = q.reshape(2, 2, 8) - alice_first
    weights = np.concatenate(
        [
            _reference_order_weights(alice_first, "a_first"),
            _reference_order_weights(bob_first.transpose(1, 0, 2), "b_first"),
        ]
    )
    return fields | {
        "is_causal": True,
        "residual": float(max(0.0, -alice_first.min(), -bob_first.min())),
        "weights": weights,
        "parts": (alice_first.reshape(2, 2, 2, 2, 2), bob_first.reshape(2, 2, 2, 2, 2)),
        "functional": None,
        "bound": None,
        "value": None,
    }


def _bits(value):
    """A field as comparable bytes: arrays with their shape, floats as float64."""
    if value is None or isinstance(value, (bool, int)):
        return value
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value.dtype, value.shape, value.tobytes()


def test_every_decision_field_equals_the_reference_arithmetic_bit_for_bit(read_map):
    vertices, count, _ = read_map
    rng = np.random.default_rng(59)
    mixtures = []
    for _ in range(200):
        k = int(rng.integers(2, 8))
        mixtures.append(vertices[:, rng.choice(count, size=k, replace=False)] @ rng.dirichlet(np.ones(k)))
    a, b = SETTINGS >> 2, (SETTINGS >> 1) & 1
    pure = {}  # one vertex of each order only: the other order's part has no mass
    for order, (x, y) in (("a_first", (a, a)), ("b_first", (b, b))):
        pure[order] = np.zeros((2, 2, 8))
        pure[order][x, y, SETTINGS] = 1.0
    tables = [*membership_tables(), *general_mixture_tables(), *mixtures, *pure.values()]
    for table in tables:
        table = np.asarray(table).reshape(2, 2, 2, 2, 2)
        decision, reference = is_causal(table), _reference_evidence(table)
        for name, expected in reference.items():
            assert _bits(getattr(decision, name)) == _bits(expected), name
    split = 2 ** (oracle._polytope().onehot["a_first"].shape[1] + 8)  # where the Bob-first weights start
    assert is_causal(pure["a_first"].reshape(2, 2, 2, 2, 2)).weights[split:].tolist() == [0.0] * (count - split)
    assert is_causal(pure["b_first"].reshape(2, 2, 2, 2, 2)).weights[:split].tolist() == [0.0] * split
