"""End-to-end checks, one test per shipped claim.

Each test prints a single PASS line with the measured numbers so a log
scan shows every claim and its margin; the pytest verdict per test is
the pass/fail record.
"""

import time

import numpy as np
import numpy.testing as npt

from causalgame import (
    GameSpec,
    OptimizerConfig,
    alice_z,
    analytic_max_dbit,
    bob_branch,
    causal_bound,
    causal_mixture,
    enumerate_strategies,
    is_causal,
    joint_distribution,
    maximize_ansatz,
    maximize_instruments,
    oracle_bound,
    ordered_identity_channel_process,
    partial_trace,
    pauli_compose,
    strategy_success,
    success_probability,
    term_label,
    validate,
    w_beta,
    w_beta_weights,
    w_ocb,
    witness_s,
    witness_value,
)
from causalgame.cli import main as cli_main
from causalgame.processes import ALLOWED_SUPPORTS
from causalgame.tensor import LABELS, PAULI

BETA_GRID = np.linspace(0.5, 0.99, 50)


def _pipeline_score(w, spec):
    dist = joint_distribution(w, alice_z, bob_branch)
    return success_probability(dist, spec)


def test_c01_unbiased_game_beats_the_causal_bound():
    start = time.monotonic()
    value = _pipeline_score(w_ocb(), GameSpec(0.5, 0.5))
    target = 0.5 * (1.0 + 1.0 / np.sqrt(2.0))
    elapsed = time.monotonic() - start
    assert abs(value - target) <= 1e-9
    assert value > 0.75
    assert elapsed < 1.0
    print(f"PASS c01: p_succ={value:.12f} target={target:.12f} ({elapsed:.3f}s)")


def test_c02_family_sweep_matches_the_closed_form():
    start = time.monotonic()
    gaps = []
    worst = 0.0
    for beta in BETA_GRID:
        beta = float(beta)
        spec = GameSpec(0.5, beta)
        value = _pipeline_score(w_beta(beta), spec)
        worst = max(worst, abs(value - analytic_max_dbit(beta)))
        assert worst <= 1e-9
        assert value > (1.0 + beta) / 2.0
        gaps.append(value - causal_bound(spec))
    diffs = np.diff(gaps)
    elapsed = time.monotonic() - start
    assert (diffs < 0).all()
    assert elapsed < 5.0
    print(
        f"PASS c02: 50 points, worst residual {worst:.2e}, "
        f"gap {gaps[0]:.4f} -> {gaps[-1]:.4f} strictly decreasing ({elapsed:.2f}s)"
    )


def test_c03_strategy_enumeration_reproduces_the_biased_bound():
    start = time.monotonic()
    strategies = enumerate_strategies()
    assert len(strategies) == 2048
    worst = 0.0
    for alpha in np.linspace(0.5, 0.95, 10):
        for beta in np.linspace(0.5, 0.95, 10):
            spec = GameSpec(float(alpha), float(beta))
            closed = spec.beta + spec.alpha * (1.0 - spec.beta)
            worst = max(worst, abs(oracle_bound(spec) - closed))
            assert worst <= 1e-12
    # Spot-check the vectorized maximum against a plain python sweep.
    spec = GameSpec(0.7, 0.85)
    brute = max(strategy_success(s, spec) for s in strategies)
    assert abs(brute - oracle_bound(spec)) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS c03: 2048 strategies, 10x10 grid, worst |dev|={worst:.2e} ({elapsed:.2f}s)")


def test_c04_witness_separates_the_family_from_ordered_mixtures():
    start = time.monotonic()
    s = witness_s()
    worst = 0.0
    for beta in BETA_GRID:
        beta = float(beta)
        value = witness_value(s, w_beta(beta))
        expected = 1.0 - 1.0 / np.sqrt(1.0 - 2.0 * beta + 2.0 * beta * beta)
        worst = max(worst, abs(value - expected))
        assert worst <= 1e-9
        assert value < 0.0
    w_ba = ordered_identity_channel_process("b_to_a")
    w_ab = ordered_identity_channel_process("a_to_b")
    rng = np.random.default_rng(0)
    floor = np.inf
    for _ in range(20):
        q = float(rng.uniform())
        floor = min(floor, witness_value(s, causal_mixture(w_ba, w_ab, q)))
    assert floor >= -1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS c04: worst |dev|={worst:.2e}, mixture floor={floor:.2e} ({elapsed:.2f}s)")


def test_c05_validity_grid_and_forbidden_perturbations():
    start = time.monotonic()
    for beta in BETA_GRID:
        assert validate(w_beta(float(beta))).is_valid
    base = w_beta(0.6).matrix
    rejected = 0
    for flat in range(256):
        word = ((flat >> 6) & 3, (flat >> 4) & 3, (flat >> 2) & 3, flat & 3)
        support = frozenset(
            label for label, index in zip(LABELS, word) if index != 0
        )
        if support in ALLOWED_SUPPORTS:
            continue
        report = validate(base + pauli_compose({word: 0.05}))
        assert not report.is_valid
        assert term_label(word) in " ".join(report.failures)
        rejected += 1
    elapsed = time.monotonic() - start
    assert rejected == 168
    assert elapsed < 10.0
    print(f"PASS c05: 50 family members valid, {rejected} forbidden terms named ({elapsed:.2f}s)")


def test_c06_instrument_search_meets_the_family_ceiling():
    start = time.monotonic()
    config = OptimizerConfig(seed=0)
    margins = {}
    for beta in (0.5, 0.6, 0.75, 0.9):
        result = maximize_instruments(w_beta(beta), beta, config)
        bound = analytic_max_dbit(beta)
        assert result.value >= bound - 1e-4
        assert result.value <= bound + 1e-7
        margins[beta] = bound - result.value
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    worst = max(margins.values())
    print(f"PASS c06: worst shortfall {worst:.2e} across beta={list(margins)} ({elapsed:.1f}s)")


def test_c07_process_family_search_meets_its_ceiling():
    start = time.monotonic()
    ceiling = 0.25 * (2.0 + np.sqrt(2.0))
    config = OptimizerConfig(seed=0)
    values = []
    for alpha in (0.5, 0.8):
        result = maximize_ansatz(alpha, config)
        assert result.value >= ceiling - 1e-4
        assert result.value <= ceiling + 1e-7
        values.append(result.value)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"PASS c07: values {[f'{v:.9f}' for v in values]} vs ceiling {ceiling:.9f} ({elapsed:.1f}s)"
    )


def test_c08_threshold_bias_recovered(capsys):
    start = time.monotonic()
    code = cli_main(["threshold", "--seed", "0"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0
    value = float(out)
    assert abs(value - 1.0 / np.sqrt(2.0)) <= 1e-4
    assert elapsed < 180.0
    with capsys.disabled():
        print(f"PASS c08: threshold={value:.7f} vs {1 / np.sqrt(2):.7f} ({elapsed:.1f}s)")


def test_c09_conditioned_reductions_match_their_closed_forms():
    start = time.monotonic()
    ident = np.eye(2)
    sigma_z = PAULI[3]
    for beta in (0.5, 0.75):
        w = w_beta(beta)
        f1, f2 = w_beta_weights(beta)
        for b in (0, 1):
            summed = sum(bob_branch(y, b, 0) for y in (0, 1))
            plugged = w.matrix @ np.kron(np.eye(4), summed)
            reduced = partial_trace(plugged, keep=("A_I", "A_O"))
            closed = 0.5 * np.kron(ident + (-1) ** b * f2 * sigma_z, ident)
            npt.assert_allclose(reduced, closed, atol=1e-12)
        for a in (0, 1):
            summed = sum(alice_z(x, a) for x in (0, 1))
            plugged = w.matrix @ np.kron(summed, np.eye(4))
            reduced = partial_trace(plugged, keep=("B_I", "B_O"))
            closed = 0.5 * np.kron(ident + (-1) ** a * f1 * sigma_z, ident)
            npt.assert_allclose(reduced, closed, atol=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS c09: both reductions entrywise at 1e-12 for beta in {{0.5, 0.75}} ({elapsed:.2f}s)")


def test_c10_polytope_membership_separates_orderable_tables():
    start = time.monotonic()
    w_ba = ordered_identity_channel_process("b_to_a")
    w_ab = ordered_identity_channel_process("a_to_b")
    for q in (0.0, 0.3, 0.7, 1.0):
        dist = joint_distribution(causal_mixture(w_ba, w_ab, q), alice_z, bob_branch)
        decision = is_causal(dist)
        assert decision.is_causal, f"mixture q={q} misclassified"
    vertex_stack = np.stack(
        [s.correlation_table().reshape(32) for s in enumerate_strategies()], axis=1
    )
    rejected = 0
    for beta in BETA_GRID:
        dist = joint_distribution(w_beta(float(beta)), alice_z, bob_branch)
        decision = is_causal(dist)
        assert not decision.is_causal, f"beta={beta} not rejected"
        functional = decision.functional.reshape(32)
        assert decision.value > decision.bound
        assert decision.bound <= 1e-9
        assert (functional @ vertex_stack).max() <= decision.bound + 1e-9
        rejected += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS c10: 4 mixtures accepted, {rejected} family tables rejected with certificates ({elapsed:.1f}s)")
