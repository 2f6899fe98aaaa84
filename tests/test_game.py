import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    GameSpec,
    JointDistribution,
    NumericalIntegrityError,
    alice_z,
    analytic_max_dbit,
    bob_branch,
    causal_bound,
    causal_mixture,
    joint_distribution,
    ordered_identity_channel_process,
    success_components,
    success_probability,
    w_beta,
    w_beta_weights,
    w_ocb,
)
from causalgame.game import _channel_scores


def test_game_spec_ranges():
    GameSpec(0.5, 0.99)
    with pytest.raises(ValueError, match="alpha"):
        GameSpec(alpha=0.4)
    with pytest.raises(ValueError, match="beta"):
        GameSpec(beta=1.0)


def test_born_probabilities_are_real_and_bounded():
    table = joint_distribution(w_ocb(), alice_z, bob_branch).table
    assert table.dtype == float
    assert table.min() >= 0.0 and table.max() <= 1.0


def test_born_is_linear_in_the_process():
    w1 = ordered_identity_channel_process("a_to_b")
    w2 = ordered_identity_channel_process("b_to_a")
    q = 0.37
    mixed = causal_mixture(w1, w2, 1.0 - q)

    def table(w):
        return joint_distribution(w, alice_z, bob_branch).table

    expected = (1.0 - q) * table(w1) + q * table(w2)
    npt.assert_allclose(table(mixed), expected, atol=1e-12)


def test_born_rejects_complex_probabilities():
    rigged = np.zeros((16, 16), dtype=complex)
    rigged[0, 0] = 4.0j  # non-Hermitian, so the trace picks up an imaginary part
    with pytest.raises(NumericalIntegrityError):
        joint_distribution(rigged, alice_z, bob_branch)


def test_joint_distribution_is_normalized_per_setting():
    dist = joint_distribution(w_beta(0.7), alice_z, bob_branch)
    totals = dist.table.sum(axis=(0, 1))
    npt.assert_allclose(totals, np.ones((2, 2, 2)), atol=1e-12)


def test_distribution_guards():
    bad = np.zeros((2, 2, 2, 2, 2))
    bad[0, 0, 0, 0, 0] = -0.1
    bad[1, 1, 0, 0, 0] = 1.1
    with pytest.raises(ValueError):
        JointDistribution(bad)
    with pytest.raises(ValueError, match="shape"):
        JointDistribution(np.zeros((2, 2)))
    lopsided = np.zeros((2, 2, 2, 2, 2))
    lopsided[0, 0] = 0.4  # sums to 1.6 per setting
    with pytest.raises(ValueError):
        JointDistribution(lopsided)


def test_csv_rendering():
    dist = joint_distribution(w_ocb(), alice_z, bob_branch)
    lines = dist.to_csv().splitlines()
    assert lines[0] == "x,y,a,b,bprime,p"
    assert len(lines) == 33


def test_unbiased_score_on_the_symmetric_process():
    dist = joint_distribution(w_ocb(), alice_z, bob_branch)
    value = success_probability(dist, GameSpec(0.5, 0.5))
    npt.assert_allclose(value, 0.5 * (1.0 + 1.0 / np.sqrt(2.0)), atol=1e-12)


def test_success_components_carry_the_two_channel_weights():
    beta = 0.75
    f1, f2 = w_beta_weights(beta)
    dist = joint_distribution(w_beta(beta), alice_z, bob_branch)
    decode, guess = success_components(dist, alpha=0.5)
    npt.assert_allclose(decode, 0.5 * (1.0 + f2), atol=1e-12)
    npt.assert_allclose(guess, 0.5 * (1.0 + f1), atol=1e-12)


def _loop_components(table, alpha):
    """The scoring rule as a plain loop over the four input settings."""
    weights = np.array([alpha, 1.0 - alpha])
    decode = guess = 0.0
    for a in (0, 1):
        for b in (0, 1):
            decode += weights[a] * weights[b] * table[b, :, a, b, 0].sum()
            guess += weights[a] * weights[b] * table[:, a, a, b, 1].sum()
    return float(decode), float(guess)


def test_channel_scores_equal_the_loop_bit_for_bit_on_tables_and_stacks():
    rng = np.random.default_rng(11)
    stack = rng.random((2, 2, 2, 2, 2, 200)) ** 3
    stack /= stack.sum(axis=(0, 1))
    alphas = rng.uniform(0.5, 1.0, size=200)
    for k, alpha in enumerate(alphas):
        table = stack[..., k]
        expected = _loop_components(table, alpha)
        assert success_components(JointDistribution(table), alpha) == expected
        decode, guess = _channel_scores(stack, alpha)
        assert (float(decode[k]), float(guess[k])) == expected


def test_ordered_process_cannot_beat_the_causal_bound():
    for direction in ("a_to_b", "b_to_a"):
        w = ordered_identity_channel_process(direction)
        dist = joint_distribution(w, alice_z, bob_branch)
        for beta in (0.5, 0.7, 0.9):
            spec = GameSpec(0.5, beta)
            assert success_probability(dist, spec) <= causal_bound(spec) + 1e-9


def test_bound_formulas():
    for alpha in (0.5, 0.6, 0.9):
        for beta in (0.5, 0.75, 0.99):
            spec = GameSpec(alpha, beta)
            npt.assert_allclose(
                causal_bound(spec), beta + alpha * (1.0 - beta), atol=1e-15
            )
    for beta in (0.5, 0.75, 0.99):
        expected = 0.5 * (1.0 + np.sqrt(1.0 - 2.0 * beta + 2.0 * beta * beta))
        npt.assert_allclose(analytic_max_dbit(beta), expected, atol=1e-15)


def test_joint_distribution_names_the_invalid_bob_setting():
    def broken(y, b, bp):
        # At (b, bp) = (1, 0) both outcomes carry the same element, so the
        # pair sums to twice a projector: not trace preserving.
        return bob_branch(0 if (b, bp) == (1, 0) else y, b, bp)

    with pytest.raises(ValueError, match=r"party B instrument at setting \(1, 0\) is invalid: .*trace"):
        joint_distribution(w_ocb(), alice_z, broken)


def test_distribution_rejects_non_finite_entries():
    table = joint_distribution(w_ocb(), alice_z, bob_branch).table.copy()
    table[0, 0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        JointDistribution(table)
