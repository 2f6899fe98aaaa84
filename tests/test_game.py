import functools
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    GameSpec,
    JointDistribution,
    NumericalIntegrityError,
    ObservableSpec,
    alice_general,
    alice_z,
    analytic_max_dbit,
    bob_branch,
    bob_general,
    causal_bound,
    causal_mixture,
    is_causal,
    joint_distribution,
    ordered_identity_channel_process,
    success_components,
    success_probability,
    w_beta,
    w_beta_weights,
    w_ocb,
)
from causalgame import instruments
from causalgame.instruments import X_AXIS, Z_AXIS
from causalgame.oracle import _causal_max, oracle_bound


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


def test_success_components_equal_the_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    stack = rng.random((2, 2, 2, 2, 2, 200)) ** 3
    stack /= stack.sum(axis=(0, 1))
    alphas = rng.uniform(0.5, 1.0, size=200)
    for k, alpha in enumerate(alphas):
        table = stack[..., k]
        assert success_components(JointDistribution(table), alpha) == _loop_components(table, alpha)


def _stacked_functional(spec):
    """The functional as the scoring rule gave it once: applied to the 32 unit tables as one stack."""
    a, b = np.divmod(np.arange(4), 2)
    weights = np.array([spec.alpha, 1.0 - spec.alpha])
    pair = (weights[a] * weights[b]).reshape(4, 1)
    units = np.eye(32).reshape(2, 2, 2, 2, 2, 32)
    decode = (pair * units[b, :, a, b, 0].sum(axis=1)).sum(axis=0)
    guess = (pair * units[:, a, a, b, 1].sum(axis=0)).sum(axis=0)
    return (spec.beta * decode + (1.0 - spec.beta) * guess).reshape(2, 2, 2, 2, 2)


def test_functional_is_read_only_and_computed_once():
    spec = GameSpec(0.6, 0.7)
    assert spec.functional is spec.functional
    with pytest.raises(ValueError, match="read-only"):
        spec.functional[0, 0, 0, 0, 0] = 1.0


def test_functional_scores_each_unit_table_like_the_loop_bit_for_bit():
    rng = np.random.default_rng(26)
    for alpha, beta in rng.uniform(0.5, 1.0, size=(20, 2)):
        f = GameSpec(alpha, beta).functional
        for j, unit in enumerate(np.eye(32)):
            decode, guess = _loop_components(unit.reshape(2, 2, 2, 2, 2), alpha)
            assert f.flat[j] == beta * decode + (1.0 - beta) * guess


def test_oracle_bound_is_the_stacked_scoring_bound_bit_for_bit():
    grid = np.linspace(0.5, 0.99, 40)
    for alpha in grid:
        for beta in grid:
            spec = GameSpec(alpha, beta)
            reference = _stacked_functional(spec)
            assert spec.functional.tobytes() == reference.tobytes()
            assert oracle_bound(spec) == _causal_max(reference)


def test_functional_dotted_with_a_table_is_its_winning_probability():
    rng = np.random.default_rng(7)
    for _ in range(200):
        table = rng.random((2, 2, 2, 2, 2)) ** 3
        table /= table.sum(axis=(0, 1))
        spec = GameSpec(*rng.uniform(0.5, 1.0, size=2))
        value = spec.functional.reshape(32) @ table.reshape(32)
        # Not bit for bit: the scoring rule sums in another order.
        assert abs(value - success_probability(JointDistribution(table), spec)) <= 1e-15


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


def test_closed_forms_are_python_floats_with_the_bits_of_numpys_square_root():
    dist = joint_distribution(w_beta(0.7), alice_z, bob_branch)
    for beta in np.linspace(0.5, 0.99, 50):
        value = analytic_max_dbit(beta)
        assert type(value) is float
        assert value.hex() == float(0.5 * (1.0 + np.sqrt(1.0 - 2.0 * beta + 2.0 * beta * beta))).hex()
        spec = GameSpec(0.5, float(beta))
        assert type(causal_bound(spec)) is type(success_probability(dist, spec)) is float


@pytest.mark.parametrize("beta", [0.49, 1.0, np.nan])
def test_analytic_max_refuses_beta_outside_its_range(beta):
    with pytest.raises(ValueError, match=r"beta must lie in \[1/2, 1\)"):
        analytic_max_dbit(beta)


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


@pytest.fixture
def check_calls(monkeypatch):
    """Count the instrument checks joint_distribution runs."""
    calls = []
    real = instruments._check_stack

    def counted(party, stack):
        calls.append((party, stack))
        return real(party, stack)

    monkeypatch.setattr(instruments, "_check_stack", counted)
    return calls


def test_built_stacks_are_not_checked_again(check_calls):
    w = w_beta(0.7)
    alice = ObservableSpec(Z_AXIS, X_AXIS)
    bob = ObservableSpec(X_AXIS, Z_AXIS, relay=X_AXIS)
    proven = [
        (alice.alice_stack, bob.bob_stack),
        (alice_z, bob_branch),
        (alice_z, bob.bob_stack),
        # Anything with a live built stack's bytes is that instrument.
        (lambda x, a: alice_z(x, a), bob_branch),
        (alice_z, functools.partial(bob_branch, t=X_AXIS)),
        (alice_z, lambda y, b, bp: bob_branch(y, b, bp, t=Z_AXIS)),
        (functools.partial(alice_general, spec=alice), functools.partial(bob_general, spec=bob)),
        (alice.alice_stack.copy(), bob_branch),
        (alice_z, np.array(bob.bob_stack)),
        (alice_z, bob.bob_stack.tolist()),
        (lambda x, a: alice_z(x, a), lambda y, b, bp: bob_branch(y, b, bp)),
    ]
    for a, b in proven:
        joint_distribution(w, a, b)
    assert check_calls == []


def _mutated(y, b, bp):
    element = bob_branch(y, b, bp)
    element[0, 0] += 1e-13  # still an instrument, but no longer the built one
    return element


def test_every_other_operation_is_checked_once(check_calls):
    w = w_beta(0.7)
    spec, other = ObservableSpec(Z_AXIS, X_AXIS), ObservableSpec(X_AXIS, Z_AXIS)
    ulp = spec.alice_stack.copy()
    ulp[0, 0, 0, 0] = np.nextafter(ulp[0, 0, 0, 0].real, 1.0)
    mixed = np.stack([spec.alice_stack[:, 0], other.alice_stack[:, 1]], axis=1)  # a from two specs
    checked = [
        (alice_z, _mutated),
        (mixed, bob_branch),
        (alice_z, spec.bob_stack.swapaxes(1, 2)),  # [y, b_prime, b]
        (ulp, bob_branch),
        (spec.alice_stack[::-1], bob_branch),  # x reversed
    ]
    for a, b in checked:
        check_calls.clear()
        joint_distribution(w, a, b)
        assert len(check_calls) == 1
    # Only the party that is not a built stack is checked.
    check_calls.clear()
    joint_distribution(w, alice_z, _mutated)
    [(party, stack)] = check_calls
    assert party == "B" and stack.shape == (2, 2, 2, 4, 4)


def test_a_mixed_operation_that_is_not_trace_preserving_is_refused():
    first, second = ObservableSpec(X_AXIS, Z_AXIS), ObservableSpec(Z_AXIS, Z_AXIS)
    # Outcome y = 0 read along x, y = 1 along z: the two do not sum to the identity.
    bob = np.stack([first.bob_stack[0], second.bob_stack[1]])
    with pytest.raises(ValueError) as info:
        joint_distribution(w_ocb(), alice_z, bob)
    expected = "party B instrument at setting (0, 0) is invalid: summed map is not trace preserving: residual "
    assert str(info.value).startswith(expected)


def test_a_complex_table_is_refused_unless_exactly_real():
    table = joint_distribution(w_ocb(), alice_z, bob_branch).table
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        for imag in (1e-3, 1e-300, np.nan):
            noisy = table.astype(complex)
            noisy[0, 0, 0, 0, 0] += 1j * imag
            with pytest.raises(ValueError, match="imaginary"):
                JointDistribution(noisy)
            with pytest.raises(ValueError, match="imaginary"):
                is_causal(noisy)
        real = JointDistribution(table.astype(complex))
        assert real.table.dtype == np.float64 and real.table.tobytes() == table.tobytes()
        assert is_causal(table.astype(complex)).is_causal == is_causal(table).is_causal
