import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalgame import (
    NumericalIntegrityError,
    OptimizerConfig,
    ProcessMatrix,
    analytic_max_dbit,
    maximize_ansatz,
    maximize_instruments,
    threshold_alpha,
    validate,
    w_ansatz,
    w_beta,
    w_ocb,
)
from causalgame import optimizer, processes, tensor
from causalgame.optimizer import _ansatz_gradient, _ansatz_objective, _gauge_maximizer
from causalgame.tensor import pauli_compose, pauli_decompose

SRC = str(Path(optimizer.__file__).resolve().parents[1])
CEILING = 0.25 * (2.0 + np.sqrt(2.0))

FAST = OptimizerConfig(restarts=8, seed=0)


def _gauge(c):
    c = np.asarray(c, dtype=float)
    heavy = np.abs(c[..., 0]) + np.abs(c[..., 3]) + np.abs(c[..., 5])
    return np.abs(c[..., 4]) + np.sqrt(c[..., 1] ** 2 + c[..., 2] ** 2 + heavy**2)


def test_config_guards():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="restarts"):
        OptimizerConfig(restarts=8.0)
    with pytest.raises(ValueError, match="restarts"):
        OptimizerConfig(restarts=True)


@pytest.mark.parametrize("seed", [True, 1.5, 2.0, -1, np.int64(-3), "7"])
def test_config_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        OptimizerConfig(seed=seed)


@pytest.mark.parametrize("seed", [0, np.int64(5), np.uint64(2**63), 2**200, 2**200 + 1])
def test_config_accepts_numpy_and_huge_integer_seeds(seed):
    assert OptimizerConfig(seed=seed).seed == seed


def _instrument_start(rng):
    return rng.normal(size=15)


def _ansatz_start(rng):  # the same draws, in the same order, as maximize_ansatz's start
    coeffs, scale, axis = rng.normal(size=6), rng.uniform(0.2, 0.95), rng.normal(size=3)
    return np.concatenate([coeffs, axis / np.linalg.norm(axis), [scale]])


def _spawned(seed, restarts, draw):
    """The seeding contract, spelled with NumPy's own SeedSequence.spawn."""
    children = np.random.SeedSequence(seed).spawn(restarts)
    return np.vstack([draw(np.random.default_rng(child)) for child in children])


def _assert_same_bits(fast, reference):
    assert fast.shape == reference.shape
    assert np.array_equal(fast.view(np.uint64), reference.view(np.uint64))


# Each reference draw, with the stacked starts its search builds.
STARTS = {
    _instrument_start: lambda config: optimizer._draw(config, _instrument_start),
    _ansatz_start: optimizer._ansatz_starts,
}


def _assert_bit_identical(seed, restarts, draw):
    fast = STARTS[draw](OptimizerConfig(restarts=restarts, seed=seed))
    _assert_same_bits(fast, _spawned(seed, restarts, draw))


SEEDS = [0, 1, 7, 12345, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 3, 2**128 + 9, 2**200 + 1]
SEEDS += [np.uint64(2**63 + 1)]  # a NumPy integer has no bit_length


@pytest.mark.parametrize("draw", [_instrument_start, _ansatz_start])
@pytest.mark.parametrize("restarts", [1, 16, 64])
@pytest.mark.parametrize("seed", SEEDS)
def test_draw_matches_seed_sequence_spawn_bit_for_bit(seed, restarts, draw):
    _assert_bit_identical(seed, restarts, draw)


# Seeds of every bit length up to 200 alike, so seeds of more than four 32-bit words are common.
SEEDS_TO_2_200 = st.sampled_from(range(201)).flatmap(lambda bits: st.integers(2**bits >> 1, 2**bits - 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=SEEDS_TO_2_200, restarts=st.integers(1, 40))
def test_draw_matches_seed_sequence_spawn_for_any_seed(seed, restarts):
    _assert_bit_identical(seed, restarts, _ansatz_start)


def test_both_searches_of_one_config_hash_its_seeds_once(monkeypatch):
    folds = []
    fold = optimizer._fold
    monkeypatch.setattr(optimizer, "_fold", lambda words: folds.append(1) or fold(words))
    optimizer._states.cache_clear()
    config = OptimizerConfig(restarts=16, seed=2**70 + 11)
    first = optimizer._draw(config, _instrument_start)
    hashed = len(folds)
    second = optimizer._ansatz_starts(config)
    assert hashed > 0 and len(folds) == hashed
    _assert_same_bits(first, _spawned(config.seed, 16, _instrument_start))
    _assert_same_bits(second, _spawned(config.seed, 16, _ansatz_start))
    assert not optimizer._states(config.seed, 16).flags.writeable


def _set_unit_reference(block, direction):
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    np.divide(direction, norms, out=block, where=norms > 0)


def test_set_unit_matches_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(29)
    direction = rng.normal(size=(400, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, size=(400, 1))
    direction[::9] = 0.0  # zero rows keep the old values
    direction[4::9, 1:] = 0.0
    direction[5::9] = [1e-150, -1e-150, 3e-151]
    direction[6::9] = [1e150, 3.0, -1e150]
    old = rng.normal(size=(400, 3))
    fast, reference = old.copy(), old.copy()
    optimizer._set_unit(fast, direction)
    _set_unit_reference(reference, direction)
    _assert_same_bits(fast, reference)
    assert np.array_equal(fast[::9], old[::9])
    fast, reference = direction.copy(), direction.copy()  # in place, as the instrument start runs it
    optimizer._set_unit(fast, fast)
    _set_unit_reference(reference, reference)
    _assert_same_bits(fast, reference)


@pytest.mark.parametrize("process, beta", [(w_ocb(), 0.5), (w_beta(0.6), 0.6), (w_beta(0.85), 0.7)])
def test_instruments_bound_matches_linalg_two_norms(process, beta):
    # The sparse map of the Hermitian part validate reads, looked up word by word.
    coefficients = pauli_decompose((process.matrix + process.matrix.conj().T) / 2)
    axes = (1, 2, 3)
    corr3 = np.array([[[coefficients.get((i, 0, k, l), 0.0) for l in axes] for k in axes] for i in axes])
    pair2 = np.array([[coefficients.get((0, j, k, 0), 0.0) for k in axes] for j in axes])
    corr, pair = np.linalg.norm(corr3.reshape(3, 9), 2), np.linalg.norm(pair2, 2)
    reference = float(0.5 + 2.0 * beta * corr + 2.0 * (1.0 - beta) * pair)
    assert maximize_instruments(process, beta, FAST).upper_bound == reference


@pytest.mark.parametrize("module", ["causalgame", "causalgame.cli"])
def test_import_leaves_numpy_random_unloaded(module):
    # numpy.random adds 11-16 ms to every CLI process; the searches load it on first use.
    code = f"import sys; sys.path.insert(0, {SRC!r}); import {module}; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def _central_difference(objective, theta, h=1e-6):
    grad = np.empty_like(theta)
    for p in range(theta.shape[1]):
        shift = np.zeros(theta.shape[1])
        shift[p] = h
        grad[:, p] = (objective(theta + shift) - objective(theta - shift)) / (2 * h)
    return grad


def test_ansatz_gradient_matches_central_differences():
    rng = np.random.default_rng(6)
    theta = rng.normal(size=(20, 9))
    for alpha in (0.5, 0.8):
        numeric = _central_difference(lambda x: _ansatz_objective(x, alpha), theta)
        # The gradient covers the six coefficients; the sweep sets the axis from them directly.
        npt.assert_allclose(_ansatz_gradient(theta, alpha), numeric[:, 0:6], rtol=0, atol=1e-8)


def test_instruments_search_hits_the_family_maximum():
    for beta in (0.5, 0.75):
        result = maximize_instruments(w_beta(beta), beta, FAST)
        bound = analytic_max_dbit(beta)
        assert result.value >= bound - 1e-6
        assert result.value <= bound + 1e-7
        assert result.feasible
        npt.assert_allclose(np.linalg.norm(result.alice.measure), 1.0, atol=1e-9)
        npt.assert_allclose(np.linalg.norm(result.bob.relay), 1.0, atol=1e-9)


def test_search_trace_is_monotone():
    result = maximize_instruments(w_ocb(), 0.5, FAST)
    trace = np.array(result.trace)
    assert (np.diff(trace) >= -1e-15).all()
    npt.assert_allclose(trace[-1], result.value, atol=1e-9)


def test_instruments_search_is_seed_reproducible():
    first = maximize_instruments(w_ocb(), 0.5, FAST)
    second = maximize_instruments(w_ocb(), 0.5, FAST)
    assert first.value == second.value
    assert first.trace == second.trace
    npt.assert_array_equal(first.alice.measure, second.alice.measure)


def test_instruments_search_reports_convergence(monkeypatch):
    result = maximize_instruments(w_ocb(), 0.5, FAST)
    assert result.iterations == len(result.trace) - 1
    assert result.converged
    assert result.iterations < optimizer.MAX_SWEEPS
    monkeypatch.setattr(optimizer, "MAX_SWEEPS", 1)
    capped = maximize_instruments(w_ocb(), 0.5, OptimizerConfig(restarts=2, seed=0))
    assert capped.iterations == 1
    assert not capped.converged


def test_flat_process_scores_a_coin_flip():
    flat = ProcessMatrix(np.eye(16) / 4.0, tag="flat")
    result = maximize_instruments(flat, 0.6, FAST)
    npt.assert_allclose(result.value, 0.5, atol=1e-12)


@pytest.mark.parametrize("word", [(0, 1, 2, 0), (0, 3, 1, 0), (1, 0, 2, 3), (2, 0, 3, 1), (3, 0, 1, 2)])
def test_instruments_search_reads_each_correlation_word_in_its_place(word):
    # One word 0jk0 (j != k) or i0kl (i, k, l distinct): the search reaches
    # its bound only if it scores that word on the axes the Born rule does.
    process = ProcessMatrix(np.eye(16) / 4 + pauli_compose({word: 0.2}))
    result = maximize_instruments(process, 0.6, FAST)
    npt.assert_allclose(result.value, result.upper_bound, atol=1e-12)
    npt.assert_allclose(result.upper_bound, 0.66 if word[0] == 0 else 0.74, atol=1e-15)


@pytest.mark.parametrize("search", ["instruments", "ansatz"])
def test_a_rescore_that_misses_the_search_value_is_refused(monkeypatch, search):
    score = optimizer.success_probability
    monkeypatch.setattr(optimizer, "success_probability", lambda dist, spec: score(dist, spec) - 1e-6)
    with pytest.raises(NumericalIntegrityError, match="not reproduced by the Born pipeline"):
        maximize_instruments(w_ocb(), 0.5, FAST) if search == "instruments" else maximize_ansatz(0.5, FAST)


@pytest.fixture
def decompositions(monkeypatch):
    """The matrices passed to ``tensor._coefficients``, which every Pauli decomposition runs."""
    calls = []
    real = tensor._coefficients

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (tensor, processes, optimizer):
        if hasattr(module, "_coefficients"):
            monkeypatch.setattr(module, "_coefficients", counted)
    return calls


def test_instruments_search_decomposes_the_process_once(decompositions):
    maximize_instruments(w_ocb(), 0.5, FAST)
    assert len(decompositions) == 1


def test_ansatz_search_decomposes_nothing(decompositions):
    result = maximize_ansatz(0.6, FAST)
    assert decompositions == []
    assert result.feasible


def test_instruments_search_rejects_bad_inputs():
    with pytest.raises(ValueError, match="beta"):
        maximize_instruments(w_ocb(), 0.4, FAST)
    with pytest.raises(ValueError, match="failed validation"):
        maximize_instruments(np.eye(16), 0.5, FAST)


def test_ansatz_search_reaches_the_family_ceiling():
    result = maximize_ansatz(0.5, FAST)
    ceiling = 0.25 * (2.0 + np.sqrt(2.0))
    assert result.value >= ceiling - 1e-4
    assert result.value <= ceiling + 1e-7
    assert result.feasible
    assert _gauge(result.coefficients) <= 1.0 + 1e-9
    npt.assert_allclose(np.linalg.norm(result.axis), 1.0, atol=1e-9)
    assert validate(w_ansatz(*result.coefficients)).is_valid


def test_ansatz_search_reports_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_SWEEPS", 1)
    result = maximize_ansatz(0.6, OptimizerConfig(restarts=2, seed=0))
    assert result.iterations == len(result.trace) - 1 == 1
    assert not result.converged


def test_ansatz_min_eigenvalue_matches_dense_algebra():
    rng = np.random.default_rng(13)
    for _ in range(40):
        coeffs = rng.uniform(-1.0, 1.0, 6)
        if rng.uniform() < 0.5:
            coeffs /= max(_gauge(coeffs), 1.0)  # sometimes inside, sometimes out
        dense = np.linalg.eigvalsh(w_ansatz(*coeffs).matrix).min()
        npt.assert_allclose(0.25 * (1.0 - optimizer._gauge(coeffs)[0]), dense, atol=1e-10)


def test_ansatz_feasibility_is_the_gauge_ball():
    inside = np.array([0.5, 0.3, 0.1, 0.0, 0.05, 0.0])
    inside /= max(_gauge(inside), 1.0) * 1.01
    assert validate(w_ansatz(*inside)).is_valid
    outside = inside / _gauge(inside) * 1.2
    assert not validate(w_ansatz(*outside)).is_valid


def test_threshold_is_where_the_causal_bound_meets_the_family_ceiling():
    assert abs(threshold_alpha() - 1.0 / np.sqrt(2.0)) <= 1e-15
    assert abs(threshold_alpha(OptimizerConfig(restarts=4, seed=7)) - 1.0 / np.sqrt(2.0)) <= 1e-15


def test_threshold_refuses_a_search_short_of_its_ceiling(monkeypatch):
    # One sweep of one restart stops about 2e-6 below (2 + sqrt 2) / 4.
    monkeypatch.setattr(optimizer, "MAX_SWEEPS", 1)
    short = OptimizerConfig(restarts=1, seed=0)
    assert maximize_ansatz(0.5, short).gap > 1e-10
    with pytest.raises(NumericalIntegrityError, match="short of its ceiling"):
        threshold_alpha(short)


def test_trace_ends_where_the_winning_restart_retired():
    config = OptimizerConfig(restarts=16, seed=0)
    result = maximize_instruments(w_ocb(), 0.6, config)
    trace = np.array(result.trace)
    last_move = int(np.flatnonzero(np.diff(trace))[-1]) + 1
    # A restart retires at its first sweep that gains no more than tol.
    assert result.converged
    assert result.iterations == len(result.trace) - 1
    assert result.iterations - last_move <= 1


def test_gauge_maximizer_is_the_dual_gauge_point():
    rng = np.random.default_rng(17)
    g = rng.normal(size=(200, 6))
    g[::4, 4] *= 4.0  # let the e4 vertex win in part of the draws
    best = _gauge_maximizer(g)
    npt.assert_allclose(_gauge(best), 1.0, rtol=0, atol=1e-12)
    score = np.einsum("rp,rp->r", g, best)
    heavy = np.abs(g[:, [0, 3, 5]]).max(axis=1)
    rho = np.sqrt(g[:, 1] ** 2 + g[:, 2] ** 2 + heavy**2)
    npt.assert_allclose(score, np.maximum(np.abs(g[:, 4]), rho), rtol=1e-12, atol=0)
    assert (np.abs(g[:, 4]) > rho).any() and (np.abs(g[:, 4]) <= rho).any()
    sample = rng.normal(size=(10_000, 6)) * rng.uniform(0.0, 3.0, size=(10_000, 6))
    sample /= _gauge(sample)[:, None]
    assert ((g @ sample.T).max(axis=1) <= score + 1e-12).all()


def _gauge_maximizer_reference(g):
    rows = np.arange(g.shape[0])
    heavy = np.array([0, 3, 5])[np.argmax(np.abs(g[:, [0, 3, 5]]), axis=1)]
    rho = np.sqrt(g[:, 1] ** 2 + g[:, 2] ** 2 + g[rows, heavy] ** 2)
    scale = np.divide(1.0, rho, out=np.zeros_like(rho), where=rho > 0)
    c = np.zeros_like(g)
    c[:, 1:3] = g[:, 1:3] * scale[:, None]
    c[rows, heavy] = g[rows, heavy] * scale
    edge = np.abs(g[:, 4]) > rho
    c[edge] = 0.0
    c[edge, 4] = np.sign(g[edge, 4])
    return c


def test_gauge_maximizer_matches_its_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    g = rng.normal(size=(240, 6))
    g[::5, 4] *= 6.0  # the e4 vertex wins
    g[1::5] = 0.0
    g[2::5, [0, 3, 5]] = [0.7, -0.7, 0.7]  # ties among the heavy coordinates
    g[3::5, [0, 3, 5]] = [0.0, -0.7, 0.7]
    g[4::10] = [0.0, 3.0, 4.0, 0.0, -5.0, 0.0]  # |g4| ties rho
    without_edge = g[np.abs(g[:, 4]) <= 0.1]  # no row takes the e4 vertex
    assert (_gauge_maximizer_reference(g)[:, 4] != 0).any()
    assert (_gauge_maximizer_reference(without_edge)[:, 4] == 0).all()
    for rows in (g, without_edge, g[:1], g[:0]):
        _assert_same_bits(_gauge_maximizer(rows), _gauge_maximizer_reference(rows))


def test_ansatz_axis_is_read_only():
    result = maximize_ansatz(0.6, FAST)
    with pytest.raises(ValueError, match="read-only"):
        result.axis[0] = 0.0
    assert np.linalg.norm(result.axis) == pytest.approx(1.0, abs=1e-12)


def test_both_searches_reach_their_closed_forms():
    rng = np.random.default_rng(23)
    cases = [(0.7, 0.50685, 1245909715)]
    cases += [(rng.uniform(0.5, 0.9), rng.uniform(0.5, 0.7), int(rng.integers(2**31))) for _ in range(19)]
    for beta, alpha, seed in cases:
        config = OptimizerConfig(restarts=16, seed=seed)
        instruments = maximize_instruments(w_beta(beta), beta, config)
        assert abs(instruments.value - analytic_max_dbit(beta)) <= 1e-12
        family = maximize_ansatz(alpha, config)
        assert abs(family.value - CEILING) <= 1e-12


def test_gap_certifies_the_optimum_on_the_family():
    for beta in (0.5, 0.6, 0.75, 0.9):
        result = maximize_instruments(w_beta(beta), beta, FAST)
        assert 0.0 <= result.gap <= 1e-12
        npt.assert_allclose(result.upper_bound, analytic_max_dbit(beta), rtol=0, atol=1e-12)
    family = maximize_ansatz(0.6, FAST)
    npt.assert_allclose(family.upper_bound, CEILING, rtol=0, atol=1e-15)
    assert 0.0 <= family.gap <= 1e-12


def test_a_value_above_its_ceiling_is_refused():
    with pytest.raises(NumericalIntegrityError, match="ceiling"):
        optimizer._check_rescore(0.9, 0.9, 0.85)
    optimizer._check_rescore(0.85 + 1e-12, 0.85, 0.85)  # rounding-sized excess passes
    rounded = optimizer.OptimizationResult(0.85 + 1e-16, (0.85,), True, True, 0.85)
    assert rounded.gap == 0.0
