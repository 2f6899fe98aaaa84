import math

import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    OptimizerConfig,
    ProcessMatrix,
    analytic_max_dbit,
    ansatz_min_eigenvalue,
    hermitian_eigenvalues,
    maximize_ansatz,
    maximize_instruments,
    threshold_alpha,
    validate,
    w_ansatz,
    w_beta,
    w_ocb,
)
from causalgame import optimizer
from causalgame.optimizer import (
    _ansatz_gradient,
    _ansatz_objective,
    _instrument_gradient,
    _instrument_objective,
)

FAST = OptimizerConfig(restarts=8, seed=0)


def _gauge(c):
    heavy = abs(c[0]) + abs(c[3]) + abs(c[5])
    return abs(c[4]) + np.sqrt(c[1] ** 2 + c[2] ** 2 + heavy**2)


def test_config_guards():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(initial_step=-0.1)
    with pytest.raises(ValueError):
        OptimizerConfig(decay=1.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="initial_step"):
            OptimizerConfig(initial_step=bad)
    with pytest.raises(ValueError, match="tol"):
        OptimizerConfig(tol=np.nan)
    with pytest.raises(ValueError, match="decay"):
        OptimizerConfig(decay=np.nan)
    with pytest.raises(ValueError, match="restarts"):
        OptimizerConfig(restarts=8.0)
    with pytest.raises(ValueError, match="max_iters"):
        OptimizerConfig(max_iters=True)


def _central_difference(objective, theta, h=1e-6):
    grad = np.empty_like(theta)
    for p in range(theta.shape[1]):
        shift = np.zeros(theta.shape[1])
        shift[p] = h
        grad[:, p] = (objective(theta + shift) - objective(theta - shift)) / (2 * h)
    return grad


def test_instrument_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    corr3 = rng.uniform(-0.25, 0.25, (3, 3, 3))
    pair2 = rng.uniform(-0.25, 0.25, (3, 3))
    theta = rng.normal(size=(20, 15))
    for beta in (0.5, 0.8):
        numeric = _central_difference(lambda x: _instrument_objective(x, corr3, pair2, beta), theta)
        exact = _instrument_gradient(theta, corr3, pair2, beta)
        npt.assert_allclose(exact, numeric, rtol=0, atol=1e-8)


def test_ansatz_gradient_matches_central_differences():
    rng = np.random.default_rng(6)
    theta = rng.normal(size=(20, 9))
    for alpha in (0.5, 0.8):
        numeric = _central_difference(lambda x: _ansatz_objective(x, alpha), theta)
        npt.assert_allclose(_ansatz_gradient(theta, alpha), numeric, rtol=0, atol=1e-8)


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


def test_instruments_search_reports_convergence():
    result = maximize_instruments(w_ocb(), 0.5, FAST)
    assert result.iterations == len(result.trace) - 1
    assert result.converged
    assert result.iterations < FAST.max_iters
    capped = maximize_instruments(w_ocb(), 0.5, OptimizerConfig(restarts=2, max_iters=5, seed=0))
    assert capped.iterations == 5
    assert not capped.converged


def test_flat_process_scores_a_coin_flip():
    flat = ProcessMatrix(np.eye(16) / 4.0, tag="flat")
    result = maximize_instruments(flat, 0.6, FAST)
    npt.assert_allclose(result.value, 0.5, atol=1e-12)


def test_instruments_search_rejects_bad_inputs():
    with pytest.raises(ValueError, match="beta"):
        maximize_instruments(w_ocb(), 0.4, FAST)
    with pytest.raises(ValueError, match="failed validation"):
        maximize_instruments(np.eye(16), 0.5, FAST)


def test_general_corr_reports_an_explicit_tensor():
    config = OptimizerConfig(restarts=6, seed=0, general_corr=True)
    result = maximize_instruments(w_ocb(), 0.5, config)
    assert result.value >= analytic_max_dbit(0.5) - 1e-4
    npt.assert_allclose(result.bob.measure, np.zeros(3), atol=1e-15)
    npt.assert_allclose(result.bob.encode, np.zeros(3), atol=1e-15)
    singular = np.linalg.svd(result.bob.corr, compute_uv=False)
    npt.assert_allclose(singular[0], 1.0, atol=1e-9)
    assert singular[1] <= 1e-8  # rank one


def test_ansatz_search_reaches_the_family_ceiling():
    result = maximize_ansatz(0.5, FAST)
    ceiling = 0.25 * (2.0 + np.sqrt(2.0))
    assert result.value >= ceiling - 1e-4
    assert result.value <= ceiling + 1e-7
    assert result.feasible
    assert _gauge(result.coefficients) <= 1.0 + 1e-9
    npt.assert_allclose(np.linalg.norm(result.axis), 1.0, atol=1e-9)
    candidate, report = w_ansatz(*result.coefficients)
    assert report.is_valid


def test_ansatz_search_reports_the_iteration_cap():
    config = OptimizerConfig(restarts=2, max_iters=50, seed=0)
    result = maximize_ansatz(0.6, config)
    assert result.iterations == len(result.trace) - 1 == config.max_iters
    assert not result.converged
    fast_decay = OptimizerConfig(restarts=2, decay=0.5, seed=0)
    settled = maximize_ansatz(0.6, fast_decay)
    assert settled.converged
    assert settled.iterations < fast_decay.max_iters


def test_ansatz_min_eigenvalue_matches_dense_algebra():
    rng = np.random.default_rng(13)
    for _ in range(40):
        coeffs = rng.uniform(-1.0, 1.0, 6)
        if rng.uniform() < 0.5:
            coeffs /= max(_gauge(coeffs), 1.0)  # sometimes inside, sometimes out
        candidate, _ = w_ansatz(*coeffs)
        dense = hermitian_eigenvalues(candidate.matrix).min()
        npt.assert_allclose(ansatz_min_eigenvalue(coeffs), dense, atol=1e-10)


def test_ansatz_feasibility_is_the_gauge_ball():
    inside = np.array([0.5, 0.3, 0.1, 0.0, 0.05, 0.0])
    inside /= max(_gauge(inside), 1.0) * 1.01
    assert w_ansatz(*inside)[1].is_valid
    outside = inside / _gauge(inside) * 1.2
    assert not w_ansatz(*outside)[1].is_valid


def test_threshold_bisection_brackets_the_crossing():
    # Mechanics only: a light config biases the crossing by the search
    # shortfall, so the tolerance here is loose on purpose.
    light = OptimizerConfig(restarts=4, max_iters=800, seed=0)
    value = threshold_alpha(light, lo=0.65, hi=0.75, xtol=1e-3)
    assert abs(value - 1.0 / np.sqrt(2.0)) < 2e-2


def test_threshold_requires_a_sign_change():
    light = OptimizerConfig(restarts=2, max_iters=300, seed=0)
    with pytest.raises(RuntimeError, match="bracket"):
        threshold_alpha(light, lo=0.9, hi=0.94, xtol=1e-2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"xtol": 0.0},
        {"xtol": -1e-3},
        {"xtol": np.nan},
        {"xtol": np.inf},
        {"lo": 0.75, "hi": 0.65},
        {"lo": 0.7, "hi": 0.7},
    ],
)
def test_threshold_rejects_bad_brackets(kwargs):
    with pytest.raises(ValueError):
        threshold_alpha(OptimizerConfig(restarts=1, max_iters=1), **kwargs)


def test_threshold_stops_when_the_bracket_cannot_shrink(monkeypatch):
    # A flat family at its ceiling crosses the causal bound exactly at
    # 1/sqrt(2); an xtol below the float spacing there must still end.
    ceiling = 0.25 * (2.0 + np.sqrt(2.0))
    flat = lambda alpha, config: optimizer.OptimizationResult(ceiling, (ceiling,), True, False)
    monkeypatch.setattr(optimizer, "maximize_ansatz", flat)
    value = threshold_alpha(xtol=1e-300)
    assert abs(value - 1.0 / np.sqrt(2.0)) <= 1e-15


def test_trace_ends_where_the_winning_restart_retired():
    config = OptimizerConfig(restarts=16, seed=0)
    result = maximize_instruments(w_ocb(), 0.6, config)
    trace = np.array(result.trace)
    last_move = int(np.flatnonzero(np.diff(trace))[-1]) + 1
    # After its last accepted move a restart retires once the step has
    # decayed below 1e-9, which takes at most this many rejections.
    to_retire = math.ceil(math.log(1e-9 / config.initial_step) / math.log(config.decay))
    assert result.converged
    assert result.iterations == len(result.trace) - 1
    assert result.iterations - last_move <= to_retire
