import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    NumericalIntegrityError,
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
from causalgame.optimizer import _ansatz_gradient, _ansatz_objective, _gauge_maximizer

CEILING = 0.25 * (2.0 + np.sqrt(2.0))

FAST = OptimizerConfig(restarts=8, seed=0)


def _gauge(c):
    c = np.asarray(c, dtype=float)
    heavy = np.abs(c[..., 0]) + np.abs(c[..., 3]) + np.abs(c[..., 5])
    return np.abs(c[..., 4]) + np.sqrt(c[..., 1] ** 2 + c[..., 2] ** 2 + heavy**2)


def test_config_guards():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="tol"):
        OptimizerConfig(tol=np.nan)
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
    capped = maximize_instruments(w_ocb(), 0.5, OptimizerConfig(restarts=2, max_iters=1, seed=0))
    assert capped.iterations == 1
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
    config = OptimizerConfig(restarts=2, max_iters=1, seed=0)
    result = maximize_ansatz(0.6, config)
    assert result.iterations == len(result.trace) - 1 == config.max_iters
    assert not result.converged


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
    light = OptimizerConfig(restarts=4, max_iters=800, seed=0)
    value = threshold_alpha(light, lo=0.65, hi=0.75, xtol=1e-3)
    assert abs(value - 1.0 / np.sqrt(2.0)) < 1e-3


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
    flat = lambda alpha, config: optimizer.OptimizationResult(ceiling, (ceiling,), True, False, ceiling)
    monkeypatch.setattr(optimizer, "maximize_ansatz", flat)
    value = threshold_alpha(xtol=1e-300)
    assert abs(value - 1.0 / np.sqrt(2.0)) <= 1e-15


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
