import numpy as np
import numpy.testing as npt
import pytest

from causalgame import simplex
from causalgame.simplex import FeasibilityResult, phase_one


def test_feasible_system_returns_a_feasible_point():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    result = phase_one(a, b)
    assert result.converged
    assert result.objective <= 1e-11
    assert (result.solution >= -1e-12).all()
    npt.assert_allclose(a @ result.solution, b, atol=1e-10)


def test_infeasible_system_yields_a_farkas_certificate():
    # Rows force x0 = 1 and x0 = -1 simultaneously.
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([1.0, -1.0])
    result = phase_one(a, b)
    assert result.converged
    assert result.objective > 1e-6
    y = result.certificate
    assert (y @ a <= 1e-9).all()
    assert y @ b > 1e-9


def test_unit_columns_start_in_the_basis():
    # Columns 0 and 1 are e_0 and e_1 with b >= 0: the slack basis is optimal.
    a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    result = phase_one(a, np.array([1.0, 2.0]))
    assert result.converged
    assert result.iterations == 0
    npt.assert_array_equal(result.solution, [1.0, 2.0, 0.0])


def test_row_with_negative_rhs_keeps_its_artificial():
    # Column 0 is e_0 but b_0 < 0, so row 0 starts on its artificial and
    # the solve has to pivot it out; row 1 starts on column 1.
    a = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
    b = np.array([-1.0, 2.0])
    result = phase_one(a, b)
    assert result.converged
    assert result.iterations >= 1
    assert result.objective <= 1e-11
    assert (result.solution >= -1e-12).all()
    npt.assert_allclose(a @ result.solution, b, atol=1e-10)


def test_negative_right_hand_side_is_handled():
    a = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b = np.array([-2.0, 3.0])
    result = phase_one(a, b)
    assert result.objective <= 1e-11
    npt.assert_allclose(a @ result.solution, b, atol=1e-10)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="incompatible shapes"):
        phase_one(np.eye(3), np.ones(2))


def _random_feasible_systems():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.standard_normal((6, 15))
        x_true = rng.uniform(0.0, 1.0, 15)
        yield a, a @ x_true


def _random_infeasible_systems():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.standard_normal((6, 15))
        y = rng.standard_normal(6)
        # Make y.a_j <= 0 for every column; then no b with y.b > 0 is reached.
        a -= 1.5 * np.outer(y, np.maximum(y @ a, 0.0)) / (y @ y)
        b = rng.standard_normal(6)
        b *= np.sign(y @ b)
        yield a, b


def test_random_feasible_systems_recovered():
    for a, b in _random_feasible_systems():
        result = phase_one(a, b)
        assert result.objective <= 1e-9
        npt.assert_allclose(a @ result.solution, b, atol=1e-8)


def test_random_infeasible_systems_yield_certificates():
    for a, b in _random_infeasible_systems():
        result = phase_one(a, b)
        assert result.converged
        assert result.objective > 1e-9
        assert (result.certificate @ a <= 1e-9).all()
        assert result.certificate @ b > 1e-9


def test_result_is_frozen():
    result = FeasibilityResult(0.0, np.zeros(1), np.zeros(1), 0, True)
    with pytest.raises(AttributeError):
        result.objective = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["a", "b"])
def test_non_finite_input_is_refused(name, bad):
    system = {"a": np.array([[1.0, 0.5], [0.0, 1.0]]), "b": np.array([1.0, 1.0])}
    system[name][-1] = bad
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        phase_one(system["a"], system["b"])


def test_inputs_are_left_unchanged():
    # The negative entry of b makes its artificial column -e_0.
    a = np.array([[-1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
    b = np.array([-2.0, 3.0])
    a_before, b_before = a.copy(), b.copy()
    result = phase_one(a, b)
    assert result.objective <= 1e-11
    npt.assert_array_equal(a, a_before)
    npt.assert_array_equal(b, b_before)


def test_iteration_limit_reports_no_convergence(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERS", 1)
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    result = phase_one(a, np.array([1.0, 2.0, 3.0]))
    assert not result.converged
    assert result.iterations == 1


def test_ties_on_price_enter_the_lowest_index(monkeypatch):
    # Columns 2-21 all price at 2, above the first two; SIMD sorts of more
    # than 16 equal keys put them in an order that depends on the CPU.
    monkeypatch.setattr(simplex, "MAX_ITERS", 1)
    top = 0.5 + np.arange(20) / 16  # exact binary fractions, so every sum is exactly 2
    tied = np.vstack([top, 2.0 - top])
    a = np.hstack([np.full((2, 2), 0.5), tied])
    result = phase_one(a, np.array([1.0, 1.0]))
    assert result.iterations == 1
    assert np.flatnonzero(result.solution).tolist() == [2]


def test_a_top_priced_column_without_a_pivot_entry_is_passed_over(monkeypatch):
    # Column 0 prices highest, 1.6e-11, but no entry of it clears PIVOT_TOL;
    # column 1 prices lower and has one that does, so it enters.
    monkeypatch.setattr(simplex, "MAX_ITERS", 1)
    a = np.array([[0.8e-11, 1.2e-11], [0.8e-11, 0.2e-11]])
    result = phase_one(a, np.array([1.0, 1.0]))
    assert result.iterations == 1
    assert np.flatnonzero(result.solution).tolist() == [1]


def test_blands_rule_from_the_first_pivot_reaches_the_same_verdicts(monkeypatch):
    systems = [*_random_feasible_systems(), *_random_infeasible_systems()]
    default = [phase_one(a, b) for a, b in systems]
    monkeypatch.setattr(simplex, "STALL_PIVOTS", 0)
    bland = [phase_one(a, b) for a, b in systems]
    assert [r.iterations for r in bland] != [r.iterations for r in default]
    for (a, b), before, after in zip(systems, default, bland):
        assert after.converged
        assert (after.objective <= 1e-9) == (before.objective <= 1e-9)
        if after.objective <= 1e-9:
            assert (after.solution >= -1e-12).all()
            npt.assert_allclose(a @ after.solution, b, atol=1e-8)
        else:
            assert (after.certificate @ a <= 1e-9).all()
            assert after.certificate @ b > 1e-9
