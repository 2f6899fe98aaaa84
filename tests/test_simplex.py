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


def test_random_feasible_systems_recovered():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.standard_normal((6, 15))
        x_true = rng.uniform(0.0, 1.0, 15)
        b = a @ x_true
        result = phase_one(a, b)
        assert result.objective <= 1e-9
        npt.assert_allclose(a @ result.solution, b, atol=1e-8)


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
