import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    ObservableSpec,
    alice_general,
    bob_general,
    causal_mixture,
    is_causal,
    joint_distribution,
    oracle,
    ordered_identity_channel_process,
    simplex,
)
from causalgame.simplex import FeasibilityResult, phase_one
from conftest import membership_tables


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


def _reference_phase_one(a, b):
    """``phase_one`` with every step on numpy arrays, the ratio test, basis
    and objective included: the reference it must match bit for bit."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    signs = np.where(b < 0.0, -1.0, 1.0)
    tableau = np.column_stack([np.diag(signs), b * signs])
    inverse, x_basic = tableau[:, :m], tableau[:, m]
    basis = np.arange(n, n + m)
    nonzero = a != 0.0
    rows = nonzero.argmax(axis=0)
    unit = (nonzero.sum(axis=0) == 1) & (a[rows, np.arange(n)] == 1.0) & (b[rows] >= 0.0)
    taken, first = np.unique(rows[unit], return_index=True)
    basis[taken] = np.flatnonzero(unit)[first]
    cost = (basis >= n).astype(float)
    at = np.ascontiguousarray(a.T)
    bland = False
    stall = 0
    last_objective = np.inf
    iterations = 0
    converged = False
    while True:
        priced = cost @ tableau
        duals, objective = priced[:m], priced[m]
        stall = stall + 1 if objective >= last_objective - 1e-15 else 0
        bland = bland or stall >= simplex.STALL_PIVOTS
        last_objective = objective
        prices = duals @ a
        j = int((prices > simplex.PIVOT_TOL).argmax() if bland else prices.argmax())
        if prices[j] <= simplex.PIVOT_TOL:
            converged = True
            break
        if iterations >= simplex.MAX_ITERS:
            break
        column = inverse @ at[j]
        rows = np.flatnonzero(column > simplex.PIVOT_TOL)
        if not rows.size:
            candidates = np.flatnonzero(prices > simplex.PIVOT_TOL)
            if not bland:
                candidates = candidates[np.argsort(-prices[candidates], kind="stable")]
            for j in candidates:
                column = inverse @ at[j]
                rows = np.flatnonzero(column > simplex.PIVOT_TOL)
                if rows.size:
                    break
            else:
                break
        ratios = x_basic[rows] / column[rows]
        ties = rows[ratios <= ratios.min() + 1e-15]
        pivot_row = int(ties[np.argmin(basis[ties])])
        tableau[pivot_row] /= column[pivot_row]
        column[pivot_row] = 0.0
        tableau -= column[:, None] * tableau[pivot_row]
        basis[pivot_row] = j
        cost[pivot_row] = 0.0
        iterations += 1
    solution = np.zeros(n + m)
    solution[basis] = x_basic
    return FeasibilityResult(float(objective), solution[:n], duals, iterations, converged, bland)


def _general_mixture_tables():
    """Ordered-process mixtures played with seeded general instruments: members."""
    rng = np.random.default_rng(43)

    def axis():
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    for _ in range(40):
        alice, bob = ObservableSpec(axis(), axis()), ObservableSpec(axis(), axis(), axis())
        mix = causal_mixture(
            ordered_identity_channel_process("b_to_a"),
            ordered_identity_channel_process("a_to_b"),
            float(rng.uniform(0.0, 1.0)),
        )
        yield joint_distribution(
            mix, lambda x, a: alice_general(x, a, alice), lambda y, b, bp: bob_general(y, b, bp, bob)
        ).table


def _near_degenerate_systems():
    """Right sides within 2e-15 of zero: the ratios differ by less than the
    1e-15 tie band, so the band and the tie-break decide the pivots."""
    rng = np.random.default_rng(47)
    for _ in range(20):
        yield rng.standard_normal((6, 15)), rng.uniform(-2e-15, 2e-15, 6)


def _dual_systems(tables):
    g, h, rhs = oracle._polytope()[:3]
    return [(np.vstack([g.T, h @ table.reshape(32)]), rhs) for table in tables]


def _systems_for_identity():
    return [
        *_random_feasible_systems(),
        *_random_infeasible_systems(),
        *_near_degenerate_systems(),
        *_dual_systems(membership_tables()),
        *_dual_systems(_general_mixture_tables()),
    ]


@pytest.mark.parametrize("stall_pivots", [simplex.STALL_PIVOTS, 0])
def test_every_result_field_equals_the_array_reference_bit_for_bit(monkeypatch, stall_pivots):
    monkeypatch.setattr(simplex, "STALL_PIVOTS", stall_pivots)
    systems = _systems_for_identity()
    assert len(systems) == 140
    for a, b in systems:
        result, reference = phase_one(a, b), _reference_phase_one(a, b)
        for name in ("solution", "certificate"):
            mine, theirs = getattr(result, name), getattr(reference, name)
            npt.assert_array_equal(mine, theirs, strict=True)
            assert mine.tobytes() == theirs.tobytes()  # the sign of a zero too
        assert result.iterations == reference.iterations
        assert result.converged is reference.converged
        assert result.bland is reference.bland
        assert type(result.objective) is float
        assert np.float64(result.objective).tobytes() == np.float64(reference.objective).tobytes()


def test_bland_reports_whether_blands_rule_took_over(monkeypatch):
    tables = list(membership_tables())
    systems = [*_random_feasible_systems(), *_random_infeasible_systems(), *_dual_systems(tables)]
    assert not any(phase_one(a, b).bland for a, b in systems)
    assert not any(is_causal(table).bland for table in tables)
    monkeypatch.setattr(simplex, "STALL_PIVOTS", 0)
    assert all(phase_one(a, b).bland for a, b in systems)
    assert all(is_causal(table).bland for table in tables)
