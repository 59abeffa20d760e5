"""Continuum front profile against closed-form and quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fput_fronts import (
    ConfigError,
    DomainTooSmallError,
    Potential,
    UniformGrid,
    hertz_potential,
    linear_force_potential,
    position_of_level,
    quadratic_force_potential,
    solve_R0,
    suggest_half_length,
)
from fput_fronts.continuum import _dop853, _gap_rhs, _tableau


@pytest.fixture(scope="module")
def logistic_solution():
    return solve_R0(quadratic_force_potential())


@pytest.fixture(scope="module")
def hertz_solution():
    return solve_R0(hertz_potential())


class TestLogisticOracle:
    """For force law R^2 the continuum front is exactly 1/(1 + exp(x))."""

    def test_profile_on_grid(self, logistic_solution):
        sol = logistic_solution
        exact = 1.0 / (1.0 + np.exp(sol.grid.x))
        assert np.max(np.abs(sol.values - exact)) <= 1e-10

    def test_dense_profile_off_grid(self, logistic_solution):
        x = np.linspace(-30.0, 30.0, 1234)
        exact = 1.0 / (1.0 + np.exp(x))
        assert np.max(np.abs(logistic_solution(x) - exact)) <= 1e-10

    def test_midpoint(self, logistic_solution):
        assert abs(logistic_solution(0.0) - 0.5) <= 1e-10


class TestContract:
    @pytest.mark.parametrize("name", ["quadratic", "hertz"])
    def test_residual(self, name, logistic_solution, hertz_solution):
        sol = logistic_solution if name == "quadratic" else hertz_solution
        assert sol.residual() <= 1e-10

    @pytest.mark.parametrize("name", ["quadratic", "hertz"])
    def test_strictly_decreasing_and_bounded(self, name, logistic_solution, hertz_solution):
        """Strict monotonicity and bounds, tested in representable variables.

        Near the left end 1 - R0 drops below machine epsilon, so R0 itself
        saturates at 1.0 in doubles; there the exact statement lives in the
        gap variable, which the solution tracks directly.
        """
        sol = logistic_solution if name == "quadratic" else hertz_solution
        xs = np.linspace(-sol.L, sol.L, 20001)
        right = sol(xs[xs >= 0])
        assert np.all(np.diff(right) < 0)
        assert np.all(right > 0)
        gap = sol.gap(xs[xs <= 0])
        assert np.all(np.diff(gap) > 0)
        assert np.all(gap > 0)
        mids = sol(xs[np.abs(xs) <= 25])
        assert np.all(np.diff(mids) < 0)

    @pytest.mark.parametrize("name", ["quadratic", "hertz"])
    def test_boundary_settled(self, name, logistic_solution, hertz_solution):
        sol = logistic_solution if name == "quadratic" else hertz_solution
        end_r = sol(sol.L)
        end_l = 1.0 - sol(-sol.L)
        assert end_r <= 1e-8
        assert end_l <= 1e-8
        # tails track the linearized rates up to a modest constant
        assert end_r <= max(100.0 * np.exp(-sol.m_plus * sol.L), 1e-14)
        assert end_l <= max(100.0 * np.exp(-sol.m_minus * sol.L), 1e-14)

    def test_domain_too_small_reports_suggestion(self):
        with pytest.raises(DomainTooSmallError) as exc:
            solve_R0(quadratic_force_potential(), grid=UniformGrid(10.0, 512))
        assert exc.value.suggested_L > 15.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ConfigError):
            solve_R0(hertz_potential(r_minus=4.0))

    def test_rejects_degenerate_rates(self):
        with pytest.raises(ConfigError):
            solve_R0(linear_force_potential())


class TestQuadratureInversion:
    """x(R) by quadrature of 1/(dphi - id) must land back on the profile."""

    @pytest.mark.parametrize("name", ["quadratic", "hertz"])
    def test_twenty_interior_levels(self, name, logistic_solution, hertz_solution):
        sol = logistic_solution if name == "quadratic" else hertz_solution
        for level in np.linspace(0.05, 0.95, 20):
            x = position_of_level(sol.potential, level)
            assert abs(sol(x) - level) <= 1e-8

    def test_logistic_closed_form(self):
        pot = quadratic_force_potential()
        for level in (0.1, 0.3, 0.7, 0.9):
            assert position_of_level(pot, level) == pytest.approx(
                np.log((1 - level) / level), abs=1e-12
            )


class TestLinearization:
    @pytest.mark.parametrize("name", ["quadratic", "hertz"])
    def test_limits_at_ends(self, name, logistic_solution, hertz_solution):
        sol = logistic_solution if name == "quadratic" else hertz_solution
        pot = sol.potential
        P = pot.d2phi(sol.values)
        assert abs(P[0] - pot.p_minus) <= 1e-6
        assert abs(P[-1] - pot.p_plus) <= 1e-6

    def test_slope_profile_positive(self, hertz_solution):
        S0 = hertz_solution.slope_profile()
        assert np.all(S0 >= 0)
        assert np.trapezoid(S0, dx=hertz_solution.grid.h) == pytest.approx(1.0, abs=1e-6)


class TestHalfLength:
    def test_defaults(self):
        assert suggest_half_length(quadratic_force_potential()) == 40.0
        assert suggest_half_length(hertz_potential()) == 40.0
        assert suggest_half_length(hertz_potential(alpha=1.2)) == pytest.approx(100.0)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPackedEvaluator:
    """The packed segment tables reproduce scipy's dense output bit for bit."""

    @pytest.fixture(params=["quadratic", "hertz"])
    def sol(self, request, logistic_solution, hertz_solution):
        return logistic_solution if request.param == "quadratic" else hertz_solution

    @staticmethod
    def probe(sol):
        knots = np.concatenate([sol._gap_table.knots, sol._right_table.knots, [-sol.L, sol.L]])
        near = np.concatenate(
            [np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf)]
        )
        beyond = np.array([-sol.L - 1e-9, sol.L + 1e-9, -sol.L - 7.0, sol.L + 7.0])
        return np.concatenate([knots, near, beyond, [0.0, -0.0]])

    @pytest.mark.parametrize("method", ["__call__", "gap"])
    def test_knots_tails_and_zeros(self, sol, method, dense_reference):
        x = self.probe(sol)
        got = getattr(sol, method)(x)
        assert _same_bits(got, dense_reference(sol, x, gap=method == "gap"))

    @pytest.mark.parametrize("method", ["__call__", "gap"])
    def test_unsorted_input(self, sol, method, dense_reference):
        rng = np.random.default_rng(3)
        x = np.concatenate([self.probe(sol), rng.uniform(-1.2 * sol.L, 1.2 * sol.L, 50000)])
        x = rng.permutation(x)
        got = getattr(sol, method)(x)
        assert _same_bits(got, dense_reference(sol, x, gap=method == "gap"))

    def test_scalars_return_float(self, sol, ode_solution):
        for x0 in (-7.25, -0.0, 0.0, 3.5, sol.L, -sol.L - 2.0, sol.L + 2.0):
            value, gap = sol(x0), sol.gap(x0)
            assert type(value) is float and type(gap) is float
        sol_gap, sol_right = ode_solution(sol._gap_table), ode_solution(sol._right_table)
        assert sol(3.5) == float(sol_right(3.5)[0])
        assert sol.gap(-7.25) == float(sol_gap(-7.25)[0])
        assert sol(-7.25) == 1.0 - float(sol_gap(-7.25)[0])
        assert sol.gap(0.0) == float(sol_gap(0.0)[0])
        assert sol(0.0) == float(sol_right(0.0)[0])

    def test_shape_is_kept(self, sol, dense_reference):
        x = np.linspace(-sol.L - 1.0, sol.L + 1.0, 24).reshape(4, 6)
        got = sol(x)
        assert got.shape == (4, 6)
        assert _same_bits(got.ravel(), dense_reference(sol, x.ravel()))


class TestRightHandSide:
    """The float DOP853 stepper integrates as ``solve_ivp`` does on the same RHS.

    Same tableau and controller, so the accepted steps and evaluation counts
    agree; the sums are in a different order, so values agree to rounding.
    """

    @staticmethod
    def check_against_solve_ivp(table, rhs, t_bound, evaluate, x):
        ref = solve_ivp(
            lambda _, y: [rhs(float(y[0]))],
            (0.0, t_bound),
            [0.5],
            method="DOP853",
            rtol=1e-13,
            atol=1e-300,
            dense_output=True,
        )
        assert abs(table.knots.size - ref.t.size) <= 0.01 * ref.t.size
        assert abs(table.nfev - ref.nfev) <= 0.01 * ref.nfev
        want = ref.sol(x)[0]
        assert np.max(np.abs(evaluate(x) - want) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("name", ["quadratic", "hertz"])
    def test_right_branch_matches_array_rhs(self, name, logistic_solution, hertz_solution):
        sol = logistic_solution if name == "quadratic" else hertz_solution
        pot = sol.potential
        self.check_against_solve_ivp(
            sol._right_table,
            lambda r: pot.dphi(r) - r,
            sol.L,
            sol,
            np.linspace(0.0, sol.L, 20001),
        )

    @pytest.mark.parametrize("name", ["quadratic", "hertz"])
    def test_gap_branch_matches_solve_ivp(self, name, logistic_solution, hertz_solution):
        sol = logistic_solution if name == "quadratic" else hertz_solution
        self.check_against_solve_ivp(
            sol._gap_table,
            _gap_rhs(sol.potential),
            -sol.L,
            sol.gap,
            np.linspace(-sol.L, 0.0, 20001),
        )


class TestStepper:
    def test_tableau_is_consistent(self):
        """A scipy upgrade that moves or changes the DOP853 tableau fails here."""
        assert _tableau.N_STAGES == 12 and _tableau.N_STAGES_EXTENDED == 16
        assert _tableau.A.shape == (16, 16) and _tableau.D.shape == (4, 16)
        assert _tableau.B.shape == (12,) and _tableau.E3.shape == _tableau.E5.shape == (13,)
        assert np.allclose(_tableau.C, _tableau.A.sum(axis=1), rtol=0.0, atol=4e-15)
        assert abs(_tableau.B.sum() - 1.0) <= 4e-15
        assert np.array_equal(_tableau.A[_tableau.N_STAGES, :12], _tableau.B)

    def test_step_too_small_raises(self):
        # y' = 1/(1 - y) blows up at t = 1/2: the step size collapses
        with pytest.raises(DomainTooSmallError) as exc:
            _dop853(lambda y: 1.0 / (1.0 - y), 5.0, 0.0)
        assert exc.value.suggested_L == 10.0

    def test_dense_output_of_exponential(self):
        table = _dop853(lambda y: -y, 30.0, 1.0)
        x = np.linspace(0.0, 30.0, 3001)
        assert np.max(np.abs(table(x) / np.exp(-x) - 1.0)) <= 1e-11
        assert table.knots[0] == 0.0 and table.knots[-1] == 30.0


class TestUserCoreFallback:
    """A core without a closed-form gap force integrates through quadrature."""

    def test_user_core_matches_builtin(self, logistic_solution, monkeypatch):
        pot = Potential(lambda r: r**3 / 3.0, lambda r: r * r, lambda r: 2.0 * r)
        assert pot.gap_core is None
        calls = []
        d2phi = Potential.d2phi
        monkeypatch.setattr(
            Potential, "d2phi", lambda self, r: calls.append(np.size(r)) or d2phi(self, r)
        )
        sol = solve_R0(pot)
        assert set(calls) == {12}  # the 12-node quadrature, nothing else
        x = np.linspace(-sol.L, 0.0, 4001)
        ref = logistic_solution.gap(x)
        assert np.max(np.abs(sol.gap(x) - ref) / ref) <= 1e-11
