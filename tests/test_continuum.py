"""Continuum front profile against closed-form and quadrature oracles."""

from decimal import Decimal, localcontext

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
    polynomial_potential,
    quadratic_force_potential,
    solve_R0,
    suggest_half_length,
)
from fput_fronts import continuum
from fput_fronts.continuum import (
    _dop853,
    _gap_rhs,
    decay_rates,
    solver_grid,
)
from fput_fronts.front_solver import continuation_sweep, solve_front
from fput_fronts.grids import grid_for, max_spacing
from oracles import position_of_level


@pytest.fixture(scope="module")
def logistic_solution():
    return solve_R0(quadratic_force_potential())


@pytest.fixture(scope="module")
def hertz_solution():
    return solve_R0(hertz_potential())


def _untagged(pot):
    """The same cores without the power tag: its R0 takes solve_ivp's DOP853."""
    return Potential(pot._phi, pot._dphi, pot._d2phi, pot.r_plus, pot.r_minus, gap_core=pot.gap_core)


@pytest.fixture(scope="module")
def logistic_stepper():
    return solve_R0(_untagged(quadratic_force_potential()))


@pytest.fixture(scope="module")
def hertz_stepper():
    return solve_R0(_untagged(hertz_potential()))


def _renormalized_quartic():
    return polynomial_potential([0.1, 0.7, 1.3, 0.4, 0.2], r_plus=0.2, r_minus=1.7).renormalize()[0]


@pytest.fixture(scope="module")
def cubic_stepper():
    # 0.5 r + 0.8 r^2 - 0.3 r^3: normalized, nonconvex, with no power tag
    return solve_R0(polynomial_potential([0.0, 0.5, 0.8, -0.3]))


@pytest.fixture(scope="module")
def quartic_stepper():
    return solve_R0(_renormalized_quartic())


@pytest.fixture(scope="module")
def user_stepper():
    # no gap_core: the gap branch takes the quadrature right-hand side
    return solve_R0(Potential(lambda r: r**3 / 3.0, lambda r: r * r, lambda r: 2.0 * r))


_SOLUTIONS = {
    "quadratic": "logistic_solution",
    "hertz": "hertz_solution",
    "cubic": "cubic_stepper",
    "quartic": "quartic_stepper",
}
_STEPPERS = {
    "quadratic": "logistic_stepper",
    "hertz": "hertz_stepper",
    "cubic": "cubic_stepper",
    "quartic": "quartic_stepper",
    "user": "user_stepper",
}


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


def _closed_form(alpha, x):
    """R0 and Q = 1 - R0 of dphi = r^alpha at each x, in 60-digit decimal arithmetic.

    R0 = (1 + B e^(k x))^(-1/k) with k = alpha - 1 and B = 2^k - 1; at 60
    digits both round to the nearest double, the gap included, which falls
    to about 1e-35 at x = -40 for alpha = 3.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        k = Decimal(alpha) - 1
        B = (k * Decimal(2).ln()).exp() - 1
        R = [(-(1 + B * (k * Decimal(v)).exp()).ln() / k).exp() for v in np.asarray(x).tolist()]
    return np.array([float(r) for r in R]), np.array([float(1 - r) for r in R])


# the unit power laws r^alpha, with quadratic_force_potential as alpha = 2
_POWER_LAWS = {
    1.1: lambda: hertz_potential(1.1),
    1.2: lambda: hertz_potential(1.2),
    1.5: lambda: hertz_potential(1.5),
    2.0: quadratic_force_potential,
    3.0: lambda: hertz_potential(3.0),
}
_GRID_STRIDE = 8  # every 8th grid point: the decimal reference costs about 0.15 ms a point


def _closed_form_errors(sol, alpha):
    """sup |R0 - exact|, and the relative errors of R0 on x >= 0 and of Q on x <= 0.

    Taken over every 8th grid point and every knot midpoint of both tables.
    """
    x = sol.grid.x[::_GRID_STRIDE]
    gap_knots, right_knots = sol._gap_table.knots, sol._right_table.knots
    left = np.concatenate([x[x <= 0.0], 0.5 * (gap_knots[1:] + gap_knots[:-1])])
    right = np.concatenate([x[x >= 0.0], 0.5 * (right_knots[1:] + right_knots[:-1])])
    _, Q = _closed_form(alpha, left)
    R, _ = _closed_form(alpha, right)
    sup_abs = max(np.max(np.abs(sol.gap(left) - Q)), np.max(np.abs(sol(right) - R)))
    return sup_abs, np.max(np.abs(sol(right) / R - 1.0)), np.max(np.abs(sol.gap(left) / Q - 1.0))


class TestClosedForm:
    """R0 of dphi = r^alpha against (1 + B e^(k x))^(-1/k), for both table sources."""

    @pytest.mark.parametrize("alpha", list(_POWER_LAWS))
    def test_stepper_within_its_global_error(self, alpha):
        # the same cores without the tag: DOP853 at rtol 1e-13
        sol = solve_R0(_untagged(_POWER_LAWS[alpha]()))
        assert sol._right_table.nfev > 0
        sup_abs, right_rel, gap_rel = _closed_form_errors(sol, alpha)
        assert sup_abs <= 4e-13
        assert right_rel <= 3.5e-11
        assert gap_rel <= 4e-12

    @pytest.mark.parametrize("alpha", list(_POWER_LAWS))
    def test_tables_from_the_closed_form(self, alpha, monkeypatch):
        def no_ode(*args):
            raise AssertionError("an ODE step ran")

        monkeypatch.setattr(continuum, "_dop853", no_ode)
        pot = _POWER_LAWS[alpha]()
        assert pot.power == alpha
        sol = solve_R0(pot)
        sup_abs, right_rel, gap_rel = _closed_form_errors(sol, alpha)
        # segments of width 0.125 / rate interpolate to rounding (about 1e-16
        # relative at degree 7), beside the closed form's own few ulp
        assert sup_abs <= 1e-15
        assert right_rel <= 1.5e-15
        assert gap_rel <= 4e-15
        R, _ = _closed_form(alpha, sol.grid.x[::_GRID_STRIDE])
        assert np.max(np.abs(sol.values[::_GRID_STRIDE] / R - 1.0)) <= 1e-15


class TestContract:
    # the residual differentiates the tables' own polynomials: the closed
    # form's tables solve the ODE to a few 1e-14, the stepper's dense output
    # to its tolerance.  1e-12 fails a 5-point difference quotient, whose
    # truncation error at d = 5e-3 is 5e-12 on the logistic front
    @pytest.mark.parametrize(
        "fixture, bound",
        [("logistic_solution", 1e-12), ("hertz_solution", 1e-12),
         ("logistic_stepper", 1e-10), ("hertz_stepper", 1e-10)],
        ids=["quadratic", "hertz", "quadratic-stepper", "hertz-stepper"],
    )
    def test_residual(self, fixture, bound, request):
        assert request.getfixturevalue(fixture).residual() <= bound

    def test_table_derivative_is_the_logistic_slope(self, logistic_solution):
        """R0' = -R0 (1 - R0) for the logistic front, from either table."""
        sol = logistic_solution
        x = np.linspace(-sol.L, sol.L, 2001)
        R = 1.0 / (1.0 + np.exp(x))
        left = x < 0.0
        slope = np.where(
            left,
            -sol._gap_table.derivative(np.minimum(x, 0.0)),
            sol._right_table.derivative(np.maximum(x, 0.0)),
        )
        assert np.max(np.abs(slope + R * (1.0 - R))) <= 1e-13

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
        # one retry at the suggested half-length settles, for a fast tail
        # (quad) and for hertz 1.1, whose left rate is 0.1
        for pot, grid in (
            (quadratic_force_potential(), UniformGrid(10.0, 512)),
            (hertz_potential(1.1), UniformGrid(60.0, 4096)),
        ):
            with pytest.raises(DomainTooSmallError) as exc:
                solve_R0(pot, grid=grid)
            L = exc.value.suggested_L
            assert L > grid.L + 5.0
            sol = solve_R0(pot, grid=grid_for(L, max_spacing(0.0)))
            assert sol(L) <= 1e-8 and sol.gap(-L) <= 1e-8

    @pytest.mark.parametrize(
        "solve",
        [
            solve_R0,
            lambda pot: solve_front(pot, 0.1),
            lambda pot: continuation_sweep(pot, [0.2, 0.1]),
            solver_grid,
        ],
        ids=["solve_R0", "solve_front", "continuation_sweep", "solver_grid"],
    )
    def test_rejects_unnormalized(self, solve):
        # decay_rates is the one gate: every entry point names the field
        with pytest.raises(ConfigError, match=r"field r_minus must be 1, got 2\.0 \("):
            solve(hertz_potential(1.5, r_minus=2.0))

    def test_rejects_degenerate_rates(self):
        with pytest.raises(ConfigError):
            solve_R0(linear_force_potential())

    @pytest.mark.parametrize("grid", [None, UniformGrid(240.0, 131072)], ids=["auto", "pinned"])
    def test_rejects_force_meeting_its_chord_before_any_ode_step(self, grid, monkeypatch):
        # dphi(r) - r = r (r - 0.3)(r - 0.6)(r - 1): the end slopes pass
        # (p_plus 0.82, p_minus 1.28) but no front joins 1 and 0
        quartic = polynomial_potential([0.0, 0.82, 1.08, -1.9, 1.0])

        def no_ode(*args):
            raise AssertionError("an ODE step ran")

        monkeypatch.setattr(continuum, "_dop853", no_ode)
        with pytest.raises(ConfigError, match=r"meets its chord at r = 0\.30044 "):
            solve_R0(quartic, grid=grid)

    def test_admits_a_force_just_below_its_chord(self):
        # dphi(r) - r = -1e-3 r (1 - r): nearly linear, but below the chord
        pot = polynomial_potential([0.0, 0.999, 0.001])
        assert decay_rates(pot) == pytest.approx((0.001, 0.001), abs=1e-15)


class TestQuadratureInversion:
    """x(R) by quadrature of 1/(dphi - id) must land back on the profile.

    The quadrature uses no ODE integrator, so it checks the closed form
    (quadratic, hertz) and solve_ivp's tables (cubic, quartic) alike.
    """

    @pytest.mark.parametrize("name", list(_SOLUTIONS))
    def test_twenty_interior_levels(self, name, request):
        sol = request.getfixturevalue(_SOLUTIONS[name])
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
        S0 = hertz_solution.slope
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

    SOURCES = {
        "quadratic": "logistic_solution",
        "hertz": "hertz_solution",
        "quadratic-stepper": "logistic_stepper",
        "hertz-stepper": "hertz_stepper",
    }

    @pytest.fixture(params=list(SOURCES))
    def sol(self, request):
        return request.getfixturevalue(self.SOURCES[request.param])

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
    """The tables are ``solve_ivp``'s DOP853 run on the same right-hand side.

    Same knots and evaluation count, and the tables give its dense output
    bit for bit, at every knot and between.
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
        assert table.knots.size == ref.t.size
        assert table.nfev == ref.nfev
        for points in (ref.t, x):
            assert _same_bits(table(points), ref.sol(points)[0])
            assert _same_bits(evaluate(points), ref.sol(points)[0])

    @pytest.mark.parametrize("name", list(_STEPPERS))
    def test_right_branch_matches_array_rhs(self, name, request):
        sol = request.getfixturevalue(_STEPPERS[name])
        pot = sol.potential
        self.check_against_solve_ivp(
            sol._right_table,
            lambda r: pot.dphi(r) - r,
            sol.L,
            sol,
            np.linspace(0.0, sol.L, 20001),
        )

    @pytest.mark.parametrize("name", list(_STEPPERS))
    def test_gap_branch_matches_solve_ivp(self, name, request):
        sol = request.getfixturevalue(_STEPPERS[name])
        self.check_against_solve_ivp(
            sol._gap_table,
            _gap_rhs(sol.potential),
            -sol.L,
            sol.gap,
            np.linspace(-sol.L, 0.0, 20001),
        )


class TestStepper:
    # y' = 1/(1 - y) has no solution past y = 1.  From 0 the controller's
    # error norm overflows at the first step; from 0.5 the solution blows
    # up at t = 1/8 and the step size collapses there
    @pytest.mark.parametrize("y0", [0.0, 0.5])
    def test_step_too_small_raises(self, y0):
        with pytest.raises(DomainTooSmallError) as exc:
            _dop853(lambda y: 1.0 / (1.0 - y), 5.0, y0)
        assert exc.value.suggested_L == 10.0

    def test_dense_output_of_exponential(self):
        table = _dop853(lambda y: -y, 30.0, 1.0)
        x = np.linspace(0.0, 30.0, 3001)
        assert np.max(np.abs(table(x) / np.exp(-x) - 1.0)) <= 1e-11
        assert table.knots[0] == 0.0 and table.knots[-1] == 30.0


class TestRenormalizedPolynomial:
    def test_right_branch_keeps_its_step_to_L(self):
        # raw dphi(r_plus) != 0: the unit force must still keep its relative
        # accuracy as R goes to 0, or the right branch's step collapses
        # past x = 22 (millions of evaluations to L = 40)
        pot = _renormalized_quartic()
        assert pot.is_normalized
        L = solver_grid(pot).L
        assert L == 40.0

        def rhs(r):
            return pot.dphi(r) - r

        assert _dop853(rhs, L, 0.5).nfev <= 3 * _dop853(rhs, 20.0, 0.5).nfev
        sol = solve_R0(pot)
        assert sol(L) <= 1e-8 and sol.gap(-L) <= 1e-8


class TestUserCoreFallback:
    """A core without a closed-form gap force integrates through quadrature."""

    def test_user_core_matches_builtin(self, logistic_stepper, monkeypatch):
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
        ref = logistic_stepper.gap(x)
        assert np.max(np.abs(sol.gap(x) - ref) / ref) <= 1e-11
