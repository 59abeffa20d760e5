"""Continuum front profile against closed-form and quadrature oracles."""

import math
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
    position_of_level,
    quadratic_force_potential,
    solve_R0,
    suggest_half_length,
)
from fput_fronts import continuum
from fput_fronts.continuum import (
    _ATOL,
    _ERROR_EXPONENT,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _RTOL,
    _SAFETY,
    _DenseTable,
    _dense_rows,
    _dop853,
    _gap_rhs,
    _initial_step,
    _tableau,
    decay_rates,
    solver_grid,
)
from fput_fronts.grids import grid_for, max_spacing


@pytest.fixture(scope="module")
def logistic_solution():
    return solve_R0(quadratic_force_potential())


@pytest.fixture(scope="module")
def hertz_solution():
    return solve_R0(hertz_potential())


def _untagged(pot):
    """The same cores without the power tag: its R0 takes the DOP853 stepper."""
    return Potential(pot._phi, pot._dphi, pot._d2phi, pot.r_plus, pot.r_minus, gap_core=pot.gap_core)


@pytest.fixture(scope="module")
def logistic_stepper():
    return solve_R0(_untagged(quadratic_force_potential()))


@pytest.fixture(scope="module")
def hertz_stepper():
    return solve_R0(_untagged(hertz_potential()))


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

    def test_rejects_unnormalized(self):
        with pytest.raises(ConfigError):
            solve_R0(hertz_potential(r_minus=4.0))

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
    def test_right_branch_matches_array_rhs(self, name, logistic_stepper, hertz_stepper):
        sol = logistic_stepper if name == "quadratic" else hertz_stepper
        pot = sol.potential
        self.check_against_solve_ivp(
            sol._right_table,
            lambda r: pot.dphi(r) - r,
            sol.L,
            sol,
            np.linspace(0.0, sol.L, 20001),
        )

    @pytest.mark.parametrize("name", ["quadratic", "hertz"])
    def test_gap_branch_matches_solve_ivp(self, name, logistic_stepper, hertz_stepper):
        sol = logistic_stepper if name == "quadratic" else hertz_stepper
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


def _dot(row, K):
    """sum(map(mul, row, K)) as Python 3.11 adds it: from 0, left to right.

    Written as a loop because ``sum`` compensates from Python 3.12 on.
    """
    total = 0
    for a, k in zip(row, K):
        total += a * k
    return total


def _reference_dop853(fun, t_bound, y0):
    """The loop-form DOP853 stepper: every stage sum over the full tableau row.

    The reference for ``continuum._dop853``, which writes the same sums as
    straight-line code without the zero terms; the two must agree bitwise.
    """
    n_stages = _tableau.N_STAGES
    A = [tuple(map(float, _tableau.A[s, :s])) for s in range(1, n_stages)]
    B, E3, E5 = (tuple(map(float, row)) for row in (_tableau.B, _tableau.E3, _tableau.E5))
    direction = 1.0 if t_bound > 0 else -1.0
    t, y = 0.0, y0
    f = fun(y)
    h_abs = _initial_step(fun, y, f, direction, abs(t_bound))
    nfev = 2
    knots, ys, stages = [t], [y], []
    while direction * (t - t_bound) < 0:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise DomainTooSmallError(
                    f"continuum integration failed: step size below {min_step:.3g} "
                    f"at x = {t}",
                    suggested_L=2 * abs(t_bound),
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            for a in A:
                K.append(fun(y + _dot(a, K) * h))
            y_new = y + h * _dot(B, K)
            f_new = fun(y_new)
            K.append(f_new)
            nfev += n_stages
            scale = _ATOL + max(abs(y), abs(y_new)) * _RTOL
            err5 = _dot(E5, K) / scale
            err3 = _dot(E3, K) / scale
            err5_2, err3_2 = err5 * err5, err3 * err3
            if err5_2 == 0.0 and err3_2 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_2 / math.sqrt(err5_2 + 0.01 * err3_2)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True

        stages.append(K)
        knots.append(t_new)
        ys.append(y_new)
        t, y, f = t_new, y_new, f_new

    h, y_old = np.diff(knots), np.array(ys[:-1])
    K = np.zeros((h.size, _tableau.N_STAGES_EXTENDED))
    K[:, : n_stages + 1] = stages
    for s in range(n_stages + 1, _tableau.N_STAGES_EXTENDED):
        args = y_old + (K[:, :s] @ _tableau.A[s, :s]) * h
        K[:, s] = [fun(v) for v in args.tolist()]
    nfev += (_tableau.N_STAGES_EXTENDED - n_stages - 1) * h.size
    return _DenseTable(knots, ys, _dense_rows(np.array(knots), np.array(ys), K), nfev)


_ORACLE_POTENTIALS = {
    "quadratic": quadratic_force_potential,
    "hertz1.1": lambda: hertz_potential(1.1),
    "hertz1.5": hertz_potential,
    "degree4": lambda: polynomial_potential(
        [0.1, 0.7, 1.3, 0.4, 0.2], r_plus=0.2, r_minus=1.7
    ).renormalize()[0],
    # no gap_core: the gap branch takes the quadrature right-hand side
    "user": lambda: Potential(lambda r: r**3 / 3.0, lambda r: r * r, lambda r: 2.0 * r),
}


class TestStepperOracle:
    """The straight-line stepper gives the loop-form reference's tables bit for bit."""

    @staticmethod
    def assert_same_table(table, ref):
        assert table.side == ref.side
        assert table.nfev == ref.nfev
        for name in ("knots", "t_old", "h", "y_old", "horner"):
            assert getattr(table, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("branch", ["gap", "right"])
    @pytest.mark.parametrize("name", list(_ORACLE_POTENTIALS))
    def test_tables_are_bitwise_equal(self, name, branch):
        pot = _ORACLE_POTENTIALS[name]()
        L = solver_grid(pot).L
        if branch == "gap":
            rhs, t_bound = _gap_rhs(pot), -L
        else:
            rhs, t_bound = (lambda r: pot.dphi(r) - r), L
        self.assert_same_table(_dop853(rhs, t_bound, 0.5), _reference_dop853(rhs, t_bound, 0.5))

    def test_blow_up_raises_the_same_error(self):
        # y' = 1/(1 - y) blows up at t = 1/2
        def rhs(y):
            return 1.0 / (1.0 - y)

        errors = []
        for stepper in (_dop853, _reference_dop853):
            with pytest.raises(DomainTooSmallError) as exc:
                stepper(rhs, 5.0, 0.0)
            errors.append((str(exc.value), exc.value.suggested_L))
        assert errors[0] == errors[1]


class TestRenormalizedPolynomial:
    def test_right_branch_keeps_its_step_to_L(self):
        # raw dphi(r_plus) != 0: the unit force must still keep its relative
        # accuracy as R goes to 0, or the right branch's step collapses
        # past x = 22 (millions of evaluations to L = 40)
        pot = polynomial_potential([0.1, 0.7, 1.3, 0.4, 0.2], r_plus=0.2, r_minus=1.7)
        pot = pot.renormalize()[0]
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
