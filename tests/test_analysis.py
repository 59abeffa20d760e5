"""Tail-rate fits, monotonicity, and the consolidated report."""

from types import SimpleNamespace

import numpy as np
import pytest

from fput_fronts import (
    hertz_potential,
    polynomial_potential,
    quadratic_force_potential,
    solve_front,
)
from fput_fronts.analysis import (
    WINDOW_HI,
    WINDOW_LO,
    consolidated_report,
    fit_decay_rates,
    monotonicity_check,
    normalization_check,
)
from fput_fronts.continuum import decay_rates
from fput_fronts.front_solver import continuation_sweep
from fput_fronts.grids import UniformGrid
from fput_fronts.spectral import find_pole


@pytest.fixture(scope="module")
def quad():
    return quadratic_force_potential()


@pytest.fixture(scope="module")
def quad_sol(quad):
    return solve_front(quad, 0.1)


@pytest.fixture(scope="module")
def hertz_sol():
    return solve_front(hertz_potential(1.5), 0.1)


@pytest.fixture(scope="module")
def logistic_sol(quad):
    return solve_front(quad, 0.0)


@pytest.fixture(scope="module")
def nonconvex_sol():
    """The unit form of a law whose force is not convex: 0.5r + 0.8r^2 - 0.3r^3."""
    raw = polynomial_potential([0.0, 0.75, 0.6, -0.1125], r_plus=0.0, r_minus=2.0)
    return solve_front(raw.renormalize()[0], 0.1)


@pytest.fixture(scope="module")
def hertz_zero():
    return solve_front(hertz_potential(1.5), 0.0)


# Hertz fronts whose slope S met the periodic seam when it was a spectral
# derivative of W: the wrap jump of W turned into a ripple at x = -L that
# grew like 1/h.
FINE_N = (8192, 32768, 65536)
SWEEP_EPS = (0.2, 0.1, 0.05)


@pytest.fixture(scope="module")
def hertz_fine():
    """Hertz eps 0.2 on pinned L = 40 grids, from the power of two above its default 6400 up."""
    pot = hertz_potential(1.5)
    return {N: solve_front(pot, 0.2, grid=UniformGrid(40.0, N)) for N in FINE_N}


@pytest.fixture(scope="module")
def hertz_sweep():
    """The benchmark's Hertz sweep, its members on N = 6400, 12800 and 25600."""
    sols = continuation_sweep(hertz_potential(1.5), SWEEP_EPS)
    return {s.eps: s for s in sols}


@pytest.fixture(scope="module")
def hertz_eps1():
    return solve_front(hertz_potential(1.5), 1.0)


class TestDecayRates:
    def test_logistic_tails_are_unit_rate(self, logistic_sol):
        rep = fit_decay_rates(logistic_sol)
        assert abs(rep.lambda_fit_minus - 1.0) <= 0.005
        assert abs(rep.lambda_fit_plus - 1.0) <= 0.005

    def test_quadratic_matches_pole_rates(self, quad_sol):
        rep = fit_decay_rates(quad_sol)
        assert rep.rel_err_minus <= 0.02
        assert rep.rel_err_plus <= 0.02
        assert rep.fit_r2 >= 0.999

    def test_hertz_right_tail_tracks_series(self, hertz_sol):
        rep = fit_decay_rates(hertz_sol)
        series = 1.0 - 0.1**2 / 12.0
        assert abs(rep.lambda_fit_plus - series) / series <= 0.02

    def test_windows_inside_magnitude_rule(self, quad_sol):
        rep = fit_decay_rates(quad_sol)
        x, S = quad_sol.grid.x, quad_sol.S
        smax = np.max(S)
        for lo, hi in (rep.window_minus, rep.window_plus):
            for edge in (lo, hi):
                val = S[np.argmin(np.abs(x - edge))]
                assert WINDOW_LO * smax < val < WINDOW_HI * smax

    def test_two_sided_boundedness(self, quad_sol, hertz_sol):
        for sol in (quad_sol, hertz_sol):
            rep = fit_decay_rates(sol)
            assert rep.bound_ratio_minus <= 10.0
            assert rep.bound_ratio_plus <= 10.0

    def test_fit_is_shift_invariant(self, quad_sol):
        rep = fit_decay_rates(quad_sol)
        shifted = SimpleNamespace(
            potential=quad_sol.potential,
            eps=quad_sol.eps,
            grid=quad_sol.grid,
            S=np.roll(quad_sol.S, 16),
        )
        rep2 = fit_decay_rates(shifted)
        assert abs(rep2.lambda_fit_minus - rep.lambda_fit_minus) < 1e-10
        assert abs(rep2.lambda_fit_plus - rep.lambda_fit_plus) < 1e-10

    def test_predicted_rates_continuum_limit(self, quad):
        assert decay_rates(quad, 0.0) == (1.0, 1.0)
        mm, mp = decay_rates(quad, 0.1)
        assert 0 < mp < 1 < mm
        assert (mm, mp) == (find_pole(0.1, 2.0).mu_rate, find_pole(0.1, 0.0).mu_rate)


class TestMonotonicity:
    def test_converged_fronts(self, quad_sol, hertz_sol, logistic_sol, hertz_eps1):
        for sol in (quad_sol, hertz_sol, logistic_sol, hertz_eps1):
            ok, smin = monotonicity_check(sol.S)
            assert ok
        # logistic slope strictly positive in the interior (it saturates to
        # exact zero only where R has clamped to 1 in doubles)
        N = logistic_sol.grid.N
        interior = logistic_sol.S[N // 8 : -N // 8]
        assert np.min(interior) > 0.0

    @pytest.mark.parametrize("N", FINE_N)
    def test_slope_bounded_as_the_grid_refines(self, hertz_fine, N):
        assert np.min(hertz_fine[N].S) >= -1e-9

    def test_oscillatory_negative_control(self):
        x = np.linspace(-10, 10, 600)
        ok, smin = monotonicity_check(np.exp(-(x**2)) * np.cos(3 * x))
        assert not ok
        assert smin < -0.1


class TestNormalization:
    def test_logistic_integral_is_one(self, logistic_sol):
        assert normalization_check(logistic_sol) <= 1e-10

    def test_converged_front(self, quad_sol, hertz_sol):
        assert normalization_check(quad_sol) <= 1e-6
        assert normalization_check(hertz_sol) <= 1e-6


# report input -> (fixture, member or None)
HEALTHY = {
    "quad": ("quad_sol", None),
    "hertz": ("hertz_sol", None),
    "logistic": ("logistic_sol", None),
    "hertz-zero": ("hertz_zero", None),
    "nonconvex": ("nonconvex_sol", None),
    **{f"hertz-fine-{N}": ("hertz_fine", N) for N in FINE_N},
    **{f"hertz-sweep-{e}": ("hertz_sweep", e) for e in SWEEP_EPS},
}


class TestConsolidatedReport:
    @pytest.mark.parametrize("which", list(HEALTHY))
    def test_healthy_solutions_pass(self, which, request):
        fixture, member = HEALTHY[which]
        sol = request.getfixturevalue(fixture)
        if member is not None:
            sol = sol[member]
        checks = consolidated_report(sol)
        failed = [c["name"] for c in checks if not c["pass"]]
        assert failed == []

    def test_report_shape(self, quad_sol, logistic_sol):
        for sol in (quad_sol, logistic_sol):
            checks = consolidated_report(sol)
            assert [c["name"] for c in checks] == [
                "residual_fp",
                "residual_tent",
                "monotone_min_S",
                "slope_normalization",
                "phase_R0_half",
                "tail_rate_minus",
                "tail_rate_plus",
                "tail_fit_r2",
            ]
            for c in checks:
                assert set(c) == {"name", "value", "threshold", "pass"}
