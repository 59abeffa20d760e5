"""Finite-eps front solver: background term oracle, contract, covariances."""

import gc
import weakref

import numpy as np
import pytest

from fput_fronts import (
    ConfigError,
    NewtonDivergenceError,
    hertz_potential,
    quadratic_force_potential,
    solve_R0,
    solve_front,
)
from fput_fronts.front_solver import (
    _GL_NODES,
    _GL_WEIGHTS,
    _recenter,
    _tent_average_defect,
    background_term,
    continuation_sweep,
    derivative_consistency,
    fixed_point_residual,
    solver_grid,
)
from fput_fronts.grids import UniformGrid
from fput_fronts.spectral import kernel_physical, symbol_a


@pytest.fixture(scope="module")
def quad():
    return quadratic_force_potential()


@pytest.fixture(scope="module")
def hertz():
    return hertz_potential(1.5)


@pytest.fixture(scope="module")
def quad_sol(quad):
    return solve_front(quad, 0.1)


@pytest.fixture(scope="module")
def hertz_sol(hertz):
    return solve_front(hertz, 0.1)


class TestBackgroundTerm:
    """F1 = (a_0 - a_eps) * dphi(R0), the inhomogeneity driving W."""

    def test_direct_quadrature_oracle(self, quad):
        """Spot-check the spectral convolution against slow direct quadrature.

        a_0 has the closed form e^{-y} on y > 0, and a_eps comes from an
        independently computed physical kernel sample, so agreement here
        exercises the full FFT path including the kernel-origin alignment.
        """
        eps = 0.1
        grid = solver_grid(quad, eps)
        cont = solve_R0(quad, grid=grid)
        F1 = background_term(eps, cont, grid).values

        ker = kernel_physical(eps, L=grid.L, N=grid.N)
        yk, ak = ker.grid.x, ker.a_eps

        from scipy.integrate import simpson

        def oracle(x):
            # a_0 part: int_0^inf e^{-t} g(x - t) dt on a fine truncated grid
            t = np.linspace(0.0, 40.0, 40001)
            g0 = simpson(np.exp(-t) * cont.potential.dphi(cont(x - t)), x=t)
            geps = np.trapezoid(ak * cont.potential.dphi(cont(x - yk)), yk)
            return g0 - geps

        for x in (-3.0, -1.0, 0.0, 0.7, 2.0, 5.0):
            j = int(round((x + grid.L) / grid.h))
            assert abs(F1[j] - oracle(grid.x[j])) <= 1e-8

    def test_ends_settle(self, quad):
        eps = 0.1
        grid = solver_grid(quad, eps)
        cont = solve_R0(quad, grid=grid)
        F1 = background_term(eps, cont, grid).values
        assert np.max(np.abs(F1[:8])) <= 1e-6
        assert np.max(np.abs(F1[-8:])) <= 1e-6

    def test_second_order_in_eps(self, quad):
        grid = solver_grid(quad, 0.05)
        cont = solve_R0(quad, grid=grid)
        eps_list = [0.2, 0.1, 0.05]
        sups = [
            float(np.max(np.abs(background_term(e, cont, grid).values)))
            for e in eps_list
        ]
        slope = np.polyfit(np.log(eps_list), np.log(sups), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_zero_eps_is_zero(self, quad):
        grid = solver_grid(quad, 0.0)
        cont = solve_R0(quad, grid=grid)
        F1 = background_term(0.0, cont, grid).values
        assert np.all(F1 == 0.0)


class TestGridGuards:
    def test_coarse_grid_rejected(self, quad):
        with pytest.raises(ConfigError):
            solve_front(quad, 0.1, grid=UniformGrid(40.0, 512))

    def test_bandwidth_for_small_eps(self, quad):
        # 1/(2h) must cover 8/eps; N = 4096 on L = 40 gives h close to 0.02,
        # too coarse for eps = 0.01
        with pytest.raises(ConfigError):
            solve_front(quad, 0.01, grid=UniformGrid(40.0, 4096))

    def test_auto_grid_respects_both(self, quad):
        g = solver_grid(quad, 0.05)
        assert g.h <= 0.05
        assert 1.0 / (2.0 * g.h) >= 8.0 / 0.05


class TestSolverContract:
    @pytest.mark.parametrize("which", ["quad", "hertz"])
    def test_residuals_and_normalizations(self, which, quad_sol, hertz_sol):
        sol = quad_sol if which == "quad" else hertz_sol
        N = sol.grid.N
        assert sol.residual_fp <= 1e-9 * N
        assert sol.residual_tent() <= 1e-7
        j0 = int(round(sol.grid.L / sol.grid.h))
        assert sol.grid.x[j0] == 0.0
        assert abs(sol.R[j0] - 0.5) <= 1e-9
        assert np.min(sol.S) >= -1e-8
        assert abs(sol.slope_integral - 1.0) <= 1e-6

    @pytest.mark.parametrize("which", ["quad", "hertz"])
    def test_range_and_tails(self, which, quad_sol, hertz_sol):
        sol = quad_sol if which == "quad" else hertz_sol
        assert np.min(sol.R) >= -1e-8
        assert np.max(sol.R) <= 1.0 + 1e-8
        assert np.max(np.abs(sol.W[:8])) <= 1e-6
        assert np.max(np.abs(sol.W[-8:])) <= 1e-6

    def test_zero_eps_returns_continuum(self, quad):
        sol = solve_front(quad, 0.0)
        assert sol.iterations == 0
        assert np.all(sol.W == 0.0)
        exact = 1.0 / (1.0 + np.exp(sol.grid.x))
        assert np.max(np.abs(sol.R - exact)) <= 1e-9

    def test_consistency_of_slope(self, quad_sol, hertz_sol):
        # S must solve the differentiated equation S = a * (d2phi(R) S)
        assert derivative_consistency(quad_sol) <= 1e-7
        assert derivative_consistency(hertz_sol) <= 1e-7

    def test_slope_consistency_negative_control(self, quad_sol):
        sol = quad_sol
        fake = sol.S * (1.0 + 0.05 * np.sin(sol.grid.x))

        class Probe:
            potential = sol.potential
            eps = sol.eps
            grid = sol.grid
            R = sol.R
            S = fake

        assert derivative_consistency(Probe()) > 1e-3


class TestInvariances:
    def test_resolution_doubling(self, quad, quad_sol):
        g = quad_sol.grid
        fine = solve_front(quad, 0.1, grid=UniformGrid(g.L, 2 * g.N))
        assert np.max(np.abs(fine.R[::2] - quad_sol.R)) <= 1e-8

    def test_translation_covariance(self, quad, quad_sol):
        g = quad_sol.grid
        shift = 307
        moved = solve_front(quad, 0.1, grid=g, center=shift * g.h)
        overlap = np.abs(np.roll(quad_sol.R, shift) - moved.R)[shift:]
        assert np.max(overlap) <= 1e-8

    def test_fixed_point_residual_of_solution(self, quad_sol):
        sol = quad_sol
        a_hat = symbol_a(sol.eps, sol.grid.k)
        cont = sol.continuum
        F1 = background_term(sol.eps, cont, sol.grid).values
        F = fixed_point_residual(sol.eps, cont, sol.W, sol.grid, F1, a_hat)
        assert np.max(np.abs(F)) <= 1e-9 * sol.grid.N


class TestRecenter:
    def test_leaves_no_reference_cycle(self, quad):
        """The root search frees the continuum by reference counting alone."""
        cont = solve_R0(quad)
        W = np.zeros(cont.grid.N)
        ref = weakref.ref(cont)
        gc.disable()
        try:
            _, shift = _recenter(W, cont, cont.grid, 0.3)
            del cont
            assert ref() is None
        finally:
            gc.enable()
        assert shift == pytest.approx(-0.3, abs=1e-12)


class TestContinuation:
    def test_sweep_orders_and_warm_starts(self, quad):
        eps_list = [0.4, 0.2, 0.1, 0.05]
        sols = continuation_sweep(quad, eps_list)
        assert [s.eps for s in sols] == sorted(eps_list)
        h1 = np.array([s.h1_dist_to_R0 for s in sols])
        assert np.all(np.diff(h1) > 0)  # distance grows with eps
        slope = np.polyfit(np.log(sorted(eps_list)), np.log(h1), 1)[0]
        assert 1.8 <= slope <= 2.2
        assert not sols[0].warm_started
        assert all(s.warm_started for s in sols[1:])

    def test_warm_start_is_cheaper(self, quad):
        sols = continuation_sweep(quad, [0.1, 0.2])
        cold = solve_front(quad, 0.2, grid=sols[1].grid)
        assert sols[1].iterations <= cold.iterations


class TestFailurePaths:
    def test_newton_budget_exhaustion(self, quad):
        g = solver_grid(quad, 0.1)
        with pytest.raises(NewtonDivergenceError):
            solve_front(quad, 0.1, grid=g, max_newton=0)

    def test_negative_eps_rejected(self, quad):
        with pytest.raises(ConfigError):
            solve_front(quad, -0.1)


class TestTentAverageDefect:
    def test_matches_point_major_scipy_reference(self, quad_sol, hertz_sol, dense_reference):
        """Bitwise against the (N, 24) point-major quadrature on scipy's output."""
        for sol in (quad_sol, hertz_sol):
            cont, grid, eps = sol.continuum, sol.grid, sol.eps
            y = 0.5 * eps * (_GL_NODES + 1.0)
            w = 0.5 * eps * _GL_WEIGHTS * (1.0 - y / eps) / eps
            x = grid.x
            vals_m = dense_reference(cont, (x[:, None] - y[None, :]).ravel())
            vals_p = dense_reference(cont, (x[:, None] + y[None, :]).ravel())
            shape = (grid.N, y.size)
            expected = (
                2.0 * cont.values[:, None] - vals_m.reshape(shape) - vals_p.reshape(shape)
            ) @ w
            got = _tent_average_defect(cont, grid, eps)
            assert got.tobytes() == expected.tobytes()
