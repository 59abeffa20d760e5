"""Finite-eps front solver: background term oracle, contract, covariances."""

import gc
import weakref

import numpy as np
import pytest

from fput_fronts import (
    ConfigError,
    KrylovStagnationError,
    NewtonDivergenceError,
    NumericsError,
    hertz_potential,
    quadratic_force_potential,
    solve_R0,
    solve_front,
)
from fput_fronts import front_solver
from fput_fronts.continuum import ContinuumSolution, _DenseTable, decay_rates
from fput_fronts.front_solver import (
    _ContinuumInverse,
    _recenter,
    background_term,
    continuation_sweep,
    derivative_consistency,
    fixed_point_residual,
    leading_corrector,
    solver_grid,
)
from fput_fronts.grids import UniformGrid, periodic_shift, spectral_derivative
from fput_fronts.spectral import symbol_a
from oracles import kernel_physical


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


# the benchmark's sweeps, and the H1 norm of W2 on their shared grids
SWEEPS = {"quad": [0.4, 0.2, 0.1, 0.05], "hertz": [0.2, 0.1, 0.05]}
W2_H1 = {"quad": 0.01914, "hertz": 0.013114}


@pytest.fixture(scope="module")
def sweeps(quad, hertz):
    return {
        "quad": continuation_sweep(quad, SWEEPS["quad"]),
        "hertz": continuation_sweep(hertz, SWEEPS["hertz"]),
    }


def _h1(f, fp, h):
    return float(np.sqrt(np.trapezoid(f**2 + fp**2, dx=h)))


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
        F1 = background_term(eps, cont)

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
        F1 = background_term(eps, cont)
        assert np.max(np.abs(F1[:8])) <= 1e-6
        assert np.max(np.abs(F1[-8:])) <= 1e-6

    def test_second_order_in_eps(self, quad):
        grid = solver_grid(quad, 0.05)
        cont = solve_R0(quad, grid=grid)
        eps_list = [0.2, 0.1, 0.05]
        sups = [float(np.max(np.abs(background_term(e, cont)))) for e in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(sups), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_zero_eps_is_zero(self, quad):
        grid = solver_grid(quad, 0.0)
        cont = solve_R0(quad, grid=grid)
        F1 = background_term(0.0, cont)
        assert np.all(F1 == 0.0)

    def test_non_finite_ends_are_numerical_failures(self, quad, monkeypatch):
        cont = solve_R0(quad, grid=solver_grid(quad, 0.1))
        S0 = cont.slope_profile().copy()
        S0[cont.grid.N // 2] = np.nan  # the FFT spreads it to both ends
        monkeypatch.setattr(cont, "slope_hat", np.fft.rfft(S0))
        with pytest.raises(NumericsError, match="has not settled"):
            background_term(0.1, cont)


class TestGridGuards:
    def test_coarse_grid_rejected(self, quad):
        with pytest.raises(ConfigError):
            solve_front(quad, 0.1, grid=UniformGrid(40.0, 512))
        # the bandwidth rule holds at eps = 0 too: h = 0.078 > max_spacing(0)
        with pytest.raises(ConfigError):
            solve_front(quad, 0.0, grid=UniformGrid(40.0, 1024))

    def test_eps_cap_holds_on_every_grid(self, quad, monkeypatch):
        """eps above the cap is rejected before any R0 solve, pinned grid or not."""

        def no_numerics(*args, **kwargs):
            raise AssertionError("a continuum solve ran")

        monkeypatch.setattr(front_solver, "solve_R0", no_numerics)
        pinned = UniformGrid(40.0, 4096)
        for solve in (
            lambda: solve_front(quad, 1.5),
            lambda: solve_front(quad, 1.5, grid=pinned),
            lambda: continuation_sweep(quad, [0.5, 1.5], grid=pinned),
        ):
            with pytest.raises(ConfigError, match=r"^eps must lie in \[0, 1.0\], got 1.5$"):
                solve()

    def test_bandwidth_for_small_eps(self, quad):
        # 1/(2h) must cover 8/eps; N = 4096 on L = 40 gives h close to 0.02,
        # too coarse for eps = 0.01
        with pytest.raises(ConfigError):
            solve_front(quad, 0.01, grid=UniformGrid(40.0, 4096))

    def test_auto_grid_respects_both(self, quad):
        g = solver_grid(quad, 0.05)
        assert g.h <= 0.05
        assert 1.0 / (2.0 * g.h) >= 8.0 / 0.05

    def test_continuum_default_grid_is_the_solver_grid(self, quad):
        # hertz 1.2 has left rate 0.2, so a longer half-length (100)
        for pot in (quad, hertz_potential(1.2)):
            assert solve_R0(pot).grid == solver_grid(pot) == solver_grid(pot, 0.0)


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
        assert np.array_equal(sol.R, sol.continuum.values)
        assert np.max(np.abs(sol.S - sol.continuum.slope_profile())) <= 1e-15
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
            a_hat = sol.a_hat
            R = sol.R
            S = fake

        assert derivative_consistency(Probe()) > 1e-3


class TestInvariances:
    def test_resolution_doubling(self, quad, quad_sol):
        g = quad_sol.grid
        fine = solve_front(quad, 0.1, grid=UniformGrid(g.L, 2 * g.N))
        assert np.max(np.abs(fine.R[::2] - quad_sol.R)) <= 1e-8

    def test_fixed_point_residual_of_solution(self, quad_sol):
        sol = quad_sol
        a_hat = symbol_a(sol.eps, sol.grid.k)
        cont = sol.continuum
        F1 = background_term(sol.eps, cont)
        F = fixed_point_residual(cont, sol.W, F1, a_hat)
        assert np.max(np.abs(F)) <= 1e-9 * sol.grid.N


class TestRecenter:
    def test_leaves_no_reference_cycle(self, quad):
        """The root search frees the continuum by reference counting alone."""
        cont = solve_R0(quad)
        W = cont(cont.grid.x - 0.3) - cont.values  # R0 crossing 1/2 at x = 0.3
        ref = weakref.ref(cont)
        gc.disable()
        try:
            _, shift = _recenter(W, cont)
            del cont
            assert ref() is None
        finally:
            gc.enable()
        assert shift == pytest.approx(0.3, abs=1e-12)


class TestR0OnlyWork:
    """What depends on R0 alone is computed once per continuum."""

    def test_sweep_forces_R0_once(self, quad, monkeypatch):
        seen = []
        dphi = quad.dphi
        monkeypatch.setattr(quad, "dphi", lambda r: seen.append(r) or dphi(r))
        sols = continuation_sweep(quad, [0.2, 0.1, 0.05])
        cont = sols[0].continuum
        assert all(s.continuum is cont for s in sols)
        assert sum(r is cont.values for r in seen) == 1

    def test_cached_arrays_are_read_only(self, quad_sol):
        cont = quad_sol.continuum
        for a in (cont.values, cont.force, cont.slope, cont.slope_hat):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert cont.slope_profile() is cont.slope
        assert np.array_equal(cont.force, quad_sol.potential.dphi(cont.values))
        assert np.array_equal(cont.slope, -(cont.force - cont.values))
        assert np.array_equal(cont.slope_hat, np.fft.rfft(cont.slope))
        assert np.array_equal(quad_sol.a_hat, symbol_a(quad_sol.eps, quad_sol.grid.k))

    def test_predicted_starts_need_no_root_search(self, quad, monkeypatch):
        def no_root_search(*args, **kwargs):
            raise AssertionError("brentq ran")

        monkeypatch.setattr("scipy.optimize.brentq", no_root_search)
        sols = continuation_sweep(quad, [0.2, 0.1, 0.05])
        assert all(s.R[s.grid.N // 2] == 0.5 for s in sols)


class TestContinuation:
    def test_sweep_orders_and_warm_starts(self, quad, sweeps):
        eps_list = SWEEPS["quad"]
        sols = sweeps["quad"]
        assert [s.eps for s in sols] == sorted(eps_list)
        assert all(s.grid == solver_grid(quad, *eps_list) for s in sols)
        h1 = np.array([s.h1_dist_to_R0 for s in sols])
        assert np.all(np.diff(h1) > 0)  # distance grows with eps
        slope = np.polyfit(np.log(sorted(eps_list)), np.log(h1), 1)[0]
        assert 1.8 <= slope <= 2.2
        # the first member starts from the eps^2 predictor, as a cold solve does
        cold = solve_front(quad, 0.05, grid=sols[0].grid, continuum=sols[0].continuum)
        assert np.array_equal(sols[0].R, cold.R)

    @pytest.mark.parametrize("which", ["quad", "hertz"])
    def test_sweep_work_budget(self, which, sweeps):
        sols = sweeps[which]
        assert all(s.iterations <= 1 for s in sols)
        # measured 10 (quad) and 8 (hertz), plus two iterations of margin
        assert sum(s.krylov_iterations for s in sols) <= {"quad": 12, "hertz": 10}[which]

    def test_warm_start_is_cheaper(self, quad):
        sols = continuation_sweep(quad, [0.1, 0.2])
        cold = solve_front(quad, 0.2, grid=sols[1].grid)
        assert sols[1].iterations <= cold.iterations

    @pytest.mark.parametrize("shift", [0.3, 7.0])
    def test_translated_warm_start_comes_back_on_phase(
        self, quad, quad_sol, shift, monkeypatch
    ):
        """A translated solution is already converged, so no Newton step
        runs; the one re-centering of the warm start, one root search,
        restores R(0) = 1/2."""
        import scipy.optimize

        searches = []
        brentq = scipy.optimize.brentq
        monkeypatch.setattr(
            "scipy.optimize.brentq", lambda *a, **k: searches.append(a) or brentq(*a, **k)
        )
        g, cont = quad_sol.grid, quad_sol.continuum
        moved = cont(g.x - shift) + periodic_shift(quad_sol.W, g, -shift) - cont.values
        sol = solve_front(quad, 0.1, grid=g, initial=moved, continuum=cont)
        assert len(searches) == 1
        assert abs(sol.R[g.N // 2] - 0.5) <= 1e-13
        assert np.max(np.abs(sol.R - quad_sol.R)) <= 1e-13


class TestFailurePaths:
    def test_newton_budget_exhaustion(self, quad, monkeypatch):
        monkeypatch.setattr(front_solver, "MAX_NEWTON", 0)
        g = solver_grid(quad, 0.1)
        with pytest.raises(NewtonDivergenceError):
            solve_front(quad, 0.1, grid=g)

    def test_divergence_carries_step_records(self, quad, monkeypatch):
        # quad at eps 0.5 needs two Newton steps from the eps^2 cold start
        assert solve_front(quad, 0.5).iterations == 2
        monkeypatch.setattr(front_solver, "MAX_NEWTON", 1)
        with pytest.raises(NewtonDivergenceError) as info:
            solve_front(quad, 0.5)
        (record,) = info.value.diagnostics["steps"]
        assert set(record) == {"residual", "damping", "istop", "itn", "krylov_tol"}
        assert 1e-10 < record["residual"] < 1e-3
        assert record["damping"] == 1.0
        assert record["istop"] in (1, 2, 3)
        assert record["itn"] > 0
        assert front_solver.KRYLOV_TOL <= record["krylov_tol"] <= front_solver.KRYLOV_FORCING

    def test_krylov_stagnation_carries_its_tolerance(self, quad, monkeypatch):
        # quad at eps 0.1 needs more than one LSMR iteration
        monkeypatch.setattr(front_solver, "KRYLOV_MAXITER", 1)
        with pytest.raises(KrylovStagnationError) as info:
            solve_front(quad, 0.1)
        diag = info.value.diagnostics
        assert diag["iterations"] == 1
        assert front_solver.KRYLOV_TOL <= diag["krylov_tol"] <= front_solver.KRYLOV_FORCING

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_warm_start_rejected(self, quad, quad_sol, bad):
        W = quad_sol.W.copy()
        W[7] = bad
        with pytest.raises(ConfigError):
            solve_front(quad, 0.1, grid=quad_sol.grid, initial=W, continuum=quad_sol.continuum)

    def test_non_finite_residual_is_divergence(self, quad, monkeypatch):
        """A NaN step leaves a NaN residual, which must not read as converged."""

        def nan_lsmr(op, b, **kwargs):
            return np.full(b.size, np.nan), 1, 3, 0.0, 0.0, 1.0, 1.0, 0.0

        monkeypatch.setattr(front_solver, "lsmr", nan_lsmr)
        with pytest.raises(NewtonDivergenceError) as info:
            solve_front(quad, 0.1)
        (record,) = info.value.diagnostics["steps"]
        assert np.isnan(record["residual"])
        assert record["itn"] == 3

    def test_negative_eps_rejected(self, quad):
        with pytest.raises(ConfigError):
            solve_front(quad, -0.1)

    def test_continuum_of_another_potential_is_not_reused(self, quad, hertz, quad_sol):
        g = solver_grid(quad, 0.1)
        sol = solve_front(quad, 0.1, grid=g, continuum=solve_R0(hertz, grid=g))
        assert sol.continuum.potential is quad
        assert np.max(np.abs(sol.R - quad_sol.R)) <= 1e-12
        assert sol.residual_tent() <= 1e-7


def _strict(monkeypatch, solve, *args, **kwargs):
    """``solve`` with every LSMR solve run to KRYLOV_TOL relative (no forcing)."""
    with monkeypatch.context() as m:
        m.setattr(front_solver, "KRYLOV_FORCING", 0.0)
        return solve(*args, **kwargs)


class TestKrylovForcing:
    """The inexact-Newton forcing term stops each LSMR solve once its linear
    residual is small against NEWTON_TOL.  Against a strict solve it takes
    the same Newton steps and moves R only by roundoff."""

    @staticmethod
    def _check(forced, strict):
        for s, t in zip(forced, strict, strict=True):
            assert s.residual_fp <= front_solver.NEWTON_TOL
            assert s.iterations == t.iterations
            assert np.max(np.abs(s.R - t.R)) <= 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.05])
    @pytest.mark.parametrize("which", ["quad", "hertz"])
    def test_cold_matches_strict(self, which, eps, quad, hertz, quad_sol, hertz_sol, monkeypatch):
        pot = quad if which == "quad" else hertz
        sol = (quad_sol if which == "quad" else hertz_sol) if eps == 0.1 else solve_front(pot, eps)
        strict = _strict(
            monkeypatch, solve_front, pot, eps, grid=sol.grid, continuum=sol.continuum
        )
        self._check([sol], [strict])

    @pytest.mark.parametrize("which", ["quad", "hertz"])
    def test_sweep_matches_strict(self, which, quad, hertz, sweeps, monkeypatch):
        pot = quad if which == "quad" else hertz
        strict = _strict(monkeypatch, continuation_sweep, pot, SWEEPS[which])
        self._check(sweeps[which], strict)

    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_step_tol_stops_keep_their_residual(self, eps, hertz, monkeypatch):
        """Hertz 1.5 here stops on STEP_TOL above NEWTON_TOL (a residual
        floor from the periodic wrap), after three steps either way."""
        sol = solve_front(hertz, eps)
        strict = _strict(
            monkeypatch, solve_front, hertz, eps, grid=sol.grid, continuum=sol.continuum
        )
        assert sol.iterations == strict.iterations == 3
        assert sol.residual_fp == pytest.approx(strict.residual_fp, rel=0.01)

    def test_solution_keeps_step_records(self, quad, sweeps):
        sol = solve_front(quad, 0.5)
        for s in [sol, *sweeps["quad"]]:
            assert len(s.steps) == s.iterations
        # quad at eps 0.5 takes two steps: the forcing loosens LSMR as |F| falls
        first, second = sol.steps
        assert first["residual"] < 1e-6 and first["damping"] == 1.0
        assert front_solver.KRYLOV_TOL < first["krylov_tol"] < second["krylov_tol"]
        assert second["krylov_tol"] <= front_solver.KRYLOV_FORCING


def _outward_loop(P, h, r, c):
    """The pinned continuum inverse by a scalar trapezoid recurrence.

    On each side of the pin, w' + (1 - P) w = P r (in x_c - x on the left)
    is stepped outward from w(x_c) = -r(x_c) with the exact integrating
    factor of the trapezoid sum of 1 - P; z = r + w and z[c] = 0.
    """
    z = r.copy()
    f = P * r
    for sign, idx in ((1.0, range(c, r.size)), (-1.0, range(c, -1, -1))):
        idx = list(idx)
        w = -r[c]
        for i0, i1 in zip(idx, idx[1:]):
            decay = np.exp(-0.5 * h * sign * ((1.0 - P[i0]) + (1.0 - P[i1])))
            w = decay * (w + 0.5 * h * sign * f[i0]) + 0.5 * h * sign * f[i1]
            z[i1] += w
    z[c] = 0.0
    return z


def _logistic_curvature(grid):
    # d2phi(R0) for dphi(R) = R^2: twice the logistic front
    return 2.0 / (1.0 + np.exp(grid.x))


class TestContinuumInverse:
    """The Newton preconditioner: pinned inverse of I - a0 * (P .)."""

    GRID = UniformGrid(40.0, 2048)
    PINS = (0, 123, 1024, 2047)

    @pytest.mark.parametrize("c", PINS)
    def test_matches_outward_loop(self, c):
        g = self.GRID
        P = _logistic_curvature(g)
        r = np.random.default_rng(c).standard_normal(g.N)
        z = _ContinuumInverse(P, g.h, c).solve(r)
        ref = _outward_loop(P, g.h, r, c)
        assert np.max(np.abs(z - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("c", PINS)
    def test_pin_is_exact(self, c):
        g = self.GRID
        r = np.random.default_rng(c).standard_normal(g.N)
        assert _ContinuumInverse(_logistic_curvature(g), g.h, c).solve(r)[c] == 0.0

    @pytest.mark.parametrize("c", PINS)
    def test_adjoint_dot_product(self, c):
        g = self.GRID
        M = _ContinuumInverse(_logistic_curvature(g), g.h, c)
        rng = np.random.default_rng(c)
        r, y = rng.standard_normal(g.N), rng.standard_normal(g.N)
        z = M.solve(r)
        gap = abs(z @ y - r @ M.adjoint(y))
        assert gap <= 1e-14 * np.linalg.norm(z) * np.linalg.norm(y)

    def test_inverts_continuum_operator_to_second_order(self):
        errs = []
        for N in (1024, 2048, 4096):
            g = UniformGrid(40.0, N)
            P = _logistic_curvature(g)
            r = np.exp(-((g.x - 1.0) ** 2))
            z = _ContinuumInverse(P, g.h, N // 2).solve(r)
            back = z - np.fft.irfft(symbol_a(0.0, g.k) * np.fft.rfft(P * z), n=N)
            errs.append(float(np.max(np.abs(back - r))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders > 1.9) & (orders < 2.1))
        assert errs[-1] <= 1e-4

    def test_finite_beyond_the_exponent_range(self):
        # integrating-factor exponent rises by about 0.9 * 1000 > 709 each way
        g = UniformGrid(1000.0, 2**15)
        P = 1.0 - 0.9 * np.tanh(g.x / 3.0)
        c = g.N // 2
        exponent = np.cumsum(0.5 * g.h * ((1.0 - P[c:-1]) + (1.0 - P[c + 1 :])))
        assert exponent[-1] > 709.0
        M = _ContinuumInverse(P, g.h, c)
        rng = np.random.default_rng(7)
        r, y = rng.standard_normal(g.N), rng.standard_normal(g.N)
        z, zt = M.solve(r), M.adjoint(y)
        assert np.all(np.isfinite(z)) and np.all(np.isfinite(zt))
        ref = _outward_loop(P, g.h, r, c)
        assert np.max(np.abs(z - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert abs(z @ y - r @ zt) <= 1e-14 * np.linalg.norm(z) * np.linalg.norm(y)

    def test_pinned_solve_needs_no_recentering(self, quad_sol, sweeps):
        """The pin is the only phase rule: every solve of a cold front and
        of both sweeps crosses 1/2 exactly at the center grid point."""
        for sol in [quad_sol, *sweeps["quad"], *sweeps["hertz"]]:
            c = sol.grid.N // 2
            assert sol.grid.x[c] == 0.0
            assert sol.R[c] == 0.5
            assert sol.W[c] == 0.0
            assert _recenter(sol.W, sol.continuum)[1] == 0.0

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.02])
    @pytest.mark.parametrize("which", ["quad", "hertz"])
    def test_front_cold_krylov_budget(self, which, eps, quad, hertz, quad_sol, hertz_sol):
        if eps == 0.1:
            sol = quad_sol if which == "quad" else hertz_sol
        else:
            sol = solve_front(quad if which == "quad" else hertz, eps)
        # at most 5 measured (hertz, eps 0.1), plus one iteration of margin
        assert sol.krylov_iterations <= 6

    @pytest.mark.parametrize("eps", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("which", ["quad", "hertz"])
    def test_cold_start_is_no_worse_than_zero(self, which, eps, quad, hertz):
        """The eps^2 cold start takes no more Newton steps than W = 0 did."""
        sol = solve_front(quad if which == "quad" else hertz, eps)
        g, cont = sol.grid, sol.continuum
        zero = solve_front(sol.potential, eps, grid=g, initial=np.zeros(g.N), continuum=cont)
        assert sol.iterations <= zero.iterations


class TestLeadingCorrector:
    """W2, the eps^2 coefficient of the correction W."""

    @pytest.mark.parametrize("which", ["quad", "hertz"])
    def test_h1_norm_and_pin(self, which, sweeps):
        cont = sweeps[which][0].continuum
        grid = cont.grid
        W2 = leading_corrector(cont)
        assert W2[grid.N // 2] == 0.0
        norm = _h1(W2, spectral_derivative(W2, grid), grid.h)
        assert norm == pytest.approx(W2_H1[which], rel=1e-3)

    @pytest.mark.parametrize("which", ["quad", "hertz"])
    def test_remainder_is_fourth_order(self, which, sweeps):
        """||W_eps - eps^2 W2||_H1 / eps^4 stays bounded over the sweep."""
        sols = sweeps[which]
        cont, grid = sols[0].continuum, sols[0].grid
        W2 = leading_corrector(cont)
        W2p = spectral_derivative(W2, grid)
        S0 = cont.slope_profile()
        ratios = np.array(
            [
                _h1(s.W - s.eps**2 * W2, S0 - s.S - s.eps**2 * W2p, grid.h) / s.eps**4
                for s in sols
            ]
        )
        assert np.all(ratios <= 0.1 * W2_H1[which])
        assert np.max(ratios) <= 1.05 * np.min(ratios)


_GL24_NODES, _GL24_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _gauss_tent_defect(values, x, eps, evaluate):
    """R0 - Lambda_eps * R0 by 24-node Gauss-Legendre on each side of each x.

    ``evaluate`` maps flat points to profile values; (N, 24) point-major
    rows, so each point's sum runs in node order.
    """
    y = 0.5 * eps * (_GL24_NODES + 1.0)  # nodes on (0, eps)
    w = 0.5 * eps * _GL24_WEIGHTS * (1.0 - y / eps) / eps  # tent weight, one side
    shape = (x.size, y.size)
    vals_m = evaluate((x[:, None] - y[None, :]).ravel()).reshape(shape)
    vals_p = evaluate((x[:, None] + y[None, :]).ravel()).reshape(shape)
    return (2.0 * values[:, None] - vals_m - vals_p) @ w


def _horner_terms():
    """Monomial coefficients in x of the terms F[6] .. F[0], y_old, as columns.

    F[6 - i] is added at step i of the Horner loop and then meets the
    factors x (even steps) and 1 - x (odd steps) of steps i .. 6.
    """
    P = np.polynomial.Polynomial
    cols = []
    for i in range(7):
        f = P([1.0])
        for step in range(i, 7):
            f = f * (P([0.0, 1.0]) if step % 2 == 0 else P([1.0, -1.0]))
        cols.append(np.pad(f.coef, (0, 8 - f.coef.size)))
    cols.append(np.eye(8)[0])
    return np.array(cols).T


def _table(knots, pieces, descending):
    """A dense table whose segment s evaluates the polynomial ``pieces[s](t)``.

    ``knots`` ascend; a descending table takes its steps from the right
    end of each segment, as the gap branch does.
    """
    table = _DenseTable.__new__(_DenseTable)
    knots = np.asarray(knots, dtype=float)
    left, right = knots[:-1], knots[1:]
    t_old, h = (right, left - right) if descending else (left, right - left)
    terms = [
        np.linalg.solve(_horner_terms(), np.pad(c, (0, 8 - c.size)))
        for c in (p(np.polynomial.Polynomial([a, b])).coef for p, a, b in zip(pieces, t_old, h))
    ]
    table.side = "right" if descending else "left"
    table.knots, table.t_old, table.h = knots, t_old, h
    table.horner = np.array([t[:7] for t in terms]).T
    table.y_old = np.array([t[7] for t in terms])
    table.nfev = 0
    return table


def _synthetic_continuum(potential, knots, pieces, grid):
    """A continuum whose profile is ``pieces[s]`` on [knots[s], knots[s+1]].

    The knots run from -L to L through 0; the gap table holds 1 - profile.
    """
    zero = int(np.flatnonzero(knots == 0.0)[0])
    gap = _table(knots[: zero + 1], [1.0 - p for p in pieces[:zero]], descending=True)
    right = _table(knots[zero:], pieces[zero:], descending=False)
    return ContinuumSolution(potential, grid, gap, right, decay_rates(potential))


def _uneven_knots(rng, L):
    """Knots on [-L, L] through 0, mixing spacings from eps/6 to 8 eps at eps 0.1."""
    widths = rng.choice([0.017, 0.023, 0.031, 0.3, 0.8], size=200)
    half = np.cumsum(widths)
    half = np.concatenate([[0.0], half[half < L - 0.05], [L]])
    return np.concatenate([-half[:0:-1], half])


def _split_tent_defect(cont, x, eps):
    """R0 - Lambda_eps * R0 with every window split at the knots and at +-L.

    24-node Gauss-Legendre on each piece: exact on the segment polynomials.
    """
    knots = np.concatenate([cont._gap_table.knots, cont._right_table.knots[1:]])
    y, w = _GL24_NODES, _GL24_WEIGHTS
    out = np.empty(x.size)
    for i, xi in enumerate(x):
        inner = knots[(knots > xi - eps) & (knots < xi + eps)]
        cuts = np.unique(np.concatenate([[xi - eps, xi, xi + eps], inner]))
        a, b = cuts[:-1, None], cuts[1:, None]
        t = 0.5 * (b - a) * (y[None, :] + 1.0) + a
        weight = 0.5 * (b - a) * w[None, :] * (1.0 - np.abs(t - xi) / eps) / eps
        out[i] = cont(xi) - np.sum(weight * cont(t))
    return out


class TestTentAverageDefect:
    def test_matches_point_major_scipy_reference(self, quad_sol, hertz_sol, dense_reference):
        """Within 1e-14 of 24-node quadrature on scipy's dense output."""
        for sol in (quad_sol, hertz_sol):
            cont, grid, eps = sol.continuum, sol.grid, sol.eps
            expected = _gauss_tent_defect(
                cont.values, grid.x, eps, lambda t: dense_reference(cont, t)
            )
            got = cont.tent_defect(eps, grid)
            assert np.max(np.abs(got - expected)) <= 1e-14

    def test_hertz_end_windows(self, hertz_sol):
        """Windows reaching past -L or L integrate the exponential tails."""
        cont, grid, eps = hertz_sol.continuum, hertz_sol.grid, hertz_sol.eps
        ends = np.abs(grid.x) > grid.L - eps
        expected = _gauss_tent_defect(cont.values[ends], grid.x[ends], eps, cont)
        assert np.max(np.abs(expected)) >= 1e-13  # the ends carry a defect
        got = cont.tent_defect(eps, grid)[ends]
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_other_grids(self, quad_sol):
        cont, eps = quad_sol.continuum, quad_sol.eps
        assert np.all(cont.tent_defect(0.0) == 0.0)
        for grid in (UniformGrid(cont.L, 4096), UniformGrid(0.5 * cont.L, 2048)):
            expected = _gauss_tent_defect(cont(grid.x), grid.x, eps, cont)
            got = cont.tent_defect(eps, grid)
            assert np.max(np.abs(got - expected)) <= 1e-14
        with pytest.raises(ConfigError):
            cont.tent_defect(eps, UniformGrid(2.0 * cont.L, 4096))

    def test_one_polynomial_gives_the_moment_sum(self, quad):
        """Segments cut from one degree-7 polynomial: -sum_n m_n eps^n P^(n)."""
        rng = np.random.default_rng(7)
        L, eps = 4.0, 0.1
        knots = _uneven_knots(rng, L)
        P = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 8) / L ** np.arange(8))
        grid = UniformGrid(L, 256)
        cont = _synthetic_continuum(quad, knots, [P] * (knots.size - 1), grid)
        inside = np.abs(grid.x) <= L - eps
        x = grid.x[inside]
        crossed = np.abs(x[:, None] - knots[None, :]) < eps
        assert crossed.sum(axis=1).max() >= 4
        expected = -(
            eps**2 / 12 * P.deriv(2)(x)
            + eps**4 / 360 * P.deriv(4)(x)
            + eps**6 / 20160 * P.deriv(6)(x)
        )
        got = cont.tent_defect(eps)[inside]
        assert np.max(np.abs(got - expected)) <= 2e-15

    def test_piecewise_polynomial_with_jumps(self, quad):
        """Unrelated polynomials per segment: every knot and both tails count."""
        rng = np.random.default_rng(11)
        L, eps = 4.0, 0.1
        knots = _uneven_knots(rng, L)
        base = np.polynomial.Polynomial([0.5, -0.1])
        pieces = [
            base + np.polynomial.Polynomial(rng.uniform(-1e-2, 1e-2, 8) / L ** np.arange(8))
            for _ in range(knots.size - 1)
        ]
        grid = UniformGrid(L, 256)
        cont = _synthetic_continuum(quad, knots, pieces, grid)
        expected = _split_tent_defect(cont, grid.x, eps)
        got = cont.tent_defect(eps)
        assert np.max(np.abs(got - expected)) <= 1e-14
