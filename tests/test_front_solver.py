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
from fput_fronts.continuum import ContinuumSolution, _DenseTable
from fput_fronts.front_solver import (
    _ContinuumInverse,
    _level,
    _recenter,
    background_term,
    continuation_sweep,
    derivative_consistency,
    fixed_point_residual,
    solver_grid,
)
from fput_fronts.grids import UniformGrid
from fput_fronts.spectral import kernel_physical, symbol_a, symbol_a0


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

    def test_divergence_carries_step_records(self, quad, quad_sol):
        # quad at eps 0.1 needs two Newton steps
        assert quad_sol.iterations == 2
        with pytest.raises(NewtonDivergenceError) as info:
            solve_front(quad, 0.1, max_newton=1)
        (record,) = info.value.diagnostics["steps"]
        assert set(record) == {"residual", "damping", "istop", "itn"}
        assert 1e-10 < record["residual"] < 1e-3
        assert record["damping"] == 1.0
        assert record["istop"] in (1, 2, 3)
        assert record["itn"] > 0

    def test_negative_eps_rejected(self, quad):
        with pytest.raises(ConfigError):
            solve_front(quad, -0.1)

    def test_continuum_of_another_potential_is_not_reused(self, quad, hertz, quad_sol):
        g = solver_grid(quad, 0.1)
        sol = solve_front(quad, 0.1, grid=g, continuum=solve_R0(hertz, grid=g))
        assert sol.continuum.potential is quad
        assert np.max(np.abs(sol.R - quad_sol.R)) <= 1e-12
        assert sol.residual_tent() <= 1e-7


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
            back = z - np.fft.irfft(symbol_a0(g.k) * np.fft.rfft(P * z), n=N)
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

    def test_pinned_solve_needs_no_recentering(self, quad_sol):
        sol = quad_sol
        c = sol.grid.N // 2
        assert sol.R[c] == 0.5
        assert _recenter(sol.W, sol.continuum, sol.grid, 0.0)[1] == 0.0

    def test_off_grid_center(self, quad, quad_sol):
        g = quad_sol.grid
        center = 0.3 + 0.37 * g.h
        sol = solve_front(quad, 0.1, grid=g, center=center)
        assert abs(_level(center, sol.continuum, sol.W, g)) <= 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.02])
    @pytest.mark.parametrize("which", ["quad", "hertz"])
    def test_front_cold_krylov_budget(self, which, eps, quad, hertz, quad_sol, hertz_sol):
        if eps == 0.1:
            sol = quad_sol if which == "quad" else hertz_sol
        else:
            sol = solve_front(quad if which == "quad" else hertz, eps)
        assert sol.krylov_iterations <= 20


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
    return ContinuumSolution(potential, grid, gap, right)


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
