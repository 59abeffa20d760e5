"""Front profiles at finite eps via a Newton least-squares iteration.

The unit-speed front R solves the fixed point R = a_eps * dphi(R) (a
convolution).  Writing R = R0 + W with R0 the continuum profile and using
R0 = a0 * dphi(R0), the correction W solves

    F(W) = W + F1 - a_eps * (dphi(R0 + W) - dphi(R0)) = 0,

where the background term F1 = (a0 - a_eps) * dphi(R0) is a fixed, O(eps^2)
forcing (the tent symbol is even in eps).  Everything lives on a periodic
grid; convolutions are Fourier multipliers.  The linearization I - a_eps * (d2phi(R) .) is singular at a
solution (translation mode R'), so the Newton steps are computed with
LSMR: its minimum-norm least-squares iterate suppresses the null
direction automatically (the remaining spectrum is clustered near 1, so
a dozen inner iterations suffice), and every Newton step is re-centered
to keep R(0) = 1/2.  Deflating along the *approximate* slope direction
instead stalls: the guess is a few 1e-3 away from the true null vector
and the misalignment feeds back linearly.

The background term needs care: dphi(R0) does not decay (it tends to 1 on
the left), so it is split as dphi(R0) = s_delta + g_delta with s_delta a
mollified step (Gaussian width delta = 6h).  The remainder g_delta decays
on both sides and convolves spectrally; the step part has the closed-form
symbol -b_hat(k) m_hat(k) / (2 pi i k) with b_hat(0)' = 0 making the k = 0
limit zero.  The split is exact; only periodization error remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, lsmr
from scipy.special import erfc

from .continuum import ContinuumSolution, solve_R0, suggest_half_length
from .errors import (
    ConfigError,
    KrylovStagnationError,
    NewtonDivergenceError,
    NumericsError,
)
from .grids import (
    GridProfile,
    UniformGrid,
    grid_for,
    interpolate_local,
    periodic_shift,
    spectral_derivative,
)
from .potentials import Potential
from .spectral import find_pole, symbol_a, symbol_a0, tent_symbol

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def solver_grid(potential: Potential, eps: float) -> UniformGrid:
    """Default grid: tails settled far below tolerance, tent scale resolved.

    Half-length max(40, 20/min of the pole tail rates); spacing at most
    min(0.05, eps/16) so the Nyquist frequency reaches 8/eps.
    """
    if eps == 0.0:
        return grid_for(suggest_half_length(potential), 0.05)
    rate_plus = find_pole(eps, potential.p_plus).mu_rate
    rate_minus = find_pole(eps, potential.p_minus).mu_rate
    L = max(40.0, 20.0 / min(rate_minus, rate_plus, 1.0))
    return grid_for(L, min(0.05, eps / 16.0))


def _require_bandwidth(grid: UniformGrid, eps: float):
    if grid.h > 0.05 + 1e-12:
        raise ConfigError(f"grid spacing {grid.h:.4g} exceeds 0.05")
    if eps > 0 and 1.0 / (2.0 * grid.h) < 8.0 / eps - 1e-12:
        raise ConfigError(
            f"grid Nyquist {1/(2*grid.h):.4g} below 8/eps = {8/eps:.4g}"
        )


def background_term(
    eps: float, continuum: ContinuumSolution, grid: UniformGrid | None = None
) -> GridProfile:
    """The forcing F1 = (a0 - a_eps) * dphi(R0) on the grid.

    Vanishes identically at eps = 0 and decays at both ends; raises if the
    computed end values exceed 1e-4 (domain or bandwidth problem).
    """
    if grid is None:
        grid = continuum.grid
    if eps == 0.0:
        return GridProfile(grid, np.zeros(grid.N))
    _require_bandwidth(grid, eps)
    x = grid.x
    R0 = continuum(x) if grid is not continuum.grid else continuum.values
    delta = 6.0 * grid.h
    s_delta = 0.5 * erfc(x / (delta * np.sqrt(2.0)))
    g_delta = continuum.potential.dphi(R0) - s_delta

    k = grid.k
    bhat = symbol_a0(k) - symbol_a(eps, k)
    mhat = np.exp(-2.0 * (np.pi * delta * k) ** 2)
    step_hat = np.zeros_like(bhat)
    step_hat[1:] = -bhat[1:] * mhat[1:] / (2j * np.pi * k[1:])
    F1 = np.fft.irfft(bhat * np.fft.rfft(g_delta), n=grid.N)
    # the step part is a pure kernel sample; shift its origin to x = -L
    F1 += np.fft.fftshift(np.fft.irfft(step_hat, n=grid.N)) / grid.h
    ends = max(abs(F1[0]), abs(F1[-1]))
    if ends > 1e-4:
        raise NumericsError(
            f"background term has not settled at the ends (|F1| = {ends:.2e}); "
            "increase the domain half-length"
        )
    return GridProfile(grid, F1)


def _convolve(values: np.ndarray, grid: UniformGrid, symbol_vals: np.ndarray) -> np.ndarray:
    return np.fft.irfft(symbol_vals * np.fft.rfft(values), n=grid.N)


def fixed_point_residual(
    eps: float,
    continuum: ContinuumSolution,
    W: np.ndarray,
    grid: UniformGrid,
    F1: np.ndarray,
    a_hat: np.ndarray | None = None,
) -> np.ndarray:
    """F(W) = W + F1 - a_eps * (dphi(R0 + W) - dphi(R0))."""
    if a_hat is None:
        a_hat = symbol_a(eps, grid.k) if eps > 0 else symbol_a0(grid.k)
    pot = continuum.potential
    R0 = continuum.values
    nl = pot.dphi(R0 + W) - pot.dphi(R0)
    return W + F1 - _convolve(nl, grid, a_hat)


@dataclass
class FrontSolution:
    """Computed front profile with its correction and diagnostics."""

    potential: Potential
    eps: float
    grid: UniformGrid
    continuum: ContinuumSolution
    R: np.ndarray
    W: np.ndarray
    S: np.ndarray
    residual_fp: float
    iterations: int
    krylov_iterations: int = 0
    warm_started: bool = False
    _tent_residual: float | None = field(default=None, repr=False)

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    @property
    def h1_dist_to_R0(self) -> float:
        """H^1 distance of the profile to the continuum profile."""
        Wp = spectral_derivative(self.W, self.grid)
        return float(
            np.sqrt(np.trapezoid(self.W**2 + Wp**2, dx=self.grid.h))
        )

    @property
    def slope_integral(self) -> float:
        return float(np.trapezoid(self.S, dx=self.grid.h))

    def profile(self) -> GridProfile:
        return GridProfile(self.grid, self.R)

    def slope(self) -> GridProfile:
        return GridProfile(self.grid, self.S)

    def residual_tent(self) -> float:
        """Sup residual of the tent-averaged traveling-wave equation.

        Evaluates Lambda * R' + R - Lambda * dphi(R) without ever forming
        the non-decaying dphi(R): the continuum ODE reduces it to
        W + Lambda * W' + (R0 - Lambda * R0) - Lambda * (dphi(R) - dphi(R0)),
        and the middle bracket is computed by direct Gauss-Legendre
        quadrature of the tent average of the dense continuum profile.
        """
        if self._tent_residual is None:
            self._tent_residual = _tent_residual(self)
        return self._tent_residual


def _tent_average_defect(continuum: ContinuumSolution, grid: UniformGrid, eps: float):
    """R0 - Lambda_eps * R0 by quadrature against the dense profile."""
    if eps == 0.0:
        return np.zeros(grid.N)
    y = 0.5 * eps * (_GL_NODES + 1.0)  # nodes on (0, eps)
    w = 0.5 * eps * _GL_WEIGHTS * (1.0 - y / eps) / eps  # tent weight, one side
    x = grid.x
    # node-major rows x -/+ y_m are each sorted, which the segment search favours
    vals_m = continuum((x[None, :] - y[:, None]).ravel()).reshape(y.size, grid.N)
    vals_p = continuum((x[None, :] + y[:, None]).ravel()).reshape(y.size, grid.N)
    R0 = continuum.values if grid is continuum.grid else continuum(x)
    # a C-contiguous (N, 24) operand fixes the BLAS summation order of the product
    return np.ascontiguousarray((2.0 * R0[None, :] - vals_m - vals_p).T) @ w


def _tent_residual(sol: FrontSolution) -> float:
    grid = sol.grid
    tent_hat = tent_symbol(sol.eps, grid.k) if sol.eps > 0 else np.ones(grid.k.size)
    Wp = spectral_derivative(sol.W, grid)
    dnl = sol.potential.dphi(sol.R) - sol.potential.dphi(sol.continuum.values)
    res = (
        sol.W
        + _convolve(Wp, grid, tent_hat)
        + _tent_average_defect(sol.continuum, grid, sol.eps)
        - _convolve(dnl, grid, tent_hat)
    )
    return float(np.max(np.abs(res)))


def _level(xq, continuum: ContinuumSolution, W: np.ndarray, grid: UniformGrid):
    """R(xq) - 1/2 for the profile R = continuum + W."""
    return continuum(xq) + interpolate_local(W, grid, xq) - 0.5


def _recenter(
    W: np.ndarray, continuum: ContinuumSolution, grid: UniformGrid, center: float
) -> tuple[np.ndarray, float]:
    """Shift the profile so R crosses 1/2 at ``center``; returns (W, shift)."""
    from scipy.optimize import brentq

    R = continuum.values + W
    x = grid.x
    window = np.abs(x - center) <= 6.0
    idx = np.where(window)[0]
    vals = R[idx] - 0.5
    crossings = np.where(vals[:-1] * vals[1:] <= 0.0)[0]
    if crossings.size == 0:
        return W, 0.0  # wild iterate; skip re-centering this round
    j = crossings[np.argmin(np.abs(x[idx[crossings]] - center))]
    j0 = idx[j]

    # passed as args, not captured: brentq wraps the function in a
    # self-referencing closure, which would keep the continuum and W alive
    # until the cyclic garbage collector next runs
    x_star = brentq(_level, x[j0], x[j0 + 1], args=(continuum, W, grid), xtol=1e-14)
    shift = x_star - center
    if shift == 0.0:
        return W, 0.0
    W_shifted = periodic_shift(W, grid, shift)
    W_new = W_shifted + (continuum(x + shift) - continuum.values)
    return W_new, shift


def solve_front(
    potential: Potential,
    eps: float,
    grid: UniformGrid | None = None,
    L: float | None = None,
    N: int | None = None,
    initial: np.ndarray | None = None,
    continuum: ContinuumSolution | None = None,
    center: float = 0.0,
    newton_tol: float = 1e-10,
    step_tol: float = 1e-12,
    krylov_tol: float = 1e-13,
    krylov_maxiter: int = 400,
    max_newton: int = 30,
) -> FrontSolution:
    """Newton-Krylov solve of the front fixed point at a given eps.

    ``eps = 0`` returns the continuum profile exactly (W = 0).  Warm starts
    pass ``initial`` (a W profile on the same grid).  Convergence when the
    sup residual falls below ``newton_tol`` or the step below ``step_tol``;
    five consecutive non-improving steps raise ``NewtonDivergenceError``.
    """
    if eps < 0:
        raise ConfigError(f"eps must be nonnegative, got {eps}")
    if grid is None:
        if L is None and N is None:
            grid = solver_grid(potential, eps)
        else:
            if L is None:
                L = suggest_half_length(potential)
            grid = (
                UniformGrid(L, N)
                if N is not None
                else grid_for(L, min(0.05, eps / 16.0) if eps > 0 else 0.05)
            )
    if eps > 0:
        _require_bandwidth(grid, eps)
    if continuum is None or continuum.grid is not grid:
        continuum = solve_R0(potential, grid=grid)

    if eps == 0.0:
        W = np.zeros(grid.N)
        S = continuum.slope_profile()
        return FrontSolution(
            potential=potential,
            eps=0.0,
            grid=grid,
            continuum=continuum,
            R=continuum.values.copy(),
            W=W,
            S=np.asarray(S),
            residual_fp=0.0,
            iterations=0,
        )

    F1 = background_term(eps, continuum, grid).values
    a_hat = symbol_a(eps, grid.k)
    pot = potential
    R0 = continuum.values

    if initial is None:
        # start from the continuum profile holding the phase at the requested
        # center, so the local re-centering always has a crossing to lock on
        W = (
            np.zeros(grid.N)
            if center == 0.0
            else np.asarray(continuum(grid.x - center)) - continuum.values
        )
    else:
        W = np.array(initial, dtype=float)
    if W.shape != (grid.N,):
        raise ConfigError("warm-start profile does not match the grid")

    def residual(Wv):
        return fixed_point_residual(eps, continuum, Wv, grid, F1, a_hat)

    F = residual(W)
    res_norm = float(np.max(np.abs(F)))
    bad_streak = 0
    total_krylov = 0
    iteration = 0
    converged = res_norm <= newton_tol
    for iteration in range(1, max_newton + 1):
        if converged:
            break
        R = R0 + W
        P = pot.d2phi(R)

        def matvec(v):
            return v - _convolve(P * v, grid, a_hat)

        def rmatvec(v):
            return v - P * _convolve(v, grid, np.conj(a_hat))

        op = LinearOperator(
            (grid.N, grid.N), matvec=matvec, rmatvec=rmatvec, dtype=float
        )
        out = lsmr(op, -F, atol=krylov_tol, btol=krylov_tol, maxiter=krylov_maxiter)
        dW, istop, itn, normr, normar, norma, conda, _ = out
        total_krylov += int(itn)
        if istop == 7:
            raise KrylovStagnationError(
                f"inner least-squares solve hit {krylov_maxiter} iterations "
                f"at eps={eps}",
                diagnostics={
                    "residual_norm": float(normr),
                    "normal_residual_norm": float(normar),
                    "condition_estimate": float(conda),
                    "iterations": int(itn),
                    "curvature_min": float(np.min(P)),
                    "curvature_max": float(np.max(P)),
                },
            )

        step = 1.0
        accepted = False
        for _ in range(9):
            W_try = W + step * dW
            F_try = residual(W_try)
            norm_try = float(np.max(np.abs(F_try)))
            if norm_try < res_norm:
                accepted = True
                break
            step *= 0.5
        if accepted:
            W = W_try
            bad_streak = 0
        else:
            W = W + step * dW  # smallest damped step; counts toward divergence
            bad_streak += 1
            if bad_streak >= 5:
                raise NewtonDivergenceError(
                    f"residual grew over {bad_streak} consecutive steps at "
                    f"eps={eps}; start a continuation_sweep from smaller eps"
                )
        W, _ = _recenter(W, continuum, grid, center)
        F = residual(W)
        res_norm = float(np.max(np.abs(F)))
        if res_norm <= newton_tol or float(np.max(np.abs(step * dW))) <= step_tol:
            converged = True
            break

    if not converged:
        raise NewtonDivergenceError(
            f"no convergence in {max_newton} Newton steps at eps={eps} "
            f"(residual {res_norm:.2e}); start a continuation_sweep from smaller eps"
        )

    R = R0 + W
    S = -(pot.dphi(R0) - R0 + spectral_derivative(W, grid))
    return FrontSolution(
        potential=potential,
        eps=eps,
        grid=grid,
        continuum=continuum,
        R=R,
        W=W,
        S=S,
        residual_fp=res_norm,
        iterations=iteration,
        krylov_iterations=total_krylov,
        warm_started=initial is not None,
    )


def continuation_sweep(
    potential: Potential,
    eps_list,
    grid: UniformGrid | None = None,
    **solve_kwargs,
) -> list[FrontSolution]:
    """Solve a family of fronts in ascending eps with warm starts.

    All solves share one grid (fine enough for the smallest eps, long
    enough for every member), so the previous correction seeds the next.
    """
    eps_list = sorted(float(e) for e in eps_list)
    if not eps_list or eps_list[0] <= 0:
        raise ConfigError("continuation needs positive eps values")
    if grid is None:
        finest = min(eps_list)
        L = max(solver_grid(potential, e).L for e in eps_list)
        grid = grid_for(L, min(0.05, finest / 16.0))
    continuum = solve_R0(potential, grid=grid)
    out: list[FrontSolution] = []
    W = None
    for e in eps_list:
        sol = solve_front(
            potential, e, grid=grid, initial=W, continuum=continuum, **solve_kwargs
        )
        out.append(sol)
        W = sol.W
    return out


def derivative_consistency(sol: FrontSolution) -> float:
    """Sup defect of the differentiated fixed point S = a_eps*(d2phi(R) S)."""
    grid = sol.grid
    a_hat = symbol_a(sol.eps, grid.k) if sol.eps > 0 else symbol_a0(grid.k)
    P = sol.potential.d2phi(sol.R)
    return float(np.max(np.abs(sol.S - _convolve(P * sol.S, grid, a_hat))))
