"""Front profiles at finite eps via a Newton least-squares iteration.

The unit-speed front R solves the fixed point R = a_eps * dphi(R) (a
convolution).  Writing R = R0 + W with R0 the continuum profile and using
R0 = a0 * dphi(R0), the correction W solves

    F(W) = W + F1 - a_eps * (dphi(R0 + W) - dphi(R0)) = 0,

where the background term F1 = (a0 - a_eps) * dphi(R0) is a fixed, O(eps^2)
forcing (the tent symbol is even in eps).  Everything lives on a periodic
grid; convolutions are Fourier multipliers.

The linearization J = I - a_eps * (P .), P = d2phi(R), is singular at a
solution (translation mode R').  Its continuum limit I - a0 * (P .) =
(1 + d/dx)^{-1} (d/dx + 1 - P) is a first-order ODE operator, and J
differs from it by O(eps^2).  Each Newton step is right-preconditioned
with an O(N) inverse M^{-1} of that operator: LSMR (Fong & Saunders, SIAM
J. Sci. Comput. 33 (2011)) solves min |J M^{-1} y + F| and the step is
dW = M^{-1} y.  The inverse is pinned, z(x_c) = 0 at the grid point x_c of
the requested center, so its range leaves out the translation mode and
carries the phase condition (Beyn & Thuemmler, SIAM J. Appl. Dyn. Syst. 3
(2004)) without a border unknown or a second solver.  J M^{-1} =
I + (a0 - a_eps) * P M^{-1} is then close to the identity, and a handful of
inner iterations suffice.  Each step is still re-centered so that R crosses 1/2 at the
center; at a grid-point center the pin already holds R(x_c) = 1/2 and the
shift found is 0.

The background term needs care: dphi(R0) does not decay (it tends to 1 on
the left), so it is split as dphi(R0) = s_delta + g_delta with s_delta a
mollified step (Gaussian width delta = 6h).  The remainder g_delta decays
on both sides and convolves spectrally; the step part has the closed-form
symbol -b_hat(k) m_hat(k) / (2 pi i k) with b_hat(0)' = 0 making the k = 0
limit zero.  The split is exact; only periodization error remains.

The verification residual of the tent-averaged equation needs the defect
R0 - Lambda_eps * R0 of the continuum profile; it is integrated exactly
against the continuum's segment polynomials and tails
(``ContinuumSolution.tent_defect``), independent of the Fourier path.
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
    max_spacing,
    periodic_shift,
    require_bandwidth,
    spectral_derivative,
)
from .potentials import Potential
from .spectral import symbol_a, symbol_a0, tent_symbol


def solver_grid(potential: Potential, eps: float) -> UniformGrid:
    """Default grid: tails settled far below tolerance, tent scale resolved.

    Half-length ``suggest_half_length(potential, eps)``; spacing at most
    ``max_spacing(eps)``.
    """
    return grid_for(suggest_half_length(potential, eps), max_spacing(eps))


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
    require_bandwidth(grid, eps)
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
        W + Lambda * W' + (R0 - Lambda * R0) - Lambda * (dphi(R) - dphi(R0)).
        The two Lambda terms are one Fourier multiplier; the middle bracket
        is integrated exactly against the continuum's segment polynomials
        (``ContinuumSolution.tent_defect``).
        """
        if self._tent_residual is None:
            self._tent_residual = _tent_residual(self)
        return self._tent_residual


def _tent_residual(sol: FrontSolution) -> float:
    grid = sol.grid
    W_hat = np.fft.rfft(sol.W)
    dnl = sol.potential.dphi(sol.R) - sol.potential.dphi(sol.continuum.values)
    # Lambda * (W' - dnl) as one Fourier multiplier
    smoothed_hat = tent_symbol(sol.eps, grid.k) * (2j * np.pi * grid.k * W_hat - np.fft.rfft(dnl))
    res = sol.W + np.fft.irfft(smoothed_hat, n=grid.N) + sol.continuum.tent_defect(sol.eps, grid)
    return float(np.max(np.abs(res)))


# Largest e-fold range of the integrating factor within one block of
# ``_OutwardSolve``: e^709 overflows, and one grid step must fit in the rest.
_BLOCK_EFOLDS = 600.0


class _OutwardSolve:
    """One side of the pinned continuum inverse, stepped outward from the pin.

    On the side ``sign`` (+1 right, -1 left, in the outward coordinate
    s = sign * (x - x_c)) the correction obeys w_s + sign * (1 - P) w =
    sign * P r with w(0) = -r(x_c).  With G the trapezoid integral of
    sign * (1 - P) from the pin, the trapezoid solution is

        z_n = r_n + w_n = q_n r_n + e^{-G_n} (v_0 + sum_{0<i<=n} h e^{G_i} sign P_i r_i),

    q = 1 - sign * h/2 * P and v_0 = -q_0 r(x_c): one partial sum per side,
    taken outward from the pin, so it is dominated by its newest terms and
    the e^{+-G} weights never cancel.  A new block, with G re-based to 0,
    starts wherever G has moved by more than ``_BLOCK_EFOLDS`` from the
    start of the current one, so the weights stay finite on any domain (an
    ordinary front needs one block).  ``adjoint`` is the exact transpose.
    """

    def __init__(self, P: np.ndarray, h: float, sign: float):
        a = sign * (1.0 - P)
        G = np.concatenate(([0.0], np.cumsum(0.5 * h * (a[:-1] + a[1:]))))
        starts = [0]
        while True:
            over = np.flatnonzero(np.abs(G[starts[-1] :] - G[starts[-1]]) > _BLOCK_EFOLDS)
            if over.size == 0:
                break
            starts.append(starts[-1] + int(over[0]))
        self.q = 1.0 - sign * 0.5 * h * P
        # per block [s, e]: up = sign * h * e^{G - G_s} * P, down = e^{-(G - G_s)}
        self.blocks = []
        for s, e in zip(starts, starts[1:] + [G.size - 1]):
            if e > s:
                Gb = G[s : e + 1] - G[s]
                self.blocks.append((s, e, sign * h * np.exp(Gb) * P[s : e + 1], np.exp(-Gb)))

    def solve(self, r: np.ndarray, z: np.ndarray) -> None:
        """Write z_n for n >= 1 (and q_0 r_0 at the pin) into ``z``."""
        np.multiply(self.q, r, out=z)
        v = -self.q[0] * r[0]
        for s, e, up, down in self.blocks:
            t = up * r[s : e + 1]
            t[0] = v
            np.cumsum(t, out=t)
            t *= down
            z[s + 1 : e + 1] += t[1:]
            v = t[-1]

    def adjoint(self, y: np.ndarray, rbar: np.ndarray) -> float:
        """Write the transpose applied to y (pin entry ignored) into ``rbar``.

        Returns the share of r(x_c), the pin value this side starts from.
        """
        np.multiply(self.q, y, out=rbar)
        carry = 0.0
        for s, e, up, down in reversed(self.blocks):
            u = down * y[s : e + 1]
            u[0] = 0.0
            u[-1] += down[-1] * carry
            back = u[::-1]  # partial sums from the outer end inward
            np.cumsum(back, out=back)
            carry = u[0]
            u *= up
            rbar[s + 1 : e + 1] += u[1:]
        return -self.q[0] * carry


class _ContinuumInverse:
    """Pinned O(N) inverse of the continuum linearization I - a0 * (P .).

    ``solve(r)`` returns z with (I - a0 * P) z = r up to O(h^2) and
    z[c] = 0.  Since a0 = (1 + d/dx)^{-1}, the equation is the first-order
    ODE z' + (1 - P) z = r' + r; with z = r + w it reads
    w' + (1 - P) w = P r, w(x_c) = -r(x_c), and takes no derivative of r.
    Its homogeneous solution is the translation mode, which decays away
    from x_c on both sides (1 - P > 0 on the right, < 0 on the left), so w
    is integrated outward from x_c on each side.  The pin z[c] = 0 is the
    phase condition: the range of the inverse leaves out the translation
    mode.  ``adjoint`` is the exact transpose of ``solve``.
    """

    def __init__(self, P: np.ndarray, h: float, c: int):
        self.c = c
        self.sides = (_OutwardSolve(P[c:], h, 1.0), _OutwardSolve(P[c::-1], h, -1.0))

    def _outward(self, a: np.ndarray):
        """Views of ``a`` from the pin outward: rightward, then leftward."""
        return a[self.c :], a[self.c :: -1]

    def solve(self, r: np.ndarray) -> np.ndarray:
        z = np.empty_like(r)
        for side, r_side, z_side in zip(self.sides, self._outward(r), self._outward(z)):
            side.solve(r_side, z_side)
        z[self.c] = 0.0
        return z

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        rbar = np.empty_like(y)
        rbar[self.c] = sum(
            side.adjoint(y_side, rbar_side)
            for side, y_side, rbar_side in zip(self.sides, self._outward(y), self._outward(rbar))
        )
        return rbar


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
    five consecutive non-improving steps raise ``NewtonDivergenceError``,
    whose diagnostics hold one record per Newton step (sup residual after
    the step, damping factor, LSMR stop code and iterations).  A
    ``continuum`` is reused only if it was solved for this potential on this
    grid; otherwise R0 is solved afresh.
    """
    if eps < 0:
        raise ConfigError(f"eps must be nonnegative, got {eps}")
    if grid is None:
        if L is None:
            L = suggest_half_length(potential, eps)
        grid = UniformGrid(L, N) if N is not None else grid_for(L, max_spacing(eps))
    if eps > 0:
        require_bandwidth(grid, eps)
    if continuum is None or continuum.grid is not grid or continuum.potential is not potential:
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
    a_adj = np.conj(a_hat)
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

    # the grid point of the center: every Newton step dW vanishes there
    pin = int(np.clip(np.rint((center + grid.L) / grid.h), 0, grid.N - 1))
    F = residual(W)
    res_norm = float(np.max(np.abs(F)))
    bad_streak = 0
    steps: list[dict] = []
    iteration = 0
    converged = res_norm <= newton_tol
    for iteration in range(1, max_newton + 1):
        if converged:
            break
        P = pot.d2phi(R0 + W)
        M = _ContinuumInverse(P, grid.h, pin)

        def matvec(y):
            z = M.solve(y)
            return z - _convolve(P * z, grid, a_hat)

        def rmatvec(v):
            return M.adjoint(v - P * _convolve(v, grid, a_adj))

        op = LinearOperator(
            (grid.N, grid.N), matvec=matvec, rmatvec=rmatvec, dtype=float
        )
        out = lsmr(op, -F, atol=krylov_tol, btol=krylov_tol, maxiter=krylov_maxiter)
        y, istop, itn, normr, normar, norma, conda, _ = out
        dW = M.solve(y)
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
        W, _ = _recenter(W, continuum, grid, center)
        F = residual(W)
        res_norm = float(np.max(np.abs(F)))
        steps.append({"residual": res_norm, "damping": step, "istop": int(istop), "itn": int(itn)})
        if bad_streak >= 5:
            raise NewtonDivergenceError(
                f"residual grew over {bad_streak} consecutive steps at "
                f"eps={eps}; start a continuation_sweep from smaller eps",
                diagnostics={"steps": steps},
            )
        if res_norm <= newton_tol or float(np.max(np.abs(step * dW))) <= step_tol:
            converged = True
            break

    if not converged:
        raise NewtonDivergenceError(
            f"no convergence in {max_newton} Newton steps at eps={eps} "
            f"(residual {res_norm:.2e}); start a continuation_sweep from smaller eps",
            diagnostics={"steps": steps},
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
        krylov_iterations=sum(rec["itn"] for rec in steps),
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
        L = max(suggest_half_length(potential, e) for e in eps_list)
        grid = grid_for(L, max_spacing(eps_list[0]))
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
