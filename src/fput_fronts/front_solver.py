"""Front profiles at finite eps via a Newton least-squares iteration.

The unit-speed front R solves the fixed point R = a_eps * dphi(R) (a
convolution).  Writing R = R0 + W with R0 the continuum profile and using
R0 = a0 * dphi(R0), the correction W solves

    F(W) = W + F1 - a_eps * (dphi(R0 + W) - dphi(R0)) = 0,

where the background term F1 = (a0 - a_eps) * dphi(R0) is a fixed, O(eps^2)
forcing (the tent symbol is even in eps).  At eps = 0 it is exactly 0 and
W = 0 solves the map: the continuum limit is the base point of the same
solve, not a separate case.  Everything lives on a periodic grid;
convolutions are Fourier multipliers.

Off the base point the correction follows the same expansion,
W = eps^2 W2 + O(eps^4), with W2 the solution of one linear continuum
problem (``leading_corrector``).  Every solve starts on that law: a cold
start from eps^2 W2, a sweep member from eps^2 W2 + eps^4 B with B fitted
to the member before it.

The linearization J = I - a_eps * (P .), P = d2phi(R), is singular at a
solution (translation mode R').  Its continuum limit I - a0 * (P .) =
(1 + d/dx)^{-1} (d/dx + 1 - P) is a first-order ODE operator, and J
differs from it by O(eps^2).  Each Newton step is right-preconditioned
with an O(N) inverse M^{-1} of that operator: LSMR (Fong & Saunders, SIAM
J. Sci. Comput. 33 (2011)) solves min |J M^{-1} y + F| and the step is
dW = M^{-1} y.  The inverse is pinned, z(x_c) = 0 at the center grid point
x_c = 0 (index N // 2), so its range leaves out the translation mode and
carries the phase condition (Beyn & Thuemmler, SIAM J. Appl. Dyn. Syst. 3
(2004)) without a border unknown or a second solver.  J M^{-1} =
I + (a0 - a_eps) * P M^{-1} is then close to the identity.  LSMR stops
once the step's linear residual is small against NEWTON_TOL, not against
|F| (an inexact-Newton forcing term: Eisenstat & Walker, SIAM J. Sci.
Comput. 17 (1996)), so a step near the fixed point takes a few inner
iterations and the outer test on the true residual decides convergence.
Since R0(0) = 1/2 and no step moves W at x_c, every iterate crosses 1/2 at
x = 0 exactly: the pin is the solver's only phase rule.  W2 vanishes at
x_c, so both starts are on phase; a start passed in by the caller is
re-centered once, before the first step, unless R already crosses 1/2 at
x_c, as the sweep's predicted starts do.

dphi(R0) does not decay (it tends to 1 on the left), but the continuum ODE
writes it as dphi(R0) = R0 + R0', and R0' decays at both ends.  With
ik = 2 pi i k and T the tent symbol, a0 * dphi(R0) = R0 turns the
background term into F1 = (1 - a_eps (1 + d/dx)) R0, the multiplier

    F1_hat = (1 - T) / (ik (1 + ik T)) FFT(R0'),

bounded, and 0 at k = 0 since 1 - T = O(k^2).  The slope S = -R' follows
from the fixed point R = a_eps * dphi(R) with dphi(R) = R0 + (dphi(R) - R0),
whose bracket decays:

    S = -IFFT[a_hat (FFT(R0') + ik FFT(dphi(R) - R0))],

again a bounded symbol on decaying data.  W itself does not match across
the periodic seam, so neither term differentiates it; only periodization
error remains.

The verification residual of the tent-averaged equation needs the defect
R0 - Lambda_eps * R0 of the continuum profile; it is integrated exactly
against the continuum's segment polynomials and tails
(``ContinuumSolution.tent_defect``), independent of the Fourier path.

Everything that depends on R0 alone, dphi(R0), S0 = -R0' and FFT(S0), is
computed once per continuum (``ContinuumSolution.force``, ``slope`` and
``slope_hat``) and shared by every solve on it; the a_eps symbol is built
once per solve and kept on the solution (``FrontSolution.a_hat``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, lsmr

from .continuum import ContinuumSolution, solve_R0, solver_grid
from .errors import (
    ConfigError,
    KrylovStagnationError,
    NewtonDivergenceError,
    NumericsError,
)
from .grids import (
    UniformGrid,
    apply_symbol,
    interpolate_local,
    periodic_shift,
    require_bandwidth,
)
from .potentials import Potential
from .spectral import symbol_a, tent_symbol

# Newton stops once the sup residual falls below NEWTON_TOL or the sup step
# below STEP_TOL, and gives up after MAX_NEWTON steps.  Each step's LSMR
# solve gets atol = btol = max(KRYLOV_TOL, KRYLOV_FORCING * NEWTON_TOL / |F|_2)
# and at most KRYLOV_MAXITER iterations: it asks for a linear residual of
# KRYLOV_FORCING * NEWTON_TOL = 1e-12 in the 2-norm, which bounds the sup
# norm (an inexact-Newton forcing term: Dembo, Eisenstat & Steihaug, SIAM J.
# Numer. Anal. 19 (1982)), or KRYLOV_TOL relative to |F|_2 when |F| is large.
NEWTON_TOL = 1e-10
STEP_TOL = 1e-12
KRYLOV_TOL = 1e-13
KRYLOV_FORCING = 0.01
KRYLOV_MAXITER = 400
MAX_NEWTON = 30


def background_term(eps: float, continuum: ContinuumSolution) -> np.ndarray:
    """The forcing F1 = (a0 - a_eps) * dphi(R0) on the continuum's grid.

    Through R0' = dphi(R0) - R0 it is the multiplier (1 - T)/(ik (1 + ik T))
    on the decaying R0' (0 at k = 0).  At eps = 0, T = 1 exactly, so the
    multiplier and F1 are exactly 0.  F1 decays at both ends; raises
    ``NumericsError`` if the computed end values exceed 1e-4 or are not
    finite (domain or bandwidth problem), and ``ConfigError`` if the grid
    spacing exceeds ``max_spacing(eps)``.
    """
    grid = continuum.grid
    require_bandwidth(grid, eps)
    ik = 2j * np.pi * grid.k[1:]
    T = tent_symbol(eps, grid.k[1:])
    symbol = np.zeros(grid.k.size, dtype=complex)
    # applied to the slope S0 = -R0', hence T - 1
    symbol[1:] = (T - 1.0) / (ik * (1.0 + ik * T))
    F1 = np.fft.irfft(symbol * continuum.slope_hat, n=grid.N)
    ends = float(np.max(np.abs(F1[[0, -1]])))  # NaN if either end is
    if not ends <= 1e-4:
        raise NumericsError(
            f"background term has not settled at the ends (|F1| = {ends:.2e}); "
            "increase the domain half-length"
        )
    return F1


def fixed_point_residual(
    continuum: ContinuumSolution, W: np.ndarray, F1: np.ndarray, a_hat: np.ndarray
) -> np.ndarray:
    """F(W) = W + F1 - a_eps * (dphi(R0 + W) - dphi(R0)) on the continuum's grid.

    ``a_hat`` is the symbol of a_eps on the grid's rfft frequencies.
    """
    nl = continuum.potential.dphi(continuum.values + W) - continuum.force
    return W + F1 - apply_symbol(nl, continuum.grid, a_hat)


@dataclass
class FrontSolution:
    """Computed front profile with its correction and diagnostics.

    ``a_hat`` is the a_eps symbol on the grid's rfft frequencies that the
    profile was solved with.
    """

    potential: Potential
    eps: float
    grid: UniformGrid
    continuum: ContinuumSolution
    a_hat: np.ndarray = field(repr=False)
    R: np.ndarray
    W: np.ndarray
    S: np.ndarray
    residual_fp: float
    iterations: int
    # one record per Newton step: sup residual after it, damping factor,
    # LSMR stop code, iterations and the tolerance it was given
    steps: list[dict] = field(default_factory=list)
    _tent_residual: float | None = field(default=None, repr=False)

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    @property
    def krylov_iterations(self) -> int:
        return sum(rec["itn"] for rec in self.steps)

    @property
    def h1_dist_to_R0(self) -> float:
        """H^1 distance of the profile to the continuum profile (W' = S0 - S)."""
        Wp = self.continuum.slope - self.S
        return float(
            np.sqrt(np.trapezoid(self.W**2 + Wp**2, dx=self.grid.h))
        )

    @property
    def slope_integral(self) -> float:
        return float(np.trapezoid(self.S, dx=self.grid.h))

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
    dnl = sol.potential.dphi(sol.R) - sol.continuum.force
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


def leading_corrector(continuum: ContinuumSolution) -> np.ndarray:
    """The eps^2 coefficient W2 of the correction, W = eps^2 W2 + O(eps^4).

    With T = 1 + eps^2 (ik)^2 / 12 + O(eps^4), a_eps = a0 + eps^2 a2 + O(eps^4)
    with a2 = (ik)^2 / (12 (1 + ik)^2), so F1 = -eps^2 a2 dphi(R0) + O(eps^4)
    and the eps^2 terms of F(W) = 0 read (I - a0 * P0) W2 = a2 * dphi(R0),
    P0 = d2phi(R0).  Through dphi(R0) = R0 + R0' the right side is the
    bounded multiplier -ik / (12 (1 + ik)) on the decaying S0 = -R0'.  The
    pinned continuum inverse solves the system with W2 = 0 at x = 0, so
    every eps^2 multiple of W2 is on phase.
    """
    grid = continuum.grid
    ik = 2j * np.pi * grid.k
    rhs = np.fft.irfft(-ik / (12.0 * (1.0 + ik)) * continuum.slope_hat, n=grid.N)
    P0 = continuum.potential.d2phi(continuum.values)
    return _ContinuumInverse(P0, grid.h, grid.N // 2).solve(rhs)


def _level(xq, continuum: ContinuumSolution, W: np.ndarray):
    """R(xq) - 1/2 for the profile R = continuum + W."""
    return continuum(xq) + interpolate_local(W, continuum.grid, xq) - 0.5


def _recenter(W: np.ndarray, continuum: ContinuumSolution) -> tuple[np.ndarray, float]:
    """Shift the profile so R crosses 1/2 at x = 0; returns (W, shift).

    A profile that is 1/2 at the center grid point is returned as it is,
    with no root search.
    """
    pin = continuum.grid.N // 2
    if continuum.values[pin] + W[pin] == 0.5:
        return W, 0.0
    from scipy.optimize import brentq

    x = continuum.grid.x
    vals = continuum.values + W - 0.5
    crossings = np.flatnonzero(vals[:-1] * vals[1:] <= 0.0)
    if crossings.size == 0:
        return W, 0.0  # no crossing to lock on
    j0 = crossings[np.argmin(np.abs(x[crossings]))]

    # passed as args, not captured: brentq wraps the function in a
    # self-referencing closure, which would keep the continuum and W alive
    # until the cyclic garbage collector next runs
    shift = brentq(_level, x[j0], x[j0 + 1], args=(continuum, W), xtol=1e-14)
    if shift == 0.0:
        return W, 0.0
    W_shifted = periodic_shift(W, continuum.grid, shift)
    return W_shifted + (continuum(x + shift) - continuum.values), shift


def solve_front(
    potential: Potential,
    eps: float,
    grid: UniformGrid | None = None,
    initial: np.ndarray | None = None,
    continuum: ContinuumSolution | None = None,
) -> FrontSolution:
    """Newton-Krylov solve of the front fixed point at a given eps.

    eps must lie in [0, ``EPS_HARD_MAX``] on every grid.  The grid defaults
    to ``solver_grid(potential, eps)``; a pinned grid must have spacing at
    most ``max_spacing(eps)`` (0.05 at eps = 0) or ``ConfigError`` is
    raised.  A cold start is W = eps^2 W2 (``leading_corrector``), on phase
    since W2(0) = 0.  eps = 0 takes the same path: the start and the
    background term are exactly 0 there, so F = 0, no Newton step runs, and
    R is R0 bitwise.  Warm starts pass
    ``initial`` (a W profile on the same grid), which is re-centered once
    so that R crosses 1/2 at x = 0 unless R0 + W is already 1/2 at the
    center grid point; every Newton step then keeps R(0) = 1/2 (the pinned
    preconditioner).  Convergence when the sup residual falls
    below ``NEWTON_TOL`` or the step below ``STEP_TOL``; five consecutive
    non-improving steps, or ``MAX_NEWTON`` steps, raise
    ``NewtonDivergenceError``, whose diagnostics hold one record per Newton
    step (sup residual after the step, damping factor, LSMR stop code,
    iterations and tolerance), as does a non-finite residual; a converged
    solution keeps the same records in ``steps``.  A non-finite ``initial``
    is a ``ConfigError``.  A ``continuum`` is reused only if it was solved
    for this potential on this grid; otherwise R0 is solved afresh.
    """
    if grid is None:
        grid = solver_grid(potential, eps)
    require_bandwidth(grid, eps)
    if continuum is None or continuum.grid is not grid or continuum.potential is not potential:
        continuum = solve_R0(potential, grid=grid)

    F1 = background_term(eps, continuum)
    a_hat = symbol_a(eps, grid.k)
    a_adj = np.conj(a_hat)
    pot = potential
    R0 = continuum.values

    if initial is None:
        W = eps**2 * leading_corrector(continuum)
    else:
        W = np.array(initial, dtype=float)
        if W.shape != (grid.N,) or not np.all(np.isfinite(W)):
            raise ConfigError("warm-start profile must be N finite values on the grid")
        W, _ = _recenter(W, continuum)

    def residual(Wv):
        return fixed_point_residual(continuum, Wv, F1, a_hat)

    # the center's grid point x = 0: every Newton step dW vanishes there
    pin = grid.N // 2
    F = residual(W)
    res_norm = float(np.max(np.abs(F)))
    bad_streak = 0
    steps: list[dict] = []
    iteration = 0
    while res_norm > NEWTON_TOL:
        if iteration == MAX_NEWTON:
            raise NewtonDivergenceError(
                f"no convergence in {MAX_NEWTON} Newton steps at eps={eps} "
                f"(residual {res_norm:.2e}); start a continuation_sweep from smaller eps",
                diagnostics={"steps": steps},
            )
        iteration += 1
        P = pot.d2phi(R0 + W)
        M = _ContinuumInverse(P, grid.h, pin)

        def matvec(y):
            z = M.solve(y)
            return z - apply_symbol(P * z, grid, a_hat)

        def rmatvec(v):
            return M.adjoint(v - P * apply_symbol(v, grid, a_adj))

        op = LinearOperator(
            (grid.N, grid.N), matvec=matvec, rmatvec=rmatvec, dtype=float
        )
        # no cap: the loop runs only while |F|_2 >= |F|_inf > NEWTON_TOL
        krylov_tol = max(KRYLOV_TOL, KRYLOV_FORCING * NEWTON_TOL / float(np.linalg.norm(F)))
        out = lsmr(op, -F, atol=krylov_tol, btol=krylov_tol, maxiter=KRYLOV_MAXITER)
        y, istop, itn, normr, normar, norma, conda, _ = out
        dW = M.solve(y)
        if istop == 7:
            raise KrylovStagnationError(
                f"inner least-squares solve hit {KRYLOV_MAXITER} iterations "
                f"at eps={eps}",
                diagnostics={
                    "residual_norm": float(normr),
                    "normal_residual_norm": float(normar),
                    "condition_estimate": float(conda),
                    "iterations": int(itn),
                    "krylov_tol": krylov_tol,
                    "curvature_min": float(np.min(P)),
                    "curvature_max": float(np.max(P)),
                },
            )

        step = 1.0
        for _ in range(9):
            W_try = W + step * dW
            F_try = residual(W_try)
            norm_try = float(np.max(np.abs(F_try)))
            if norm_try < res_norm:
                W, F, res_norm = W_try, F_try, norm_try
                bad_streak = 0
                break
            step *= 0.5
        else:
            W = W + step * dW  # smallest damped step; counts toward divergence
            F = residual(W)
            res_norm = float(np.max(np.abs(F)))
            bad_streak += 1
        steps.append(
            {
                "residual": res_norm,
                "damping": step,
                "istop": int(istop),
                "itn": int(itn),
                "krylov_tol": krylov_tol,
            }
        )
        if bad_streak >= 5:
            raise NewtonDivergenceError(
                f"residual grew over {bad_streak} consecutive steps at "
                f"eps={eps}; start a continuation_sweep from smaller eps",
                diagnostics={"steps": steps},
            )
        if float(np.max(np.abs(step * dW))) <= STEP_TOL:
            break
    if not np.isfinite(res_norm):
        raise NewtonDivergenceError(
            f"non-finite residual after {iteration} Newton steps at eps={eps}",
            diagnostics={"steps": steps},
        )

    R = R0 + W
    # S = -R' from R = a_eps * dphi(R), through decaying data only
    ik_dnl_hat = 2j * np.pi * grid.k * np.fft.rfft(pot.dphi(R) - R0)
    S_hat = a_hat * (continuum.slope_hat - ik_dnl_hat)
    S = np.fft.irfft(S_hat, n=grid.N)
    return FrontSolution(
        potential=potential,
        eps=eps,
        grid=grid,
        continuum=continuum,
        a_hat=a_hat,
        R=R,
        W=W,
        S=S,
        residual_fp=res_norm,
        iterations=iteration,
        steps=steps,
    )


def continuation_sweep(
    potential: Potential, eps_list, grid: UniformGrid | None = None
) -> list[FrontSolution]:
    """Solve a family of fronts in ascending eps with predicted warm starts.

    All solves share one grid, by default ``solver_grid(potential,
    *eps_list)`` (fine enough for the smallest eps, long enough for every
    member), and one leading corrector W2.  Each member starts from
    W = eps^2 W2 + eps^4 B, where B = 0 for the first member and
    B = (W_last - eps_last^2 W2) / eps_last^4 after each converged one.
    """
    eps_list = sorted(float(e) for e in eps_list)
    if not eps_list or eps_list[0] <= 0:
        raise ConfigError("continuation needs positive eps values")
    if grid is None:
        grid = solver_grid(potential, *eps_list)
    for e in eps_list:  # every member's eps cap and spacing, before any solve
        require_bandwidth(grid, e)
    continuum = solve_R0(potential, grid=grid)
    W2 = leading_corrector(continuum)
    B = np.zeros(grid.N)  # eps^4 coefficient, refitted to each converged member
    out: list[FrontSolution] = []
    for e in eps_list:
        sol = solve_front(
            potential, e, grid=grid, initial=e**2 * W2 + e**4 * B, continuum=continuum
        )
        out.append(sol)
        B = (sol.W - e**2 * W2) / e**4
    return out


def derivative_consistency(sol: FrontSolution) -> float:
    """Sup defect of the differentiated fixed point S = a_eps*(d2phi(R) S)."""
    P = sol.potential.d2phi(sol.R)
    return float(np.max(np.abs(sol.S - apply_symbol(P * sol.S, sol.grid, sol.a_hat))))
