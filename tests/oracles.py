"""Independent references the tests check the solvers against.

``kernel_physical`` samples the fixed-point kernels in physical space from
their symbols; ``position_of_level`` inverts the continuum front by
quadrature, with no ODE integrator.  The lattice references write the
integrators' arithmetic out plainly, one new array per operation, each
with its own LAPACK factor: ``particle_steps`` and ``free_chain_energies``
step the chains as the package does, ``imex_steps`` steps the Dirichlet
chain in the other variables (the strain scheme), and
``profile_distances`` compares a trajectory with the front at every site
for every shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.optimize import minimize_scalar

from fput_fronts.errors import ConfigError, NumericsError
from fput_fronts.grids import UniformGrid, grid_for, max_spacing, require_bandwidth
from fput_fronts.lattice_sim import crossing_position
from fput_fronts.potentials import Potential
from fput_fronts.spectral import _check_eps_mu, symbol_a


@dataclass
class KernelSamples:
    """Physical-space kernel samples on a uniform grid.

    ``a_eps`` and ``a0`` are inverse DFTs of their symbols (hence the
    periodized, band-limited kernels; ``a0`` shows Gibbs wiggles at its jump),
    ``b = a0 - a_eps``, and ``B`` is the right-to-left cumulative trapezoid
    of ``b``, i.e. B(x) = integral_x^L b, vanishing at the right end.
    """

    grid: UniformGrid
    a_eps: np.ndarray
    a0: np.ndarray
    b: np.ndarray
    B: np.ndarray

    @property
    def mass_a(self) -> float:
        return float(np.trapezoid(self.a_eps, dx=self.grid.h))

    @property
    def mass_b(self) -> float:
        return float(np.trapezoid(self.b, dx=self.grid.h))


def kernel_physical(eps: float, L: float = 40.0, N: int | None = None) -> KernelSamples:
    """Sample the kernels on a grid resolving the tent scale.

    Requires spacing at most ``max_spacing(eps)``, so the Nyquist frequency
    reaches 8/eps.
    """
    _check_eps_mu(eps, 0.0)
    grid = grid_for(L, max_spacing(eps)) if N is None else UniformGrid(L, N)
    require_bandwidth(grid, eps)
    a_eps = np.fft.fftshift(np.fft.irfft(symbol_a(eps, grid.k), n=grid.N)) / grid.h
    a0 = np.fft.fftshift(np.fft.irfft(symbol_a(0.0, grid.k), n=grid.N)) / grid.h
    b = a0 - a_eps
    C = cumulative_trapezoid(b, dx=grid.h, initial=0.0)
    B = C[-1] - C
    return KernelSamples(grid=grid, a_eps=a_eps, a0=a0, b=b, B=B)


def position_of_level(potential: Potential, level: float) -> float:
    """Quadrature inversion x(R) = integral_{1/2}^{R} drho / (dphi(rho) - rho).

    Independent of the ODE integrator; used to cross-check solve_R0.  Valid
    for levels strictly inside (0, 1).
    """
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must lie in (0, 1), got {level}")

    def integrand(rho):
        return 1.0 / (potential.dphi(rho) - rho)

    val, _ = quad(integrand, 0.5, level, epsabs=1e-13, epsrel=1e-13, limit=200)
    return float(val)


def profile_distances(traj, sol) -> np.ndarray:
    """Min-over-shift sup distance to the solved front, one value per snapshot.

    Every evaluation takes the maximum over all sites; the package's
    ``profile_distances`` skips sites it can bound and must return the same
    bits.
    """
    n = np.arange(1, traj.snapshots.shape[1] + 1)
    r_left, r_right = traj.final_state.r_left, traj.final_state.r_right
    level = 0.5 * (r_left + r_right)
    out = np.empty(len(traj.snapshots))
    for k, snap in enumerate(traj.snapshots):
        c = crossing_position(snap, level)
        if c is None:
            raise NumericsError("snapshot has no level crossing to align on")

        def dist(center):
            x = traj.eps * (n - center)
            front = r_right + (r_left - r_right) * np.interp(
                x, sol.grid.x, sol.R, left=1.0, right=0.0
            )
            return float(np.max(np.abs(snap - front)))

        res = minimize_scalar(dist, bounds=(c - 3.0, c + 3.0), method="bounded",
                              options={"xatol": 1e-10})
        out[k] = float(res.fun)
    return out


def _factor(diag, c: float):
    """LDL^T factor of the tridiagonal with diagonal ``diag`` and off-diagonals -c."""
    return dpttrf(diag, np.full(diag.size - 1, -c))[:2]


def _solve(factor, rhs):
    return dpttrs(*factor, rhs)[0]


def _free_end_factor(n: int, c: float):
    """I + c D^T D on n particles: diagonal 1 + 2c, corner entries 1 + c."""
    diag = np.full(n, 1.0 + 2.0 * c)
    diag[0] = diag[-1] = 1.0 + c
    return _factor(diag, c)


def particle_steps(state, dt: float, n_steps: int, potential: Potential):
    """Strains and particle velocities after ``n_steps`` steps of the Dirichlet chain."""
    factor = _free_end_factor(state.M + 1, dt * state.gamma)
    f_left, f_right = float(potential.dphi(state.r_left)), float(potential.dphi(state.r_right))
    r, w = state.r, state.w
    for _ in range(n_steps):
        f = potential.dphi(r)
        g = np.concatenate([[f[0] - f_left], f[1:] - f[:-1], [f_right - f[-1]]])
        w = _solve(factor, w + dt * g)
        r = r + dt * np.diff(w)
    return r, w


def imex_steps(state, dt: float, n_steps: int, potential: Potential):
    """Strains and strain velocities after ``n_steps`` steps of the strain scheme.

    The scheme v' = Delta dphi(r) + gamma Delta v with Dirichlet ghosts,
    stepped as (I + dt gamma L) v+ = v + dt Delta dphi(r), r+ = r + dt v+
    with L = -Delta: the particle step under D, so it agrees with it to
    rounding, not bit for bit.
    """
    M = state.r.size
    c = dt * state.gamma
    factor = _factor(np.full(M, 1.0 + 2.0 * c), c)
    f_left, f_right = float(potential.dphi(state.r_left)), float(potential.dphi(state.r_right))
    r, v = state.r, state.v
    for _ in range(n_steps):
        f = potential.dphi(r)
        lap = np.empty(M)
        lap[1:-1] = f[:-2] - 2.0 * f[1:-1] + f[2:]
        lap[0] = f_left - 2.0 * f[0] + f[1]
        lap[-1] = f[-2] - 2.0 * f[-1] + f_right
        v = _solve(factor, v + dt * lap)
        r = r + dt * v
    return r, v


def free_chain_energies(u, r, gamma: float, dt: float, n_steps: int, potential: Potential):
    """Energies of the free-end chain in particle velocities, step by step."""
    factor = _free_end_factor(u.size, dt * gamma)
    energies = [float(np.sum(u**2) / 2 + np.sum(potential.phi(r)))]
    for _ in range(n_steps):
        f = potential.dphi(r)
        dT = np.concatenate([[-f[0]], f[:-1] - f[1:], [f[-1]]])
        u = _solve(factor, u - dt * dT)
        r = r + dt * np.diff(u)
        energies.append(float(np.sum(u**2) / 2 + np.sum(potential.phi(r))))
    return np.array(energies)
