"""Independent references the tests check the solvers against.

``kernel_physical`` samples the fixed-point kernels in physical space from
their symbols; ``position_of_level`` inverts the continuum front by
quadrature, with no ODE integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad

from fput_fronts.errors import ConfigError
from fput_fronts.grids import UniformGrid, grid_for, max_spacing, require_bandwidth
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
