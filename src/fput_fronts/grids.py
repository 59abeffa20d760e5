"""Uniform periodic grids and spectral helpers.

All profile computations live on a uniform grid of N points covering
[-L, L) with spacing h = 2L/N, x_j = -L + j*h.  The Fourier convention is
fhat(k) = integral of exp(-2*pi*i*k*x) f(x) dx, so DFT bins sit at the
cyclic frequencies returned by ``numpy.fft.fftfreq(N, h)`` and symbol
multipliers are evaluated there directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import BarycentricInterpolator

from .errors import ConfigError


@dataclass(frozen=True)
class UniformGrid:
    """Periodic grid on [-L, L) with N points, N a power of two >= 256."""

    L: float
    N: int

    def __post_init__(self):
        if not self.L > 0:
            raise ConfigError(f"half-length must be positive, got {self.L}")
        n = self.N
        if n < 256 or (n & (n - 1)) != 0:
            raise ConfigError(f"N must be a power of two >= 256, got {n}")

    @cached_property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.N)

    @cached_property
    def k(self) -> np.ndarray:
        """Real-FFT frequencies (cycles per unit length)."""
        return np.fft.rfftfreq(self.N, d=self.h)

    def index_of(self, x0: float) -> int:
        """Index of the grid point at or just left of x0."""
        return int(np.floor((x0 + self.L) / self.h))


def grid_for(L: float, h_max: float) -> UniformGrid:
    """Smallest power-of-two grid on [-L, L) with spacing at most h_max."""
    n = 256
    while 2.0 * L / n > h_max:
        n *= 2
    return UniformGrid(L, n)


# Largest tent half-width: the kernel symbols and their poles stay well
# defined up to here (values above ``spectral.EPS0_DEFAULT`` are experimental)
EPS_HARD_MAX = 1.0


def max_spacing(eps: float) -> float:
    """Largest grid spacing at tent half-width eps: 0.05, and eps/16 (Nyquist 8/eps).

    Every front solve asks for it before any numerics, so it is also the
    one rule that rejects eps outside [0, ``EPS_HARD_MAX``] (``ConfigError``).
    """
    if not 0.0 <= eps <= EPS_HARD_MAX:
        raise ConfigError(f"eps must lie in [0, {EPS_HARD_MAX}], got {eps}")
    return min(0.05, eps / 16.0) if eps > 0 else 0.05


def require_bandwidth(grid: UniformGrid, eps: float) -> None:
    """Raise ``ConfigError`` if the grid spacing exceeds ``max_spacing(eps)``."""
    if grid.h > max_spacing(eps) * (1.0 + 1e-12):
        raise ConfigError(
            f"grid spacing {grid.h:.4g} exceeds {max_spacing(eps):.4g} at eps {eps:g}"
        )


@dataclass
class GridProfile:
    """Sampled profile: values[j] at x_j = -L + j*(2L/N)."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.N,):
            raise ConfigError(
                f"profile has {self.values.shape} values for an N={self.grid.N} grid"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("profile contains non-finite values")

    @property
    def L(self) -> float:
        return self.grid.L

    @property
    def N(self) -> int:
        return self.grid.N

    @property
    def x(self) -> np.ndarray:
        return self.grid.x


def apply_symbol(values: np.ndarray, grid: UniformGrid, symbol_values: np.ndarray) -> np.ndarray:
    """Apply a Fourier multiplier, given on the grid's rfft frequencies, to real samples.

    The multiplier must satisfy the Hermitian symmetry symbol(-k) =
    conj(symbol(k)), which holds for every kernel in this package (they are
    all real in physical space).
    """
    return np.fft.irfft(symbol_values * np.fft.rfft(values), n=grid.N)


def spectral_derivative(values: np.ndarray, grid: UniformGrid) -> np.ndarray:
    return apply_symbol(values, grid, 2j * np.pi * grid.k)


def periodic_shift(values: np.ndarray, grid: UniformGrid, shift: float) -> np.ndarray:
    """Samples of f(x + shift) for band-limited periodic f."""
    return apply_symbol(values, grid, np.exp(2j * np.pi * grid.k * shift))


def interpolate_local(
    values: np.ndarray, grid: UniformGrid, x0: float, order: int = 8
) -> float:
    """Polynomial interpolation of grid samples near a point.

    Uses the ``order`` nearest points (wrapping periodically); adequate for
    smooth profiles at sub-grid points, much cheaper than a full Fourier sum.
    """
    j0 = grid.index_of(x0)
    offs = np.arange(-(order // 2) + 1, order // 2 + 1)
    idx = (j0 + offs) % grid.N
    xs = grid.x[j0] + offs * grid.h
    interp = BarycentricInterpolator(xs, values[idx])
    return float(interp(x0))
