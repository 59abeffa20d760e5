"""Uniform periodic grids and spectral helpers.

All profile computations live on a uniform grid of N points covering
[-L, L) with spacing h = 2L/N, x_j = -L + j*h and the center x_{N/2} = 0.
N is even and N/2 has no prime factor above 5, so every FFT length is a
fast mixed-radix one; the default grid (``grid_for``) takes the smallest
such N within the spacing rule ``max_spacing``.  The Fourier convention is
fhat(k) = integral of exp(-2*pi*i*k*x) f(x) dx, so DFT bins sit at the
cyclic frequencies returned by ``numpy.fft.fftfreq(N, h)`` and symbol
multipliers are evaluated there directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import next_fast_len

from .errors import ConfigError


MIN_POINTS = 256


@dataclass(frozen=True)
class UniformGrid:
    """Periodic grid on [-L, L) with N points: N = 2m >= 256, m = 2^a 3^b 5^c.

    Any other N raises ``ConfigError``.  Every power of two qualifies and
    keeps its x_j = -L + j*h bits; the center point x_{N/2} is the front's
    pin and is 0 exactly on every grid, where (N/2)*h can round away from L.
    """

    L: float
    N: int

    def __post_init__(self):
        if not self.L > 0:
            raise ConfigError(f"half-length must be positive, got {self.L}")
        n = self.N
        if n < MIN_POINTS or n % 2 or next_fast_len(n // 2, real=True) != n // 2:
            raise ConfigError(
                f"N must be 2m >= {MIN_POINTS} with m = 2^a 3^b 5^c, got {n}"
            )

    @cached_property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        x = -self.L + self.h * np.arange(self.N)
        x[self.N // 2] = 0.0
        return x

    @cached_property
    def k(self) -> np.ndarray:
        """Real-FFT frequencies (cycles per unit length)."""
        return np.fft.rfftfreq(self.N, d=self.h)

    def index_of(self, x0: float) -> int:
        """Index of the grid point at or just left of x0 (by the values of ``x``)."""
        return int(np.searchsorted(self.x, x0, side="right")) - 1


def grid_for(L: float, h_max: float) -> UniformGrid:
    """Smallest ``UniformGrid`` on [-L, L) with spacing 2L/N at most h_max.

    N = 2m with m the smallest 5-smooth number (``next_fast_len``) that
    meets the spacing in floating point, and N >= 256.
    """
    m = max(MIN_POINTS // 2, int(L / h_max))
    while True:
        m = next_fast_len(m, real=True)
        if 2.0 * L / (2 * m) <= h_max:
            return UniformGrid(L, 2 * m)
        m += 1


def coarsest_decimation(grid: UniformGrid, h_max: float) -> UniformGrid:
    """Coarsest grid made of every r-th point of ``grid`` with spacing at most h_max.

    Same L and N/r points for the largest integer r that divides N/2 (so
    the center point N/2 maps to the center point N/(2r), and N/(2r), a
    divisor of a 5-smooth number, is 5-smooth) and leaves N/r >= 256 with
    2L/(N/r) <= h_max, the spacing test of ``grid_for``.  Returns ``grid``
    itself when no r > 1 qualifies.
    """
    half = grid.N // 2
    for r in range(half // (MIN_POINTS // 2), 1, -1):
        if half % r == 0 and 2.0 * grid.L / (grid.N // r) <= h_max:
            return UniformGrid(grid.L, grid.N // r)
    return grid


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
    from scipy.interpolate import BarycentricInterpolator

    j0 = grid.index_of(x0)
    offs = np.arange(-(order // 2) + 1, order // 2 + 1)
    idx = (j0 + offs) % grid.N
    xs = grid.x[j0] + offs * grid.h
    interp = BarycentricInterpolator(xs, values[idx])
    return float(interp(x0))
