"""The grid sizing rule and the UniformGrid contract."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fput_fronts import ConfigError, UniformGrid, grid_for, quadratic_force_potential, solve_front
from fput_fronts.grids import coarsest_decimation, max_spacing


def _smooth5(m: int) -> bool:
    """m has no prime factor above 5."""
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def _previous_smooth5(m: int) -> int | None:
    """The largest 5-smooth number in [128, m), or None."""
    for k in range(m - 1, 127, -1):
        if _smooth5(k):
            return k
    return None


@settings(max_examples=60, deadline=None)
@given(L=st.floats(40.0, 300.0), eps=st.floats(0.005, 1.0))
# (N/2)*h rounds away from L here (x_c would be 1.4e-14), and here
# floor(L / h) falls one short of N/2
@example(L=121.07617752272621, eps=0.4262098167277128)
@example(L=172.83110996129858, eps=0.7542650566636669)
def test_grid_for_is_the_smallest_fast_grid(L, eps):
    h_max = max_spacing(eps)
    grid = grid_for(L, h_max)
    N, m = grid.N, grid.N // 2
    assert grid.L == L and N == 2 * m and N >= 256
    assert grid.h == 2.0 * L / N <= h_max
    assert _smooth5(m)
    smaller = _previous_smooth5(m)
    assert smaller is None or 2.0 * L / (2 * smaller) > h_max
    # the three invariants the solver and the tent defect rely on
    x = grid.x
    assert x[m] == 0.0
    assert grid.index_of(0.0) == m
    assert x[0] >= -L
    # every other point keeps x_j = -L + j*h
    expected = -L + grid.h * np.arange(N)
    expected[m] = 0.0
    assert x.tobytes() == expected.tobytes()


def test_default_sizes():
    # max_spacing 0.05, eps/16: the front-cold grids at L = 40
    assert [grid_for(40.0, max_spacing(e)).N for e in (0.0, 0.1, 0.05, 0.02)] == [
        1600, 12800, 25600, 64000]


@pytest.mark.parametrize(
    "N, reason",
    [(12801, "odd"), (1792, "N/2 = 2^7 * 7"), (1400, "N/2 = 2^2 * 5^2 * 7"), (200, "below 256")],
)
def test_uniform_grid_rejects(N, reason):
    with pytest.raises(ConfigError) as err:
        UniformGrid(40.0, N)
    message = str(err.value)
    assert "\n" not in message
    assert message == f"N must be 2m >= 256 with m = 2^a 3^b 5^c, got {N}"


@pytest.mark.parametrize("N", [256, 384, 1600, 12800, 16384, 25600, 64000, 131072])
def test_uniform_grid_accepts(N):
    grid = UniformGrid(40.0, N)
    assert grid.x[N // 2] == 0.0 and grid.index_of(0.0) == N // 2


@pytest.mark.parametrize(
    "N, h_max, coarse",
    [
        (25600, max_spacing(0.4), 3200),  # r = 8, spacing exactly 0.025
        (25600, max_spacing(0.3), 5120),  # r = 6 does not divide N/2 = 2^9 5^2
        (1280, 1.0, 256),  # r = 5, the most that keeps N/r >= 256
        (768, 1.0, 256),  # r = 3
        (25600, max_spacing(0.05), 25600),  # no r > 1 qualifies
        (256, 1.0, 256),
    ],
)
def test_coarsest_decimation(N, h_max, coarse):
    grid = UniformGrid(40.0, N)
    out = coarsest_decimation(grid, h_max)
    assert out == UniformGrid(40.0, coarse)
    assert (out is grid) == (coarse == N)
    r = N // coarse
    assert out.h <= h_max and out.x[coarse // 2] == grid.x[N // 2] == 0.0
    assert np.max(np.abs(out.x - grid.x[::r])) <= 1e-12


def test_pinned_power_of_two_front_keeps_its_x_bits():
    """A pinned L = 40, N = 16384 front has the same grid points as before
    non-power-of-two sizes were admitted: x_j = (j - 8192) * 80/16384, exactly."""
    sol = solve_front(quadratic_force_potential(), 0.1, grid=UniformGrid(40.0, 16384))
    x = sol.grid.x
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "e0be7258f31d672c1ca36e85335f16def542d54f5ad5b9879c415f5474989369"
    )
    assert x.tobytes() == (np.arange(-8192, 8192) * (80.0 / 16384)).tobytes()
