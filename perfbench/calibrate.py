"""Machine-speed calibration kernel.

On a 2-vCPU virtual machine whose host cores are shared (Xeon, Python
3.11, numpy 2.4), the speed of identical work drifts by 15-30 % over
seconds to minutes, which is more than any bound worth setting.  So every
timed op is bracketed by this fixed kernel, and the
reported times are *reference seconds*: the wall time scaled by
``REFERENCE_S`` over the kernel time measured around it.  On a machine where
the kernel takes exactly ``REFERENCE_S``, reference seconds are wall seconds.

The kernel uses numpy and scipy only, never fput_fronts, so no change to
the package can move it.  Its mix follows the workloads: a scalar DOP853
integration with a Python right-hand side (like the R0 ODE), small-array
numpy work with a banded solve (like a lattice step) and 32k-point FFTs
(like the front solver).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

REFERENCE_S = 0.05

_X = np.random.default_rng(0).standard_normal(32768)
_A = np.linspace(0.0, 1.0, 2000)
_AB = np.ones((3, 2000))
_AB[1] = 3.0


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    solve_ivp(lambda t, y: y * y - y, (0.0, 20.0), [0.5], method="DOP853",
              rtol=1e-12, atol=1e-300)
    for _ in range(200):
        b = np.where(np.clip(_A, 0.1, 0.9) > 0.5, _A * _A, _A)
        solve_banded((1, 1), _AB, b)
    for _ in range(20):
        np.fft.irfft(np.fft.rfft(_X))
    return time.perf_counter() - t0
