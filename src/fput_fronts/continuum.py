"""Leading-order continuum front profile.

In the normalized setting the continuum profile solves the scalar ODE

    R0'(x) = dphi(R0(x)) - R0(x),   R0(0) = 1/2,

connecting 1 at -infinity to 0 at +infinity.  It is computed with a
high-order explicit integrator outward from the midpoint in both
directions and kept as dense output for off-grid evaluation.

A precaution keeps the exponential tails meaningful in double precision.
The left branch is integrated in the gap variable Q = 1 - R0 with purely
relative error control, and its right-hand side is evaluated through the
curvature integral

    dphi(1) - dphi(1 - Q) = Q * integral_0^1 d2phi(1 - Q s) ds

(by Gauss-Legendre quadrature) instead of by direct subtraction, which
would lose all relative accuracy once Q drops below about 1e-7 and stall
the step controller.  The right branch has no such cancellation and is
integrated directly.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import ConfigError, DomainTooSmallError
from .grids import GridProfile, UniformGrid, grid_for
from .potentials import Potential

SETTLE_TOL = 1e-8
_CHUNK = 16384  # points per evaluation pass
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gap_rhs(potential: Potential):
    """Right-hand side for the gap Q = 1 - R0, free of cancellation.

    Returns Q' = (1 - Q) - dphi(1 - Q) written as Q*(I(Q) - 1) + e1 with
    I(Q) the curvature integral over [1 - Q, 1] divided by Q and e1 the
    (at most 1e-12) normalization defect 1 - dphi(1).
    """
    s = 0.5 * (_GL_NODES + 1.0)  # quadrature nodes on [0, 1]
    w = 0.5 * _GL_WEIGHTS
    e1 = 1.0 - float(potential.dphi(1.0))

    def rhs(_, q):
        qv = q[0]
        curv = potential.d2phi(1.0 - qv * s)
        return qv * (float(np.dot(w, curv)) - 1.0) + e1

    return rhs


def decay_rates(potential: Potential) -> tuple[float, float]:
    """Linearized tail rates (left, right) of the normalized front.

    The right tail decays like exp(-(1 - p_plus) x) and the left gap
    1 - R0 decays like exp((p_minus - 1) x); both exponents must be
    positive for a monotone front between nondegenerate states.
    """
    m_minus = potential.p_minus - 1.0
    m_plus = 1.0 - potential.p_plus
    if m_plus <= 0 or m_minus <= 0:
        raise ConfigError(
            f"potential has p_plus={potential.p_plus}, p_minus={potential.p_minus}; "
            "front tail rates require p_plus < 1 < p_minus"
        )
    return m_minus, m_plus


def suggest_half_length(potential: Potential) -> float:
    """Half-length such that both tails settle far below working precision."""
    m_minus, m_plus = decay_rates(potential)
    return max(40.0, 20.0 / min(m_minus, m_plus, 1.0))


class _DenseTable:
    """One branch's DOP853 dense output packed into per-segment arrays.

    Gives bitwise what scipy's ``OdeSolution.__call__`` gives: the same
    segment at the knots (``side``/``ascending`` rule, so a knot belongs to
    the segment nearer the branch start) and the same Horner order as
    ``Dop853DenseOutput`` (reversed F, alternating factors x and 1 - x, then
    y_old).  It replaces scipy's argsort and per-segment Python loop by one
    ``searchsorted`` and array arithmetic.  Segments are stored in ascending
    knot order; query points need not be sorted, but sorted ones search fastest.
    """

    def __init__(self, ode_solution):
        segments = list(ode_solution.interpolants)
        if not ode_solution.ascending:
            segments.reverse()
        self.knots = ode_solution.ts_sorted
        self.side = ode_solution.side
        self.t_old = np.array([s.t_old for s in segments])
        self.h = np.array([s.h for s in segments])
        self.y_old = np.array([s.y_old[0] for s in segments])
        self.horner = np.array([s.F[::-1, 0] for s in segments]).T.copy()

    def __call__(self, t: np.ndarray) -> np.ndarray:
        seg = np.searchsorted(self.knots, t, side=self.side) - 1
        # mode="clip" is scipy's clamp to the first and last segment; every
        # gathered per-segment value goes through the one buffer
        buf = self.t_old.take(seg, mode="clip")
        x = t - buf
        x /= self.h.take(seg, out=buf, mode="clip")
        one_minus_x = 1 - x
        y = np.zeros_like(x)
        for i, coef in enumerate(self.horner):
            y += coef.take(seg, out=buf, mode="clip")
            y *= x if i % 2 == 0 else one_minus_x
        y += self.y_old.take(seg, out=buf, mode="clip")
        return y


def _evaluate(f, x):
    """f applied pointwise to any-shape x; floats give floats.

    Runs over cache-sized slices of the flattened points, so the temporaries
    of each pass stay in cache.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if flat.size <= _CHUNK:
        out = f(flat)
    else:
        out = np.empty_like(flat)
        for start in range(0, flat.size, _CHUNK):
            out[start : start + _CHUNK] = f(flat[start : start + _CHUNK])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _split(x: np.ndarray, first: np.ndarray, f_first, f_rest) -> np.ndarray:
    """f_first on x[first] and f_rest on the other points, as one array."""
    if first.all():
        return f_first(x)
    rest = ~first
    if rest.all():
        return f_rest(x)
    out = np.empty_like(x)
    out[first] = f_first(x[first])
    out[rest] = f_rest(x[rest])
    return out


class ContinuumSolution:
    """Dense continuum front with grid samples and tail extension."""

    def __init__(self, potential: Potential, grid: UniformGrid, sol_gap, sol_right):
        self.potential = potential
        self.grid = grid
        self._gap = sol_gap  # dense Q = 1 - R0 on [-L, 0]
        self._right = sol_right  # dense R0 on [0, L]
        self._gap_table = _DenseTable(sol_gap.sol)
        self._right_table = _DenseTable(sol_right.sol)
        self.m_minus, self.m_plus = decay_rates(potential)
        self._qL = float(self._gap_table(np.array([-grid.L]))[0])
        self._rL = float(self._right_table(np.array([grid.L]))[0])
        self.values = self(grid.x)

    @property
    def L(self) -> float:
        return self.grid.L

    def gap(self, x):
        """The left-side gap Q(x) = 1 - R0(x), accurate at tiny values."""
        return _evaluate(self._gap_points, x)

    def __call__(self, x):
        """Evaluate the dense profile; beyond the window use tail asymptotics."""
        return _evaluate(self._profile_points, x)

    def _profile_points(self, x):
        return _split(x, x < 0.0, lambda v: 1.0 - self._eval_gap(v), self._eval_right)

    def _gap_points(self, x):
        return _split(x, x <= 0.0, self._eval_gap, lambda v: 1.0 - self._eval_right(v))

    def _eval_gap(self, x):
        """Q on x <= 0: dense output on [-L, 0], exponential tail beyond."""
        L = self.grid.L
        return _split(
            x,
            x >= -L,
            self._gap_table,
            lambda v: self._qL * np.exp(self.m_minus * (v + L)),
        )

    def _eval_right(self, x):
        """R0 on x >= 0: dense output on [0, L], exponential tail beyond."""
        L = self.grid.L
        return _split(
            x,
            x <= L,
            self._right_table,
            lambda v: self._rL * np.exp(-self.m_plus * (v - L)),
        )

    def derivative(self, x):
        """R0' evaluated through the ODE itself."""
        R = self(x)
        return self.potential.dphi(R) - R

    def slope_profile(self, x=None):
        """S0 = -R0', the positive traveling-wave slope at leading order."""
        if x is None:
            x = self.grid.x
        return -np.asarray(self.derivative(x))

    def linearization_profile(self, x=None):
        """Curvature of the potential along the front, P(x) = d2phi(R0(x))."""
        if x is None:
            x = self.grid.x
        return self.potential.d2phi(self(x))

    def profile(self) -> GridProfile:
        return GridProfile(self.grid, self.values)

    def residual(self) -> float:
        """Sup over grid points of |R0' + R0 - dphi(R0)|.

        The derivative is taken by high-order differencing of the dense
        output, so this probes interpolation quality between integrator
        steps rather than restating the ODE.
        """
        d = 5e-3
        x = self.grid.x
        num = (
            self(x - 2 * d) - 8 * self(x - d) + 8 * self(x + d) - self(x + 2 * d)
        ) / (12 * d)
        return float(np.max(np.abs(num + self.values - self.potential.dphi(self.values))))


def solve_R0(
    potential: Potential,
    L: float | None = None,
    N: int | None = None,
    grid: UniformGrid | None = None,
) -> ContinuumSolution:
    """Integrate the continuum front outward from R0(0) = 1/2.

    The potential must be normalized.  Raises ``DomainTooSmallError`` with a
    suggested half-length if either tail has not settled to within 1e-8 at
    the window ends.
    """
    if not potential.is_normalized:
        raise ConfigError("continuum front solve requires a normalized potential")
    m_minus, m_plus = decay_rates(potential)
    if grid is None:
        if L is None:
            L = suggest_half_length(potential)
        if N is None:
            grid = grid_for(L, 0.05)
        else:
            grid = UniformGrid(L, N)
    L = grid.L

    def rhs_right(_, y):
        # one float through the scalar path of dphi; the same bits as the
        # array expression dphi(y) - y
        r = float(y[0])
        return [potential.dphi(r) - r]

    opts = dict(method="DOP853", rtol=1e-13, atol=1e-300, dense_output=True)
    sol_right = solve_ivp(rhs_right, (0.0, L), [0.5], **opts)
    sol_gap = solve_ivp(_gap_rhs(potential), (0.0, -L), [0.5], **opts)
    if not (sol_right.success and sol_gap.success):
        raise DomainTooSmallError("continuum integration failed", suggested_L=2 * L)

    sol = ContinuumSolution(potential, grid, sol_gap, sol_right)
    end_r = sol(L)
    end_l = sol.gap(-L)
    if end_r > SETTLE_TOL or end_l > SETTLE_TOL:
        need = L
        if end_r > SETTLE_TOL:
            need = max(need, L + np.log(end_r / 1e-9) / m_plus)
        if end_l > SETTLE_TOL:
            need = max(need, L + np.log(end_l / 1e-9) / m_minus)
        suggested = float(np.ceil(need / 10.0) * 10.0)
        raise DomainTooSmallError(
            f"tails have not settled at x = +-{L}: "
            f"R0(L) = {end_r:.3e}, 1 - R0(-L) = {end_l:.3e}; "
            f"retry with L >= {suggested}",
            suggested_L=suggested,
        )
    return sol


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
