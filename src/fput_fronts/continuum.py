"""Leading-order continuum front profile.

In the normalized setting the continuum profile solves the scalar ODE

    R0'(x) = dphi(R0(x)) - R0(x),   R0(0) = 1/2,

connecting 1 at -infinity to 0 at +infinity.  It is integrated outward
from the midpoint in both directions by the module's own DOP853 stepper
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.5) on Python floats:
scipy's tableau from ``scipy.integrate._ivp.dop853_coefficients`` and
scipy's step-size controller (rtol 1e-13, atol 1e-300).  Each accepted step
becomes one segment of a packed dense-output table, kept for off-grid
evaluation.

A precaution keeps the exponential tails meaningful in double precision.
The left branch is integrated in the gap variable Q = 1 - R0 with purely
relative error control, and its right-hand side needs the gap force

    dphi(1) - dphi(1 - Q) = Q * integral_0^1 d2phi(1 - Q s) ds

without the direct subtraction, which would lose all relative accuracy
once Q drops below about 1e-7 and stall the step controller.  The built-in
force laws give it in closed form (``Potential.gap_force``); other cores
fall back to Gauss-Legendre quadrature of the curvature integral.  The
right branch has no such cancellation and is integrated directly.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np
from scipy.integrate import quad
from scipy.integrate._ivp import dop853_coefficients as _tableau

from .errors import ConfigError, DomainTooSmallError
from .grids import UniformGrid, grid_for, max_spacing
from .potentials import Potential
from .spectral import find_pole

SETTLE_TOL = 1e-8
_CHUNK = 16384  # points per evaluation pass
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

# DOP853 on floats: stage rows A[s, :s], weights and the two error
# estimators, with scipy's step-size controller constants.  The extra stages
# and dense-output rows of the accepted steps are evaluated on arrays.
_RTOL, _ATOL = 1e-13, 1e-300
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # the error estimator has order 7
_N_STAGES = _tableau.N_STAGES
_A = [tuple(map(float, _tableau.A[s, :s])) for s in range(1, _N_STAGES)]
_B = tuple(map(float, _tableau.B))
_E3 = tuple(map(float, _tableau.E3))
_E5 = tuple(map(float, _tableau.E5))

# Segment polynomials have degree 7.  _TAYLOR_1 @ c re-expands sum c_k u^k
# about u = 1; the unit tent's even moments are
# integral of T(y) y^n dy / n! = _TENT_MOMENTS[n] * eps^n.
_POWERS = np.arange(8)
_TAYLOR_1 = np.array([[math.comb(k, j) for k in _POWERS] for j in _POWERS], dtype=float)
_TENT_MOMENTS = {n: 2.0 / ((n + 1) * (n + 2) * math.factorial(n)) for n in (2, 4, 6)}


def _gap_rhs(potential: Potential):
    """Right-hand side for the gap Q = 1 - R0, free of cancellation.

    Returns Q' = (1 - Q) - dphi(1 - Q) written as g(Q) - Q + e1 with g the
    gap force dphi(1) - dphi(1 - Q) and e1 the (at most 1e-12)
    normalization defect 1 - dphi(1).  Without a closed-form gap force, g
    is Q times the curvature integral by Gauss-Legendre quadrature.
    """
    e1 = 1.0 - potential.dphi(1.0)
    if potential.gap_core is not None:
        g = potential.gap_force
        return lambda q: g(q) - q + e1
    s = 0.5 * (_GL_NODES + 1.0)  # quadrature nodes on [0, 1]
    w = 0.5 * _GL_WEIGHTS
    d2phi = potential.d2phi
    return lambda q: q * (float(np.dot(w, d2phi(1.0 - q * s))) - 1.0) + e1


def decay_rates(potential: Potential, eps: float = 0.0) -> tuple[float, float]:
    """Tail rates (left, right) of the front's slope at tent half-width eps.

    At eps = 0 these are the continuum's linearized rates: the right tail
    decays like exp(-(1 - p_plus) x) and the left gap 1 - R0 like
    exp((p_minus - 1) x).  Both exponents must be positive for a monotone
    front between nondegenerate states.  At eps > 0 they are the kernel pole
    rates ``find_pole(eps, p).mu_rate`` at p_minus and p_plus.
    """
    m_minus = potential.p_minus - 1.0
    m_plus = 1.0 - potential.p_plus
    if m_plus <= 0 or m_minus <= 0:
        raise ConfigError(
            f"potential has p_plus={potential.p_plus}, p_minus={potential.p_minus}; "
            "front tail rates require p_plus < 1 < p_minus"
        )
    if eps == 0.0:
        return m_minus, m_plus
    return find_pole(eps, potential.p_minus).mu_rate, find_pole(eps, potential.p_plus).mu_rate


def suggest_half_length(potential: Potential, eps: float = 0.0) -> float:
    """Half-length such that both tails settle far below working precision.

    max(40, 20/min rate), with the rates ``decay_rates(potential, eps)``.
    """
    return max(40.0, 20.0 / min(*decay_rates(potential, eps), 1.0))


def solver_grid(potential: Potential, *eps: float) -> UniformGrid:
    """Default grid for solving the front at every tent half-width in ``eps``.

    Spacing: the smallest ``max_spacing`` over ``eps``, so every tent scale
    is resolved (and every eps is checked against the cap before any pole
    search); half-length: the largest ``suggest_half_length``, so every
    tail settles.  With no eps given, eps = 0.
    """
    eps = eps or (0.0,)
    h = min(max_spacing(e) for e in eps)
    return grid_for(max(suggest_half_length(potential, e) for e in eps), h)


class _DenseTable:
    """One branch's DOP853 dense output packed into per-segment arrays.

    Built from the stepper's knots, the solution values at the knots and
    the 16 stages of each accepted step, all in integration order; ``nfev``
    counts the right-hand side evaluations the branch cost.  The dense rows
    are scipy's ``Dop853DenseOutput`` F: the step difference, two Hermite
    terms and the four rows of ``h * D @ K``.  Segments are stored in
    ascending knot order.  A knot belongs to the segment nearer the branch
    start (``side``, scipy's ``OdeSolution`` rule), and each segment is
    evaluated in ``Dop853DenseOutput``'s Horner order: F[6] .. F[0] with
    alternating factors x and 1 - x, then y_old.  Query points need not be
    sorted, but sorted ones search fastest.
    """

    def __init__(self, knots, y, K, nfev: int):
        knots, y = np.array(knots), np.array(y)
        h = np.diff(knots)  # t_new - t_old, as the stepper took it
        dy = np.diff(y)
        f_old, f_new = K[:, 0], K[:, _N_STAGES]
        hermite = [2.0 * dy - h * (f_new + f_old), h * f_old - dy, dy]  # F[2], F[1], F[0]
        horner = np.vstack([h * (_tableau.D[::-1] @ K.T), hermite])
        ascending = knots[-1] > knots[0]
        self.side = "left" if ascending else "right"
        order = slice(None) if ascending else slice(None, None, -1)
        self.knots = knots[order].copy()
        self.t_old = knots[:-1][order].copy()
        self.h = h[order].copy()
        self.y_old = y[:-1][order].copy()
        self.horner = horner[:, order].copy()
        self.nfev = nfev

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

    def ascending_monomials(self) -> np.ndarray:
        """Each segment's polynomial in u = (t - left knot) / width, shape (8, n).

        Row k holds the coefficient of u^k; columns follow ``knots``.
        """
        c = np.zeros((8, self.h.size))
        for i, row in enumerate(self.horner):  # the Horner order of __call__
            c[0] += row
            shifted = np.vstack([np.zeros(c.shape[1]), c[:-1]])  # times x
            c = shifted if i % 2 == 0 else c - shifted
        c[0] += self.y_old
        if self.side == "right":  # descending steps: x = (t - t_old) / h = 1 - u
            c = (_TAYLOR_1 @ c) * ((-1.0) ** _POWERS)[:, None]
        return c


def _initial_step(fun, y0: float, f0: float, direction: float, interval: float) -> float:
    """scipy's ``select_initial_step`` (HNW II.4) on floats, error order 7."""
    scale = _ATOL + abs(y0) * _RTOL
    d0, d1 = abs(y0 / scale), abs(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = abs((fun(y0 + h0 * direction * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval)


def _dop853(fun, t_bound: float, y0: float) -> _DenseTable:
    """Integrate the autonomous scalar ODE y' = fun(y) from t = 0 to t_bound.

    ``fun`` maps a float to a float.  The step-size control is scipy's
    ``DOP853`` solver's: the 5th/3rd-order error blend, SAFETY 0.9, growth
    in [0.2, 10], no growth right after a rejection, and a minimum step of
    10 ulp of t.  Each attempted step costs 12 evaluations, and each
    accepted one 3 more for its dense output.  Raises
    ``DomainTooSmallError`` if the step size falls below that minimum.
    """
    direction = 1.0 if t_bound > 0 else -1.0
    t, y = 0.0, y0
    f = fun(y)
    h_abs = _initial_step(fun, y, f, direction, abs(t_bound))
    nfev = 2
    knots, ys, stages = [t], [y], []
    while direction * (t - t_bound) < 0:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise DomainTooSmallError(
                    f"continuum integration failed: step size below {min_step:.3g} "
                    f"at x = {t}",
                    suggested_L=2 * abs(t_bound),
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            for a in _A:
                K.append(fun(y + sum(map(mul, a, K)) * h))
            y_new = y + h * sum(map(mul, _B, K))
            f_new = fun(y_new)
            K.append(f_new)
            nfev += _N_STAGES
            scale = _ATOL + max(abs(y), abs(y_new)) * _RTOL
            err5 = sum(map(mul, _E5, K)) / scale
            err3 = sum(map(mul, _E3, K)) / scale
            err5_2, err3_2 = err5 * err5, err3 * err3
            if err5_2 == 0.0 and err3_2 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_2 / math.sqrt(err5_2 + 0.01 * err3_2)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True

        stages.append(K)
        knots.append(t_new)
        ys.append(y_new)
        t, y, f = t_new, y_new, f_new

    # the 3 extra dense-output stages of every accepted step, stage by stage
    h, y_old = np.diff(knots), np.array(ys[:-1])
    K = np.zeros((h.size, _tableau.N_STAGES_EXTENDED))
    K[:, : _N_STAGES + 1] = stages
    for s in range(_N_STAGES + 1, _tableau.N_STAGES_EXTENDED):
        args = y_old + (K[:, :s] @ _tableau.A[s, :s]) * h
        K[:, s] = [fun(v) for v in args.tolist()]
    nfev += (_tableau.N_STAGES_EXTENDED - _N_STAGES - 1) * h.size
    return _DenseTable(knots, ys, K, nfev)


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

    def __init__(
        self,
        potential: Potential,
        grid: UniformGrid,
        gap_table: _DenseTable,
        right_table: _DenseTable,
    ):
        self.potential = potential
        self.grid = grid
        self._gap_table = gap_table  # dense Q = 1 - R0 on [-L, 0]
        self._right_table = right_table  # dense R0 on [0, L]
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

    def slope_profile(self) -> np.ndarray:
        """S0 = -R0' = R0 - dphi(R0) on the grid, through the ODE itself."""
        return -(self.potential.dphi(self.values) - self.values)

    def tent_defect(self, eps: float, grid: UniformGrid | None = None) -> np.ndarray:
        """R0 - Lambda_eps * R0 on a grid inside [-L, L], exact on the segments.

        Lambda_eps averages against the unit-mass tent of half-width eps.  On
        a window inside one segment polynomial p (degree 7) the defect is
        -sum_{n = 2, 4, 6} m_n eps^n p^(n)(x) with m_n = 2/((n+1)(n+2) n!).
        Each knot kappa within eps of x adds the tent weight integrated
        against the jump p_right - p_left = sum_j d_j (t - kappa)^j beyond
        kappa: sum_j d_j b^(j+2) / (eps^2 (j+1)(j+2)) with b = eps - |x - kappa|,
        term j times -(-1)^j when x's own segment lies right of kappa.  The
        ends -L and L are knots whose jumps hold the exponential tails, whose
        part has the closed form tail(+-L) (expm1(-m b) + m b) / (m eps)^2.
        The dense output is C^1, so the jumps are small and nothing cancels.
        """
        if grid is None:
            grid = self.grid
        if grid.L > self.L:
            raise ConfigError(f"grid half-length {grid.L} exceeds the continuum's {self.L}")
        x = grid.x
        if eps == 0.0:
            return np.zeros(grid.N)
        gap, right = self._gap_table, self._right_table
        knots = np.concatenate([gap.knots, right.knots[1:]])  # ascending, -L .. L
        width = np.diff(knots)
        c = np.hstack([-gap.ascending_monomials(), right.ascending_monomials()])
        c[0, : gap.h.size] += 1.0  # the profile is 1 - Q left of 0

        # own segment: a knot belongs to the segment on its right
        seg = np.minimum(np.searchsorted(knots, x, side="right") - 1, width.size - 1)
        g = np.zeros((6, width.size))  # sum_n m_n eps^n p^(n) in powers of u
        for n, m in _TENT_MOMENTS.items():
            falling = [math.perm(i + n, n) for i in range(8 - n)]
            g[: 8 - n] += (m * (eps / width) ** n) * (np.array(falling)[:, None] * c[n:])
        u = (x - knots[seg]) / width[seg]
        own = np.zeros(grid.N)
        for row in g[::-1]:
            own = own * u + row[seg]

        # jumps at every knot in powers of t - kappa; the tails' polynomial
        # parts are 1 on the left and 0 on the right
        scale = width[None, :] ** _POWERS[:, None]
        left = np.zeros((8, knots.size))
        left[0, 0] = 1.0
        left[:, 1:] = (_TAYLOR_1 @ c) / scale
        d = -left
        d[:, :-1] += c / scale
        # weight of term j: d_j b^(j+2) / (eps^2 (j+1)(j+2))
        d /= (eps * eps * (_POWERS + 1) * (_POWERS + 2))[:, None]

        lo = np.searchsorted(x, knots - eps, side="right")
        hi = np.searchsorted(x, knots + eps, side="left")
        count = hi - lo
        knot = np.repeat(np.arange(knots.size), count)
        point = np.arange(knot.size) - np.repeat(np.cumsum(count) - count - lo, count)
        # v = b where x's own segment lies left of kappa, -b where it lies right
        right_of = seg[point] >= knot
        v = eps - np.abs(x[point] - knots[knot])
        v[right_of] *= -1.0
        jump = np.zeros(knot.size)
        for row in d[::-1]:
            jump = jump * v + row[knot]
        jump *= v * np.abs(v)  # b^2 times the sign of v
        defect = -own - np.bincount(point, weights=jump, minlength=grid.N)

        ends = ((0, self._qL, self.m_minus, 1.0), (-1, self._rL, self.m_plus, -1.0))
        for end, tail, m, sign in ends:
            b = eps - np.abs(x[lo[end] : hi[end]] - knots[end])
            defect[lo[end] : hi[end]] += sign * tail * (np.expm1(-m * b) + m * b) / (m * eps) ** 2
        return defect

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


def solve_R0(potential: Potential, grid: UniformGrid | None = None) -> ContinuumSolution:
    """Integrate the continuum front outward from R0(0) = 1/2.

    The potential must be normalized.  The grid defaults to
    ``solver_grid(potential)``.  Raises ``DomainTooSmallError`` with a
    suggested half-length, from the solution's tail rates, if either tail
    has not settled to within 1e-8 at the window ends.
    """
    if not potential.is_normalized:
        raise ConfigError("continuum front solve requires a normalized potential")
    if grid is None:
        grid = solver_grid(potential)
    L = grid.L

    dphi = potential.dphi
    sol = ContinuumSolution(
        potential,
        grid,
        _dop853(_gap_rhs(potential), -L, 0.5),
        _dop853(lambda r: dphi(r) - r, L, 0.5),
    )
    end_r = sol(L)
    end_l = sol.gap(-L)
    if end_r > SETTLE_TOL or end_l > SETTLE_TOL:
        need = L
        if end_r > SETTLE_TOL:
            need = max(need, L + np.log(end_r / 1e-9) / sol.m_plus)
        if end_l > SETTLE_TOL:
            need = max(need, L + np.log(end_l / 1e-9) / sol.m_minus)
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
