"""Leading-order continuum front profile.

In the normalized setting the continuum profile solves the scalar ODE

    R0'(x) = dphi(R0(x)) - R0(x),   R0(0) = 1/2,

connecting 1 at -infinity to 0 at +infinity.  Each branch, the gap
Q = 1 - R0 on [-L, 0] and R0 on [0, L], is kept as one packed table of
degree-7 segment polynomials in DOP853's dense-output layout, read by every
evaluation and by the tent defect.  The tables have two sources.

For a unit power law dphi = r^alpha (``Potential.power``: Hertz, and the
quadratic law as alpha = 2) the ODE is of Bernoulli type: with k = alpha - 1
and w = R0^-k it reads w' = k (w - 1), so

    R0(x) = (1 + B e^(k x))^(-1/k),   B = 2^k - 1,

and the tables and the grid values come from this closed form
(``_PowerFront``).

Every other law is integrated outward from the midpoint in both directions
by ``scipy.integrate.solve_ivp``'s DOP853 (Hairer, Norsett & Wanner,
*Solving ODEs I*, II.5) at rtol 1e-13 and atol 1e-300, on a right-hand side
of Python floats.  Each accepted step becomes one segment of the table,
which holds that step's dense output.

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
from decimal import Decimal, localcontext
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainTooSmallError
from .grids import UniformGrid, grid_for, max_spacing
from .potentials import Potential
from .spectral import find_pole

SETTLE_TOL = 1e-8
# decay_rates samples the force at the interior points of this many on [0, 1]
CHORD_SAMPLES = 2048
_CHORD_R = np.linspace(0.0, 1.0, CHORD_SAMPLES)[1:-1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

# solve_ivp's tolerances for the untagged laws' DOP853 integration
_RTOL, _ATOL = 1e-13, 1e-300

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

    This is also the one rule that admits a force law.  The law must be
    normalized (``Potential.is_normalized``: r_plus = 0, r_minus = 1,
    dphi(0) = 0 and dphi(1) = 1); otherwise ``ConfigError`` names the field
    that is off.  The continuum front, the heteroclinic of R' = dphi(R) - R
    from 1 to 0, then exists when p_plus < 1 < p_minus and dphi(r) < r on
    (0, 1), sampled at the interior points of ``np.linspace(0, 1,
    CHORD_SAMPLES)``; otherwise ``ConfigError`` names the first sample where
    the force meets its chord.
    At eps = 0 the rates are the continuum's linearized ones: the right tail
    decays like exp(-(1 - p_plus) x) and the left gap 1 - R0 like
    exp((p_minus - 1) x).  At eps > 0 they are the kernel pole rates
    ``find_pole(eps, p).mu_rate`` at p_minus and p_plus.
    """
    if not potential.is_normalized:
        # values are printed with repr, so a value off in its last digits shows
        wrong = [
            f"field {key} must be {want}, got {value!r}"
            for key, value, want in (
                ("r_plus", potential.r_plus, 0),
                ("r_minus", potential.r_minus, 1),
            )
            if value != want
        ]
        if not wrong:
            wrong.append(
                "field coeffs must give dphi(0) = 0 and dphi(1) = 1, got "
                f"{potential.dphi(0.0)!r} and {potential.dphi(1.0)!r}"
            )
        raise ConfigError(
            f"front commands solve the normalized front: {'; '.join(wrong)} "
            "(renormalize the potential from Python with Potential.renormalize())"
        )
    m_minus = potential.p_minus - 1.0
    m_plus = 1.0 - potential.p_plus
    if m_plus <= 0 or m_minus <= 0:
        raise ConfigError(
            f"potential has p_plus={potential.p_plus}, p_minus={potential.p_minus}; "
            "front tail rates require p_plus < 1 < p_minus"
        )
    above = ~(potential.dphi(_CHORD_R) < _CHORD_R)  # NaN counts as above
    if above.any():
        r = float(_CHORD_R[above.argmax()])
        raise ConfigError(
            f"force law meets its chord at r = {r:.6g} (dphi(r) - r = "
            f"{float(potential.dphi(r)) - r:.3g}); a front needs dphi(r) < r on (0, 1)"
        )
    if eps == 0.0:
        return m_minus, m_plus
    return find_pole(eps, potential.p_minus).mu_rate, find_pole(eps, potential.p_plus).mu_rate


def suggest_half_length(potential: Potential, eps: float = 0.0) -> float:
    """Half-length that gives the slower tail 20 e-folds, and at least 40.

    max(40, 20/min rate), with the rates ``decay_rates(potential, eps)``.
    Over [0, L] each tail falls by at least e^-20, about 2e-9: the ends
    settle near 1e-9 (``solve_R0`` requires 1e-8), not to working precision.
    """
    return max(40.0, 20.0 / min(*decay_rates(potential, eps), 1.0))


def solver_grid(potential: Potential, *eps: float) -> UniformGrid:
    """Default grid for solving the front at every tent half-width in ``eps``.

    Spacing: the smallest ``max_spacing`` over ``eps``, so every tent scale
    is resolved (and every eps is checked against the cap before any pole
    search); half-length: the largest ``suggest_half_length``, so every
    tail settles; N: the smallest that ``grid_for`` admits.  With no eps
    given, eps = 0.
    """
    eps = eps or (0.0,)
    h = min(max_spacing(e) for e in eps)
    return grid_for(max(suggest_half_length(potential, e) for e in eps), h)


class _DenseTable:
    """One branch's segment polynomials packed into per-segment arrays.

    Built from the knots, the solution values at the knots and the seven
    Horner rows F[6] .. F[0] of each segment (scipy's ``Dop853DenseOutput``
    layout), all in integration order; ``nfev`` counts the right-hand side
    evaluations the branch cost.  Segments are stored in ascending knot
    order.  A knot belongs to the segment nearer the branch start (``side``,
    scipy's ``OdeSolution`` rule), and each segment is evaluated in
    ``Dop853DenseOutput``'s Horner order: F[6] .. F[0] with alternating
    factors x and 1 - x, then y_old.  Query points need not be sorted, but
    sorted ones search fastest.
    """

    def __init__(self, knots, y, horner, nfev: int):
        knots, y = np.array(knots), np.array(y)
        ascending = knots[-1] > knots[0]
        self.side = "left" if ascending else "right"
        order = slice(None) if ascending else slice(None, None, -1)
        self.knots = knots[order].copy()
        self.t_old = knots[:-1][order].copy()
        self.h = np.diff(knots)[order].copy()  # t_new - t_old, in integration order
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

    def derivative(self, t: np.ndarray) -> np.ndarray:
        """The segment polynomials' own derivative at t (in the table's span)."""
        c = self.ascending_monomials()
        seg = np.searchsorted(self.knots, t, side=self.side) - 1
        seg = seg.clip(0, c.shape[1] - 1)
        width = np.diff(self.knots)[seg]
        u = (t - self.knots[seg]) / width
        slope = np.zeros_like(u)
        for k in range(7, 0, -1):
            slope = slope * u + k * c[k, seg]
        return slope / width


def _hermite_rows(h, dy, f_old, f_new) -> list:
    """F[2], F[1], F[0] of segments with step h, step difference dy and end slopes.

    The cubic Hermite part of the dense output: with the higher rows zero,
    a segment matches the values and the slopes f_old, f_new at both knots.
    """
    return [2.0 * dy - h * (f_new + f_old), h * f_old - dy, dy]


def _dop853(fun, t_bound: float, y0: float) -> _DenseTable:
    """Integrate the autonomous scalar ODE y' = fun(y) from t = 0 to t_bound.

    ``fun`` maps a float to a float.  One ``solve_ivp`` DOP853 run at rtol
    1e-13 and atol 1e-300; the table holds its knots, values, evaluation
    count and each step's dense-output rows.  Raises ``DomainTooSmallError``
    if the integration fails, as it does when the step size collapses.
    """
    from scipy.integrate import solve_ivp

    # scipy's RMS norm squares f / atol, which overflows near a zero state;
    # a step that goes wrong that way fails the integration instead
    with np.errstate(all="ignore"):
        sol = solve_ivp(
            lambda t, y: fun(float(y[0])),
            (0.0, t_bound),
            [y0],
            method="DOP853",
            rtol=_RTOL,
            atol=_ATOL,
            dense_output=True,
        )
    if not sol.success:
        raise DomainTooSmallError(
            f"continuum integration failed at x = {sol.t[-1]:.6g}: {sol.message}",
            suggested_L=2 * abs(t_bound),
        )
    horner = np.column_stack([seg.F[::-1, 0] for seg in sol.sol.interpolants])
    return _DenseTable(sol.t, sol.y[0], horner, sol.nfev)


class _PowerFront:
    """The continuum front of the unit power law dphi = r^alpha, alpha > 1.

    R0 = (1 + e^t)^(-1/k) with k = alpha - 1 and t = k (x - x0), where x0 =
    -log(B) / k is the point where B e^(k x) = 1.  Each formula keeps full
    relative accuracy: x0 is held as a double-double from 40-digit decimal
    arithmetic, so t carries only its own rounding, which is smallest where
    R0 is most sensitive to it (t near 0); beyond x0 the decay is the factor
    e^(n - x) e^(x0 - n), with n >= 0 the integer nearest x0 (0 if x0 < 0),
    so that n - x is exact there, and e^(x0 - n) one correctly rounded
    constant; (1 + v)^(-1/k) is a power of the exactly split sum 1 + v; and
    the gap is -expm1(-log1p(e^t) / k).  Both branches also give their
    slope, from the ODE: R0' = -R0 e^t / (1 + e^t).
    """

    def __init__(self, alpha: float):
        self.k = alpha - 1.0
        with localcontext() as ctx:
            ctx.prec = 40
            k = Decimal(alpha) - 1
            x0 = -((k * Decimal(2).ln()).exp() - 1).ln() / k
            self.n = max(round(x0), 0)
            self.e_rest = float((x0 - self.n).exp())
        self.x0 = float(x0)
        self.x0_lo = float(x0 - Decimal(self.x0))

    def _t(self, x):
        return self.k * ((x - self.x0) - self.x0_lo)

    def right(self, x):
        """R0 and R0' on x >= 0."""
        t = self._t(x)
        v = np.exp(-np.abs(t))
        one_v = 1.0 + v
        lo = v - (one_v - 1.0)  # 1 + v = one_v + lo exactly
        m = -1.0 / self.k
        f = one_v**m * (1.0 + m * (lo / one_v))  # (1 + v)^(-1/k)
        past = t > 0.0  # v = e^-t: R0 = e^(x0 - x) (1 + e^-t)^(-1/k)
        decay = np.exp(self.n - x, out=np.zeros_like(x), where=past)
        R = np.where(past, self.e_rest * decay * f, f)
        return R, -R * np.where(past, 1.0, v) / one_v

    def _log_r(self, x):
        """-log R0 and e^t on x <= 0, where e^t <= B."""
        v = np.exp(self._t(x))
        return np.log1p(v) / self.k, v

    def gap(self, x):
        """Q = 1 - R0 and Q' on x <= 0."""
        s, v = self._log_r(x)
        return -np.expm1(-s), np.exp(-s) * v / (1.0 + v)

    def profile(self, x):
        """R0 on ascending x."""
        zero = np.searchsorted(x, 0.0)
        return np.concatenate([np.exp(-self._log_r(x[:zero])[0]), self.right(x[zero:])[0]])


# Closed-form tables: segments of width _SEGMENT / rate on each branch, with
# rate the branch's largest e-folding rate (left k, right max(1, k)).  The
# degree-7 interpolation error is then about _SEGMENT^8 / 5e8, 1e-16
# relative, below rounding; the four interior nodes of each segment
# complete the Hermite data
_SEGMENT = 0.125
_INTERIOR = np.array([0.2, 0.4, 0.6, 0.8])


def _remainder_rows(u, K) -> list:
    """F[6] .. F[3] of the cubic F3 + u F4 + u (1 - u) F5 + u^2 (1 - u) F6 through (u, K).

    One cubic per row of the (n, 4) arrays.  Newton's divided differences
    give it as K0 + (u - u0)(K01 + (u - u1)(K012 + (u - u2) K0123)); its
    power coefficients a then give F3 = a0, F4 = a1 + a2 + a3,
    F5 = -(a2 + a3) and F6 = -a3.  No LAPACK call: a first one faults in
    about half a megabyte of library code.
    """
    d = list(K.T)
    for j in range(1, 4):
        for i in range(3, j - 1, -1):
            d[i] = (d[i] - d[i - 1]) / (u[:, i] - u[:, i - j])
    a = [d[3]]  # power coefficients, ascending, of the Newton form from the inside out
    for i in (2, 1, 0):
        c = u[:, i]
        a = [d[i] - c * a[0], *(a[m] - c * a[m + 1] for m in range(len(a) - 1)), a[-1]]
    return [-a[3], -(a[2] + a[3]), a[1] + a[2] + a[3], a[0]]


def _closed_form_table(branch, t_bound: float, rate: float) -> _DenseTable:
    """The degree-7 table of ``branch`` (values and slopes) on [0, t_bound].

    Each segment matches the values and slopes at its knots (``_hermite_rows``,
    as DOP853's dense output does) and the values at four interior nodes;
    F[3] .. F[6] interpolate the interior remainder, whose factor
    u^2 (1 - u)^2 keeps the knot data.  The node positions u are the ones
    the table itself computes for the rounded nodes, so every node is
    interpolated where it is evaluated.
    """
    n = math.ceil(abs(t_bound) * rate / _SEGMENT)
    knots = np.linspace(0.0, t_bound, n + 1)
    h, t_old = np.diff(knots), knots[:-1]
    nodes = t_old[:, None] + h[:, None] * _INTERIOR
    u = (nodes - t_old[:, None]) / h[:, None]
    y, f = branch(np.concatenate([knots, nodes.ravel()]))
    y_knot, y_node = y[: n + 1], y[n + 1 :].reshape(u.shape)
    hermite = _hermite_rows(h, np.diff(y_knot), f[:n], f[1 : n + 1])
    F2, F1, F0 = (row[:, None] for row in hermite)
    cubic = y_knot[:-1, None] + u * (F0 + (1.0 - u) * (F1 + u * F2))
    remainder = (y_node - cubic) / (u * (1.0 - u)) ** 2
    return _DenseTable(knots, y_knot, np.vstack([*_remainder_rows(u, remainder), *hermite]), 0)


def _evaluate(f, x):
    """f applied pointwise to any-shape x; floats give floats."""
    x = np.asarray(x, dtype=float)
    out = f(x.ravel())
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class ContinuumSolution:
    """Dense continuum front with grid samples and tail extension.

    ``rates`` are the tail rates (left, right) of ``decay_rates(potential)``.
    The grid arrays that every front solve on this continuum needs are
    computed once, on first use: ``values`` = R0 on the grid (the closed
    form's when ``front``, a power law's ``_PowerFront``, is given, the
    tables' otherwise), ``force`` = dphi(R0), ``slope`` = S0 = -R0' and its
    spectrum ``slope_hat``.  They are read-only.
    """

    def __init__(
        self,
        potential: Potential,
        grid: UniformGrid,
        gap_table: _DenseTable,
        right_table: _DenseTable,
        rates: tuple[float, float],
        front: _PowerFront | None = None,
    ):
        self.potential = potential
        self.grid = grid
        self._gap_table = gap_table  # dense Q = 1 - R0 on [-L, 0]
        self._right_table = right_table  # dense R0 on [0, L]
        self.m_minus, self.m_plus = rates  # decay_rates(potential), for the tails
        self._front = front

    @property
    def L(self) -> float:
        return self.grid.L

    def on_grid(self, grid: UniformGrid) -> ContinuumSolution:
        """The same continuum on another grid of its half-length, from its tables.

        Equal to ``solve_R0(potential, grid=grid)`` bitwise without solving
        the tables again; a grid of another half-length is a ``ConfigError``.
        When ``grid.x`` is every r-th point of this grid's ``x`` bit for bit,
        as on a power-of-two decimation, ``values`` and ``force`` are
        contiguous copies of every r-th entry of this continuum's: the same
        bits, since each is computed point by point, as is ``slope`` from
        them.  On any other grid they are evaluated afresh.
        """
        if grid.L != self.L:
            raise ConfigError(f"grid half-length {grid.L} differs from the continuum's {self.L}")
        r = self.grid.N // grid.N
        every_rth = self.grid.N % grid.N == 0 and np.array_equal(grid.x, self.grid.x[::r])
        rates = (self.m_minus, self.m_plus)
        sol = ContinuumSolution(
            self.potential, grid, self._gap_table, self._right_table, rates, self._front
        )
        if every_rth:  # filled in place of the cached properties' own evaluation
            sol.values = _read_only(self.values[::r].copy())
            sol.force = _read_only(self.force[::r].copy())
        return sol

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

    @cached_property
    def _qL(self) -> float:
        """Q(-L), where the left tail starts."""
        return float(self._gap_table(np.array([-self.grid.L]))[0])

    @cached_property
    def _rL(self) -> float:
        """R0(L), where the right tail starts."""
        return float(self._right_table(np.array([self.grid.L]))[0])

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

    @cached_property
    def values(self) -> np.ndarray:
        """R0 on the grid."""
        x = self.grid.x
        return _read_only(self(x) if self._front is None else self._front.profile(x))

    @cached_property
    def force(self) -> np.ndarray:
        """dphi(R0) on the grid."""
        return _read_only(self.potential.dphi(self.values))

    @cached_property
    def slope(self) -> np.ndarray:
        """S0 = -R0' = R0 - dphi(R0) on the grid, through the ODE itself."""
        # negated, not R0 - dphi(R0): where the two are equal S0 is -0.0,
        # which the profile CSV prints with its sign
        return _read_only(-(self.force - self.values))

    @cached_property
    def slope_hat(self) -> np.ndarray:
        """The rfft of ``slope``."""
        return _read_only(np.fft.rfft(self.slope))

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

        R0' is the derivative of the tables' own segment polynomials (minus
        the gap's on the left), so this measures how well the tables solve
        the ODE, down to roundoff, rather than restating the ODE.
        """
        x = self.grid.x
        left = x < 0.0
        slope = np.empty_like(x)
        slope[left] = -self._gap_table.derivative(x[left])
        slope[~left] = self._right_table.derivative(x[~left])
        return float(np.max(np.abs(slope + self.values - self.force)))


def solve_R0(potential: Potential, grid: UniformGrid | None = None) -> ContinuumSolution:
    """The continuum front through R0(0) = 1/2 on the grid's window.

    The potential must pass ``decay_rates``' rule, which is checked before
    any ODE step.  A unit power law (``potential.power`` set) takes its
    tables and grid values from the closed form; every other law is
    integrated outward from the midpoint by ``_dop853``.  The grid
    defaults to ``solver_grid(potential)``.  Raises ``DomainTooSmallError``
    with a suggested half-length, from the solution's tail rates, if either
    tail has not settled to within 1e-8 at the window ends.
    """
    rates = m_minus, m_plus = decay_rates(potential)
    if grid is None:
        grid = solver_grid(potential)
    L = grid.L

    if potential.power is None:
        dphi = potential.dphi
        gap = _dop853(_gap_rhs(potential), -L, 0.5)
        right = _dop853(lambda r: dphi(r) - r, L, 0.5)
        sol = ContinuumSolution(potential, grid, gap, right, rates)
    else:
        front = _PowerFront(potential.power)
        gap = _closed_form_table(front.gap, -L, m_minus)
        right = _closed_form_table(front.right, L, max(rates))
        sol = ContinuumSolution(potential, grid, gap, right, rates, front)
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
