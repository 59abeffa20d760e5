"""Interaction potentials for the damped chain.

A potential is defined by its force law ``dphi`` on a core strain interval
``[r_plus, r_minus]`` (the far-field strains behind and ahead of a front,
with ``r_minus > r_plus``).  Outside the core the force is extended with
constant curvature, so solver iterates that overshoot the physical range
still see a C^1 force law.  The extension is each law's Taylor polynomial
at the nearer core end (value, slope and half the curvature of phi; value
and curvature of dphi; the curvature of d2phi), kept once per potential
and read by the float and the array path alike.  The data are the cores'
array values at the two ends, and must be finite.

The normalized setting used throughout the solver modules has
``r_plus = 0``, ``r_minus = 1``, ``dphi(0) = 0``, ``dphi(1) = 1``; any
force law whose chord increases can be brought to it with
:meth:`Potential.renormalize`.  Whether a front exists is the solver's rule
(``continuum.decay_rates``): the unit force lies below its chord on (0, 1),
with p_plus < 1 < p_minus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError

ENDPOINT_TOL = 1e-12


class PotentialError(ConfigError):
    """Raised when a potential fails its structural requirements."""


@dataclass(frozen=True)
class FrontConstants:
    """Kinematic data fixed by the far-field states alone.

    ``speed`` is the front speed from the jump condition
    c^2 * (jump in r) = (jump in dphi), and ``offset`` is the force offset
    d = dphi(r_end) - c^2 * r_end, equal at both ends.  Jumps are taken as
    (value ahead) - (value behind), i.e. at ``r_plus`` minus at ``r_minus``.
    """

    speed: float
    offset: float
    jump_r: float
    jump_dphi: float


@dataclass(frozen=True)
class RenormalizationMap:
    """Affine change of variables between a raw potential and its normalized form.

    Strains map by ``r = r_plus + (r_minus - r_plus) * R``; the raw front
    moves with ``speed``, so a unit-speed normalized profile
    ``R(eps*(n - t))`` corresponds to the raw profile
    ``r_plus + (r_minus - r_plus) * R(eps*(n - speed*t))``.
    """

    r_plus: float
    r_minus: float
    speed: float
    offset: float


class Potential:
    """Force law on a core interval with constant-curvature extension.

    Parameters are callables for the potential, force, and curvature on the
    core interval; all evaluation methods accept scalars or arrays and apply
    the extension automatically.  A core gets strains in the core interval
    (or NaN), must not write into it and must give NaN at NaN; the array
    path writes the extension into arrays it made, never into what a core
    returns.  ``gap_core``, when given, is the gap force
    ``d -> dphi(r_minus) - dphi(r_minus - d)`` on plain floats d in
    ``[0, r_minus - r_plus]``, evaluated without cancellation at small d
    (see :meth:`gap_force`); the built-in factories supply it.  ``power``
    is the tag alpha of a unit power law, None for any other law: the force
    is exactly r^alpha on [0, 1], with r_plus = 0 and r_minus >= 1.  Only
    the factories set it (:func:`hertz_potential`, and
    :func:`polynomial_potential` for a unit monomial r^n, n >= 2); a
    normalized law that carries it has its continuum front in closed form.
    """

    def __init__(
        self,
        phi_core: Callable,
        dphi_core: Callable,
        d2phi_core: Callable,
        r_plus: float = 0.0,
        r_minus: float = 1.0,
        name: str = "potential",
        gap_core: Callable | None = None,
    ):
        if not r_minus > r_plus:
            raise PotentialError(f"need r_minus > r_plus, got [{r_plus}, {r_minus}]")
        self.power: float | None = None
        self._phi = phi_core
        self._dphi = dphi_core
        self._d2phi = d2phi_core
        self.r_plus = float(r_plus)
        self.r_minus = float(r_minus)
        self.name = name
        self.gap_core = gap_core
        # each core's values at the ends, from its array form: what the
        # array path's core gives at a strain clipped to an end
        ends = []
        for law, core in (("phi", phi_core), ("dphi", dphi_core), ("d2phi", d2phi_core)):
            with np.errstate(all="ignore"):  # a non-finite value is the error below
                v = np.broadcast_to(core(np.array([self.r_plus, self.r_minus])), 2).astype(float)
            if not np.isfinite(v).all():
                raise PotentialError(f"{name}: {law} at the core ends is {v.tolist()}, not finite")
            ends.append(v.tolist())
        (self._phi_a, self._phi_b), (self._dp_a, self._dp_b), (self._p_a, self._p_b) = ends
        # each law as (core, Taylor data at r_plus, Taylor data at r_minus):
        # the value and the derivatives over k! that the constant-curvature
        # extension keeps, read by the float and the array path alike
        self._phi_law = (
            phi_core,
            (self._phi_a, self._dp_a, 0.5 * self._p_a),
            (self._phi_b, self._dp_b, 0.5 * self._p_b),
        )
        self._dphi_law = (dphi_core, (self._dp_a, self._p_a), (self._dp_b, self._p_b))
        self._d2phi_law = (d2phi_core, (self._p_a,), (self._p_b,))

    # -- evaluation ---------------------------------------------------------

    def _eval_extended(self, r, law):
        core, below, above = law
        if type(r) is not float:
            r = np.asarray(r, dtype=float)
            if r.ndim:
                return self._eval_array(r, core, below, above)
            r = float(r)
        # one 0-d path in plain floats.  Inside [r_plus, r_minus] np.clip
        # returns r itself, signed zeros at the core ends included, so the
        # core gets r as the array path's core does
        if r < self.r_plus:
            return _taylor(below, r - self.r_plus)
        if r > self.r_minus:
            return _taylor(above, r - self.r_minus)
        return float(core(r))

    def _eval_array(self, r, core, below, above):
        # the core sees r clipped to the core interval, so at a strain beyond
        # an end it gives the end value the Taylor data start from (they are
        # the cores' array values).  When strains leave the core, every
        # strain adds its own side's terms in d = r - c, which is +0.0 in
        # the core and NaN at NaN.  Each term is formed to be -0.0 at core
        # strains, so the core's value there stays as it is, -0.0 included:
        # a coefficient that core strains see as >= 0 is negated and
        # multiplies c - r, which gives the same product elsewhere
        a, b = self.r_plus, self.r_minus
        c = r.clip(a, b)
        out = np.asarray(core(c), dtype=float)
        if out.shape != r.shape:
            # a core may return a scalar
            out = np.array(np.broadcast_to(out, r.shape))
        lo = np.fmin.reduce(r, axis=None, initial=np.inf) < a
        hi = np.fmax.reduce(r, axis=None, initial=-np.inf) > b
        if not (lo or hi):
            return out
        if len(below) == 1:
            # the end values themselves, in an array of the call's own
            return out.copy()
        side = np.less(r, c) if lo and hi else None
        t1, flip1 = _coefficient(below[1], above[1], lo, hi, side)
        d = c - r if flip1 else r - c
        if len(below) == 3:
            t2, flip2 = _coefficient(below[2], above[2], lo, hi, side)
            # (c - r) * (r - c) is +0.0 at core strains and -(d*d) elsewhere
            q = d * (r - c if flip1 else c - r) if flip2 else d * d
            q *= t2
        # (out + t1*d) + t2*(d*d), as the float path adds, in arrays made here
        d *= t1
        np.add(out, d, out=d)
        if len(below) == 3:
            d += q
        return d

    def phi(self, r):
        """Potential energy of a bond at strain ``r``."""
        return self._eval_extended(r, self._phi_law)

    def dphi(self, r):
        """Force law (derivative of :meth:`phi`)."""
        return self._eval_extended(r, self._dphi_law)

    def d2phi(self, r):
        """Curvature of the potential (derivative of the force law)."""
        return self._eval_extended(r, self._d2phi_law)

    def gap_force(self, d: float) -> float:
        """dphi(r_minus) - dphi(r_minus - d) for a float d, via ``gap_core``.

        Inside the core the closed form keeps full relative accuracy as d
        goes to 0, where direct subtraction would cancel.  Beyond the core
        ends the constant-curvature extension gives p_minus * d above
        (d < 0) and a plain difference below.  Needs a ``gap_core``.
        """
        if d < 0.0:
            return self._p_b * d
        if d > self.r_minus - self.r_plus:
            return self._dp_b - self.dphi(self.r_minus - d)
        return float(self.gap_core(d))

    # -- derived constants --------------------------------------------------

    @property
    def p_plus(self) -> float:
        """Curvature at the leading far-field strain ``r_plus``."""
        return self._p_a

    @property
    def p_minus(self) -> float:
        """Curvature at the trailing far-field strain ``r_minus``."""
        return self._p_b

    @property
    def is_normalized(self) -> bool:
        return (
            self.r_plus == 0.0
            and self.r_minus == 1.0
            and abs(self._dp_a) <= ENDPOINT_TOL
            and abs(self._dp_b - 1.0) <= ENDPOINT_TOL
        )

    def front_constants(self) -> FrontConstants:
        """Speed and force offset from the jump condition at the far fields."""
        jump_r = self.r_plus - self.r_minus
        jump_dphi = self._dp_a - self._dp_b
        ratio = jump_dphi / jump_r
        if ratio <= 0:
            raise PotentialError("jump condition gives non-positive squared speed")
        c = float(np.sqrt(ratio))
        d_a = self._dp_a - ratio * self.r_plus
        d_b = self._dp_b - ratio * self.r_minus
        if abs(d_a - d_b) > 1e-10 * max(1.0, abs(d_a), abs(d_b)):
            raise PotentialError(
                f"force offsets disagree at the two ends: {d_a} vs {d_b}"
            )
        return FrontConstants(speed=c, offset=d_a, jump_r=jump_r, jump_dphi=jump_dphi)

    def coefficient_A(self) -> float:
        """Signed area between the chord of the force law and the force law.

        Equals (jump in phi) - (jump in r) * (dphi(r_minus)+dphi(r_plus))/2
        with jumps taken ahead-minus-behind; positive whenever the force law
        is strictly convex on the core interval.
        """
        jump_phi = self._phi_a - self._phi_b
        jump_r = self.r_plus - self.r_minus
        return jump_phi - jump_r * 0.5 * (self._dp_b + self._dp_a)

    # -- transforms ---------------------------------------------------------

    def renormalize(self) -> tuple["Potential", RenormalizationMap]:
        """Return the unit form of this potential plus the affine map to it.

        The unit form has far fields 0 and 1, dphi(0) = 0, dphi(1) = 1 and
        phi(0) = 0.  Raises ``PotentialError`` if the chord of the force law
        does not increase (see :meth:`front_constants`); whether the unit
        form has a front is left to the solver (``continuum.decay_rates``).
        """
        fc = self.front_constants()
        fmap = RenormalizationMap(
            r_plus=self.r_plus, r_minus=self.r_minus, speed=fc.speed, offset=fc.offset
        )
        return self._unit_form(), fmap

    def _unit_form(self) -> "Potential":
        """The unit form through the cores, with r = r_plus + (r_minus - r_plus) * R."""
        a, b = self.r_plus, self.r_minus
        dr = b - a
        ddp = self._dp_b - self._dp_a
        phi_a, dp_a = self._phi_a, self._dp_a

        # like every core, these take a plain float or an array
        def dphi_n(R):
            return (self._dphi(a + dr * R) - dp_a) / ddp

        def phi_n(R):
            return (self._phi(a + dr * R) - phi_a - dp_a * dr * R) / (ddp * dr)

        def d2phi_n(R):
            return self._d2phi(a + dr * R) * dr / ddp

        def gap_n(Q):
            return self.gap_core(dr * Q) / ddp

        return Potential(
            phi_n,
            dphi_n,
            d2phi_n,
            0.0,
            1.0,
            name=f"{self.name} (normalized)",
            gap_core=None if self.gap_core is None else gap_n,
        )

    def __repr__(self):
        return (
            f"Potential({self.name!r}, core=[{self.r_plus}, {self.r_minus}], "
            f"p_plus={self._p_a:.6g}, p_minus={self._p_b:.6g})"
        )


def _taylor(terms, d):
    """``(value + t1*d) + t2*(d*d)`` over the given Taylor data, on a float."""
    if len(terms) == 1:
        return terms[0]
    y = terms[0] + terms[1] * d
    return y if len(terms) == 2 else y + terms[2] * (d * d)


def _coefficient(t_below, t_above, lo, hi, side):
    """Each strain's coefficient, and whether both were negated.

    Core strains see ``t_above`` when strains lie above the core, else
    ``t_below``; both are negated when that one is >= 0 by its sign bit
    (+0.0 is, -0.0 is not).  ``side`` marks the strains below the core.
    """
    flip = math.copysign(1.0, t_above if hi else t_below) > 0.0
    if flip:
        t_below, t_above = -t_below, -t_above
    if not hi:
        return t_below, flip
    if not lo:
        return t_above, flip
    return np.where(side, t_below, t_above), flip


# -- factories --------------------------------------------------------------
#
# Every core takes a plain float (returning a float) or an array; the scalar
# path of Potential never builds an array.  Gap cores take plain floats only.


def _horner(coeffs: tuple, x):
    """``npoly.polyval(x, coeffs)`` bitwise at the strains a core gets: finite, +-0.0, NaN.

    polyval seeds with ``coeffs[-1] + x*0`` and steps ``c_j + y*x``.  At
    those x the seed is ``coeffs[-1]`` itself (NaN at NaN), so the first
    step starts from ``x * coeffs[-1]``.  A -0.0 leading coefficient, whose
    seed takes the sign of x*0, and a constant keep the seed.  At +-inf
    polyval gives NaN; this gives NaN for a constant or a +-0.0 leading
    coefficient and the leading term's signed inf otherwise, but a
    ``Potential`` clips every strain into its finite core.  One array
    updated in place, or plain floats.
    """
    lead = coeffs[-1]
    if len(coeffs) == 1 or (lead == 0.0 and math.copysign(1.0, lead) < 0.0):
        y = x * 0
        y += lead
        rest = coeffs[-2::-1]
    else:
        y = x * lead
        y += coeffs[-2]
        rest = coeffs[-3::-1]
    for c in rest:
        y *= x
        y += c
    return y


def _taylor_shift(coeffs: Sequence[float], x0: float) -> list:
    """Exact rationals t with sum_j coeffs[j] r**j = sum_k t[k] (r - x0)**k.

    t[k] is dphi^(k)(x0) / k!, in rational arithmetic on the float inputs.
    """
    c = [Fraction(v) for v in coeffs]
    x = Fraction(x0)
    return [
        sum(c[j] * math.comb(j, k) * x ** (j - k) for j in range(k, len(c)))
        for k in range(len(c))
    ]


def _gap_coefficients(coeffs: Sequence[float], r_minus: float) -> tuple:
    """h with dphi(r_minus) - dphi(r_minus - d) = d * sum_k h[k] d**k.

    Taylor-shifts the force polynomial to r_minus: h[k-1] is
    (-1)**(k+1) dphi^(k)(r_minus) / k!, each correctly rounded.
    """
    t = _taylor_shift(coeffs, r_minus)
    return tuple(float((-1) ** (k + 1) * t[k]) for k in range(1, len(t))) or (0.0,)


def _unit_coefficients(coeffs: Sequence[float], r_plus: float, r_minus: float) -> tuple:
    """The force polynomial of the unit form, R -> (dphi(r) - dphi(r_plus)) / jump.

    With r = r_plus + s R, s = r_minus - r_plus as RenormalizationMap takes
    it, and jump = dphi(r_plus + s) - dphi(r_plus): the Taylor shift to
    r_plus, scaled, all in exact rationals.  The constant term is exactly 0,
    so the unit force keeps its relative accuracy as R goes to 0.
    """
    t = _taylor_shift(coeffs, r_plus)
    s = Fraction(r_minus - r_plus)
    shifted = [t[k] * s**k for k in range(1, len(t))]
    jump = sum(shifted)
    return (0.0, *(float(v / jump) for v in shifted))


class _PolynomialPotential(Potential):
    """A polynomial force law (see :func:`polynomial_potential`)."""

    def __init__(self, coeffs: tuple, r_plus: float, r_minus: float, name: str):
        c = np.asarray(coeffs)
        with np.errstate(all="ignore"):  # a non-finite coefficient is the error below
            ci = tuple(map(float, npoly.polyint(c)))
            cd = tuple(map(float, npoly.polyder(c))) if c.size > 1 else (0.0,)
        try:
            cg = _gap_coefficients(coeffs, r_minus)
        except OverflowError:  # a rational beyond the largest double
            cg = (math.inf,)
        for what, derived in (("antiderivative", ci), ("derivative", cd), ("gap Taylor shift", cg)):
            if not all(map(math.isfinite, derived)):
                raise PotentialError(f"{name}: the force law's {what} has a non-finite coefficient")
        super().__init__(
            lambda r: _horner(ci, r),
            lambda r: _horner(coeffs, r),
            lambda r: _horner(cd, r),
            r_plus,
            r_minus,
            name=name,
            gap_core=lambda d: d * _horner(cg, d),
        )
        self._coeffs = coeffs
        # a unit monomial r^n, n >= 2, on a core that holds [0, 1]
        n = int(np.flatnonzero(c)[0]) if np.count_nonzero(c) == 1 else 0
        if n >= 2 and c[n] == 1.0 and r_plus == 0.0 and r_minus >= 1.0:
            self.power = float(n)

    def _unit_form(self) -> Potential:
        """The unit force is again a polynomial, shifted exactly to r_plus."""
        try:
            g = _unit_coefficients(self._coeffs, self.r_plus, self.r_minus)
        except OverflowError:  # a rational beyond the largest double
            raise PotentialError(
                f"{self.name}: the unit form's force has a coefficient beyond the double range"
            ) from None
        return _PolynomialPotential(g, 0.0, 1.0, name=f"{self.name} (normalized)")


def polynomial_potential(
    coeffs: Sequence[float], r_plus: float = 0.0, r_minus: float = 1.0
) -> Potential:
    """Potential whose force law is a polynomial in the monomial basis.

    ``coeffs[j]`` multiplies ``r**j`` in the force law.  The potential is the
    antiderivative vanishing at 0.  Its unit form (:meth:`Potential.renormalize`)
    is again a polynomial, with the force Taylor-shifted to ``r_plus`` exactly.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise PotentialError("polynomial force law needs a 1-d coefficient list")
    cf = tuple(map(float, c))
    return _PolynomialPotential(cf, r_plus, r_minus, name=f"polynomial{list(cf)}")


def quadratic_force_potential() -> Potential:
    """Normalized potential with force law r^2 (continuum profile is logistic)."""
    return polynomial_potential([0.0, 0.0, 1.0])


def linear_force_potential() -> Potential:
    """Harmonic potential; degenerate front case with zero chord area."""
    return polynomial_potential([0.0, 1.0])


def hertz_potential(alpha: float = 1.5, r_minus: float = 1.0) -> Potential:
    """Hertz contact law: force (r)_+^alpha on [0, r_minus].

    For 1 < alpha < 2 the curvature vanishes at zero strain and is only
    Hoelder continuous there, with exponent alpha - 1.  Floats go through
    the same ufunc as arrays: Python's ``**`` and ``math.pow`` (libm
    ``pow``) differ in the last bit from numpy's SIMD ``pow`` at some
    points, and a float must give what an array gives.  A core sees strains
    in [0, r_minus], signed zeros and NaN; ``r + 0.0`` turns -0.0 into +0.0
    there as ``np.maximum(r, 0.0)`` does, without a second ufunc call on a
    float, so odd integer powers give +0.0 on both paths.  The exponents
    are 0-d float64 arrays: with one, ``np.power`` on a float base costs
    about 40 % less than with a Python float exponent, for the same bits.
    The gap force is
    ``r_minus**alpha * (1 - (1 - d/r_minus)**alpha)``, written with
    ``expm1``/``log1p`` so it keeps its relative accuracy as d goes to 0.
    With r_minus >= 1 the law carries the power tag alpha.
    """
    if alpha <= 1:
        raise PotentialError("hertz exponent must exceed 1")
    a = float(alpha)
    rm = float(r_minus)
    rm_a = float(np.power(rm, a))  # dphi(r_minus), as the core gives it

    def gap(d):
        x = d / rm
        # x rounds to 1 only at the far core end, where the force is 0
        return rm_a if x >= 1.0 else -rm_a * math.expm1(a * math.log1p(-x))

    e_phi, e_dphi, e_d2phi = np.array(a + 1.0), np.array(a), np.array(a - 1.0)

    def phi(r):
        return np.power(r + 0.0, e_phi) / (a + 1.0)

    def dphi(r):
        return np.power(r + 0.0, e_dphi)

    def d2phi(r):
        return a * np.power(r + 0.0, e_d2phi)

    pot = Potential(phi, dphi, d2phi, 0.0, rm, name=f"hertz(alpha={a})", gap_core=gap)
    if rm >= 1.0:
        pot.power = a
    return pot
