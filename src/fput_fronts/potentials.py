"""Interaction potentials for the damped chain.

A potential is defined by its force law ``dphi`` on a core strain interval
``[r_plus, r_minus]`` (the far-field strains behind and ahead of a front,
with ``r_minus > r_plus``).  Outside the core the force is extended with
constant curvature, so solver iterates that overshoot the physical range
still see a C^1 force law.

The normalized setting used throughout the solver modules has
``r_plus = 0``, ``r_minus = 1``, ``dphi(0) = 0``, ``dphi(1) = 1``; any
monotone convex force law can be brought to it with :meth:`Potential.renormalize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError

ENDPOINT_TOL = 1e-12
# points of the core interval that Potential.validate samples
VALIDATE_SAMPLES = 2048


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

    Strains map by ``r = r_plus + scale * R``; the raw front moves with
    ``speed``, so a unit-speed normalized profile ``R(eps*(n - t))``
    corresponds to the raw profile ``r_plus + scale * R(eps*(n - speed*t))``.
    """

    r_plus: float
    r_minus: float
    speed: float
    offset: float

    @property
    def scale(self) -> float:
        return self.r_minus - self.r_plus

    def strain_from_normalized(self, R):
        return self.r_plus + self.scale * np.asarray(R)

    def normalized_from_strain(self, r):
        return (np.asarray(r) - self.r_plus) / self.scale


@dataclass
class ValidationReport:
    endpoints_normalized: bool
    monotone: bool
    convex: bool
    strictly_convex: bool
    p_plus: float
    p_minus: float
    holder_exponent: float
    messages: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.monotone and self.convex


class Potential:
    """Force law on a core interval with constant-curvature extension.

    Parameters are callables for the potential, force, and curvature on the
    core interval; all evaluation methods accept scalars or arrays and apply
    the extension automatically.  ``gap_core``, when given, is the gap force
    ``d -> dphi(r_minus) - dphi(r_minus - d)`` on plain floats d in
    ``[0, r_minus - r_plus]``, evaluated without cancellation at small d
    (see :meth:`gap_force`); the built-in factories supply it.
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
        self._phi = phi_core
        self._dphi = dphi_core
        self._d2phi = d2phi_core
        self.r_plus = float(r_plus)
        self.r_minus = float(r_minus)
        self.name = name
        self.gap_core = gap_core
        # one-sided values at the core ends, reused by the extension
        self._phi_a = float(phi_core(self.r_plus))
        self._phi_b = float(phi_core(self.r_minus))
        self._dp_a = float(dphi_core(self.r_plus))
        self._dp_b = float(dphi_core(self.r_minus))
        self._p_a = float(d2phi_core(self.r_plus))
        self._p_b = float(d2phi_core(self.r_minus))

    # -- evaluation ---------------------------------------------------------

    def _eval_extended(self, r, core, below, above):
        if type(r) is not float:
            r = np.asarray(r, dtype=float)
            if r.ndim:
                return self._eval_array(r, core, below, above)
            r = float(r)
        # one 0-d path in plain floats.  Inside [r_plus, r_minus] np.clip
        # returns r itself, signed zeros at the core ends included, so the
        # core gets r as the array path's core does
        if r < self.r_plus:
            return float(below(r))
        if r > self.r_minus:
            return float(above(r))
        return float(core(r))

    def _eval_array(self, r, core, below, above):
        # each occupied side is selected over the whole field; a side sees r
        # clamped to its own half-line, so the other side's strains give it
        # only its end value and raise no warning the subset would not.  NaN
        # is skipped by both reductions and both selects and goes to the
        # core, as np.clip passes it through
        a, b = self.r_plus, self.r_minus
        out = np.asarray(core(np.clip(r, a, b)), dtype=float)
        if np.fmin.reduce(r, axis=None, initial=np.inf) < a:
            out = np.where(r < a, below(np.minimum(r, a)), out)
        if np.fmax.reduce(r, axis=None, initial=-np.inf) > b:
            out = np.where(r > b, above(np.maximum(r, b)), out)
        if out.shape != r.shape:
            # a core may return a scalar
            out = np.array(np.broadcast_to(out, r.shape))
        return out

    def phi(self, r):
        """Potential energy of a bond at strain ``r``."""
        return self._eval_extended(
            r,
            self._phi,
            lambda r: self._phi_a + self._dp_a * (r - self.r_plus)
            + 0.5 * self._p_a * ((r - self.r_plus) * (r - self.r_plus)),
            lambda r: self._phi_b + self._dp_b * (r - self.r_minus)
            + 0.5 * self._p_b * ((r - self.r_minus) * (r - self.r_minus)),
        )

    def dphi(self, r):
        """Force law (derivative of :meth:`phi`)."""
        return self._eval_extended(
            r,
            self._dphi,
            lambda r: self._dp_a + self._p_a * (r - self.r_plus),
            lambda r: self._dp_b + self._p_b * (r - self.r_minus),
        )

    def d2phi(self, r):
        """Curvature of the potential (derivative of the force law)."""
        return self._eval_extended(
            r, self._d2phi, lambda r: self._p_a, lambda r: self._p_b
        )

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

    # -- transforms and checks ----------------------------------------------

    def renormalize(self) -> tuple["Potential", RenormalizationMap]:
        """Return the unit form of this potential plus the affine map to it.

        The unit form has far fields 0 and 1, dphi(0) = 0, dphi(1) = 1 and
        phi(0) = 0.  Raises if the force law is non-monotone or non-convex
        on the core interval.
        """
        rep = self.validate()
        if not rep.monotone:
            raise PotentialError("force law is not increasing on the core interval")
        if not rep.convex:
            raise PotentialError("force law is not convex on the core interval")
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

        normalized = Potential(
            phi_n,
            dphi_n,
            d2phi_n,
            0.0,
            1.0,
            name=f"{self.name} (normalized)",
            gap_core=None if self.gap_core is None else gap_n,
        )
        fc = self.front_constants()
        fmap = RenormalizationMap(
            r_plus=a, r_minus=b, speed=fc.speed, offset=fc.offset
        )
        return normalized, fmap

    def validate(self) -> ValidationReport:
        """Structural checks on ``VALIDATE_SAMPLES`` points of the core interval.

        Monotone / convex failures make ``ok`` false; the Hoelder exponent of
        the curvature near ``r_plus`` is estimated by log-log regression of
        sup-increments at dyadic scales and reported without being enforced.
        """
        a, b = self.r_plus, self.r_minus
        grid = np.linspace(a, b, VALIDATE_SAMPLES)
        dp = self.dphi(grid)
        d2 = self.d2phi(grid)
        messages = []

        monotone = bool(np.all(np.diff(dp) > -1e-14 * max(1.0, abs(self._dp_b))))
        convex = bool(np.all(np.diff(d2) > -1e-12 * max(1.0, abs(self._p_b))))
        strictly = bool(np.all(np.diff(d2) > 0) and np.all(d2[1:] > 0))
        if not monotone:
            messages.append("force law decreases somewhere on the core interval")
        if not convex:
            messages.append("curvature decreases somewhere on the core interval")

        # Hoelder exponent of the curvature near the leading end: Hertz-type
        # laws give alpha - 1, smooth laws give 1.
        scales = 2.0 ** -np.arange(4, 15)
        incs = []
        for h in scales:
            base = a + (b - a) * h * np.linspace(0.0, 1.0, 64)
            step = (b - a) * h
            incs.append(np.max(np.abs(self.d2phi(base + step) - self.d2phi(base))))
        incs = np.asarray(incs)
        mask = incs > 0
        if mask.sum() >= 3:
            slope = np.polyfit(np.log(scales[mask]), np.log(incs[mask]), 1)[0]
        else:
            slope = np.inf  # curvature is constant at this resolution
            messages.append("curvature increments vanish near r_plus")
        return ValidationReport(
            endpoints_normalized=self.is_normalized,
            monotone=monotone,
            convex=convex,
            strictly_convex=strictly,
            p_plus=self._p_a,
            p_minus=self._p_b,
            holder_exponent=float(slope),
            messages=messages,
        )

    def __repr__(self):
        return (
            f"Potential({self.name!r}, core=[{self.r_plus}, {self.r_minus}], "
            f"p_plus={self._p_a:.6g}, p_minus={self._p_b:.6g})"
        )


# -- factories --------------------------------------------------------------
#
# Every core takes a plain float (returning a float) or an array; the scalar
# path of Potential never builds an array.  Gap cores take plain floats only.


def _horner(coeffs: tuple, x):
    """``npoly.polyval(x, coeffs)`` in its exact operation order.

    polyval seeds with ``coeffs[-1] + x*0`` (so inf gives NaN at any degree)
    and steps ``c_j + y*x``; here on one array updated in place, or on plain
    floats.
    """
    y = x * 0
    y += coeffs[-1]
    for c in coeffs[-2::-1]:
        y *= x
        y += c
    return y


def _gap_coefficients(coeffs: Sequence[float], r_minus: float) -> tuple:
    """h with dphi(r_minus) - dphi(r_minus - d) = d * sum_k h[k] d**k.

    Taylor-shifts the force polynomial to r_minus: h[k-1] is
    (-1)**(k+1) dphi^(k)(r_minus) / k!.  The shift is exact rational
    arithmetic on the float inputs, so each h[k] is correctly rounded.
    """
    c = [Fraction(v) for v in coeffs]
    rm = Fraction(r_minus)
    h = [
        (-1) ** (k + 1) * sum(c[j] * math.comb(j, k) * rm ** (j - k) for j in range(k, len(c)))
        for k in range(1, len(c))
    ]
    return tuple(map(float, h)) or (0.0,)


def polynomial_potential(
    coeffs: Sequence[float], r_plus: float = 0.0, r_minus: float = 1.0
) -> Potential:
    """Potential whose force law is a polynomial in the monomial basis.

    ``coeffs[j]`` multiplies ``r**j`` in the force law.  The potential is the
    antiderivative vanishing at 0.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise PotentialError("polynomial force law needs a 1-d coefficient list")
    ci = tuple(map(float, npoly.polyint(c)))
    cd = tuple(map(float, npoly.polyder(c))) if c.size > 1 else (0.0,)
    cf = tuple(map(float, c))
    cg = _gap_coefficients(cf, r_minus)
    return Potential(
        lambda r: _horner(ci, r),
        lambda r: _horner(cf, r),
        lambda r: _horner(cd, r),
        r_plus,
        r_minus,
        name=f"polynomial{list(cf)}",
        gap_core=lambda d: d * _horner(cg, d),
    )


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
    the same ufuncs as arrays: Python's ``**`` (libm ``pow``) differs in the
    last bit from numpy's SIMD ``pow`` at some points, and a float must give
    what an array gives.  The gap force is
    ``r_minus**alpha * (1 - (1 - d/r_minus)**alpha)``, written with
    ``expm1``/``log1p`` so it keeps its relative accuracy as d goes to 0.
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

    def phi(r):
        return np.power(np.maximum(r, 0.0), a + 1.0) / (a + 1.0)

    def dphi(r):
        return np.power(np.maximum(r, 0.0), a)

    def d2phi(r):
        return a * np.power(np.maximum(r, 0.0), a - 1.0)

    return Potential(phi, dphi, d2phi, 0.0, rm, name=f"hertz(alpha={a})", gap_core=gap)
