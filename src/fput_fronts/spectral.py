"""Fourier symbols and convolution kernels of the front fixed point.

With the transform convention fhat(k) = integral exp(-2*pi*i*k*x) f(x) dx,
the tent average over one lattice spacing (width eps each side after the
continuum scaling) has symbol sinc^2(eps*pi*k), and the fixed-point kernel
of the traveling-wave equation is

    a_hat(k) = T / (1 + 2*pi*i*k*T),       T = sinc^2(eps*pi*k),

whose eps -> 0 limit 1/(1 + 2*pi*i*k), the one-sided exponential, is the
same formula at eps = 0, where T = 1 exactly.  The linearization about a
far-field state with curvature mu generalizes the denominator to
1 - mu*T + 2*pi*i*k*T; in the rescaled variable z = eps*pi*k this reads

    A(z) = eps * sin(z)^2 / D(z),
    D(z) = eps*z^2 - eps*mu*sin(z)^2 + 2*i*z*sin(z)^2.

D has a simple root on the imaginary axis inside |z| < 0.9*pi; its location
gives the exponential tail rate of front profiles, and the residue there
the amplitude of the one-sided exponential that dominates the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PoleProximityError, PoleSearchError
from .grids import EPS_HARD_MAX

EPS0_DEFAULT = 0.5
POLE_BALL = 0.9 * np.pi
_SMALL_ARG = 1e-2
# the pole search's contract on |D| at its root, and its iteration budget
POLE_TOL = 1e-13
POLE_MAX_ITER = 50
# verify_symbol_bounds samples the strip for the quadratic force law's
# far-field curvatures on STRIP_LINES lines, STRIP_N_K magnitudes per range.
# The strip's half-widths STRIP_ETA_PLUS < 1 - STRIP_P_PLUS and
# STRIP_ETA_MINUS < STRIP_P_MINUS - 1 are admissible for those curvatures,
# and the weighted sup takes the weight (1 + |k|^(1 - STRIP_S))
STRIP_P_PLUS = 0.0
STRIP_P_MINUS = 2.0
STRIP_ETA_PLUS = 0.5
STRIP_ETA_MINUS = 0.5
STRIP_S = 0.5
STRIP_N_K = 2048
STRIP_LINES = 5


def sinc2(u):
    """(sin(u)/u)^2 for real or complex arguments, with u = 0 regular.

    Below |u| = 1e-2 a fixed Taylor polynomial is used so tiny and exactly
    zero arguments evaluate identically across platforms.  The quotient is
    taken on the whole array (0/0 at u = 0 is silenced) and the few small
    arguments are overwritten.
    """
    u = np.asarray(u)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (np.sin(u) / u) ** 2
    small = np.abs(u) < _SMALL_ARG
    if np.any(small):
        u2 = u[small] * u[small]
        out[small] = 1.0 - u2 / 3.0 + 2.0 * u2 * u2 / 45.0 - u2 * u2 * u2 / 315.0
    if scalar:
        return out[0].item()
    return out


def tent_symbol(eps: float, k):
    """Symbol of the unit-mass tent kernel of half-width eps."""
    return sinc2(eps * np.pi * np.asarray(k))


def symbol_a_mu(eps: float, mu: float, k):
    """Linearized fixed-point kernel symbol T / (1 - mu*T + 2*pi*i*k*T).

    Raises ``PoleProximityError`` if any requested point sits within 1e-14
    of the denominator's root.
    """
    k = np.asarray(k)
    T = sinc2(eps * np.pi * k)
    den = 1.0 - mu * T + 2j * np.pi * k * T
    if np.min(np.abs(den)) < 1e-14:
        raise PoleProximityError(
            f"symbol evaluation within 1e-14 of a pole (eps={eps}, mu={mu})"
        )
    return T / den


def symbol_a(eps: float, k):
    """Fixed-point kernel symbol of the traveling-wave equation (mu = 0).

    At eps = 0 it is 1/(1 + 2*pi*i*k), the symbol of the one-sided
    exponential exp(-x) on x >= 0, since sinc2(0) is exactly 1.
    """
    return symbol_a_mu(eps, 0.0, k)


def denominator_D(eps: float, mu: float, z):
    """The rescaled denominator D(z) and its derivative, both analytic."""
    z = np.asarray(z)
    s2 = np.sin(z) ** 2
    s2d = np.sin(2.0 * z)
    D = eps * z * z - eps * mu * s2 + 2j * z * s2
    Dp = 2.0 * eps * z - eps * mu * s2d + 2j * s2 + 2j * z * s2d
    return D, Dp


@dataclass(frozen=True)
class PoleData:
    """Simple root of D on the imaginary axis and derived tail data.

    ``mu_rate`` is the exponential tail rate |2 z / eps| of the associated
    one-sided kernel and ``nu`` the (real, positive) residue amplitude
    2i sin(z)^2 / D'(z).  ``family`` is +1 for mu < 1 (root in the upper
    half-plane, right tail) and -1 for mu > 1 (left tail).
    """

    eps: float
    mu: float
    z: complex
    mu_rate: float
    nu: float
    d_value: complex
    d_deriv: complex
    iterations: int

    @property
    def family(self) -> int:
        return 1 if self.mu < 1.0 else -1


def find_pole(eps: float, mu: float) -> PoleData:
    """Damped Newton search for the imaginary-axis root of D.

    Starts from the continuum prediction z = i*eps*(1 - mu)/2; steps are
    halved while they would increase |D|.  Raises ``PoleSearchError`` if the
    iterate leaves |z| < 0.9*pi or the residual fails to reach ``POLE_TOL``
    within ``POLE_MAX_ITER`` iterations.
    """
    _check_eps_mu(eps, mu)
    z = 0.5j * eps * (1.0 - mu)
    D, Dp = denominator_D(eps, mu, z)
    iteration = 0
    # iterate to the numerical floor; POLE_TOL is the contract checked afterwards
    for iteration in range(1, POLE_MAX_ITER + 1):
        if D == 0:
            break
        step = -D / Dp
        lam = 1.0
        while True:
            z_new = z + lam * step
            D_new, Dp_new = denominator_D(eps, mu, z_new)
            if abs(D_new) < abs(D) or lam < 1.0 / 256.0:
                break
            lam *= 0.5
        if abs(D_new) >= abs(D):
            break  # no further improvement at any damping: at rounding floor
        z, D, Dp = z_new, D_new, Dp_new
        if abs(z) >= POLE_BALL:
            raise PoleSearchError(
                f"pole iterate left |z| < 0.9*pi (eps={eps}, mu={mu}, z={z})"
            )
        if lam * abs(step) <= 1e-17 * abs(z):
            break
    if abs(D) > POLE_TOL:
        raise PoleSearchError(
            f"pole search stalled at |D| = {abs(D):.3e} > {POLE_TOL} after "
            f"{iteration} iterations (eps={eps}, mu={mu})"
        )

    if abs(z.real) > 1e-12 * abs(z):
        raise PoleSearchError(f"pole drifted off the imaginary axis: z={z}")
    nu_c = 2j * np.sin(z) ** 2 / Dp
    nu = float(nu_c.real)
    if abs(nu_c.imag) > 1e-12 * max(abs(nu), 1e-300) or nu <= 0:
        raise PoleSearchError(f"residue amplitude is not real positive: {nu_c}")
    mu_rate = 2.0 * abs(z.imag) / eps
    if mu_rate <= 0:
        raise PoleSearchError(f"degenerate tail rate at eps={eps}, mu={mu}")
    return PoleData(
        eps=eps,
        mu=mu,
        z=complex(z),
        mu_rate=mu_rate,
        nu=nu,
        d_value=complex(D),
        d_deriv=complex(Dp),
        iterations=iteration,
    )


def residue_symbol(pole: PoleData, z):
    """Principal part eps*sin(z0)^2 / (D'(z0) * (z - z0)) of A at the root."""
    z = np.asarray(z)
    z0 = pole.z
    return pole.eps * np.sin(z0) ** 2 / (pole.d_deriv * (z - z0))


def _check_eps_mu(eps: float, mu: float):
    # the continuum limit eps = 0 has no pole; the cap is the grids' one
    if not 0.0 < eps <= EPS_HARD_MAX:
        raise ConfigError(f"eps must lie in (0, {EPS_HARD_MAX}], got {eps}")
    if not 0.0 <= mu < 4.0:
        raise ConfigError(f"mu must lie in [0, 4), got {mu}")
    if abs(mu - 1.0) < 1e-10:
        raise ConfigError("mu = 1 is degenerate: far-field state is marginal")


@dataclass
class SymbolBoundsReport:
    """Strip-sampled sup norms of kernel symbol differences, with fit orders.

    ``sup_diff`` holds sup |a_hat_eps - a_hat_0| per eps, ``sup_weighted``
    the same with weight (1 + |k|^(1-s)), s = ``STRIP_S``; ``order_*`` are
    log-log slopes.
    ``bulk`` and ``tail`` are normalized sups per curvature family:
    sup |A - B| / eps^2 over |z| <= 0.8*pi and sup |z A| / eps over
    |Re z| >= 0.8*pi.  ``*_ratios_ok`` states that consecutive normalized
    sups stay within a factor two of each other.
    """

    eps_list: tuple
    sup_diff: np.ndarray
    sup_weighted: np.ndarray
    order_diff: float
    order_weighted: float
    bulk: dict
    tail: dict
    bulk_ratios_ok: bool
    tail_ratios_ok: bool

    def as_dict(self) -> dict:
        return {
            "eps_list": list(self.eps_list),
            "s": STRIP_S,
            "sup_diff": [float(v) for v in self.sup_diff],
            "sup_weighted": [float(v) for v in self.sup_weighted],
            "order_diff": float(self.order_diff),
            "order_weighted": float(self.order_weighted),
            "bulk": {str(m): [float(v) for v in vals] for m, vals in self.bulk.items()},
            "tail": {str(m): [float(v) for v in vals] for m, vals in self.tail.items()},
            "bulk_ratios_ok": self.bulk_ratios_ok,
            "tail_ratios_ok": self.tail_ratios_ok,
        }


def _ratios_within_factor_two(values) -> bool:
    v = np.asarray(values, dtype=float)
    r = v[1:] / v[:-1]
    return bool(np.all((r >= 0.5) & (r <= 2.0)))


def verify_symbol_bounds(eps_list=(0.2, 0.1, 0.05)) -> SymbolBoundsReport:
    """Sample symbol estimates on a strip and fit their orders in eps.

    The strip half-widths are ``STRIP_ETA_PLUS`` and ``STRIP_ETA_MINUS``,
    admissible for the far-field curvatures p_plus = ``STRIP_P_PLUS`` and
    p_minus = ``STRIP_P_MINUS``; sampling uses the midpoint between each
    and the critical width (1 - p_plus, p_minus - 1), n_k = ``STRIP_N_K``
    log-spaced magnitudes |k| in [1e-3, 10/eps] plus n_k linearly spaced
    ones in [0.8/eps, 1.2/eps] around the first tent-symbol zero, with both
    signs, on ``STRIP_LINES`` horizontal lines.

    The fitted orders (1 for the plain sup difference, 1/2 for the weighted
    sup) are eps -> 0 statements.  The weighted sup, attained near the first
    tent-symbol zero k = 0.95/eps, behaves like c1*eps + c2*sqrt(eps), so its
    local slope is 1/2 + O(sqrt(eps)): about 0.70 at eps 0.2-0.05, 0.56 at
    0.02-0.005 and 0.52 at 2e-3-5e-4; the plain order falls from 1.09 to
    1.00 over the same ranges.  The peak is about eps^(-1/2) wide in k,
    which a log grid alone stops resolving near eps = 1e-4; the linear band
    resolves it with ``STRIP_N_K`` (orders 1.00 and 0.51 at eps
    2e-4-5e-5).
    """
    eps_list = tuple(sorted(eps_list, reverse=True))
    if len(set(eps_list)) < 2:
        raise ConfigError(f"fitting orders needs two distinct eps, got {list(eps_list)}")
    eta_up = 0.5 * (STRIP_ETA_PLUS + 1.0 - STRIP_P_PLUS)
    eta_dn = 0.5 * (STRIP_ETA_MINUS + STRIP_P_MINUS - 1.0)
    offsets = np.linspace(-eta_dn, eta_up, STRIP_LINES) / (2.0 * np.pi)

    mus = [STRIP_P_PLUS, STRIP_P_MINUS]
    sup_diff, sup_weighted = [], []
    bulk = {m: [] for m in mus}
    tail = {m: [] for m in mus}
    for eps in eps_list:
        mags = np.union1d(
            np.logspace(np.log10(1e-3), np.log10(10.0 / eps), STRIP_N_K),
            np.linspace(0.8 / eps, 1.2 / eps, STRIP_N_K),
        )
        k_real = np.concatenate([-mags[::-1], mags])
        K = (k_real[None, :] + 1j * offsets[:, None]).ravel()
        diff = symbol_a(eps, K) - symbol_a(0.0, K)
        sup_diff.append(np.max(np.abs(diff)))
        weight = 1.0 + np.abs(K) ** (1.0 - STRIP_S)
        sup_weighted.append(np.max(np.abs(diff) * weight))
        Z = eps * np.pi * K
        in_bulk = np.abs(Z) <= 0.8 * np.pi
        in_tail = np.abs(Z.real) >= 0.8 * np.pi
        for m in mus:
            pole = find_pole(eps, m)
            A = symbol_a_mu(eps, m, K)
            Bz = residue_symbol(pole, Z)
            bulk[m].append(np.max(np.abs((A - Bz)[in_bulk])) / eps**2)
            tail[m].append(np.max(np.abs((Z * A)[in_tail])) / eps)

    log_eps = np.log(np.asarray(eps_list))
    order_diff = float(np.polyfit(log_eps, np.log(sup_diff), 1)[0])
    order_weighted = float(np.polyfit(log_eps, np.log(sup_weighted), 1)[0])
    return SymbolBoundsReport(
        eps_list=eps_list,
        sup_diff=np.asarray(sup_diff),
        sup_weighted=np.asarray(sup_weighted),
        order_diff=order_diff,
        order_weighted=order_weighted,
        bulk={m: np.asarray(v) for m, v in bulk.items()},
        tail={m: np.asarray(v) for m, v in tail.items()},
        bulk_ratios_ok=all(_ratios_within_factor_two(v) for v in bulk.values()),
        tail_ratios_ok=all(_ratios_within_factor_two(v) for v in tail.values()),
    )


def pole_expansion_fit(mu: float, eps: float = 0.1) -> dict:
    """Richardson-extrapolated eps^2 coefficients of the tail rate and residue.

    Both mu_rate and nu admit even expansions mu_rate = |1 - mu| + m2*eps^2 + ...
    and nu = 1 + n2*eps^2 + ...; two Richardson stages at eps, eps/2, eps/4
    give m2 and n2 with O(eps^4) accuracy.

    Putting z = i*y with y = sign*eps*m/2 (sign = +1 for mu < 1, -1 for
    mu > 1) in D(z) = 0 gives the dispersion relation

        (mu + sign*m) * (sinh(y)/y)^2 = 1,

    whose expansion yields the closed forms m2 = -sign*(1 - mu)^2/12 and,
    from the residue 2i sin(z)^2 / D'(z), n2 = -(1 - mu)/6.
    """
    rates, nus = [], []
    for e in (eps, eps / 2.0, eps / 4.0):
        pole = find_pole(e, mu)
        rates.append(pole.mu_rate)
        nus.append(pole.nu)

    def extrapolate(values, limit, eps_seq):
        c = [(v - limit) / e**2 for v, e in zip(values, eps_seq)]
        r1 = (4.0 * c[1] - c[0]) / 3.0
        r2 = (4.0 * c[2] - c[1]) / 3.0
        return (16.0 * r2 - r1) / 15.0

    eps_seq = (eps, eps / 2.0, eps / 4.0)
    return {
        "mu_limit": abs(1.0 - mu),
        "mu2": extrapolate(rates, abs(1.0 - mu), eps_seq),
        "nu_limit": 1.0,
        "nu2": extrapolate(nus, 1.0, eps_seq),
    }
