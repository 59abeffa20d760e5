"""Post-processing: tail-rate fits, monotonicity, and reports.

The slope profile S of a solved front decays like e^{+mu_minus x} far to
the left and e^{-mu_plus x} far to the right, with rates given by the
imaginary symbol-denominator roots.  Fitting windows are chosen by
magnitude (between 1e-10 and 1e-3 of max S) so they sit in the clean
exponential regime for any eps and potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuum import decay_rates
from .errors import NumericsError
from .front_solver import FrontSolution

WINDOW_LO = 1e-10
WINDOW_HI = 1e-3


@dataclass(frozen=True)
class DecayReport:
    lambda_fit_minus: float
    lambda_fit_plus: float
    mu_pred_minus: float
    mu_pred_plus: float
    window_minus: tuple[float, float]
    window_plus: tuple[float, float]
    fit_r2_minus: float
    fit_r2_plus: float
    rel_err_minus: float
    rel_err_plus: float
    bound_ratio_minus: float
    bound_ratio_plus: float

    @property
    def fit_r2(self) -> float:
        return min(self.fit_r2_minus, self.fit_r2_plus)


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x and the R^2 of the line fit."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(slope), r2


def _tail_fit(x, S, side: str):
    smax = float(np.max(S))
    # Periodization floor: the opposite tail wraps around the domain and its
    # value at the near boundary bounds that contamination everywhere on this
    # side.  Points within 10x of it would bias the fit (slow left tails leak
    # into the right window well above 1e-10 * max S).
    wrap = float(S[0]) if side == "plus" else float(S[-1])
    lo = max(WINDOW_LO * smax, 10.0 * abs(wrap))
    mask = (S > lo) & (S < WINDOW_HI * smax)
    mask &= (x < 0) if side == "minus" else (x > 0)
    if np.count_nonzero(mask) < 20:
        raise NumericsError(
            f"empty {side} fitting window: tails under-resolved on this grid"
        )
    xs, ss = x[mask], S[mask]
    slope, r2 = linear_fit(xs, np.log(ss))
    lam = slope if side == "minus" else -slope
    return lam, r2, (float(xs[0]), float(xs[-1])), xs, ss


def fit_decay_rates(sol: FrontSolution) -> DecayReport:
    """Fit tail rates of S and compare to the symbol-pole predictions.

    The predictions are ``decay_rates(sol.potential, sol.eps)``: the kernel
    pole rates at ``sol.eps`` (the continuum rates when it is 0).
    """
    mu_minus, mu_plus = decay_rates(sol.potential, sol.eps)
    x, S = sol.grid.x, sol.S
    lam_m, r2_m, win_m, xs_m, ss_m = _tail_fit(x, S, "minus")
    lam_p, r2_p, win_p, xs_p, ss_p = _tail_fit(x, S, "plus")
    # two-sided boundedness of S e^{-mu x} (left) and S e^{+mu x} (right)
    comp_m = ss_m * np.exp(-mu_minus * xs_m)
    comp_p = ss_p * np.exp(mu_plus * xs_p)
    return DecayReport(
        lambda_fit_minus=lam_m,
        lambda_fit_plus=lam_p,
        mu_pred_minus=mu_minus,
        mu_pred_plus=mu_plus,
        window_minus=win_m,
        window_plus=win_p,
        fit_r2_minus=r2_m,
        fit_r2_plus=r2_p,
        rel_err_minus=abs(lam_m - mu_minus) / mu_minus,
        rel_err_plus=abs(lam_p - mu_plus) / mu_plus,
        bound_ratio_minus=float(np.max(comp_m) / np.min(comp_m)),
        bound_ratio_plus=float(np.max(comp_p) / np.min(comp_p)),
    )


def monotonicity_check(S: np.ndarray) -> tuple[bool, float]:
    """(min S >= -1e-8, min S) for the slope array S."""
    m = float(np.min(S))
    return m >= -1e-8, m


def normalization_check(sol: FrontSolution) -> float:
    """|trapezoid integral of S - 1|."""
    return abs(sol.slope_integral - 1.0)


def consolidated_report(sol: FrontSolution) -> list[dict]:
    """Per-check {name, value, threshold, pass} entries for one solution."""
    checks = []

    def add(name, value, threshold, ok):
        checks.append(
            {"name": name, "value": value, "threshold": threshold, "pass": bool(ok)}
        )

    add("residual_fp", sol.residual_fp, 1e-9 * sol.grid.N,
        sol.residual_fp <= 1e-9 * sol.grid.N)
    tent = sol.residual_tent()
    add("residual_tent", tent, 1e-7, tent <= 1e-7)
    ok_mono, smin = monotonicity_check(sol.S)
    add("monotone_min_S", smin, -1e-8, ok_mono)
    norm = normalization_check(sol)
    add("slope_normalization", norm, 1e-6, norm <= 1e-6)
    j0 = sol.grid.index_of(0.0)
    phase = abs(sol.R[j0] - 0.5)
    add("phase_R0_half", phase, 1e-9, phase <= 1e-9)
    rep = fit_decay_rates(sol)
    add("tail_rate_minus", rep.rel_err_minus, 0.02, rep.rel_err_minus <= 0.02)
    add("tail_rate_plus", rep.rel_err_plus, 0.02, rep.rel_err_plus <= 0.02)
    add("tail_fit_r2", rep.fit_r2, 0.999, rep.fit_r2 >= 0.999)
    return checks
