"""Time integration of the damped chain in particle velocities.

Particles with velocities w are joined by springs whose strains r move as
r' = D w, (D q)_j = q_{j+1} - q_j.  Each particle feels its two springs'
forces f = dphi(r) and a damping gamma of its two velocity differences:
w' = g - gamma D^T D w with g_1 = f_1 - f_left, g_j = f_j - f_{j-1} and
g_last = f_right - f_last, where f_left and f_right are forces from outside
the chain.  One step (``_advance``) treats the stiff damping (gamma = 1/eps
is large) implicitly: it solves (I + dt gamma D^T D) w+ = w + dt g, then
sets r+ = r + dt D w+.  The matrix is constant, so it is LDL^T-factored once
per run (LAPACK ``dpttrf``) and each step only back-substitutes (``dpttrs``).

The Dirichlet chain (``LatticeState``, ``run``) has M strains, M + 1
particles and ghost strains r_left, r_right whose forces are the boundary
forces; its strain velocities v = D w follow the strain scheme
v' = Delta dphi(r) + gamma Delta v.  A front seeded from a solved profile
should travel at unit speed; the 1/2 level crossing is tracked every step
so the speed can be fitted.  The free chain (``run_free_chain``) has zero
boundary forces, and its energy sum(w^2)/2 + sum(Phi(r)) dissipates
exactly, a sharp per-step check of the step; in the Dirichlet chain the
boundary work dt (f_right w+_last - f_left w+_1) adds to that energy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .analysis import linear_fit
from .errors import ConfigError, InsufficientDataError, NumericsError
from .front_solver import FrontSolution
from .potentials import Potential

LEVEL = 0.5


@dataclass
class LatticeState:
    """Dirichlet chain: M strains r, M + 1 particle velocities w, ghost strains."""

    r: np.ndarray
    w: np.ndarray
    t: float
    gamma: float
    r_left: float = 1.0
    r_right: float = 0.0

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.r.ndim != 1 or self.w.shape != (self.r.size + 1,):
            raise ConfigError("r and w must be 1-d arrays of M and M + 1 entries")
        if self.r.size < 200:
            raise ConfigError(f"chain too short: M = {self.r.size} < 200")
        if not (np.all(np.isfinite(self.r)) and np.all(np.isfinite(self.w))):
            raise ConfigError("non-finite initial state")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ConfigError("gamma must be positive and finite")

    @property
    def M(self) -> int:
        return self.r.size

    @property
    def v(self) -> np.ndarray:
        """Strain velocities D w, a new array on each access."""
        return np.diff(self.w)


def default_dt(potential: Potential) -> float:
    """min(0.05, 0.5 / max curvature of the force on [r_plus, r_minus])."""
    rr = np.linspace(potential.r_plus, potential.r_minus, 512)
    pmax = float(np.max(potential.d2phi(rr)))
    return min(0.05, 0.5 / max(pmax, 1e-12))


def init_chain(
    M: int,
    source,
    eps: float,
    r_minus: float = 1.0,
    r_plus: float = 0.0,
    c: float = 1.0,
) -> LatticeState:
    """Initial state from either a solved front or a sharp step.

    Front source (normalized defaults): r_n = R(eps (n - M // 2)), with
    strain velocities v_n = eps S at the same points (the traveling-wave time
    derivative at unit speed) and the last particle at rest, so the
    particle velocities are w_j = -(v_j + ... + v_M).  Outside the stored
    profile the tails are clamped to the asymptotic values.  For an
    unnormalized chain pass the raw far fields and the jump-condition speed
    c: the profile is scaled affinely, v picks up the factor
    (r_minus - r_plus) c, and gamma = c / eps keeps the physical damping
    consistent with the time rescaling t -> c t.  Step source jumps from
    r_minus to r_plus at site M // 2 with every particle at rest (the ghosts
    follow the far fields in both cases).
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ConfigError("eps must be positive and finite")
    if not (c > 0 and math.isfinite(c)):
        raise ConfigError("front speed must be positive and finite")
    n = np.arange(1, M + 1)
    n_center = M // 2
    w = np.zeros(n.size + 1)
    if isinstance(source, FrontSolution):
        x = eps * (n - n_center).astype(float)
        r = _front_strains(source, x, r_minus, r_plus)
        v = (r_minus - r_plus) * eps * c * np.interp(x, source.grid.x, source.S, left=0.0, right=0.0)
        w[:-1] = -np.cumsum(v[::-1])[::-1]
    elif source == "step":
        r = np.where(n < n_center, r_minus, r_plus).astype(float)
    else:
        raise ConfigError(f"unknown chain source {source!r}")
    return LatticeState(r=r, w=w, t=0.0, gamma=c / eps, r_left=r_minus, r_right=r_plus)


def _damping_factor(n: int, c: float):
    """LDL^T factor of the SPD tridiagonal I + c D^T D on n particles, for ``solve_banded``.

    D^T D has diagonal 2, corner entries 1 and off-diagonals -1.
    """
    diag = np.full(n, 1.0 + 2.0 * c)
    diag[0] = diag[-1] = 1.0 + c
    d, e, info = dpttrf(diag, np.full(n - 1, -c))
    if info != 0:
        raise NumericsError(f"damping matrix not positive definite (dpttrf info = {info})")
    return d, e


def solve_banded(factor, rhs: np.ndarray) -> np.ndarray:
    """Solve the damping system for ``rhs`` with a ``_damping_factor`` factor."""
    x, info = dpttrs(*factor, rhs)
    if info != 0:
        raise NumericsError(f"damping solve failed (dpttrs info = {info})")
    return x


def _all_finite(x: np.ndarray) -> bool:
    # a finite sum proves every entry finite: an inf or NaN entry carries
    # into it.  A sum that is not finite comes from such an entry or from
    # finite entries near 1e305 whose partial sums overflow, so only then
    # is each entry checked.  Steps run under _QUIET, so that sum is silent
    return math.isfinite(x.sum()) or bool(np.isfinite(x).all())


# the floating-point state that steps run in, entered once per call of run
# or run_free_chain (around its whole step loop) or of step_imex: an
# overflow or invalid result is a non-finite value, which the step's screen
# turns into its NumericsError, so it is not also warned about
_QUIET = {"over": "ignore", "invalid": "ignore"}


def _advance(r, w, t, dt, potential, factor, f_left, f_right, work, out):
    """One step from time t of strains r and particle velocities w.

    f_left/f_right are the boundary forces.  ``work`` (w's size) and ``out``
    (r's size, not r) are overwritten, ``out`` with the new strains, so the
    solve's output (the new w) is the only array the step allocates.
    """
    f = potential.dphi(r)
    np.subtract(f[1:], f[:-1], out=work[1:-1])
    work[0] = f[0] - f_left
    work[-1] = f_right - f[-1]
    np.multiply(work, dt, out=work)
    np.add(w, work, out=work)  # w + dt g
    w_new = solve_banded(factor, work)
    np.subtract(w_new[1:], w_new[:-1], out=out)  # D w+, as np.diff forms it
    np.multiply(out, dt, out=out)
    np.add(r, out, out=out)  # r + dt D w+
    # one screen covers both arrays: a non-finite entry of the right-hand
    # side carries through the solve into w_new and so into r_new.  The
    # message is the one of the first array that is not finite
    if not _all_finite(out):
        bad = w if not _all_finite(work) else w_new
        raise NumericsError(
            f"blow-up at t = {t + dt:.4g}: max |w| = {np.max(np.abs(bad)):.3g}"
        )
    return out, w_new


def _ghost_forces(state: LatticeState, potential: Potential) -> tuple[float, float]:
    return float(potential.dphi(state.r_left)), float(potential.dphi(state.r_right))


def _require_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def step_imex(state: LatticeState, dt: float, potential: Potential) -> LatticeState:
    """One semi-implicit step: implicit damping, explicit nonlinear force."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ConfigError("dt must be positive and finite")
    factor = _damping_factor(state.M + 1, dt * state.gamma)
    f_left, f_right = _ghost_forces(state, potential)
    with np.errstate(**_QUIET):
        r, w = _advance(
            state.r, state.w, state.t, dt, potential, factor, f_left, f_right,
            np.empty(state.M + 1), np.empty(state.M),
        )
    return replace(state, r=r, w=w, t=state.t + dt)


def crossing_position(r: np.ndarray, level: float = LEVEL) -> float | None:
    """Linearly interpolated site where r first crosses the level, or None.

    The crossing is the first pair of neighbours whose left entry is not
    below the level and whose right entry is (at 0-based j, j + 1); the
    result is the 1-based site j + 1 plus the linear fraction beyond it.
    """
    below = r < level
    if below.size == 0:
        return None
    m = int(below.argmin())  # first site not below the level
    k = m + int(below[m:].argmax())  # first site below the level after it
    if below[m] or not below[k]:
        return None
    # r0 is not below the level and r1 is, so r0 - r1 > 0 unless r0 is NaN
    r0, r1 = r[k - 1], r[k]
    return float(k + (r0 - level) / (r0 - r1))


@dataclass
class Trajectory:
    """Recorded run: snapshots plus per-step level crossings."""

    times: np.ndarray
    snapshots: np.ndarray  # shape (n_snapshots, M)
    crossing_times: np.ndarray
    crossing_positions: np.ndarray
    dt: float
    eps: float
    final_state: LatticeState
    monotone_defect: float = 0.0


def run(
    state: LatticeState,
    T: float,
    dt: float,
    potential: Potential,
    output_every: int = 50,
    eps: float | None = None,
) -> Trajectory:
    """Integrate to time T, recording snapshots and the mid-level crossing.

    ``eps`` is the front's normalized eps, stored on the trajectory for
    ``profile_distances``; it defaults to 1 / gamma, which holds for a chain
    seeded with c = 1.  A chain seeded with c != 1 (gamma = c / eps) passes
    the normalized eps.
    """
    if not (T > 0 and dt > 0 and math.isfinite(T) and math.isfinite(dt)):
        raise ConfigError("T and dt must be positive and finite")
    _require_integer("output_every", output_every)
    if output_every < 1:
        raise ConfigError(f"output_every must be at least 1, got {output_every}")
    steps = float(T) / float(dt)  # Python floats: an overflow is inf, not a warning
    if not math.isfinite(steps):
        raise ConfigError(f"T / dt = {float(T)!r} / {float(dt)!r} overflows the step count")
    n_steps = int(round(steps))
    eps = 1.0 / state.gamma if eps is None else eps
    level = 0.5 * (state.r_left + state.r_right)
    times = [state.t]
    snaps = [state.r.copy()]
    ct = []
    cp = []
    c0 = crossing_position(state.r, level)
    if c0 is not None:
        ct.append(state.t)
        cp.append(c0)
    mono = monotone_defect(state.r)
    factor = _damping_factor(state.M + 1, dt * state.gamma)
    f_left, f_right = _ghost_forces(state, potential)
    work = np.empty(state.M + 1)
    # the new strains go to the buffer that does not hold r, never to state.r
    bufs = (np.empty(state.M), np.empty(state.M))
    r, w, t = state.r, state.w, state.t
    with np.errstate(**_QUIET):
        for step in range(1, n_steps + 1):
            r, w = _advance(r, w, t, dt, potential, factor, f_left, f_right, work, bufs[step & 1])
            t = t + dt
            c = crossing_position(r, level)
            if c is not None:
                ct.append(t)
                cp.append(c)
            if step % output_every == 0 or step == n_steps:
                times.append(t)
                snaps.append(r.copy())
                mono = max(mono, monotone_defect(r))
    return Trajectory(
        times=np.array(times),
        snapshots=np.array(snaps),
        crossing_times=np.array(ct),
        crossing_positions=np.array(cp),
        dt=dt,
        eps=eps,
        final_state=replace(state, r=r, w=w, t=t),
        monotone_defect=mono,
    )


def monotone_defect(r: np.ndarray) -> float:
    """Largest uphill increment of a profile that should be non-increasing."""
    d = np.diff(r)
    return float(max(0.0, np.max(d)))


def measure_front_speed(traj: Trajectory) -> tuple[float, float]:
    """Least-squares speed of the 1/2 crossing after discarding the first 20%."""
    t, x = traj.crossing_times, traj.crossing_positions
    if t.size:
        cut = t[0] + 0.2 * (t[-1] - t[0])
        keep = t >= cut
        t, x = t[keep], x[keep]
    moved = t.size >= 2 and (np.max(x) - np.min(x)) > 1e-9
    if t.size < 10 or not moved:
        raise InsufficientDataError(
            f"only {t.size} usable crossings; front did not move through the chain"
        )
    return linear_fit(t, x)


def _front_strains(sol: FrontSolution, x, r_left: float, r_right: float) -> np.ndarray:
    """Strains r_right + (r_left - r_right) R(x) of the solved front; the tails clamp."""
    return r_right + (r_left - r_right) * np.interp(x, sol.grid.x, sol.R, left=1.0, right=0.0)


# the compared window holds the sites that reach where the front differs
# from both far fields by at least this fraction of the jump.  It sizes the
# window, and so the speed of profile_distances, never its values: on
# 2000-site chains 1e-4 leaves the window's maximum below the bound too
# often and 1e-7 evaluates more sites than needed
WINDOW_TAIL = 1e-5


def _window_edges(sol: FrontSolution) -> tuple[float, float]:
    """Grid x of the first and last front value at least WINDOW_TAIL from its far field."""
    # both exist: the front is pinned to R = 1/2 at x = 0
    x, R = sol.grid.x, sol.R
    left = np.flatnonzero(np.abs(R - 1.0) >= WINDOW_TAIL)[0]
    right = np.flatnonzero(np.abs(R) >= WINDOW_TAIL)[-1]
    return x[left], x[right]


def _tail_bound(sol, sites: range, r, eps, shifts, r_ends) -> float:
    """Bound on the distance profile_distances computes at ``sites``, for any shift.

    ``sites`` are consecutive 1-based sites with strains ``r``, the shift s
    runs over ``shifts`` = (s_lo, s_hi) and ``r_ends`` = (r_left, r_right).
    Rounding is monotone, so each site's x = eps (n - s) stays between its
    values at s_hi and s_lo, and all of them in [x_min, x_max], from the
    first site at s_hi to the last at s_lo.  There ``np.interp`` gives
    slope*(x - x_j) + R_j on [x_j, x_j+1), between R_j and R_j+1 up to a few
    roundings of their size, and the clamp values 1 and 0 off the grid: the
    range of those values, widened by 16 machine epsilons of its size, holds
    every interpolated value I.  F = r_right + (r_left - r_right) I and then
    |r - F|, computed at the two ends of that range, bound what any I in it
    gives.
    """
    x, R = sol.grid.x, sol.R
    x_min = eps * (sites[0] - shifts[1])
    x_max = eps * (sites[-1] - shifts[0])
    j0 = max(int(np.searchsorted(x, x_min, side="right")) - 2, 0)
    j1 = min(int(np.searchsorted(x, x_max, side="left")) + 1, x.size - 1)
    values = R[j0 : j1 + 1]
    lo, hi = float(values.min()), float(values.max())
    if x_min < x[0]:
        lo, hi = min(lo, 1.0), max(hi, 1.0)
    if x_max > x[-1]:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    fp = np.finfo(float)
    pad = 16.0 * (fp.eps * max(abs(lo), abs(hi)) + fp.smallest_subnormal)
    r_left, r_right = r_ends
    return max(
        float(np.abs(r - (r_right + (r_left - r_right) * i)).max())
        for i in (lo - pad, hi + pad)
    )


def profile_distances(traj: Trajectory, sol: FrontSolution) -> np.ndarray:
    """Min-over-shift sup distance to the solved front, one value per snapshot.

    Each snapshot is aligned on its level crossing c and the shift searched
    over [c - 3, c + 3].  An evaluation first takes the maximum over a
    window of sites around the front and returns it if it is at least
    ``_tail_bound`` of the other sites; otherwise it takes the maximum over
    all sites.  Either way it is the maximum of ``_front_strains``' distance
    over all sites, bit for bit.
    """
    from scipy.optimize import minimize_scalar

    M = traj.snapshots.shape[1]
    n = np.arange(1, M + 1)
    eps = traj.eps
    r_ends = r_left, r_right = traj.final_state.r_left, traj.final_state.r_right
    level = 0.5 * (r_left + r_right)
    x_a, x_b = _window_edges(sol)
    out = np.empty(len(traj.snapshots))
    for k, snap in enumerate(traj.snapshots):
        c = crossing_position(snap, level)
        if c is None:
            raise NumericsError("snapshot has no level crossing to align on")
        shifts = c_lo, c_hi = c - 3.0, c + 3.0
        # 0-based sites i0 .. i1 - 1 reach [x_a, x_b] at some shift in range
        i0 = min(max(math.floor(c_lo + x_a / eps) - 2, 0), M)
        i1 = min(max(math.ceil(c_hi + x_b / eps) + 1, i0), M)
        window = slice(i0, i1)
        tails = [(range(1, i0 + 1), snap[:i0]), (range(i1 + 1, M + 1), snap[i1:])]
        # np.max keeps a NaN, which sends every evaluation to all sites
        bound = np.max(
            [_tail_bound(sol, sites, r, eps, shifts, r_ends) for sites, r in tails if sites],
            initial=0.0,
        )

        def sup(sites, center):
            x = eps * (n[sites] - center)
            return float(np.max(np.abs(snap[sites] - _front_strains(sol, x, r_left, r_right))))

        def dist(center):
            if c_lo <= center <= c_hi:  # where the bound holds
                inside = sup(window, center)
                if inside >= bound:
                    return inside
            return sup(slice(None), center)

        res = minimize_scalar(dist, bounds=shifts, method="bounded",
                              options={"xatol": 1e-10})
        out[k] = float(res.fun)
    return out


def compare_profile(traj: Trajectory, sol: FrontSolution) -> float:
    """Sup over snapshots of the min-over-shift distance to the solved front."""
    return float(np.max(profile_distances(traj, sol)))


# -- free-end test configuration (energy bookkeeping in particle velocities) --


@dataclass
class FreeChainTrace:
    energies: np.ndarray
    times: np.ndarray


def run_free_chain(
    u0: np.ndarray,
    r0: np.ndarray,
    gamma: float,
    dt: float,
    n_steps: int,
    potential: Potential,
) -> FreeChainTrace:
    """Free-end chain: particle velocities u (size M), strains r (M-1).

    The step is the Dirichlet chain's with zero boundary forces:
    (I + dt gamma D^T D) u+ = u - dt D^T dphi(r), then r+ = r + dt D u+.
    Energy sum(u^2)/2 + sum(Phi(r)) is non-increasing: the force term is
    skew in the (u, r) pairing and the damping contributes -gamma |D u+|^2.
    A non-positive dt or gamma, an ``n_steps`` that is negative or not an
    integer, or a non-finite dt, gamma or initial state is a
    ``ConfigError``; strains or an energy that stop being finite raise
    ``NumericsError``.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ConfigError("dt must be positive and finite")
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ConfigError("gamma must be positive and finite")
    _require_integer("n_steps", n_steps)
    if n_steps < 0:
        raise ConfigError(f"n_steps must be non-negative, got {n_steps}")
    u = np.asarray(u0, dtype=float)
    r = np.asarray(r0, dtype=float)
    M = u.size
    if r.size != M - 1:
        raise ConfigError("free chain needs M velocities and M-1 strains")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(r))):
        raise ConfigError("non-finite initial state")
    factor = _damping_factor(M, dt * gamma)
    work = np.empty(M)  # the step's right-hand side, then u^2
    bufs = (np.empty(M - 1), np.empty(M - 1))

    energies = [float(np.sum(u**2) / 2 + np.sum(potential.phi(r)))]
    times = [0.0]
    with np.errstate(**_QUIET):
        for s in range(1, n_steps + 1):
            r, u = _advance(r, u, (s - 1) * dt, dt, potential, factor, 0.0, 0.0, work, bufs[s & 1])
            energy = float(np.sum(np.square(u, out=work)) / 2 + np.sum(potential.phi(r)))
            if not math.isfinite(energy):
                raise NumericsError(f"blow-up at t = {s * dt:.4g}: energy {energy}")
            energies.append(energy)
            times.append(s * dt)
    return FreeChainTrace(energies=np.array(energies), times=np.array(times))
