"""Time integration of the damped chain in relative displacements.

The chain evolves r_n'' = (Delta dphi(r))_n + gamma (Delta r')_n with
Dirichlet ghost values r_0 = r_minus, r_{M+1} = r_plus and zero velocity
ghosts.  The stiff damping term (gamma = 1/eps is large) is treated
implicitly: each step solves a tridiagonal system for the new velocities
and then updates r explicitly.  The damping matrix I + dt gamma L is
constant, so it is LDL^T-factored once per run (LAPACK ``dpttrf``) and each
step only back-substitutes (``dpttrs``).  Fronts initialized from a solved
profile should travel at unit speed; the crossing position of the 1/2 level
is tracked every step so the speed can be fitted afterwards.

A separate free-end integrator works in particle-velocity form (u are
particle velocities, r the M-1 spring strains).  There the discrete
energy sum(u^2)/2 + sum(Phi(r)) dissipates exactly through the damping
term, which gives a sharp per-step check of the integrator.
"""

from __future__ import annotations

import math
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
    """Chain state in relative displacements with Dirichlet ghosts."""

    r: np.ndarray
    v: np.ndarray
    t: float
    gamma: float
    r_left: float = 1.0
    r_right: float = 0.0

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.r.shape != self.v.shape or self.r.ndim != 1:
            raise ConfigError("r and v must be 1-d arrays of equal length")
        if self.r.size < 200:
            raise ConfigError(f"chain too short: M = {self.r.size} < 200")
        if not (np.all(np.isfinite(self.r)) and np.all(np.isfinite(self.v))):
            raise ConfigError("non-finite initial state")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")

    @property
    def M(self) -> int:
        return self.r.size


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

    Front source (normalized defaults): r_n = R(eps (n - M // 2)),
    v_n = eps S at the same points (the traveling-wave time derivative at
    unit speed).  Outside the stored profile the tails are clamped to the
    asymptotic values.  For an unnormalized chain pass the raw far fields
    and the jump-condition speed c: the profile is scaled affinely,
    v picks up the factor (r_minus - r_plus) c, and gamma = c / eps keeps
    the physical damping consistent with the time rescaling t -> c t.
    Step source jumps from r_minus to r_plus at site M // 2 with zero
    velocities (the ghosts follow the far fields in both cases).
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    if c <= 0:
        raise ConfigError("front speed must be positive")
    n = np.arange(1, M + 1)
    n_center = M // 2
    scale = r_minus - r_plus
    if isinstance(source, FrontSolution):
        x = eps * (n - n_center).astype(float)
        r = _front_strains(source, x, r_minus, r_plus)
        v = scale * eps * c * np.interp(x, source.grid.x, source.S, left=0.0, right=0.0)
        return LatticeState(
            r=r, v=v, t=0.0, gamma=c / eps, r_left=r_minus, r_right=r_plus
        )
    if source == "step":
        r = np.where(n < n_center, r_minus, r_plus).astype(float)
        v = np.zeros_like(r)
        return LatticeState(
            r=r, v=v, t=0.0, gamma=c / eps, r_left=r_minus, r_right=r_plus
        )
    raise ConfigError(f"unknown chain source {source!r}")


def _laplacian(w: np.ndarray, left: float, right: float, out: np.ndarray) -> np.ndarray:
    """Write the Dirichlet Laplacian of w into ``out`` (not w) and return it."""
    mid = out[1:-1]
    np.multiply(w[1:-1], 2.0, out=mid)
    np.subtract(w[:-2], mid, out=mid)
    np.add(mid, w[2:], out=mid)
    out[0] = left - 2.0 * w[0] + w[1]
    out[-1] = w[-2] - 2.0 * w[-1] + right
    return out


def _damping_factor(M: int, c: float, free_ends: bool = False):
    """LDL^T factor of the SPD tridiagonal I + c L, for ``solve_banded``.

    L is the negative Dirichlet Laplacian (diagonal 2, off-diagonals -1) or,
    with ``free_ends``, D^T D for the forward difference D (corner entries 1).
    """
    diag = np.full(M, 1.0 + 2.0 * c)
    if free_ends:
        diag[0] = diag[-1] = 1.0 + c
    d, e, info = dpttrf(diag, np.full(M - 1, -c))
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
    # is each entry checked
    return math.isfinite(x.sum()) or bool(np.isfinite(x).all())


def _advance(r, v, t, dt, potential, factor, f_left, f_right, work):
    """One IMEX step on arrays from time t; f_left/f_right are the ghost forces.

    ``work`` is an array of r's size that the step overwrites.
    """
    rhs = _laplacian(potential.dphi(r), f_left, f_right, work)
    np.multiply(rhs, dt, out=rhs)
    np.add(v, rhs, out=rhs)
    if not _all_finite(rhs):
        raise NumericsError(
            f"blow-up at t = {t + dt:.4g}: max |v| = {np.max(np.abs(v)):.3g}"
        )
    v_new = solve_banded(factor, rhs)
    r_new = r + dt * v_new
    if not _all_finite(r_new):
        raise NumericsError(
            f"blow-up at t = {t + dt:.4g}: max |v| = {np.max(np.abs(v_new)):.3g}"
        )
    return r_new, v_new


def _ghost_forces(state: LatticeState, potential: Potential) -> tuple[float, float]:
    return float(potential.dphi(state.r_left)), float(potential.dphi(state.r_right))


def step_imex(state: LatticeState, dt: float, potential: Potential) -> LatticeState:
    """One semi-implicit step: implicit damping, explicit nonlinear force."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    factor = _damping_factor(state.M, dt * state.gamma)
    r, v = _advance(
        state.r, state.v, state.t, dt, potential, factor,
        *_ghost_forces(state, potential), np.empty(state.M),
    )
    return replace(state, r=r, v=v, t=state.t + dt)


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
    if T <= 0 or dt <= 0:
        raise ConfigError("T and dt must be positive")
    if output_every < 1:
        raise ConfigError(f"output_every must be at least 1, got {output_every}")
    n_steps = int(round(T / dt))
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
    factor = _damping_factor(state.M, dt * state.gamma)
    f_left, f_right = _ghost_forces(state, potential)
    work = np.empty(state.M)
    r, v, t = state.r, state.v, state.t
    for step in range(1, n_steps + 1):
        r, v = _advance(r, v, t, dt, potential, factor, f_left, f_right, work)
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
        final_state=replace(state, r=r, v=v, t=t),
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


def profile_distances(traj: Trajectory, sol: FrontSolution) -> np.ndarray:
    """Min-over-shift sup distance to the solved front, one value per snapshot."""
    from scipy.optimize import minimize_scalar

    n = np.arange(1, traj.snapshots.shape[1] + 1)
    r_left, r_right = traj.final_state.r_left, traj.final_state.r_right
    level = 0.5 * (r_left + r_right)
    out = np.empty(len(traj.snapshots))
    for k, snap in enumerate(traj.snapshots):
        c = crossing_position(snap, level)
        if c is None:
            raise NumericsError("snapshot has no level crossing to align on")

        def dist(center):
            x = traj.eps * (n - center)
            return float(np.max(np.abs(snap - _front_strains(sol, x, r_left, r_right))))

        res = minimize_scalar(dist, bounds=(c - 3.0, c + 3.0), method="bounded",
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
    """Free-end chain in particle velocities u (size M) and strains r (M-1).

    Step: (I + dt gamma D^T D) u+ = u - dt D^T dphi(r), then r+ = r + dt D u+,
    with (D q)_n = q_{n+1} - q_n.  Energy sum(u^2)/2 + sum(Phi(r)) is
    non-increasing: the force term is skew in the (u, r) pairing and the
    damping contributes -gamma |D u+|^2.  A non-positive dt or gamma, a
    negative ``n_steps`` or a non-finite initial state is a ``ConfigError``;
    an energy that stops being finite raises ``NumericsError``.
    """
    if not dt > 0:
        raise ConfigError("dt must be positive")
    if not gamma > 0:
        raise ConfigError("gamma must be positive")
    if n_steps < 0:
        raise ConfigError(f"n_steps must be non-negative, got {n_steps}")
    u = np.array(u0, dtype=float)
    r = np.array(r0, dtype=float)
    M = u.size
    if r.size != M - 1:
        raise ConfigError("free chain needs M velocities and M-1 strains")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(r))):
        raise ConfigError("non-finite initial state")
    factor = _damping_factor(M, dt * gamma, free_ends=True)

    def dT(w):  # D^T: (M-1,) -> (M,)
        out = np.empty(M)
        out[0] = -w[0]
        out[1:-1] = w[:-1] - w[1:]
        out[-1] = w[-1]
        return out

    energies = [float(np.sum(u**2) / 2 + np.sum(potential.phi(r)))]
    times = [0.0]
    for s in range(1, n_steps + 1):
        rhs = u - dt * dT(potential.dphi(r))
        u = solve_banded(factor, rhs)
        r = r + dt * np.diff(u)
        energy = float(np.sum(u**2) / 2 + np.sum(potential.phi(r)))
        if not math.isfinite(energy):
            raise NumericsError(f"blow-up at t = {s * dt:.4g}: energy {energy}")
        energies.append(energy)
        times.append(s * dt)
    return FreeChainTrace(energies=np.array(energies), times=np.array(times))
