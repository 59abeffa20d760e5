"""Damped-chain integrator: transport, relaxation, dissipation, failure modes."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fput_fronts import (
    ConfigError,
    InsufficientDataError,
    NumericsError,
    hertz_potential,
    quadratic_force_potential,
    solve_front,
)
from fput_fronts.lattice_sim import (
    LatticeState,
    compare_profile,
    crossing_position,
    default_dt,
    init_chain,
    measure_front_speed,
    profile_distances,
    run,
    run_free_chain,
    step_imex,
)
from fput_fronts.lattice_sim import _tail_bound, _window_edges
from oracles import free_chain_energies, imex_steps, particle_steps
from oracles import profile_distances as reference_distances


@pytest.fixture(scope="module")
def quad():
    return quadratic_force_potential()


@pytest.fixture(scope="module")
def quad_sol(quad):
    return solve_front(quad, 0.1)


@pytest.fixture(scope="module")
def front_traj(quad, quad_sol):
    state = init_chain(2000, quad_sol, 0.1)
    return run(state, 50.0, 0.05, quad, output_every=100)


@pytest.fixture(scope="module")
def step_traj(quad):
    state = init_chain(1200, "step", 0.1)
    return run(state, 300.0, 0.05, quad, output_every=400)


@pytest.fixture(scope="module")
def hertz_raw_chain():
    """Hertz chain from 4 to 0 (c = sqrt 2) at physical gamma 10: trajectory and front."""
    raw = hertz_potential(1.5, 4.0)
    norm, fmap = raw.renormalize()
    c = fmap.speed
    eps_n = c / 10.0
    sol = solve_front(norm, eps_n)
    state = init_chain(2000, sol, eps_n, r_minus=4.0, r_plus=0.0, c=c)
    return run(state, 50.0, 0.05, raw, output_every=200, eps=eps_n), sol, c


class TestInitChain:
    def test_front_source_phase_and_ends(self, quad_sol):
        state = init_chain(2000, quad_sol, 0.1)
        assert abs(state.r[999] - 0.5) <= 1e-9  # site n_center = 1000
        assert abs(state.r[0] - 1.0) <= 1e-6
        assert abs(state.r[-1]) <= 1e-6
        assert state.gamma == 10.0
        assert np.min(state.v) >= -1e-8  # slope positivity up to solver tolerance
        assert np.max(state.v) > 0.0
        assert state.w.size == 2001 and state.w[-1] == 0.0  # at rest ahead of the front

    def test_step_source_is_heaviside(self):
        state = init_chain(400, "step", 0.1)
        assert set(np.unique(state.r)) == {0.0, 1.0}
        assert state.w.size == 401 and np.all(state.w == 0.0)

    @pytest.mark.parametrize("M", [150, -1])
    @pytest.mark.parametrize("source", ["front", "step"])
    def test_short_chain_rejected(self, quad_sol, source, M):
        # LatticeState holds the one length check, for every source
        with pytest.raises(ConfigError, match=r"^chain too short: M = "):
            init_chain(M, quad_sol if source == "front" else source, 0.1)

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            init_chain(400, "ramp", 0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ConfigError, match=r"^gamma must be positive and finite$"):
            LatticeState(r=np.full(400, 0.5), w=np.zeros(401), t=0.0, gamma=gamma)

    @pytest.mark.parametrize("w_size", [400, 402])
    def test_w_has_one_more_entry_than_r(self, w_size):
        with pytest.raises(ConfigError, match=r"^r and w must be 1-d arrays of M and M \+ 1 entries$"):
            LatticeState(r=np.full(400, 0.5), w=np.zeros(w_size), t=0.0, gamma=10.0)

    def test_v_is_the_difference_of_w(self):
        w = np.random.default_rng(2).uniform(-1.0, 1.0, 401)
        state = LatticeState(r=np.full(400, 0.5), w=w, t=0.0, gamma=10.0)
        assert state.v.tobytes() == np.diff(w).tobytes()
        with pytest.raises(AttributeError):
            state.v = np.zeros(400)

    BAD_POSITIVE = [np.nan, np.inf, -np.inf, 0.0, -1.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", BAD_POSITIVE)
    @pytest.mark.parametrize("source", ["front", "step"])
    @pytest.mark.parametrize(
        "which, message",
        [("eps", "eps must be positive and finite"), ("c", "front speed must be positive and finite")],
    )
    def test_eps_and_speed_must_be_positive_and_finite(self, quad_sol, source, which, message, bad):
        args = {"eps": 0.1, "c": 1.0, which: bad}
        with pytest.raises(ConfigError, match=f"^{message}$"):
            init_chain(400, quad_sol if source == "front" else source, **args)


class TestStepImex:
    def test_uniform_state_is_fixed_point(self, quad):
        state = LatticeState(
            r=np.full(400, 0.3), w=np.zeros(401), t=0.0, gamma=10.0,
            r_left=0.3, r_right=0.3,
        )
        after = step_imex(state, 0.05, quad)
        assert np.array_equal(after.r, state.r)
        assert np.array_equal(after.w, state.w)

    def test_first_order_in_dt(self, quad, quad_sol):
        finals = []
        for dt in (0.05, 0.025, 0.0125):
            st = init_chain(400, quad_sol, 0.1)
            traj = run(st, 5.0, dt, quad, output_every=10**9)
            finals.append(traj.final_state.r)
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        order = np.log2(e1 / e2)
        assert 0.8 <= order <= 1.2

    def test_blow_up_reports_time_and_velocity(self, quad):
        # huge-amplitude step with an oversized dt grows by a constant factor
        # per step (the force law is linear far out), so it must overflow and
        # the integrator must convert that to its own error
        r = np.where(np.arange(400) < 200, 1e250, 0.0)
        state = LatticeState(
            r=r, w=np.zeros(401), t=0.0, gamma=10.0, r_left=1e250, r_right=0.0
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match="blow-up"):
                for _ in range(200):
                    state = step_imex(state, 50.0, quad)

    # a strain step whose force overflows (the right-hand side stops being
    # finite first), and a uniform chain whose forces cancel but whose new
    # strains overflow: at gamma 1e-3 the step in w barely spreads, so the
    # new velocities stay finite and r + dt D w does not
    BLOW_UPS = {
        "force": (np.where(np.arange(400) < 200, 1e250, 0.0), np.zeros(401), 1e250, 0.0, 10.0),
        "strain": (np.full(400, 4e307), np.where(np.arange(401) < 200, 0.0, 1e307), 4e307, 4e307, 1e-3),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", BLOW_UPS)
    def test_run_blows_up_as_the_step_loop(self, quad, case):
        # a right-hand side that is not finite reports the velocities the
        # step started from, finite new strains the new velocities.  Those
        # are averages of the first step's w (the solve's inverse is
        # positive with unit row sums) and reach its maximum far from the step
        r, w, r_left, r_right, gamma = self.BLOW_UPS[case]
        state = LatticeState(r=r, w=w, t=0.0, gamma=gamma, r_left=r_left, r_right=r_right)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError) as stepped:
                for _ in range(200):
                    state = step_imex(state, 50.0, quad)
            if case == "strain":
                assert state.t == 0.0
            w_max = np.max(np.abs(state.w))
            assert str(stepped.value) == f"blow-up at t = {state.t + 50.0:.4g}: max |w| = {w_max:.3g}"
            state = LatticeState(r=r, w=w, t=0.0, gamma=gamma, r_left=r_left, r_right=r_right)
            with pytest.raises(NumericsError) as ran:
                run(state, 200 * 50.0, 50.0, quad)
        assert str(ran.value) == str(stepped.value)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_screen_sum_raises_without_a_warning(self, quad):
        # finite strains near 1e305 (D w = 1e304 at every spring) grow: the
        # screen's sum overflows from the first step on, before any entry
        # does, and then the solve's output: the step's NumericsError, with no
        # RuntimeWarning on the way (none is ignored here)
        r, w = np.full(400, 1e305), 1e304 * np.arange(401)
        state = LatticeState(r=r, w=w, t=0.0, gamma=10.0, r_left=1e305, r_right=1e305)
        with pytest.raises(NumericsError) as stepped:
            for _ in range(200):
                state = step_imex(state, 50.0, quad)
        state = LatticeState(r=r, w=w, t=0.0, gamma=10.0, r_left=1e305, r_right=1e305)
        with pytest.raises(NumericsError) as ran:
            run(state, 200 * 50.0, 50.0, quad)
        assert str(ran.value) == str(stepped.value) == "blow-up at t = 250: max |w| = inf"

    def test_run_leaves_the_state_alone(self, quad, quad_sol):
        state = init_chain(400, quad_sol, 0.1)
        r, w = state.r.copy(), state.w.copy()
        traj = run(state, 2.0, 0.05, quad)
        assert state.r.tobytes() == r.tobytes() and state.w.tobytes() == w.tobytes()
        assert traj.snapshots[0].tobytes() == r.tobytes()
        assert not np.shares_memory(traj.final_state.r, state.r)

    def test_run_matches_step_loop(self, quad, quad_sol):
        # the perturbation pushes strains out of the core, so the force-law
        # extension runs too
        state = init_chain(400, quad_sol, 0.1)
        state.r = state.r + 1e-6 * np.random.default_rng(3).uniform(-1.0, 1.0, 400)
        traj = run(state, 2.0, 0.05, quad)
        stepped = [state]
        for _ in range(40):
            stepped.append(step_imex(stepped[-1], 0.05, quad))
        final = stepped[-1]
        assert traj.final_state.t == final.t
        assert traj.final_state.r.tobytes() == final.r.tobytes()
        assert traj.final_state.w.tobytes() == final.w.tobytes()
        # every state has a crossing, so the track has one entry per state
        track = np.array([crossing_position(s.r) for s in stepped])
        assert traj.crossing_positions.tobytes() == track.tobytes()
        assert traj.crossing_times.tobytes() == np.array([s.t for s in stepped]).tobytes()

    def test_run_matches_plain_steps(self, quad, quad_sol):
        state = init_chain(400, quad_sol, 0.1)
        state.r = state.r + 1e-6 * np.random.default_rng(5).uniform(-1.0, 1.0, 400)
        final = run(state, 2.0, 0.05, quad).final_state
        r, w = particle_steps(state, 0.05, 40, quad)
        assert final.r.tobytes() == r.tobytes() and final.w.tobytes() == w.tobytes()

    def test_run_matches_the_strain_scheme(self, quad, quad_sol):
        # the strain velocities v = D w step as v' = Delta dphi(r) + gamma Delta v
        state = init_chain(400, quad_sol, 0.1)
        state.r = state.r + 1e-6 * np.random.default_rng(5).uniform(-1.0, 1.0, 400)
        final = run(state, 2.0, 0.05, quad).final_state
        r, v = imex_steps(state, 0.05, 40, quad)
        assert np.max(np.abs(final.r - r)) <= 1e-12
        assert np.max(np.abs(final.v - v)) <= 1e-12

    def test_output_every_must_be_positive(self, quad, quad_sol):
        state = init_chain(400, quad_sol, 0.1)
        with pytest.raises(ConfigError, match="output_every"):
            run(state, 1.0, 0.05, quad, output_every=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [2.5, 2.0, np.nan, True, "2"])
    def test_output_every_must_be_an_integer(self, quad, quad_sol, bad):
        state = init_chain(400, quad_sol, 0.1)
        with pytest.raises(ConfigError, match=r"^output_every must be an integer, got "):
            run(state, 1.0, 0.05, quad, output_every=bad)

    def test_output_every_takes_a_numpy_integer(self, quad, quad_sol):
        state = init_chain(400, quad_sol, 0.1)
        traj = run(state, 1.0, 0.05, quad, output_every=np.int64(5))
        assert traj.times.size == 5

    BAD_TIMES = [np.nan, np.inf, -np.inf, 0.0, -0.05]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", BAD_TIMES)
    @pytest.mark.parametrize("which", ["T", "dt"])
    def test_run_rejects_non_finite_or_non_positive_times(self, quad, quad_sol, which, bad):
        state = init_chain(400, quad_sol, 0.1)
        args = {"T": 1.0, "dt": 0.05, which: bad}
        with pytest.raises(ConfigError, match=r"^T and dt must be positive and finite$"):
            run(state, args["T"], args["dt"], quad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T, dt", [(1e300, 1e-10), (np.float64(1e300), np.float64(1e-10))])
    def test_run_rejects_a_step_count_that_overflows(self, quad, quad_sol, T, dt):
        state = init_chain(400, quad_sol, 0.1)
        with pytest.raises(
            ConfigError, match=r"^T / dt = 1e\+300 / 1e-10 overflows the step count$"
        ):
            run(state, T, dt, quad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", BAD_TIMES)
    def test_step_rejects_non_finite_or_non_positive_dt(self, quad, quad_sol, bad):
        state = init_chain(400, quad_sol, 0.1)
        with pytest.raises(ConfigError, match=r"^dt must be positive and finite$"):
            step_imex(state, bad, quad)

    def test_default_dt_cap(self, quad):
        assert 0 < default_dt(quad) <= 0.05


class TestFrontTransport:
    def test_unit_speed(self, front_traj):
        c_fit, r2 = measure_front_speed(front_traj)
        assert abs(c_fit - 1.0) <= 0.01
        assert r2 >= 0.9999

    def test_profile_follows_solution(self, front_traj, quad_sol):
        assert compare_profile(front_traj, quad_sol) <= 1e-3

    def test_monotone_within_tolerance(self, front_traj):
        assert front_traj.monotone_defect <= 1e-6

    def test_boundaries_stay_flat(self, front_traj):
        r = front_traj.final_state.r
        assert abs(r[0] - 1.0) <= 1e-5
        assert abs(r[-1]) <= 1e-5

    def test_coarser_wave_still_tracks(self, quad):
        sol = solve_front(quad, 0.2)
        state = init_chain(1000, sol, 0.2)
        traj = run(state, 30.0, 0.05, quad, output_every=100)
        assert compare_profile(traj, sol) <= 5e-3

    def test_speed_independent_of_damping(self, quad, front_traj):
        sol = solve_front(quad, 0.05)
        state = init_chain(2000, sol, 0.05)
        traj = run(state, 50.0, 0.05, quad, output_every=100)
        c20, _ = measure_front_speed(traj)
        c10, _ = measure_front_speed(front_traj)
        assert abs(c20 / c10 - 1.0) <= 0.01


class TestUnnormalizedChain:
    def test_hertz_speed_matches_jump_condition(self, hertz_raw_chain):
        traj, sol, c = hertz_raw_chain
        assert abs(c - np.sqrt(2.0)) <= 1e-12
        assert traj.final_state.gamma == pytest.approx(10.0)
        c_fit, r2 = measure_front_speed(traj)
        assert abs(c_fit / np.sqrt(2.0) - 1.0) <= 0.02
        assert r2 >= 0.9999
        # the profile compares in raw strains, scaled to the far fields
        assert compare_profile(traj, sol) <= 4e-3


class TestStepRelaxation:
    """Zero-velocity step data resolves into two waves, not one.

    The right-going piece is a genuine front, but it connects an
    intermediate plateau r_m to 0; matching the two jump conditions for
    the force law r^2 puts r_m at the golden-ratio value (sqrt(5)-1)/2,
    with front speed sqrt(r_m).  The distance to the unit front therefore
    drops early (the jump smooths out) and then settles near 1 - r_m
    instead of decaying.
    """

    def test_speed_selects_intermediate_state(self, step_traj):
        r_m = (np.sqrt(5.0) - 1.0) / 2.0
        c_fit, _ = measure_front_speed(step_traj)
        assert abs(c_fit / np.sqrt(r_m) - 1.0) <= 0.02

    def test_distance_drops_then_plateaus(self, step_traj, quad_sol):
        d = profile_distances(step_traj, quad_sol)
        assert d[1] < 0.25 * d[0]  # initial smoothing toward a front shape
        r_m = (np.sqrt(5.0) - 1.0) / 2.0
        assert abs(d[-1] - (1.0 - r_m)) <= 0.05
        assert np.max(np.abs(np.diff(d[-3:]))) <= 2e-3  # settled

    def test_plateau_level(self, step_traj):
        r = step_traj.final_state.r
        cross = crossing_position(r)
        mid = int(cross) - 150
        r_m = (np.sqrt(5.0) - 1.0) / 2.0
        assert abs(np.median(r[mid - 50 : mid + 50]) - r_m) <= 0.02


@pytest.fixture(scope="module", params=[("quad", 10.0), ("quad", 20.0), ("hertz", 10.0), ("hertz", 20.0)],
                ids=lambda p: f"{p[0]}-gamma{p[1]:g}")
def seeded_chain(request, quad, quad_sol):
    """Front-seeded chain of 2000 sites with a 1e-6 strain perturbation, to T = 50."""
    name, gamma = request.param
    pot = quad if name == "quad" else hertz_potential(1.5)
    eps = 1.0 / gamma
    sol = quad_sol if (name, gamma) == ("quad", 10.0) else solve_front(pot, eps)
    state = init_chain(2000, sol, eps)
    state.r = state.r + 1e-6 * np.random.default_rng(int(gamma)).uniform(-1.0, 1.0, 2000)
    return run(state, 50.0, 0.05, pot, output_every=100), sol


class TestProfileDistancesExact:
    """The windowed comparison returns the bits of the one over every site."""

    def test_seeded_chains(self, seeded_chain):
        traj, sol = seeded_chain
        assert profile_distances(traj, sol).tobytes() == reference_distances(traj, sol).tobytes()

    def test_step_relaxation(self, step_traj, quad_sol):
        assert (
            profile_distances(step_traj, quad_sol).tobytes()
            == reference_distances(step_traj, quad_sol).tobytes()
        )

    def test_unnormalized_chain(self, hertz_raw_chain):
        traj, sol, _ = hertz_raw_chain
        assert profile_distances(traj, sol).tobytes() == reference_distances(traj, sol).tobytes()

    @pytest.mark.parametrize("defect", [0.01, np.nan])
    @pytest.mark.parametrize("site", [6, 1995])
    def test_far_tail_defect_takes_every_site(self, front_traj, quad_sol, site, defect):
        # each site lies far outside the window: only the evaluation over
        # all sites sees it, and it is the worst site of every snapshot
        snaps = front_traj.snapshots.copy()
        snaps[:, site - 1] += defect
        traj = replace(front_traj, snapshots=snaps)
        d = profile_distances(traj, quad_sol)
        assert d.tobytes() == reference_distances(traj, quad_sol).tobytes()
        if np.isnan(defect):
            assert np.all(np.isnan(d))
        else:
            assert np.all(d >= 0.99 * defect)

    def test_tail_bound_holds_at_every_shift(self, front_traj, quad_sol):
        # at r = r_left the distance grows as the shift moves the front's
        # tail toward the sites, so the bound must come from the whole range
        eps = front_traj.eps
        c = crossing_position(front_traj.snapshots[-1])
        shifts = (c - 3.0, c + 3.0)
        i0 = int(shifts[0] + _window_edges(quad_sol)[0] / eps) - 2
        sites = range(1, i0 + 1)
        r = np.ones(i0)
        bound = _tail_bound(quad_sol, sites, r, eps, shifts, (1.0, 0.0))
        n = np.arange(1, i0 + 1)
        for s in np.linspace(*shifts, 61):
            front = np.interp(eps * (n - s), quad_sol.grid.x, quad_sol.R, left=1.0, right=0.0)
            assert np.max(np.abs(r - front)) <= bound
        assert bound <= 1e-5

    def test_tail_bound_covers_interpolation_rounding(self):
        # on [-100, 0) the interpolant slope*(x + 100) + 0.25 rounds past its
        # end value 1.9 just left of 0, where x + 100 rounds to 100
        front = SimpleNamespace(
            grid=SimpleNamespace(x=np.array([-100.0, 0.0, 100.0])), R=np.array([0.25, 1.9, 0.25])
        )
        shifts = (1.0, 1.0 + 2.0**-52)
        x = 0.1 * (1 - shifts[1])
        value = np.interp(x, front.grid.x, front.R, left=1.0, right=0.0)
        if not value > 1.9:
            pytest.skip("np.interp does not round past its end values on this platform")
        assert value <= _tail_bound(front, range(1, 2), np.zeros(1), 0.1, shifts, (1.0, 0.0))


class TestSpeedMeasurement:
    def test_stationary_state_raises(self, quad):
        flat = LatticeState(
            r=np.full(400, 0.3), w=np.zeros(401), t=0.0, gamma=10.0,
            r_left=0.3, r_right=0.3,
        )
        traj = run(flat, 2.0, 0.05, quad)
        with pytest.raises(InsufficientDataError):
            measure_front_speed(traj)

    def test_too_few_crossings_raise(self, quad, quad_sol):
        state = init_chain(400, quad_sol, 0.1)
        traj = run(state, 0.2, 0.05, quad)
        with pytest.raises(InsufficientDataError):
            measure_front_speed(traj)


def _first_crossing(r, level):
    """Site-by-site oracle for crossing_position."""
    for j in range(len(r) - 1):
        if not r[j] < level and r[j + 1] < level:
            return float(j + 1 + (r[j] - level) / (r[j] - r[j + 1]))
    return None


class TestCrossingPosition:
    @pytest.mark.parametrize(
        "r",
        [[], [0.2], [0.7, 0.9, 1.0], [0.2, 0.1, 0.0], [0.0, 0.25, 1.0], [0.5, 0.5, 0.5]],
        ids=["empty", "one-site", "all-above", "all-below", "rising", "at-level"],
    )
    def test_no_crossing(self, r):
        assert crossing_position(np.array(r)) is None

    def test_crossing_at_first_pair(self):
        assert crossing_position(np.array([0.75, 0.25, 0.0, 0.0])) == 1.5

    def test_crossing_at_last_pair(self):
        assert crossing_position(np.array([1.0, 1.0, 0.75, 0.75, 0.25])) == 4.5

    def test_plateau_at_level_crosses_at_its_end(self):
        # a crossing pair has r0 >= level > r1, so r0 == r1 cannot occur; a
        # plateau on the level puts the crossing at its last site, fraction 0
        assert crossing_position(np.array([1.0, 0.5, 0.5, 0.5, 0.25])) == 4.0

    @pytest.mark.parametrize(
        "r, expected",
        [
            ([1.0, 0.25, 0.75, 0.0, 1.0, 0.25], 1.0 + 0.5 / 0.75),
            # starts below the level: the first crossing follows the first rise
            ([0.25, 0.75, 0.25, 1.0, 0.0], 2.5),
            ([0.0, 0.0, 1.0, 0.5, 0.0, 0.75, 0.25], 4.0),
        ],
    )
    def test_non_monotone_returns_first_crossing(self, r, expected):
        assert crossing_position(np.array(r)) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_site_by_site_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            # few distinct values, so ties with the level and plateaus occur
            r = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=rng.integers(0, 9))
            assert crossing_position(r) == _first_crossing(r, 0.5)
        r = rng.uniform(0.0, 1.0, 300)
        level = float(rng.uniform(0.2, 0.8))
        assert crossing_position(r, level) == _first_crossing(r, level)


@pytest.fixture(scope="module", params=[(n, src) for n in ("quad", "hertz") for src in (0.1, 0.05, "step")],
                ids=lambda p: f"{p[0]}-{p[1]}")
def dirichlet_chain(request, quad, quad_sol):
    """A 2000-site chain seeded from the front at eps 0.1 or 0.05, or from a step at eps 0.1."""
    name, source = request.param
    pot = quad if name == "quad" else hertz_potential(1.5)
    if source == "step":
        return init_chain(2000, "step", 0.1), pot
    sol = quad_sol if (name, source) == ("quad", 0.1) else solve_front(pot, source)
    return init_chain(2000, sol, source), pot


class TestDirichletBalance:
    """The Dirichlet chain is the free chain with two constant boundary forces."""

    def test_energy_less_boundary_work_never_increases(self, dirichlet_chain):
        # sum(w^2)/2 + sum(Phi(r)) gains the boundary work
        # dt (f_right w+_last - f_left w+_1) per step and loses the damping's
        state, pot = dirichlet_chain
        f_left, f_right = float(pot.dphi(state.r_left)), float(pot.dphi(state.r_right))
        dt = 0.05
        balance = [0.5 * np.sum(state.w**2) + np.sum(pot.phi(state.r))]
        work = 0.0
        for _ in range(200):
            state = step_imex(state, dt, pot)
            work += dt * (f_right * state.w[-1] - f_left * state.w[0])
            balance.append(0.5 * np.sum(state.w**2) + np.sum(pot.phi(state.r)) - work)
        assert np.all(np.diff(balance) <= 1e-10 * dt)
        assert np.all(np.diff(balance) < 0)

    def test_momentum_takes_the_boundary_forces(self, dirichlet_chain):
        # the damping conserves sum(w) exactly, so it changes by the net force
        state, pot = dirichlet_chain
        f_left, f_right = float(pot.dphi(state.r_left)), float(pot.dphi(state.r_right))
        final = run(state, 10.0, 0.05, pot).final_state
        gained = np.sum(final.w) - np.sum(state.w)
        assert abs(gained - (f_right - f_left) * 10.0) <= 1e-10


class TestFreeChainDissipation:
    def test_energy_never_increases(self, quad):
        rng = np.random.default_rng(7)
        M = 300
        u0 = 0.1 * rng.standard_normal(M)
        r0 = 0.5 + 0.1 * rng.standard_normal(M - 1)
        dt = 0.02
        trace = run_free_chain(u0, r0, gamma=10.0, dt=dt, n_steps=400, potential=quad)
        assert np.all(np.diff(trace.energies) <= 1e-10 * dt)

    def test_energy_decreases_strictly_while_moving(self, quad):
        rng = np.random.default_rng(11)
        M = 300
        u0 = 0.1 * rng.standard_normal(M)
        r0 = 0.5 + 0.1 * rng.standard_normal(M - 1)
        trace = run_free_chain(u0, r0, gamma=10.0, dt=0.02, n_steps=50, potential=quad)
        assert np.all(np.diff(trace.energies) < 0)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"dt": -0.01}, "dt must be positive and finite"),
            ({"dt": 0.0}, "dt must be positive and finite"),
            ({"dt": np.inf}, "dt must be positive and finite"),
            ({"gamma": -1.0}, "gamma must be positive and finite"),
            ({"gamma": np.inf}, "gamma must be positive and finite"),
            ({"n_steps": -3}, "n_steps must be non-negative, got -3"),
            ({"n_steps": 10.0}, "n_steps must be an integer, got 10.0"),
            ({"n_steps": 2.5}, "n_steps must be an integer, got 2.5"),
            ({"n_steps": np.nan}, "n_steps must be an integer, got nan"),
            ({"u0": 3}, "non-finite initial state"),
            ({"r0": 5}, "non-finite initial state"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_inputs_are_config_errors(self, quad, change, message):
        rng = np.random.default_rng(7)
        args = {
            "u0": 0.1 * rng.standard_normal(300),
            "r0": 0.5 + 0.1 * rng.standard_normal(299),
            "gamma": 10.0,
            "dt": 0.02,
            "n_steps": 10,
        }
        for key, value in change.items():
            if key in ("u0", "r0"):  # a NaN at that index
                args[key][value] = np.nan
            else:
                args[key] = value
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_free_chain(potential=quad, **args)

    def test_energies_match_plain_steps(self, quad):
        rng = np.random.default_rng(13)
        u0 = 0.1 * rng.standard_normal(300)
        r0 = 0.5 + 0.1 * rng.standard_normal(299)
        trace = run_free_chain(u0, r0, gamma=10.0, dt=0.02, n_steps=100, potential=quad)
        expected = free_chain_energies(u0, r0, 10.0, 0.02, 100, quad)
        assert trace.energies.tobytes() == expected.tobytes()

    def test_numpy_integer_step_count(self, quad):
        trace = run_free_chain(np.zeros(300), np.full(299, 0.5), 10.0, 0.02, np.int64(3), quad)
        assert trace.energies.size == 4

    def test_zero_steps_keep_the_initial_energy(self, quad):
        trace = run_free_chain(np.zeros(300), np.full(299, 0.5), 10.0, 0.02, 0, quad)
        assert trace.energies.size == 1 and trace.times.tolist() == [0.0]

    def test_blow_up_is_a_numerical_failure(self, quad):
        # dt = 5 with weak damping is unstable: the energy overflows
        rng = np.random.default_rng(7)
        u0 = 0.1 * rng.standard_normal(300)
        r0 = 0.5 + 0.1 * rng.standard_normal(299)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match=r"^blow-up at t = \S+: energy (inf|nan)$"):
                run_free_chain(u0, r0, gamma=0.01, dt=5.0, n_steps=2000, potential=quad)
