"""Damped-chain integrator: transport, relaxation, dissipation, failure modes."""

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


class TestInitChain:
    def test_front_source_phase_and_ends(self, quad_sol):
        state = init_chain(2000, quad_sol, 0.1)
        assert abs(state.r[999] - 0.5) <= 1e-9  # site n_center = 1000
        assert abs(state.r[0] - 1.0) <= 1e-6
        assert abs(state.r[-1]) <= 1e-6
        assert state.gamma == 10.0
        assert np.min(state.v) >= -1e-8  # slope positivity up to solver tolerance
        assert np.max(state.v) > 0.0

    def test_step_source_is_heaviside(self):
        state = init_chain(400, "step", 0.1)
        assert set(np.unique(state.r)) == {0.0, 1.0}
        assert np.all(state.v == 0.0)

    @pytest.mark.parametrize("M", [150, -1])
    @pytest.mark.parametrize("source", ["front", "step"])
    def test_short_chain_rejected(self, quad_sol, source, M):
        # LatticeState holds the one length check, for every source
        with pytest.raises(ConfigError, match=r"^chain too short: M = "):
            init_chain(M, quad_sol if source == "front" else source, 0.1)

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            init_chain(400, "ramp", 0.1)


class TestStepImex:
    def test_uniform_state_is_fixed_point(self, quad):
        state = LatticeState(
            r=np.full(400, 0.3), v=np.zeros(400), t=0.0, gamma=10.0,
            r_left=0.3, r_right=0.3,
        )
        after = step_imex(state, 0.05, quad)
        assert np.array_equal(after.r, state.r)
        assert np.array_equal(after.v, state.v)

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
            r=r, v=np.zeros(400), t=0.0, gamma=10.0, r_left=1e250, r_right=0.0
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match="blow-up"):
                for _ in range(200):
                    state = step_imex(state, 50.0, quad)

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
        assert traj.final_state.v.tobytes() == final.v.tobytes()
        # every state has a crossing, so the track has one entry per state
        track = np.array([crossing_position(s.r) for s in stepped])
        assert traj.crossing_positions.tobytes() == track.tobytes()
        assert traj.crossing_times.tobytes() == np.array([s.t for s in stepped]).tobytes()

    def test_output_every_must_be_positive(self, quad, quad_sol):
        state = init_chain(400, quad_sol, 0.1)
        with pytest.raises(ConfigError, match="output_every"):
            run(state, 1.0, 0.05, quad, output_every=0)

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
    def test_hertz_speed_matches_jump_condition(self):
        raw = hertz_potential(1.5, 4.0)
        norm, fmap = raw.renormalize()
        c = fmap.speed
        assert abs(c - np.sqrt(2.0)) <= 1e-12
        eps_n = c / 10.0  # physical gamma = 10
        sol = solve_front(norm, eps_n)
        state = init_chain(2000, sol, eps_n, r_minus=4.0, r_plus=0.0, c=c)
        assert state.gamma == pytest.approx(10.0)
        traj = run(state, 50.0, 0.05, raw, output_every=200, eps=eps_n)
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


class TestSpeedMeasurement:
    def test_stationary_state_raises(self, quad):
        flat = LatticeState(
            r=np.full(400, 0.3), v=np.zeros(400), t=0.0, gamma=10.0,
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
            ({"dt": -0.01}, "dt must be positive"),
            ({"dt": 0.0}, "dt must be positive"),
            ({"gamma": -1.0}, "gamma must be positive"),
            ({"n_steps": -3}, "n_steps must be non-negative, got -3"),
            ({"u0": 3}, "non-finite initial state"),
            ({"r0": 5}, "non-finite initial state"),
        ],
    )
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
