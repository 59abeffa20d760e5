"""The benchmark's workloads: inputs from a seed, one op per input, checks.

A workload is a list of ``Op`` objects.  One *round* runs every op of the
workload once, in an order shuffled by the seed; the measured loop runs
whole rounds, so every run times the same mix of inputs.  ``Op.run`` makes
only program calls (it is what gets timed); ``Op.check`` then verifies the
result and returns the names of failed checks plus a digest of everything
the op produced, which the caller compares across repeats of the op.

Program functions are looked up on their modules at call time, so the
traced run sees the wrappers that ``tracing.install`` puts there.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import fput_fronts.analysis as an
import fput_fronts.cli as cli
import fput_fronts.front_solver as fs
import fput_fronts.lattice_sim as ls
from fput_fronts.potentials import hertz_potential, quadratic_force_potential

LATTICE_M = 2000
LATTICE_T = 50.0
LATTICE_DT = 0.05
FREE_STEPS = 1000
FREE_DT = 0.02
FREE_GAMMA = 10.0


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], str]]
    steps: int = 0  # lattice steps taken by one run of the op


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _potentials():
    return {"quad": quadratic_force_potential(), "hertz": hertz_potential(alpha=1.5)}


def _tag(eps: float) -> str:
    return f"{eps:g}".replace(".", "p")


# -- front-cold ------------------------------------------------------------------


def front_cold(seed: int, out: Path) -> list[Op]:
    pots = _potentials()

    def make(name: str, eps: float) -> Op:
        pot = pots[name]
        csv_path = out / f"front_{name}_eps{_tag(eps)}.csv"
        json_path = out / f"report_{name}_eps{_tag(eps)}.json"

        def run():
            sol = fs.solve_front(pot, eps)
            checks = an.consolidated_report(sol)
            cli.write_profile_csv(csv_path, sol.x, sol.R, sol.S)
            cli.write_json(
                json_path,
                {
                    "epsilon": eps,
                    "potential": pot.name,
                    "checks": checks,
                    "all_pass": all(c["pass"] for c in checks),
                },
            )
            return sol, checks

        def check(result):
            sol, checks = result
            failed = [c["name"] for c in checks if not c["pass"]]
            return failed, _digest(sol.R, sol.S, csv_path.read_bytes(), json_path.read_bytes())

        return Op(f"{name} eps={eps:g}", run, check)

    return [make(name, eps) for name in ("quad", "hertz") for eps in (0.1, 0.05, 0.02)]


# -- front-sweep -----------------------------------------------------------------

SWEEPS = {"quad": [0.4, 0.2, 0.1, 0.05], "hertz": [0.2, 0.1, 0.05]}


def front_sweep(seed: int, out: Path) -> list[Op]:
    pots = _potentials()

    def make(name: str) -> Op:
        pot, eps_list = pots[name], SWEEPS[name]

        def run():
            sols = fs.continuation_sweep(pot, eps_list)
            eps = np.array([s.eps for s in sols])
            h1 = np.array([s.h1_dist_to_R0 for s in sols])
            order = float(np.polyfit(np.log(eps), np.log(h1), 1)[0])
            rows = [
                (s, s.slope_integral, an.fit_decay_rates(s), fs.derivative_consistency(s))
                for s in sols
            ]
            return sols, order, rows

        def check(result):
            sols, order, rows = result
            failed = []
            for s, integral, rep, _ in rows:
                tag = f"eps={s.eps:g} "
                if not s.residual_fp <= 1e-9 * s.grid.N:
                    failed.append(tag + "residual_fp")
                if not max(rep.rel_err_minus, rep.rel_err_plus) <= 0.02:
                    failed.append(tag + "tail_rate")
                if not rep.fit_r2 >= 0.999:
                    failed.append(tag + "tail_fit_r2")
                if not abs(integral - 1.0) <= 1e-6:
                    failed.append(tag + "slope_integral")
            # the module tests pin the quadratic H1 order to [1.8, 2.2]
            if name == "quad" and not 1.8 <= order <= 2.2:
                failed.append(f"h1_order={order:.3f}")
            return failed, _digest(*(a for s in sols for a in (s.R, s.S)))

        return Op(f"{name} sweep", run, check)

    return [make(name) for name in SWEEPS]


# -- lattice ---------------------------------------------------------------------


def lattice(seed: int, out: Path) -> list[Op]:
    pots = _potentials()
    ops = []
    for i, (name, gamma) in enumerate(
        [("quad", 10.0), ("quad", 20.0), ("hertz", 10.0), ("hertz", 20.0)]
    ):
        pot, eps = pots[name], 1.0 / gamma
        sol = fs.solve_front(pot, eps)
        perturb = 1e-6 * np.random.default_rng([seed, i]).uniform(-1.0, 1.0, LATTICE_M)
        ops.append(_chain_op(f"{name} gamma={gamma:g}", pot, sol, eps, perturb))
    rng = np.random.default_rng([seed, 4])
    u0 = 0.1 * rng.standard_normal(LATTICE_M)
    r0 = 0.5 + 0.1 * rng.standard_normal(LATTICE_M - 1)
    ops.append(_free_op(pots["quad"], u0, r0))
    return ops


def _chain_op(key, pot, sol, eps, perturb) -> Op:
    def run():
        state = ls.init_chain(LATTICE_M, sol, eps)
        state.r = state.r + perturb
        traj = ls.run(state, LATTICE_T, LATTICE_DT, pot, output_every=100)
        c, r2 = ls.measure_front_speed(traj)
        return traj, c, r2, ls.compare_profile(traj, sol)

    def check(result):
        # acceptance criterion 8 thresholds
        traj, c, r2, dist = result
        failed = []
        if not abs(c - 1.0) <= 0.01:
            failed.append(f"speed c={c:.5f}")
        if not r2 >= 0.9999:
            failed.append(f"speed fit r2={r2:.7f}")
        if not dist <= 1e-3:
            failed.append(f"profile distance={dist:.2e}")
        return failed, _digest(traj.snapshots, traj.final_state.r, traj.final_state.v)

    return Op(key, run, check, steps=int(round(LATTICE_T / LATTICE_DT)))


def _free_op(pot, u0, r0) -> Op:
    def run():
        return ls.run_free_chain(u0, r0, FREE_GAMMA, FREE_DT, FREE_STEPS, pot)

    def check(trace):
        # acceptance criterion 9: discrete energy never grows beyond roundoff
        worst = float(np.max(np.diff(trace.energies)))
        failed = [] if worst <= 1e-10 * FREE_DT else [f"energy increment={worst:.3e}"]
        return failed, _digest(trace.energies)

    return Op("free chain", run, check, steps=FREE_STEPS)


BUILDERS = {"front-cold": front_cold, "front-sweep": front_sweep, "lattice": lattice}
