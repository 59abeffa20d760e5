"""Command line driver: JSON config in, CSV profiles and JSON reports out.

Every subcommand reads one JSON config (--config), validates it completely
before any numerics run, and writes its outputs under --out.  Floats in
CSV files use a fixed %.17e format and JSON objects are serialized with
sorted keys, so identical configs give bitwise-identical files.

Exit codes: 0 on success, 1 on a numerical failure (solver divergence,
blow-up, under-resolved data), 2 on a config problem.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from .analysis import consolidated_report
from .continuum import solve_R0
from .errors import ConfigError, NumericsError
from .front_solver import continuation_sweep, solve_front
from .grids import UniformGrid
from .lattice_sim import (
    compare_profile,
    default_dt,
    init_chain,
    measure_front_speed,
)
from .lattice_sim import run as run_lattice
from .potentials import (
    hertz_potential,
    linear_force_potential,
    polynomial_potential,
    quadratic_force_potential,
)
from .spectral import EPS0_DEFAULT, find_pole, verify_symbol_bounds

CONFIG_KEYS = {
    "potential",
    "epsilon",
    "epsilon_list",
    "grid",
    "lattice",
    "perturb",
    "p",
    "p_list",
    "s",
    "eta_minus",
    "eta_plus",
}


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    return cfg


def build_potential(cfg: dict):
    spec = cfg.get("potential")
    if spec is None:
        raise ConfigError("missing required field: potential")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("potential must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "quadratic":
        return quadratic_force_potential()
    if kind == "linear":
        return linear_force_potential()
    if kind == "hertz":
        return hertz_potential(
            alpha=_number(spec, "alpha", 1.5), r_minus=_number(spec, "r_minus", 1.0)
        )
    if kind == "polynomial":
        if "coeffs" not in spec:
            raise ConfigError("polynomial potential needs a 'coeffs' list")
        return polynomial_potential(
            _number_list(spec, "coeffs"),
            r_plus=_number(spec, "r_plus", 0.0),
            r_minus=_number(spec, "r_minus", 1.0),
        )
    raise ConfigError(f"unknown potential kind: {kind!r}")


def _require_normalized(potential) -> None:
    """Commands that solve a front need the normalized setting; name what is off."""
    if potential.is_normalized:
        return
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


def _finite(value, key: str) -> float:
    """``value`` as a finite float, or a ConfigError naming field ``key``."""
    if isinstance(value, bool):
        raise ConfigError(f"field {key} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {key} must be a number, got {value!r}") from exc
    if not np.isfinite(number):
        raise ConfigError(f"field {key} must be finite, got {value!r}")
    return number


def _number(cfg: dict, key: str, default: float | None = None) -> float:
    """The number in field ``key``; ``default`` when the field is absent."""
    return _finite(cfg.get(key, default), key)


def _number_list(cfg: dict, key: str) -> list[float]:
    values = cfg[key]
    if not isinstance(values, list):
        raise ConfigError(f"field {key} must be a list of numbers")
    return [_finite(v, key) for v in values]


def _positive_float(cfg: dict, key: str) -> float:
    value = _number(cfg, key)
    if not value > 0:
        raise ConfigError(f"field {key} must be positive, got {value}")
    return value


def _integer_at_least(cfg: dict, key: str, minimum: int, default=None) -> int:
    value = cfg.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"field {key} must be at least {minimum}, got {value}")
    return value


def take_epsilon(cfg: dict) -> float:
    if "epsilon_list" in cfg:
        if "epsilon" in cfg:
            raise ConfigError("give exactly one of epsilon / epsilon_list")
        raise ConfigError("this command takes a single epsilon, not epsilon_list")
    if "epsilon" not in cfg:
        raise ConfigError("missing required field: epsilon")
    return _positive_float(cfg, "epsilon")


def take_epsilon_list(cfg: dict) -> list[float]:
    if "epsilon" in cfg and "epsilon_list" in cfg:
        raise ConfigError("give exactly one of epsilon / epsilon_list")
    if "epsilon_list" not in cfg:
        raise ConfigError("missing required field: epsilon_list")
    eps_list = _number_list(cfg, "epsilon_list")
    if not eps_list:
        raise ConfigError("epsilon_list must be a non-empty list")
    tagged = {}
    for e in eps_list:
        if not e > 0:
            raise ConfigError(f"epsilon_list entries must be positive, got {e}")
        tag = _eps_tag(e)
        if tag in tagged:
            raise ConfigError(
                f"epsilon_list entries {tagged[tag]!r} and {e!r} share the file tag eps{tag}"
            )
        tagged[tag] = e
    return eps_list


def take_grid(cfg: dict) -> UniformGrid | None:
    """The pinned grid from the config, or None for automatic selection."""
    spec = cfg.get("grid", "auto")
    if spec == "auto":
        return None
    if not isinstance(spec, dict) or set(spec) != {"L", "N"}:
        raise ConfigError("grid must be \"auto\" or an object with fields L and N")
    return UniformGrid(_number(spec, "L"), _integer_at_least(spec, "N", 256))


def _out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_profile_csv(path: Path, x, R, S) -> None:
    """Header x,R,S and one %.17e row per point, as np.savetxt writes them."""
    rows = np.column_stack([x, R, S])
    with open(path, "w", newline="") as f:
        f.write("x,R,S\n")
        f.write(("%.17e,%.17e,%.17e\n" * len(rows)) % tuple(rows.ravel().tolist()))


def write_snapshots_csv(path: Path, times, snapshots) -> None:
    """Header t,n,r and one row per site and snapshot, as np.savetxt writes them.

    Rows are ``%.17e,%d,%.17e``: the snapshot time, the site index from 1
    and the strain.  Each snapshot is formatted as one string, so the text
    held in memory is one snapshot's, not the whole trajectory's.
    """
    with open(path, "w", newline="") as f:
        f.write("t,n,r\n")
        for t, snap in zip(times, snapshots):
            block = np.column_stack([np.full(snap.size, t), np.arange(1, snap.size + 1), snap])
            f.write(("%.17e,%d,%.17e\n" * snap.size) % tuple(block.ravel().tolist()))


def _eps_tag(eps: float) -> str:
    return f"{eps:g}".replace(".", "p").replace("-", "m")


def guarded(fn):
    """Map library errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except NumericsError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(1)

    return wrapper


def config_options(fn):
    fn = click.option(
        "--out",
        default=".",
        show_default=True,
        help="Directory for output files.",
    )(fn)
    fn = click.option(
        "--config",
        "config_path",
        required=True,
        help="Path to the JSON run config.",
    )(fn)
    return fn


@click.group()
def main():
    """Front profiles and lattice runs for the strongly damped FPUT chain."""


@main.command()
@config_options
@guarded
def ode(config_path, out):
    """Solve the continuum front R' + R = dphi(R) and write its profile."""
    cfg = load_config(config_path)
    potential = build_potential(cfg)
    _require_normalized(potential)
    grid = take_grid(cfg)
    out_path = _out_dir(out)

    cont = solve_R0(potential, grid=grid)
    S = cont.slope_profile()
    write_profile_csv(out_path / "R0_profile.csv", cont.grid.x, cont.values, S)
    write_json(
        out_path / "ode_report.json",
        {
            "L": cont.grid.L,
            "N": cont.grid.N,
            "R_at_0": float(cont(0.0)),
            "residual": cont.residual(),
            "potential": potential.name,
        },
    )
    click.echo(f"wrote {out_path / 'R0_profile.csv'}")


def _front_payload(sol) -> dict:
    payload = {
        "epsilon": sol.eps,
        "L": sol.grid.L,
        "N": sol.grid.N,
        "residual_fp": sol.residual_fp,
        "residual_tent": sol.residual_tent(),
        "iterations": sol.iterations,
        "krylov_iterations": sol.krylov_iterations,
        "h1_dist_to_R0": sol.h1_dist_to_R0,
        "slope_integral": sol.slope_integral,
    }
    if sol.eps > EPS0_DEFAULT:
        payload["warning"] = (
            f"epsilon {sol.eps:g} exceeds the advisory threshold {EPS0_DEFAULT:g}; "
            "the expansion this solver is built around degrades here"
        )
    return payload


@main.group()
def front():
    """Finite-epsilon front profiles."""


@front.command("solve")
@config_options
@guarded
def front_solve(config_path, out):
    """Solve one front profile and write CSV + JSON."""
    cfg = load_config(config_path)
    potential = build_potential(cfg)
    _require_normalized(potential)
    eps = take_epsilon(cfg)
    grid = take_grid(cfg)
    out_path = _out_dir(out)

    if eps > EPS0_DEFAULT:
        click.echo(
            f"warning: epsilon {eps:g} above advisory threshold {EPS0_DEFAULT:g}, proceeding",
            err=True,
        )
    sol = solve_front(potential, eps, grid=grid)
    tag = _eps_tag(eps)
    write_profile_csv(out_path / f"front_eps{tag}.csv", sol.x, sol.R, sol.S)
    write_json(out_path / f"front_eps{tag}.json", _front_payload(sol))
    click.echo(f"wrote {out_path / f'front_eps{tag}.csv'}")


@front.command("sweep")
@config_options
@guarded
def front_sweep(config_path, out):
    """Solve a list of epsilons with warm starts; one CSV per epsilon."""
    cfg = load_config(config_path)
    potential = build_potential(cfg)
    _require_normalized(potential)
    eps_list = take_epsilon_list(cfg)
    grid = take_grid(cfg)
    out_path = _out_dir(out)

    sols = continuation_sweep(potential, eps_list, grid=grid)
    members = []
    for sol in sols:
        tag = _eps_tag(sol.eps)
        write_profile_csv(out_path / f"front_eps{tag}.csv", sol.x, sol.R, sol.S)
        members.append(_front_payload(sol))
    write_json(out_path / "sweep_summary.json", {"members": members})
    click.echo(f"wrote {len(sols)} profiles and {out_path / 'sweep_summary.json'}")


@main.command()
@config_options
@guarded
def poles(config_path, out):
    """Locate symbol denominator roots and report exponential tail rates."""
    cfg = load_config(config_path)
    if "p" in cfg and "p_list" in cfg:
        raise ConfigError("give exactly one of p / p_list")
    if "p" in cfg:
        p_list = [_number(cfg, "p")]
    elif "p_list" in cfg:
        p_list = _number_list(cfg, "p_list")
    else:
        raise ConfigError("missing required field: p (far-field curvature)")
    if "epsilon" in cfg:
        eps_list = [take_epsilon(cfg)]
    else:
        eps_list = take_epsilon_list(cfg)
    out_path = _out_dir(out)

    entries = []
    for p in p_list:
        for eps in eps_list:
            pole = find_pole(eps, p)
            entries.append(
                {
                    "p": p,
                    "epsilon": eps,
                    "z_imag": float(pole.z.imag),
                    "mu_rate": pole.mu_rate,
                    "nu": pole.nu,
                    "iterations": pole.iterations,
                }
            )
    write_json(out_path / "poles.json", {"poles": entries})
    click.echo(f"wrote {out_path / 'poles.json'}")


@main.command("symbol-check")
@config_options
@guarded
def symbol_check(config_path, out):
    """Fit the epsilon-order of the kernel symbol differences on a strip."""
    cfg = load_config(config_path)
    eps_list = take_epsilon_list(cfg)
    if len(eps_list) < 2:
        raise ConfigError("symbol-check needs at least two epsilons to fit orders")
    s = _number(cfg, "s", 0.5)
    eta_minus = _number(cfg, "eta_minus", 0.5)
    eta_plus = _number(cfg, "eta_plus", 0.5)
    out_path = _out_dir(out)

    report = verify_symbol_bounds(
        eps_list=tuple(eps_list), s=s, eta_minus=eta_minus, eta_plus=eta_plus
    )
    write_json(out_path / "symbol_check.json", report.as_dict())
    click.echo(f"wrote {out_path / 'symbol_check.json'}")


def _validate_lattice_cfg(cfg: dict) -> dict:
    spec = cfg.get("lattice")
    if spec is None:
        raise ConfigError("missing required field: lattice")
    if not isinstance(spec, dict):
        raise ConfigError("lattice must be an object")
    for key in ("M", "T", "gamma"):
        if key not in spec:
            raise ConfigError(f"lattice config needs field {key}")
    allowed = {"M", "T", "gamma", "dt", "source", "output_every"}
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ConfigError(f"unknown lattice fields: {', '.join(unknown)}")
    out = {
        "M": _integer_at_least(spec, "M", 200),
        "T": _positive_float(spec, "T"),
        "gamma": _positive_float(spec, "gamma"),
        "source": spec.get("source", "front"),
        "output_every": _integer_at_least(spec, "output_every", 1, default=50),
    }
    if out["source"] not in ("front", "step"):
        raise ConfigError("lattice source must be \"front\" or \"step\"")
    if "dt" in spec:
        out["dt"] = _positive_float(spec, "dt")
    return out


@main.group()
def lattice():
    """Direct damped-chain integration."""


@lattice.command("run")
@config_options
@click.option("--seed", type=int, default=None, help="Seed for the optional initial perturbation.")
@guarded
def lattice_run(config_path, out, seed):
    """Integrate the chain, track the half-level crossing, fit the speed."""
    cfg = load_config(config_path)
    potential = build_potential(cfg)
    lat = _validate_lattice_cfg(cfg)
    if lat["source"] == "front":
        _require_normalized(potential)
    grid = take_grid(cfg)
    perturb = cfg.get("perturb")
    if perturb is not None:
        if not isinstance(perturb, dict) or "amplitude" not in perturb:
            raise ConfigError("perturb must be an object with an 'amplitude' field")
        if seed is None:
            raise ConfigError("perturb requests need --seed for reproducibility")
        amp = _number(perturb, "amplitude")
    out_path = _out_dir(out)

    eps = 1.0 / lat["gamma"]
    dt = lat.get("dt", default_dt(potential))
    sol = None
    if lat["source"] == "front":
        sol = solve_front(potential, eps, grid=grid)
        state = init_chain(lat["M"], sol, eps)
    else:
        state = init_chain(lat["M"], "step", eps)
    if perturb is not None:
        rng = np.random.default_rng(seed)
        state.r = state.r + amp * rng.uniform(-1.0, 1.0, state.M)

    traj = run_lattice(state, lat["T"], dt, potential, output_every=lat["output_every"])
    c_fit, r2 = measure_front_speed(traj)
    summary = {
        "M": lat["M"],
        "T": lat["T"],
        "dt": dt,
        "gamma": lat["gamma"],
        "source": lat["source"],
        "c_fit": c_fit,
        "r2": r2,
        "monotone_defect": traj.monotone_defect,
    }
    if sol is not None:
        summary["max_profile_distance"] = compare_profile(traj, sol)

    write_snapshots_csv(out_path / "lattice_snapshots.csv", traj.times, traj.snapshots)
    write_json(out_path / "lattice_summary.json", summary)
    click.echo(f"wrote {out_path / 'lattice_summary.json'}")


@main.command()
@config_options
@guarded
def report(config_path, out):
    """Solve one front and write the consolidated pass/fail check list."""
    cfg = load_config(config_path)
    potential = build_potential(cfg)
    _require_normalized(potential)
    eps = take_epsilon(cfg)
    grid = take_grid(cfg)
    out_path = _out_dir(out)

    sol = solve_front(potential, eps, grid=grid)
    checks = consolidated_report(sol)
    payload = {
        "epsilon": eps,
        "potential": potential.name,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    write_json(out_path / "report.json", payload)
    status = "ok" if payload["all_pass"] else "FAILED CHECKS"
    click.echo(f"wrote {out_path / 'report.json'} ({status})")


if __name__ == "__main__":
    main()
