"""Command line driver: JSON config in, CSV profiles and JSON reports out.

Every subcommand reads one JSON config (--config) and checks it completely
before any numerics run.  Each JSON object in it (the config itself and its
potential, grid, lattice and perturb objects) is read by one table of the
fields it takes, so a field the command does not read is an error, and
every list field must be non-empty.  Outputs go under --out, which is made
only once there are results to write: a config error, whether found here or
by the library, leaves no output directory.  Floats in CSV files use a fixed
%.17e format and JSON objects are serialized with sorted keys, so identical
configs give bitwise-identical files.  The CSV writers format whole arrays
at once, with the bytes of '%.17e' % x: digits from double-double integer
arithmetic with a proven error bound, and '%' itself for zeros, non-finite
values and ties the bound cannot decide.

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

# A table maps each field of a JSON object to (parser, default): the parser
# gets the value and the field name; an absent field takes the default, and
# one whose default is REQUIRED is an error.
REQUIRED = object()


def parse(obj, table: dict, what: str) -> dict:
    """Every field of ``table`` read from the JSON object ``obj``.

    Fields the table does not name are rejected before any field is parsed.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ConfigError(f"unknown {what} fields: {', '.join(unknown)}")
    fields = {}
    for key, (parser, default) in table.items():
        if key in obj:
            fields[key] = parser(obj[key], key)
        elif default is REQUIRED:
            raise ConfigError(f"missing required field: {key}")
        else:
            fields[key] = default
    return fields


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


def _positive(value, key: str) -> float:
    number = _finite(value, key)
    if not number > 0:
        raise ConfigError(f"field {key} must be positive, got {number}")
    return number


def _integer_at_least(minimum: int):
    def parser(value, key: str) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field {key} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"field {key} must be at least {minimum}, got {value}")
        return value

    return parser


def _list_of(entry):
    """A parser of a non-empty list, each entry read by ``entry``."""

    def parser(value, key: str) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"field {key} must be a non-empty list of numbers")
        return [entry(v, key) for v in value]

    return parser


def _object(table: dict):
    """A parser of a nested JSON object, named in messages by its field."""
    return lambda value, key: parse(value, table, key)


def _as_given(value, key: str):
    return value


# Each potential kind: its factory and the fields it takes besides "kind",
# named as the factory's keyword arguments.
POTENTIALS = {
    "quadratic": (quadratic_force_potential, {}),
    "linear": (linear_force_potential, {}),
    "hertz": (hertz_potential, {"alpha": (_finite, 1.5), "r_minus": (_finite, 1.0)}),
    "polynomial": (
        polynomial_potential,
        {
            "coeffs": (_list_of(_finite), REQUIRED),
            "r_plus": (_finite, 0.0),
            "r_minus": (_finite, 1.0),
        },
    ),
}


def _potential(spec, key: str):
    """The potential that the factory of its kind builds from the kind's fields."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("potential must be an object with a 'kind' field")
    spec = dict(spec)
    kind = spec.pop("kind")
    if not isinstance(kind, str) or kind not in POTENTIALS:
        raise ConfigError(f"unknown potential kind: {kind!r}")
    factory, table = POTENTIALS[kind]
    return factory(**parse(spec, table, f"{kind} potential"))


GRID = {"L": (_finite, REQUIRED), "N": (_integer_at_least(256), REQUIRED)}


def _grid(spec, key: str) -> UniformGrid | None:
    """The pinned grid, or None for "auto" (chosen per epsilon by the solver)."""
    if spec == "auto":
        return None
    if not isinstance(spec, dict):
        raise ConfigError("grid must be \"auto\" or an object with fields L and N")
    return UniformGrid(**parse(spec, GRID, "grid"))


# "source" is passed on as given: "front" seeds the chain with a solved
# front, and init_chain takes "step" and rejects anything else
LATTICE = {
    "M": (_integer_at_least(200), REQUIRED),
    "T": (_positive, REQUIRED),
    "gamma": (_positive, REQUIRED),
    "dt": (_positive, None),
    "source": (_as_given, "front"),
    "output_every": (_integer_at_least(1), 50),
}
PERTURB = {"amplitude": (_finite, REQUIRED)}

# top-level fields shared by the commands that solve a front
FRONT = {"potential": (_potential, REQUIRED), "grid": (_grid, None)}
EPSILON = {"epsilon": (_positive, REQUIRED)}
EPSILON_LIST = {"epsilon_list": (_list_of(_positive), REQUIRED)}


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


def _read_config(path: str):
    """The JSON value in the file at ``path``."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# -- %.17e on whole arrays ------------------------------------------------------
#
# '%.17e' % x prints the 18 significant digits of x correctly rounded, ties
# to even.  Write |x| = M 2^(e-53) with M a 53-bit integer (np.frexp), and
# E = floor((e-1) log10 2), which floating point gives exactly: for
# 0 < |e-1| < 2136, (e-1) log10 2 is at least 1e-4 from an integer.  Then
# 10^E <= 2^(e-1) <= |x| < 20 10^E, so the digits are those of
# v = |x| 10^(17-E) in [10^17, 2 10^18), rounded to an integer D, or, where D
# would reach 10^18, those of v/10 with exponent E + 1.  Which one is decided
# before any digit, by comparing |x| with the least double not below
# (10^18 - 1/2) 10^(E-17).  v = M P with P = 2^(e-53) 10^(17-E) held as a
# double-double hi + lo; Dekker's exact product M hi = p + err leaves
# v = p + t, t = err + M lo, so D = p + floor(t) and t - floor(t) is the
# fraction rounding decides on.  The error of that fraction is below 2^-43:
# hi + lo is P to 2^-105 relative (2^-44 of v < 2^61), and forming M lo
# (|M lo| < 2^8) and t (|t| < 2^9) rounds by at most 2^-46 and 2^-45.
# Fractions within _TIE_MARGIN of 1/2 (true ties such as 2^-27), zeros and
# non-finite values are printed by '%' itself.

# Each value is laid out in a row of seven uint32 words, NUL where a
# character is absent: "-d.d" (NUL for a plus sign), four words of four
# digits, then "e", the exponent's sign, its (NUL or) hundreds and tens
# digits, and its units digit.  Dropping the NULs leaves the '%' text; byte
# _SEP, after the units digit, is left NUL for the caller's separator.
_ROW = 28
_SEP = 25
_CHUNK = 1 << 13  # values per pass, so each pass's arrays stay in cache
_TIE_MARGIN = 2.0**-36
_FREXP_MIN = -1073  # np.frexp's exponent of the least subnormal, 2^-1074


def _texts(strings, width: int, dtype) -> np.ndarray:
    """``strings`` NUL-padded to ``width`` bytes, each viewed as ``dtype``."""
    return np.array(strings, dtype=f"S{width}").view(dtype)


def _double_double(num: int, den: int) -> tuple[float, float]:
    """num/den as hi + lo, each correctly rounded: hi of num/den, lo of the rest."""
    hi = num / den
    hn, hd = hi.as_integer_ratio()
    return hi, (num * hd - hn * den) / (den * hd)


@functools.cache
def _e17_tables():
    """The formatter's tables, built once from exact integers.

    Per np.frexp exponent e: the least |x| printed with exponent E + 1.  Per
    e and exponent E or E + 1 (index 2 (e - _FREXP_MIN) + 0 or 1): P as hi
    and lo, and the exponent's two words.  Then the words of the sign and
    first two digits and of four digits.
    """
    e = np.arange(_FREXP_MIN, 1025)
    E_low = np.floor((e - 1) * np.log10(2.0)).astype(np.int64)
    E = np.column_stack([E_low, E_low + 1]).ravel()
    # 10^k = (hi + lo) 2^shift with hi + lo in (1/2, 2)
    ks = np.arange(17 - E.max(), 18 - E.min())
    tens = []
    for k in ks.tolist():
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        shift = num.bit_length() - den.bit_length()
        tens.append((*_double_double(num << max(-shift, 0), den << max(shift, 0)), shift))
    hi, lo, shift = np.array(tens).T[:, 17 - E - ks[0]]
    scale = shift.astype(np.int64) + e.repeat(2) - 53
    # (10^18 - 1/2) 10^(E - 17), rounded up
    limits = []
    for n in range(E_low.min(), E_low.max() + 1):
        num, den = (2 * 10**18 - 1) * 10 ** max(n - 17, 0), 2 * 10 ** max(17 - n, 0)
        limit = num / den
        ln, ld = limit.as_integer_ratio()
        limits.append(np.nextafter(limit, np.inf) if ln * den < num * ld else limit)
    exponents = ["e" + "-+"[n >= 0] + f"{abs(n):02d}".rjust(3, "\0") for n in E.tolist()]
    return (
        np.array(limits)[E_low - E_low.min()],
        np.ldexp(hi, scale),
        np.ldexp(lo, scale),
        _texts([s[:4] for s in exponents], 4, np.uint32),
        _texts([s[4:] for s in exponents], 4, np.uint32),
        _texts([f"{s}{a // 10}.{a % 10}" for s in ("", "-") for a in range(100)], 4, np.uint32),
        _texts([f"{q:04d}" for q in range(10000)], 4, np.uint32),
    )


def _split(a):
    """Veltkamp's split of ``a`` into two halves of at most 26 bits."""
    c = 134217729.0 * a
    high = c - (c - a)
    return high, a - high


def _e17_fill(rows, x):
    """Lay out ``x`` in ``rows``; True where '%' must print the value instead."""
    limit, hi, lo, exp_hi, exp_lo, head, four = _e17_tables()
    special = ~np.isfinite(x) | (x == 0)
    a = np.where(special, 1.0, np.abs(x))
    m, e = np.frexp(a)
    i = e - _FREXP_MIN
    j = 2 * i + (a >= limit[i])
    hi, lo = hi[j], lo[j]
    # D and the fraction of v = M (hi + lo)
    M = m * 2.0**53
    p = M * hi
    Mh, Ml = _split(M)
    hh, hl = _split(hi)
    t = (((Mh * hh - p) + Mh * hl + Ml * hh) + Ml * hl) + M * lo
    floor = np.floor(t)
    frac = t - floor
    D = p.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    first, D = np.divmod(D, 10**16)
    high, low = np.divmod(D, 10**8)
    words = rows.view(np.uint32)
    words[:, 0] = head[first + 100 * np.signbit(x)]
    words[:, 1], words[:, 2] = (four[q] for q in np.divmod(high, 10**4))
    words[:, 3], words[:, 4] = (four[q] for q in np.divmod(low, 10**4))
    words[:, 5] = exp_hi[j]
    words[:, 6] = exp_lo[j]
    return special | (np.abs(frac - 0.5) < _TIE_MARGIN)


def _e17(values) -> np.ndarray:
    """'%.17e' % v for each float v of ``values``, as NUL-padded uint8 rows.

    The result has shape ``values.shape + (_ROW,)``; byte ``_SEP`` of each
    row is NUL, free for a separator.
    """
    x = np.asarray(values, dtype=float)
    flat = x.ravel()
    rows = np.zeros((flat.size, _ROW), dtype=np.uint8)
    fallback = np.zeros(flat.size, dtype=bool)
    for start in range(0, flat.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        fallback[part] = _e17_fill(rows[part], flat[part])
    if fallback.any():
        texts = ["%.17e" % v for v in flat[fallback].tolist()]
        rows[fallback] = _texts(texts, _ROW, np.uint8).reshape(-1, _ROW)
    return rows.reshape(*x.shape, _ROW)


def _text(rows: np.ndarray) -> bytes:
    """The bytes of ``rows`` without their NULs."""
    return rows.tobytes().translate(None, b"\0")


def write_profile_csv(path: Path, x, R, S) -> None:
    """Header x,R,S and one %.17e row per point, as np.savetxt writes them."""
    rows = _e17(np.column_stack([x, R, S]))
    rows[..., _SEP] = np.frombuffer(b",,\n", dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(b"x,R,S\n")
        f.write(_text(rows))


def write_snapshots_csv(path: Path, times, snapshots) -> None:
    """Header t,n,r and one row per site and snapshot, as np.savetxt writes them.

    Rows are ``%.17e,%d,%.17e``: the snapshot time, the site index from 1
    and the strain.  Each snapshot is written as one block of text, so the
    text held in memory is one snapshot's, not the whole trajectory's.
    """
    stamps = _e17(times)
    stamps[:, _SEP] = ord(",")
    with open(path, "wb") as f:
        f.write(b"t,n,r\n")
        for stamp, snap in zip(stamps, snapshots):
            sites = np.arange(1, snap.size + 1).astype("S")
            strains = _e17(snap)
            strains[:, _SEP] = ord("\n")
            block = np.hstack(
                [
                    np.broadcast_to(stamp, (snap.size, _ROW)),
                    sites.view(np.uint8).reshape(snap.size, sites.itemsize),
                    np.full((snap.size, 1), ord(","), dtype=np.uint8),
                    strains,
                ]
            )
            f.write(_text(block))


def _eps_tag(eps: float) -> str:
    return f"{eps:g}".replace(".", "p").replace("-", "m")


def command(group, name: str, table: dict, *options):
    """Register ``fn(cfg, out, **options)`` as subcommand ``name`` of ``group``.

    The subcommand takes --config and --out (plus ``options``), reads the
    config by ``table`` and passes the parsed fields to ``fn`` as ``cfg``.
    Library errors map to the documented exit codes.
    """

    def register(fn):
        @functools.wraps(fn)
        def run(config_path, out, **kwargs):
            try:
                if Path(out).exists() and not Path(out).is_dir():
                    raise ConfigError(f"--out {out} is not a directory")
                fn(parse(_read_config(config_path), table, "config"), out, **kwargs)
            except ConfigError as exc:
                click.echo(f"config error: {exc}", err=True)
                sys.exit(2)
            except NumericsError as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(1)

        for option in (
            *options,
            click.option("--out", default=".", show_default=True, help="Directory for output files."),
            click.option("--config", "config_path", required=True, help="Path to the JSON run config."),
        ):
            run = option(run)
        return group.command(name)(run)

    return register


@click.group()
def main():
    """Front profiles and lattice runs for the strongly damped FPUT chain."""


@command(main, "ode", FRONT)
def ode(cfg, out):
    """Solve the continuum front R' + R = dphi(R) and write its profile."""
    potential = cfg["potential"]
    _require_normalized(potential)

    cont = solve_R0(potential, grid=cfg["grid"])
    S = cont.slope_profile()
    out_path = _out_dir(out)
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


def _advise(payload: dict, eps: float) -> None:
    """Add a warning to a front command's payload, and stderr, if eps is above advisory."""
    if eps > EPS0_DEFAULT:
        payload["warning"] = (
            f"epsilon {eps:g} exceeds the advisory threshold {EPS0_DEFAULT:g}; "
            "the expansion this solver is built around degrades here"
        )
        click.echo(f"warning: {payload['warning']}", err=True)


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
    _advise(payload, sol.eps)
    return payload


@main.group()
def front():
    """Finite-epsilon front profiles."""


@command(front, "solve", {**FRONT, **EPSILON})
def front_solve(cfg, out):
    """Solve one front profile and write CSV + JSON."""
    _require_normalized(cfg["potential"])
    eps = cfg["epsilon"]

    sol = solve_front(cfg["potential"], eps, grid=cfg["grid"])
    tag = _eps_tag(eps)
    out_path = _out_dir(out)
    write_profile_csv(out_path / f"front_eps{tag}.csv", sol.x, sol.R, sol.S)
    write_json(out_path / f"front_eps{tag}.json", _front_payload(sol))
    click.echo(f"wrote {out_path / f'front_eps{tag}.csv'}")


@command(front, "sweep", {**FRONT, **EPSILON_LIST})
def front_sweep(cfg, out):
    """Solve a list of epsilons with warm starts; one CSV per epsilon."""
    _require_normalized(cfg["potential"])
    eps_list = cfg["epsilon_list"]
    tagged = {}
    for e in eps_list:
        tag = _eps_tag(e)
        if tag in tagged:
            raise ConfigError(
                f"epsilon_list entries {tagged[tag]!r} and {e!r} share the file tag eps{tag}"
            )
        tagged[tag] = e

    sols = continuation_sweep(cfg["potential"], eps_list, grid=cfg["grid"])
    out_path = _out_dir(out)
    members = []
    for sol in sols:
        tag = _eps_tag(sol.eps)
        write_profile_csv(out_path / f"front_eps{tag}.csv", sol.x, sol.R, sol.S)
        members.append(_front_payload(sol))
    write_json(out_path / "sweep_summary.json", {"members": members})
    click.echo(f"wrote {len(sols)} profiles and {out_path / 'sweep_summary.json'}")


@command(main, "poles", {"p_list": (_list_of(_finite), REQUIRED), **EPSILON_LIST})
def poles(cfg, out):
    """Locate symbol denominator roots and report exponential tail rates."""
    entries = []
    for p in cfg["p_list"]:
        for eps in cfg["epsilon_list"]:
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
    out_path = _out_dir(out)
    write_json(out_path / "poles.json", {"poles": entries})
    click.echo(f"wrote {out_path / 'poles.json'}")


@command(
    main,
    "symbol-check",
    {**EPSILON_LIST, "s": (_finite, 0.5), "eta_minus": (_finite, 0.5), "eta_plus": (_finite, 0.5)},
)
def symbol_check(cfg, out):
    """Fit the epsilon-order of the kernel symbol differences on a strip."""
    report = verify_symbol_bounds(
        eps_list=tuple(cfg["epsilon_list"]),
        s=cfg["s"],
        eta_minus=cfg["eta_minus"],
        eta_plus=cfg["eta_plus"],
    )
    out_path = _out_dir(out)
    write_json(out_path / "symbol_check.json", report.as_dict())
    click.echo(f"wrote {out_path / 'symbol_check.json'}")


@main.group()
def lattice():
    """Direct damped-chain integration."""


@command(
    lattice,
    "run",
    {**FRONT, "lattice": (_object(LATTICE), REQUIRED), "perturb": (_object(PERTURB), None)},
    click.option("--seed", type=int, default=None, help="Seed for the optional initial perturbation."),
)
def lattice_run(cfg, out, seed):
    """Integrate the chain, track the half-level crossing, fit the speed."""
    potential, lat, perturb = cfg["potential"], cfg["lattice"], cfg["perturb"]
    if lat["source"] == "front":
        _require_normalized(potential)
    if perturb is not None and seed is None:
        raise ConfigError("perturb requests need --seed for reproducibility")

    eps = 1.0 / lat["gamma"]
    dt = lat["dt"] or default_dt(potential)
    sol = None
    if lat["source"] == "front":
        sol = solve_front(potential, eps, grid=cfg["grid"])
        state = init_chain(lat["M"], sol, eps)
    else:
        state = init_chain(
            lat["M"], lat["source"], eps, r_minus=potential.r_minus, r_plus=potential.r_plus
        )
    if perturb is not None:
        rng = np.random.default_rng(seed)
        state.r = state.r + perturb["amplitude"] * rng.uniform(-1.0, 1.0, state.M)

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
        _advise(summary, eps)

    out_path = _out_dir(out)
    write_snapshots_csv(out_path / "lattice_snapshots.csv", traj.times, traj.snapshots)
    write_json(out_path / "lattice_summary.json", summary)
    click.echo(f"wrote {out_path / 'lattice_summary.json'}")


@command(main, "report", {**FRONT, **EPSILON})
def report(cfg, out):
    """Solve one front and write the consolidated pass/fail check list."""
    _require_normalized(cfg["potential"])
    eps = cfg["epsilon"]

    sol = solve_front(cfg["potential"], eps, grid=cfg["grid"])
    checks = consolidated_report(sol)
    payload = {
        "epsilon": eps,
        "potential": cfg["potential"].name,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    _advise(payload, eps)
    out_path = _out_dir(out)
    write_json(out_path / "report.json", payload)
    status = "ok" if payload["all_pass"] else "FAILED CHECKS"
    click.echo(f"wrote {out_path / 'report.json'} ({status})")


if __name__ == "__main__":
    main()
