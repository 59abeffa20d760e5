"""End-to-end CLI runs: exit codes, file contracts, determinism."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import fput_fronts.cli as cli
from fput_fronts.cli import main, write_profile_csv, write_snapshots_csv
from fput_fronts.front_solver import solve_front
from fput_fronts.potentials import hertz_potential, quadratic_force_potential


@pytest.fixture()
def runner():
    return CliRunner()


def write_cfg(tmp_path: Path, obj, name="cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_csv_rows(path: Path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestOde:
    def test_profile_has_half_level_row(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"potential": {"kind": "quadratic"}})
        res = runner.invoke(main, ["ode", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0
        header, rows = read_csv_rows(tmp_path / "o" / "R0_profile.csv")
        assert header == ["x", "R", "S"]
        mid = [r for r in rows if float(r[0]) == 0.0]
        assert len(mid) == 1
        assert float(mid[0][1]) == 0.5

    def test_missing_potential_names_field(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"grid": "auto"})
        res = runner.invoke(main, ["ode", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "potential" in res.output

    def test_hertz_smoke(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"potential": {"kind": "hertz", "alpha": 1.5}})
        out = tmp_path / "o"
        res = runner.invoke(main, ["ode", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        rep = json.loads((out / "ode_report.json").read_text())
        assert rep["residual"] <= 1e-9
        assert abs(rep["R_at_0"] - 0.5) <= 1e-12


class TestFrontSolve:
    def test_solution_files_and_residual(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"potential": {"kind": "quadratic"}, "epsilon": 0.1})
        out = tmp_path / "o"
        res = runner.invoke(main, ["front", "solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        data = json.loads((out / "front_eps0p1.json").read_text())
        assert data["residual_fp"] <= 1e-9 * data["N"]
        assert "warning" not in data
        header, rows = read_csv_rows(out / "front_eps0p1.csv")
        assert header == ["x", "R", "S"]
        assert len(rows) == data["N"]

    def test_epsilon_above_advisory_warns_but_runs(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"potential": {"kind": "quadratic"}, "epsilon": 0.6})
        out = tmp_path / "o"
        res = runner.invoke(main, ["front", "solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        data = json.loads((out / "front_eps0p6.json").read_text())
        assert "advisory" in data["warning"]

    def test_epsilon_above_hard_cap_is_config_error(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"potential": {"kind": "quadratic"}, "epsilon": 1.5})
        out = tmp_path / "o"
        res = runner.invoke(main, ["front", "solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2
        assert res.output.strip() == "config error: eps must lie in [0, 1.0], got 1.5"
        assert not out.exists()

    def test_epsilon_above_hard_cap_on_pinned_grid_is_config_error(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"potential": {"kind": "quadratic"}, "epsilon": 1.5, "grid": {"L": 40.0, "N": 4096}},
        )
        out = tmp_path / "o"
        res = runner.invoke(main, ["front", "solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2
        assert res.output.strip() == "config error: eps must lie in [0, 1.0], got 1.5"
        assert not out.exists()

    def test_exactly_one_epsilon_form(self, runner, tmp_path):
        both = write_cfg(
            tmp_path,
            {"potential": {"kind": "quadratic"}, "epsilon": 0.1, "epsilon_list": [0.1]},
            "both.json",
        )
        neither = write_cfg(tmp_path, {"potential": {"kind": "quadratic"}}, "none.json")
        for cfg in (both, neither):
            res = runner.invoke(main, ["front", "solve", "--config", cfg, "--out", str(tmp_path)])
            assert res.exit_code == 2

    def test_explicit_grid(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "potential": {"kind": "quadratic"},
                "epsilon": 0.1,
                "grid": {"L": 40.0, "N": 16384},
            },
        )
        out = tmp_path / "o"
        res = runner.invoke(main, ["front", "solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        data = json.loads((out / "front_eps0p1.json").read_text())
        assert data["N"] == 16384

    def test_pinned_fast_grid_and_default_size(self, runner, tmp_path):
        """A pinned N = 2 * 12800 and the auto grid at eps 0.1 (N = 12800,
        the smallest 2m with m 5-smooth within spacing 0.1/16 on L = 40)
        both put a row at x = 0 with R = 1/2."""
        for name, grid, n in (("pinned", {"L": 40.0, "N": 25600}, 25600), ("auto", "auto", 12800)):
            cfg = write_cfg(
                tmp_path,
                {"potential": {"kind": "quadratic"}, "epsilon": 0.1, "grid": grid},
                f"{name}.json",
            )
            out = tmp_path / name
            res = runner.invoke(main, ["front", "solve", "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0
            assert json.loads((out / "front_eps0p1.json").read_text())["N"] == n
            _, rows = read_csv_rows(out / "front_eps0p1.csv")
            assert len(rows) == n
            assert float(rows[n // 2][0]) == 0.0
            assert abs(float(rows[n // 2][1]) - 0.5) <= 1e-12

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path, {"potential": {"kind": "quadratic"}, "epsilon": 0.1, "epsylon": 1}
        )
        res = runner.invoke(main, ["front", "solve", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "epsylon" in res.output


class TestFrontSweep:
    def test_members_and_growing_distance(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path, {"potential": {"kind": "quadratic"}, "epsilon_list": [0.2, 0.1]}
        )
        out = tmp_path / "o"
        res = runner.invoke(main, ["front", "sweep", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        eps = [m["epsilon"] for m in summary["members"]]
        assert eps == [0.1, 0.2]
        h1 = [m["h1_dist_to_R0"] for m in summary["members"]]
        assert h1[0] < h1[1]
        assert (out / "front_eps0p1.csv").exists()
        assert (out / "front_eps0p2.csv").exists()


    def test_colliding_file_tags_rejected(self, runner, tmp_path):
        """Two epsilons that print alike would overwrite one profile file."""
        cfg = write_cfg(
            tmp_path,
            {"potential": {"kind": "quadratic"}, "epsilon_list": [0.1, 0.1000001]},
        )
        out = tmp_path / "o"
        res = runner.invoke(main, ["front", "sweep", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "0.1 and 0.1000001" in lines[0]
        assert not out.exists()

    def test_pinned_grid_is_honoured(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "potential": {"kind": "quadratic"},
                "epsilon_list": [0.15, 0.2],
                "grid": {"L": 60, "N": 16384},
            },
        )
        out = tmp_path / "o"
        res = runner.invoke(main, ["front", "sweep", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [(m["L"], m["N"]) for m in summary["members"]] == [(60.0, 16384)] * 2
        _, rows = read_csv_rows(out / "front_eps0p15.csv")
        assert len(rows) == 16384
        assert float(rows[0][0]) == -60.0


class TestPoles:
    def test_quadratic_family_rate(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"p_list": [0.0], "epsilon_list": [0.1]})
        out = tmp_path / "o"
        res = runner.invoke(main, ["poles", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        data = json.loads((out / "poles.json").read_text())
        assert len(data["poles"]) == 1
        assert abs(data["poles"][0]["mu_rate"] - 0.9991667) <= 1e-5

    def test_out_naming_a_file_is_config_error(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"p_list": [0.0], "epsilon_list": [0.1]})
        out = tmp_path / "taken"
        out.write_text("")
        res = runner.invoke(main, ["poles", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2
        assert res.output.strip() == f"config error: --out {out} is not a directory"


@pytest.mark.parametrize(
    "command, cfg, name",
    [
        (["poles"], {"p_list": [0.0], "epsilon_list": [0.1, 0.1000001]}, "poles.json"),
        (["symbol-check"], {"epsilon_list": [0.2, 0.1, 0.1000001]}, "symbol_check.json"),
    ],
    ids=["poles", "symbol_check"],
)
def test_one_file_commands_take_epsilons_that_print_alike(runner, tmp_path, command, cfg, name):
    """Only front sweep writes a file per epsilon, so only it rejects a tag clash."""
    out = tmp_path / "o"
    res = runner.invoke(main, [*command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / name).exists()


@pytest.mark.parametrize(
    "command, cfg, name",
    [
        (["report"], {"epsilon": 0.6}, "report.json"),
        (["front", "sweep"], {"epsilon_list": [0.6]}, "sweep_summary.json"),
        (["lattice", "run"], {"lattice": {"M": 200, "T": 2.0, "gamma": 1.6}}, "lattice_summary.json"),
    ],
    ids=["report", "sweep", "lattice"],
)
def test_every_front_payload_warns_above_advisory(runner, tmp_path, command, cfg, name):
    cfg = write_cfg(tmp_path, {"potential": {"kind": "quadratic"}, **cfg})
    out = tmp_path / "o"
    res = runner.invoke(main, [*command, "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    data = json.loads((out / name).read_text())
    payload = data["members"][0] if command == ["front", "sweep"] else data
    assert "advisory" in payload["warning"]


class TestSymbolCheck:
    def test_orders_emitted(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"epsilon_list": [0.2, 0.1, 0.05]})
        out = tmp_path / "o"
        res = runner.invoke(main, ["symbol-check", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        data = json.loads((out / "symbol_check.json").read_text())
        assert 0.5 < data["order_diff"] < 1.5
        assert 0.2 < data["order_weighted"] < 1.0

    def test_single_epsilon_rejected(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"epsilon_list": [0.1]})
        res = runner.invoke(main, ["symbol-check", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2


class TestLatticeRun:
    def test_front_run_summary(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "potential": {"kind": "quadratic"},
                "lattice": {"M": 800, "T": 20.0, "gamma": 10.0, "output_every": 100},
            },
        )
        out = tmp_path / "o"
        res = runner.invoke(main, ["lattice", "run", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        summary = json.loads((out / "lattice_summary.json").read_text())
        assert abs(summary["c_fit"] - 1.0) <= 0.02
        assert summary["max_profile_distance"] <= 1e-3
        header, rows = read_csv_rows(out / "lattice_snapshots.csv")
        assert header == ["t", "n", "r"]
        assert len(rows) % 800 == 0

    def test_step_source_starts_at_the_far_fields(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "potential": {"kind": "hertz", "r_minus": 2.0},
                "lattice": {"M": 400, "T": 5.0, "gamma": 10.0, "source": "step"},
            },
        )
        out = tmp_path / "o"
        res = runner.invoke(main, ["lattice", "run", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        _, rows = read_csv_rows(out / "lattice_snapshots.csv")
        first = np.array([float(r[2]) for r in rows[:400]])
        assert np.all(first[:199] == 2.0) and np.all(first[199:] == 0.0)
        last = np.array([float(r[2]) for r in rows[-400:]])
        assert last[0] == 2.0 and abs(last[-1]) <= 1e-12
        assert np.all(np.diff(last) <= 0.0)

    def test_too_short_run_is_numerical_failure(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "potential": {"kind": "quadratic"},
                "lattice": {"M": 400, "T": 0.3, "gamma": 10.0},
            },
        )
        res = runner.invoke(main, ["lattice", "run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1

    def test_perturb_needs_seed(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "potential": {"kind": "quadratic"},
                "lattice": {"M": 400, "T": 5.0, "gamma": 10.0},
                "perturb": {"amplitude": 1e-6},
            },
        )
        res = runner.invoke(main, ["lattice", "run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "--seed" in res.output

    @pytest.mark.parametrize(
        "fields",
        [
            {"lattice": {"M": 400, "T": 5.0, "gamma": 10.0, "output_every": 0}},
            {"lattice": {"M": "x", "T": 5.0, "gamma": 10.0}},
            {"lattice": {"M": 400, "T": 5.0, "gamma": 10.0}, "perturb": {"amplitude": "big"}},
        ],
        ids=["output_every_zero", "M_not_integer", "amplitude_not_number"],
    )
    def test_malformed_field_is_config_error(self, runner, tmp_path, fields):
        cfg = write_cfg(tmp_path, {"potential": {"kind": "quadratic"}, **fields})
        out = tmp_path / "o"
        res = runner.invoke(
            main, ["lattice", "run", "--config", cfg, "--out", str(out), "--seed", "1"]
        )
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert not out.exists()

    def test_malformed_grid_is_config_error(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "potential": {"kind": "quadratic"},
                "lattice": {"M": 400, "T": 5.0, "gamma": 10.0},
                "grid": {"L": "x", "N": 7},
            },
        )
        out = tmp_path / "o"
        res = runner.invoke(main, ["lattice", "run", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:") and "L" in lines[0]
        assert not out.exists()

    def test_pinned_grid_reaches_the_front_solve(self, runner, tmp_path):
        # a window too short for the tails: honoured, it is a numerical failure
        cfg = write_cfg(
            tmp_path,
            {
                "potential": {"kind": "quadratic"},
                "lattice": {"M": 400, "T": 5.0, "gamma": 10.0},
                "grid": {"L": 10, "N": 4096},
            },
        )
        res = runner.invoke(main, ["lattice", "run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "x = +-10.0" in res.output

    def test_pinned_grid_is_passed_on(self, runner, tmp_path, monkeypatch):
        grids = []
        solve_front = cli.solve_front

        def spy(potential, eps, grid=None):
            grids.append(grid)
            return solve_front(potential, eps, grid=grid)

        monkeypatch.setattr(cli, "solve_front", spy)
        cfg = write_cfg(
            tmp_path,
            {
                "potential": {"kind": "quadratic"},
                "lattice": {"M": 400, "T": 10.0, "gamma": 5.0},
                "grid": {"L": 50, "N": 8192},
            },
        )
        res = runner.invoke(main, ["lattice", "run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        assert [(g.L, g.N) for g in grids] == [(50.0, 8192)]

    def test_invalid_lattice_block_fails_before_output(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"potential": {"kind": "quadratic"}, "lattice": {"M": 400, "T": 5.0}},
        )
        out = tmp_path / "o"
        res = runner.invoke(main, ["lattice", "run", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()  # no partial outputs


class TestReport:
    def test_consolidated_checks_pass(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"potential": {"kind": "quadratic"}, "epsilon": 0.1})
        out = tmp_path / "o"
        res = runner.invoke(main, ["report", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        data = json.loads((out / "report.json").read_text())
        assert data["all_pass"] is True
        assert {c["name"] for c in data["checks"]} >= {"residual_fp", "residual_tent"}


class TestDeterminism:
    def test_front_solve_bitwise_identical(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"potential": {"kind": "quadratic"}, "epsilon": 0.1})
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            res = runner.invoke(main, ["front", "solve", "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0
            outs.append(out)
        for name in ("front_eps0p1.csv", "front_eps0p1.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seeded_lattice_runs_identical(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "potential": {"kind": "quadratic"},
                "lattice": {"M": 400, "T": 10.0, "gamma": 10.0, "output_every": 50},
                "perturb": {"amplitude": 1e-6},
            },
        )
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            res = runner.invoke(
                main,
                ["lattice", "run", "--config", cfg, "--out", str(out), "--seed", "3"],
            )
            assert res.exit_code == 0, res.output
            outs.append(out)
        for name in ("lattice_snapshots.csv", "lattice_summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestNumberFields:
    """Malformed or out-of-range values in any command's config exit 2 with
    one line and leave no output directory."""

    QUAD = {"kind": "quadratic"}
    PINNED = {"L": 40.0, "N": 4096}
    # its force meets its chord at r = 0.3 and 0.6: no front joins 1 and 0
    QUARTIC = {"kind": "polynomial", "coeffs": [0.0, 0.82, 1.08, -1.9, 1.0]}
    WIDE = {"L": 240.0, "N": 131072}

    @pytest.mark.parametrize(
        "command, cfg",
        [
            (["poles"], {"p_list": ["abc"], "epsilon_list": [0.1]}),
            (["poles"], {"p_list": [0.0, "x"], "epsilon_list": [0.1]}),
            (["poles"], {"p_list": "0.5", "epsilon_list": [0.1]}),
            (["symbol-check"], {"epsilon_list": [0.1, 0.1]}),
            (["ode"], {"potential": QUAD, "grid": {"L": "a", "N": 4096}}),
            (["front", "solve"], {"potential": QUAD, "epsilon": 0.1, "grid": {"L": 40, "N": "b"}}),
            (["front", "sweep"], {"potential": QUAD, "epsilon_list": [0.1], "grid": {"L": 40, "N": 4096.5}}),
            (["report"], {"potential": QUAD, "epsilon": 0.1, "grid": {"L": [], "N": 4096}}),
            (["ode"], {"potential": {"kind": "hertz", "alpha": "z"}}),
            (["ode"], {"potential": {"kind": "hertz", "r_minus": {}}}),
            (["ode"], {"potential": {"kind": "polynomial", "coeffs": ["a", 1.0]}}),
            (["ode"], {"potential": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0], "r_plus": "q"}}),
            (["ode"], {"potential": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0], "r_minus": True}}),
            (["poles"], {"p_list": [], "epsilon_list": [0.1]}),
            (["ode"], {"potential": {"kind": ["hertz"]}}),
            # out of the library's range: rejected by the library, before any output
            (["front", "solve"], {"potential": QUAD, "epsilon": 1.5}),
            (["front", "sweep"], {"potential": QUAD, "epsilon_list": [0.1, 1.5]}),
            (["poles"], {"p_list": [1.0], "epsilon_list": [0.1]}),
            (["poles"], {"p_list": [0.0], "epsilon_list": [2.0]}),
            (["lattice", "run"], {"potential": QUAD, "lattice": {"M": 400, "T": 5.0, "gamma": 0.5}}),
            # the eps cap holds on a pinned grid too (front solve: TestFrontSolve)
            (["front", "sweep"], {"potential": QUAD, "epsilon_list": [0.5, 1.5], "grid": PINNED}),
            (["report"], {"potential": QUAD, "epsilon": 1.5, "grid": PINNED}),
            (["lattice", "run"], {"potential": QUAD, "lattice": {"M": 400, "T": 5.0, "gamma": 0.5}, "grid": PINNED}),
            (["front", "solve"], {"potential": QUAD, "epsilon": 0.1, "grid": {"L": 40, "N": 256}}),
            (["ode"], {"potential": {"kind": "polynomial", "coeffs": [0, 2, -1]}}),
            (["ode"], {"potential": QUARTIC}),
            (["front", "solve"], {"potential": QUARTIC, "epsilon": 0.1}),
            (["front", "sweep"], {"potential": QUARTIC, "epsilon_list": [0.2, 0.1]}),
            (["report"], {"potential": QUARTIC, "epsilon": 0.1}),
            (["lattice", "run"], {"potential": QUARTIC, "lattice": {"M": 400, "T": 5.0, "gamma": 10.0}}),
            (["ode"], {"potential": QUARTIC, "grid": WIDE}),
            (["front", "solve"], {"potential": QUARTIC, "epsilon": 0.1, "grid": WIDE}),
            (["front", "sweep"], {"potential": QUARTIC, "epsilon_list": [0.2, 0.1], "grid": WIDE}),
            (["report"], {"potential": QUARTIC, "epsilon": 0.1, "grid": WIDE}),
            (["lattice", "run"], {"potential": QUARTIC, "lattice": {"M": 400, "T": 5.0, "gamma": 10.0}, "grid": WIDE}),
            # a pinned N must be 2m >= 256 with m 5-smooth
            (["front", "solve"], {"potential": QUAD, "epsilon": 0.1, "grid": {"L": 40.0, "N": 1400}}),
            (["ode"], {"potential": QUAD, "grid": {"L": 40.0, "N": 12801}}),
            # derived coefficients beyond the double range
            (["ode"], {"potential": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1e308]}}),
            (["front", "solve"], {"potential": {"kind": "polynomial", "coeffs": [0.0, 1e308, 1e308]}, "epsilon": 0.1}),
        ],
        ids=[
            "poles_p",
            "poles_p_list_entry",
            "poles_p_list_not_list",
            "symbol_repeated_eps",
            "ode_grid_L",
            "solve_grid_N",
            "sweep_grid_N_fraction",
            "report_grid_L",
            "hertz_alpha",
            "hertz_r_minus",
            "polynomial_coeffs",
            "polynomial_r_plus",
            "polynomial_r_minus_bool",
            "poles_p_list_empty",
            "potential_kind_list",
            "solve_eps_above_cap",
            "sweep_eps_above_cap",
            "poles_p_degenerate",
            "poles_eps_above_cap",
            "lattice_gamma_below_one",
            "sweep_eps_above_cap_pinned_grid",
            "report_eps_above_cap_pinned_grid",
            "lattice_gamma_below_one_pinned_grid",
            "solve_grid_too_coarse",
            "polynomial_tail_rates",
            "ode_no_front",
            "solve_no_front",
            "sweep_no_front",
            "report_no_front",
            "lattice_no_front",
            "ode_no_front_pinned_grid",
            "solve_no_front_pinned_grid",
            "sweep_no_front_pinned_grid",
            "report_no_front_pinned_grid",
            "lattice_no_front_pinned_grid",
            "solve_grid_N_factor_7",
            "ode_grid_N_odd",
            "ode_polynomial_overflow",
            "solve_polynomial_overflow",
        ],
    )
    def test_config_error(self, runner, tmp_path, command, cfg):
        out = tmp_path / "o"
        res = runner.invoke(
            main, [*command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
        )
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        if cfg.get("potential") == self.QUARTIC:
            assert "meets its chord at r = 0.30044 " in lines[0]
        if cfg.get("grid", {}).get("N") in (1400, 12801):
            assert lines[0].startswith("config error: N must be 2m >= 256 with m = 2^a 3^b 5^c")
        assert not out.exists()


class TestConfigFields:
    """A field the command or the potential kind does not read exits 2."""

    QUAD = {"kind": "quadratic"}
    LATTICE = {"M": 400, "T": 5.0, "gamma": 10.0}

    @pytest.mark.parametrize(
        "command, cfg, field",
        [
            (["ode"], {"potential": {"kind": "hertz", "alpah": 2.5}}, "alpah"),
            (["front", "solve"], {"potential": {"kind": "quadratic", "alpha": 2.0}, "epsilon": 0.1}, "alpha"),
            (["ode"], {"potential": {"kind": "linear", "r_minus": 1.0}}, "r_minus"),
            (["ode"], {"potential": {"kind": "hertz", "r_plus": 0.0}}, "r_plus"),
            (["report"], {"potential": {"kind": "polynomial", "coeffs": [0, 0, 1], "alpha": 1.5}, "epsilon": 0.1}, "alpha"),
            (["ode"], {"potential": QUAD, "epsilon": 0.1}, "epsilon"),
            (["ode"], {"potential": QUAD, "lattice": LATTICE}, "lattice"),
            (["lattice", "run"], {"potential": QUAD, "lattice": LATTICE, "epsilon": 0.1}, "epsilon"),
            (["poles"], {"p_list": [0.0], "epsilon_list": [0.1], "grid": "auto"}, "grid"),
            (["symbol-check"], {"epsilon_list": [0.2, 0.1], "potential": QUAD}, "potential"),
            (["front", "sweep"], {"potential": QUAD, "epsilon_list": [0.1], "s": 0.5}, "s"),
            (["front", "sweep"], {"potential": QUAD, "epsilon": 0.1}, "epsilon"),
            (["symbol-check"], {"epsilon": 0.1}, "epsilon"),
            # the strip and the weight exponent are constants of spectral
            (["symbol-check"], {"epsilon_list": [0.2, 0.1], "s": "x"}, "s"),
            (["symbol-check"], {"epsilon_list": [0.2, 0.1], "eta_minus": None}, "eta_minus"),
            (["symbol-check"], {"epsilon_list": [0.2, 0.1], "eta_plus": "inf"}, "eta_plus"),
            (["symbol-check"], {"epsilon_list": [0.2, 0.1], "eta_plus": 3}, "eta_plus"),
            (["lattice", "run"], {"potential": QUAD, "lattice": LATTICE, "perturb": {"amplitude": 1e-3, "seed": 5}}, "seed"),
        ],
        ids=[
            "hertz_alpah",
            "quadratic_alpha",
            "linear_r_minus",
            "hertz_r_plus",
            "polynomial_alpha",
            "ode_epsilon",
            "ode_lattice",
            "lattice_epsilon",
            "poles_grid",
            "symbol_potential",
            "sweep_s",
            "sweep_epsilon",
            "symbol_epsilon",
            "symbol_s",
            "symbol_eta_minus",
            "symbol_eta_plus_inf",
            "symbol_eta_plus_inadmissible",
            "perturb_seed",
        ],
    )
    def test_unread_field_is_config_error(self, runner, tmp_path, command, cfg, field):
        out = tmp_path / "o"
        res = runner.invoke(
            main, [*command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
        )
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: unknown ")
        assert lines[0].endswith(": " + field)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            (
                ["poles"],
                {"p": 0.0, "epsilon": 0.1, "epsilon_list": [0.1]},
                "unknown config fields: epsilon, p",
            ),
            (["report"], {"potential": QUAD, "epsilon_list": [0.1]}, "unknown config fields: epsilon_list"),
            (["poles"], {"p": 0.0, "epsilon_list": [0.1]}, "unknown config fields: p"),
        ],
        ids=["both", "list_for_single", "single_p_for_poles"],
    )
    def test_epsilon_forms_keep_their_messages(self, runner, tmp_path, command, cfg, message):
        cfg = write_cfg(tmp_path, cfg)
        res = runner.invoke(main, [*command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.output.strip() == "config error: " + message


class TestUnnormalizedPotential:
    """Front commands name the field that keeps the potential unnormalized."""

    HERTZ = {"kind": "hertz", "r_minus": 2.0}

    @pytest.mark.parametrize(
        "command, cfg",
        [
            (["ode"], {"potential": HERTZ}),
            (["front", "solve"], {"potential": HERTZ, "epsilon": 0.1}),
            (["front", "sweep"], {"potential": HERTZ, "epsilon_list": [0.2, 0.1]}),
            (["report"], {"potential": HERTZ, "epsilon": 0.1}),
            (["lattice", "run"], {"potential": HERTZ, "lattice": {"M": 400, "T": 5, "gamma": 10}}),
        ],
        ids=["ode", "front_solve", "front_sweep", "report", "lattice_run"],
    )
    def test_hertz_r_minus_is_named(self, runner, tmp_path, command, cfg):
        out = tmp_path / "o"
        res = runner.invoke(
            main, [*command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
        )
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "field r_minus must be 1, got 2.0 (" in lines[0]
        assert "Potential.renormalize()" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "potential, message",
        [
            (
                {"kind": "polynomial", "coeffs": [0, 0, 1], "r_minus": 1.0000001},
                "field r_minus must be 1, got 1.0000001 (",
            ),
            # dphi(1) off by 2e-12, beyond the endpoint tolerance 1e-12
            (
                {"kind": "polynomial", "coeffs": [0, 0, 1.000000000002]},
                "dphi(0) = 0 and dphi(1) = 1, got 0.0 and 1.000000000002 (",
            ),
        ],
        ids=["r_minus_near_1", "dphi_1_near_1"],
    )
    def test_near_normalized_values_print_in_full(self, runner, tmp_path, potential, message):
        out = tmp_path / "o"
        cfg = {"potential": potential, "epsilon": 0.1}
        res = runner.invoke(
            main, ["front", "solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
        )
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert not out.exists()


def test_profile_csv_bytes_match_savetxt(tmp_path):
    x = np.array([0.0, -0.0, 1e-300, -1e-300, -2.5, 1.7976931348623157e308, np.pi])
    R = np.array([-0.0, 5e-324, 1.0, -1e300, 0.1, -7.0, 1e-17])
    S = np.array([3.0, -0.0, 2.2250738585072014e-308, 42.0, -1e-5, 1e22, -np.e])
    path = tmp_path / "p.csv"
    write_profile_csv(path, x, R, S)
    with open(tmp_path / "ref.csv", "w", newline="") as f:
        f.write("x,R,S\n")
        np.savetxt(f, np.column_stack([x, R, S]), fmt="%.17e", delimiter=",")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_snapshot_csv_bytes_match_savetxt(tmp_path):
    times = [0.0, 2.5, 1e300]
    snapshots = [
        np.array([0.0, -0.0, 5e-324, -5e-324]),
        np.array([1.7976931348623157e308, -1e300, 1e-17, np.pi]),
        np.array([0.5, 2.2250738585072014e-308, -7.0, 42.0]),
    ]
    path = tmp_path / "s.csv"
    write_snapshots_csv(path, times, snapshots)
    with open(tmp_path / "ref.csv", "w", newline="") as f:
        f.write("t,n,r\n")
        for t, snap in zip(times, snapshots):
            block = np.column_stack([np.full(snap.size, t), np.arange(1, snap.size + 1), snap])
            np.savetxt(f, block, fmt=["%.17e", "%d", "%.17e"], delimiter=",")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def e17_lines(values) -> bytes:
    """The array formatter's text of ``values``, one value a line."""
    rows = cli._e17(values)
    rows[:, cli._SEP] = ord("\n")
    return cli._text(rows)


def percent_lines(values) -> bytes:
    return "".join("%.17e\n" % v for v in values.tolist()).encode()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
def test_formatter_matches_percent_on_any_bit_pattern(bits):
    # every float64: subnormals, +-0, +-inf and NaN payloads included
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert e17_lines(values) == percent_lines(values)


def test_formatter_matches_percent_on_hard_values():
    n = np.arange(-1074, 1024)
    powers_of_ten = np.array([float(10**k) for k in range(-323, 309)])
    j = np.arange(1, 2048, dtype=float)
    values = np.concatenate(
        [
            np.ldexp(1.0, n),  # every power of two: every frexp exponent
            # every power of ten and both neighbours: the decimal exponent's
            # edges; float(1e153) lies below 10^153 and prints as 1.0e+153
            powers_of_ten,
            np.nextafter(powers_of_ten, 0.0),
            np.nextafter(powers_of_ten, np.inf),
            [np.nextafter(1e6, 0.0), 1e-305, 1e153],
            # ties to even: 2^-27 has 19 significant digits ending in 5, and
            # so do j/512 above 2^43
            [2.0**-27, 3 * 2.0**-27],
            2.0**44 + j / 512,
            2.0**43 + j / 512,
            [5e-324, 1.7976931348623157e308, -0.0],
        ]
    )
    values = np.concatenate([values, -values])
    assert e17_lines(values) == percent_lines(values)


def percent_profile(x, R, S) -> bytes:
    rows = np.column_stack([x, R, S])
    return ("x,R,S\n" + ("%.17e,%.17e,%.17e\n" * len(rows)) % tuple(rows.ravel().tolist())).encode()


@pytest.mark.parametrize("name", ["quad", "hertz"])
@pytest.mark.parametrize("eps", [0.1, 0.05, 0.02])
def test_front_profile_csv_matches_percent(tmp_path, name, eps):
    potential = {"quad": quadratic_force_potential(), "hertz": hertz_potential(alpha=1.5)}[name]
    sol = solve_front(potential, eps)
    path = tmp_path / "front.csv"
    write_profile_csv(path, sol.x, sol.R, sol.S)
    assert path.read_bytes() == percent_profile(sol.x, sol.R, sol.S)


BLOCK = cli._CHUNK // 3  # rows per block of write_profile_csv
# values '%' prints itself: signed zeros, the tie 2^-27, the least subnormal,
# infinities and NaN
FALLBACK = [0.0, -0.0, 2.0**-27, 5e-324, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_profile_csv_blocks_match_percent(tmp_path, n):
    rng = np.random.default_rng(n)
    x, R, S = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-300, 300, (3, n))
    # fallback values in the first and last row of every block
    edges = sorted({i for k in range(0, n, BLOCK) for i in (k, min(k + BLOCK, n) - 1)})
    for j, i in enumerate(edges):
        x[i], R[i], S[i] = (FALLBACK[(3 * j + c) % len(FALLBACK)] for c in range(3))
    path = tmp_path / "p.csv"
    write_profile_csv(path, x, R, S)
    assert path.read_bytes() == percent_profile(x, R, S)


@pytest.mark.parametrize("short", ["x", "R", "S"])
def test_profile_csv_unequal_lengths_write_nothing(tmp_path, short):
    columns = {name: np.linspace(0.0, 1.0, 5) for name in "xRS"}
    columns[short] = columns[short][:4]
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"old bytes\n")
    for path in (fresh, kept):
        with pytest.raises(ValueError, match="equal length"):
            write_profile_csv(path, columns["x"], columns["R"], columns["S"])
    assert not fresh.exists()
    assert kept.read_bytes() == b"old bytes\n"


def test_profile_csv_rewrite_leaves_only_new_bytes(tmp_path):
    path = tmp_path / "p.csv"
    long = np.linspace(-1.0, 1.0, 3 * BLOCK)
    write_profile_csv(path, long, long, long)
    short = np.linspace(-2.0, 2.0, BLOCK + 1)
    write_profile_csv(path, short, -short, 2 * short)
    assert path.read_bytes() == percent_profile(short, -short, 2 * short)


def test_profile_csv_holds_one_block_in_memory(tmp_path):
    x = np.linspace(-40.0, 40.0, 64000, endpoint=False)
    R, S = 0.5 * (1.0 - np.tanh(x)), 0.5 / np.cosh(x) ** 2
    write_profile_csv(tmp_path / "warm.csv", x[:3], R[:3], S[:3])  # the formatter's tables
    tracemalloc.start()
    try:
        write_profile_csv(tmp_path / "p.csv", x, R, S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole file's text, 64000 rows of at most 78 bytes, is about 5 MB
    assert peak <= 4 * 2**20
