"""End-to-end CLI runs: exit codes, file contracts, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import fput_fronts.cli as cli
from fput_fronts.cli import main, write_profile_csv, write_snapshots_csv


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
        cfg = write_cfg(tmp_path, {"epsilon": 0.1})
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
        res = runner.invoke(main, ["front", "solve", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2

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
        cfg = write_cfg(tmp_path, {"p": 0.0, "epsilon": 0.1})
        out = tmp_path / "o"
        res = runner.invoke(main, ["poles", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0
        data = json.loads((out / "poles.json").read_text())
        assert len(data["poles"]) == 1
        assert abs(data["poles"][0]["mu_rate"] - 0.9991667) <= 1e-5


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
    """Malformed numbers in any command's config exit 2 with one line."""

    QUAD = {"kind": "quadratic"}

    @pytest.mark.parametrize(
        "command, cfg",
        [
            (["poles"], {"p": "abc", "epsilon": 0.1}),
            (["poles"], {"p_list": [0.0, "x"], "epsilon": 0.1}),
            (["poles"], {"p_list": "0.5", "epsilon": 0.1}),
            (["symbol-check"], {"epsilon_list": [0.2, 0.1], "s": "x"}),
            (["symbol-check"], {"epsilon_list": [0.2, 0.1], "eta_minus": None}),
            (["symbol-check"], {"epsilon_list": [0.2, 0.1], "eta_plus": "inf"}),
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
        ],
        ids=[
            "poles_p",
            "poles_p_list_entry",
            "poles_p_list_not_list",
            "symbol_s",
            "symbol_eta_minus",
            "symbol_eta_plus_inf",
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
        assert not out.exists()


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
