import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from delaybsde import cli
from delaybsde.cli import _COMMANDS, _fmt, _meshes, build_parser, main
from delaybsde.config import ConfigError, build_problem, load_config, validate_config
from delaybsde.constants import constants_report, search_feasible
from delaybsde.solver import picard_solve

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_config(**overrides):
    cfg = {
        "horizon": 0.5,
        "p": 2,
        "beta": 1.0,
        "gamma": 0.5,
        "seed": 5,
        "forward": {"preset": "brownian", "x0": [0.0]},
        "generator": {"preset": "linear_zdel", "coeff": 0.1, "lipschitz": 0.1},
        "terminal": {"preset": "identity"},
        "delays": {"alpha_z": [{"atom": [-0.25, 1.0]}]},
        "solver": {"paths": 600, "steps": 8, "picard": 4, "tol": 1e-3},
    }
    cfg.update(overrides)
    return cfg


def read_verdict(out):
    """verdict.txt as {key: value text}, in file order."""
    return dict(line.split(": ", 1) for line in (out / "verdict.txt").read_text().splitlines())


def l2reg_config(**study):
    cfg = base_config()
    cfg["study"] = {"reference_steps": 16, **study}
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("value, text", [
    (True, "true"), (np.bool_(False), "false"), (3, "3"), (np.int64(-7), "-7"),
    (0.1, "0.1"), (np.float64(0.1), "0.1"), (float("nan"), "nan"),
    (float("inf"), "inf"), (-np.inf, "-inf"), (-0.0, "-0.0"), ("abc", "abc"),
])
def test_fmt_cells(value, text):
    assert _fmt(value) == text


class TestConfigValidation:
    def test_valid_config_builds_problem(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        problem = build_problem(cfg)
        assert problem.horizon == 0.5
        assert problem.alpha_z.total_mass() == 1.0
        assert problem.driver.lipschitz == 0.1

    def test_missing_horizon_rejected(self):
        cfg = base_config()
        del cfg["horizon"]
        with pytest.raises(ConfigError, match="horizon"):
            validate_config(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(base_config(unknown_section={"a": 1}))

    def test_unknown_nested_key_rejected(self):
        cfg = base_config()
        cfg["forward"]["drift_code"] = "lambda x: x"
        with pytest.raises(ConfigError, match="forward"):
            validate_config(cfg)

    def test_bad_measure_literal_rejected(self):
        cfg = base_config()
        cfg["delays"] = {"alpha_z": [{"mass": [0.1]}]}
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_x0_dimension_checked(self, tmp_path):
        cfg = base_config()
        cfg["forward"]["x0"] = [0.0, 1.0]
        with pytest.raises(ConfigError, match="x0"):
            build_problem(cfg)


class TestCliCommands:
    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["horizon"]
        path = write_config(tmp_path, cfg)
        code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["generator"]["preset"] = "quadratic_growth"
        path = write_config(tmp_path, cfg)
        code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "preset" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, where", [
        (None, "horizon", "horizon"),
        ("forward", "x0", "forward/x0/0"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, section, key, where):
        cfg = base_config()
        if section is None:
            cfg[key] = float("nan")
        else:
            cfg[section][key] = [float("inf")]
        path = write_config(tmp_path, cfg)  # json.dumps writes NaN / Infinity
        code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert where in err and "not a finite number" in err

    def test_threads_flag_refused(self, tmp_path):
        path = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", path, "--out", str(tmp_path / "out"), "--threads", "2"])
        assert exc.value.code == 2

    def test_numerical_failure_exits_1(self, tmp_path, capsys):
        cfg = base_config()
        _zero_ridge(cfg)
        path = write_config(tmp_path, cfg)
        code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "regression failed at node" in err and "sweep 1" in err and "ridge" in err

    def test_solve_emits_summary_and_diagnostics(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        summary = (out / "solution.csv").read_text().splitlines()
        assert summary[0] == "t,mean_y,sd_y,mean_z,sd_z"
        assert len(summary) == 10  # header + 9 nodes
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag[0] == "sweep,diff_y,diff_z"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert "config_sha256" in manifest

    def test_check_constants_fixture_is_feasible(self, tmp_path, capsys):
        cfg = base_config()
        cfg["delays"] = {
            "alpha_y": [{"atom": [-0.25, 1.0]}],
            "alpha_z": [{"atom": [-0.25, 1.0]}],
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["check-constants", "--config", path, "--out", str(out)]) == 0
        rows = (out / "constants.csv").read_text().splitlines()
        header = rows[0].split(",")
        values = rows[1].split(",")
        row = dict(zip(header, values))
        assert float(row["l2_lhs_y"]) == pytest.approx(0.642, abs=1e-3)
        assert row["feasible"] == "true"

    def test_check_constants_grid_flag(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        code = main([
            "check-constants", "--config", path, "--out", str(out),
            "--beta-grid", "0.5:2:4", "--gamma-grid", "0.25:1:4",
        ])
        assert code == 0
        rows = (out / "constants.csv").read_text().splitlines()
        assert len(rows) == 17  # header + 16 grid points

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", path, "--out", str(out_a), "--seed", "7"]) == 0
        assert main(["solve", "--config", path, "--out", str(out_b), "--seed", "7"]) == 0
        for name in ("solution.csv", "diagnostics.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_compare_z_emits_per_node_distances(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["compare-z", "--config", path, "--out", str(out)]) == 0
        rows = (out / "compare_z.csv").read_text().splitlines()
        assert rows[0] == "t,abs_distance,ref_norm,rel_distance"
        assert len(rows) == 10
        assert "stopped" not in capsys.readouterr().out  # every solve converged

    def test_study_picard_writes_verdict(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["study-picard", "--config", path, "--out", str(out)]) == 0
        verdict = (out / "verdict.txt").read_text()
        assert "ratios_below_one_after_sweep_2" in verdict

    def test_study_yinc_runs(self, tmp_path):
        cfg = base_config()
        cfg["generator"] = {"preset": "zero", "lipschitz": 0.0}
        cfg["delays"] = {}
        cfg["solver"] = {"paths": 2000, "steps": 40, "picard": 3, "tol": 1e-4}
        cfg["study"] = {"moment_p": 2, "slope_tol": 0.5}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["study-yinc", "--config", path, "--out", str(out)]) == 0
        assert (out / "yinc.csv").exists()
        assert "fitted_slope" in (out / "verdict.txt").read_text()

    @pytest.mark.parametrize("name", ["delayed_control", "constants_grid"])
    def test_study_yinc_default_separations_on_20_step_configs(self, tmp_path, name):
        out = tmp_path / "out"
        config = str(CONFIGS / f"{name}.json")
        assert main(["study-yinc", "--config", config, "--out", str(out),
                     "--paths", "2000", "--seed", "3"]) == 0
        seps = [row.split(",")[0] for row in (out / "yinc.csv").read_text().splitlines()[1:]]
        assert seps == [repr(k * 0.5 / 20) for k in (1, 2, 4, 8)]

    def test_study_yinc_default_separations_at_40_steps(self, tmp_path):
        cfg = base_config(horizon=0.7)
        cfg["solver"] = {"paths": 600, "steps": 40, "picard": 2, "tol": 1e-3}
        out = tmp_path / "out"
        assert main(["study-yinc", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        seps = [row.split(",")[0] for row in (out / "yinc.csv").read_text().splitlines()[1:]]
        assert seps == [repr(0.7 / d) for d in (40, 20, 10, 5)]

    @pytest.mark.parametrize("seps, message", [
        ([0.0625, 0.5 / 7], "separation 0.07142857142857142 is not a positive multiple"),
        ([0.0, 0.125], "separation 0.0 is not a positive multiple"),
        ([0.125, 0.5625], "separation 0.5625 exceeds the horizon 0.5"),
    ])
    def test_study_yinc_bad_separation_exits_2_before_writing(self, tmp_path, capsys,
                                                               seps, message):
        cfg = base_config()
        cfg["study"] = {"separations": seps}
        out = tmp_path / "out"
        code = main(["study-yinc", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        assert f"config error: study/separations: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_study_apriori_runs(self, tmp_path):
        cfg = base_config()
        cfg["study"] = {"epsilons": [0.2, 0.1]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["study-apriori", "--config", path, "--out", str(out)]) == 0
        rows = (out / "apriori.csv").read_text().splitlines()
        assert rows[0].startswith("epsilon,")
        assert len(rows) == 3

    @pytest.mark.parametrize("cfg, directions", [
        (base_config(), ["0"] * 9),
        # one Jacobian solve gives every state direction of a 2-d problem
        (base_config(dim_x=2, forward={"preset": "brownian", "x0": [0.0, 0.0]},
                     generator={"preset": "zero", "lipschitz": 0.0},
                     terminal={"preset": "quadratic"}, delays={}), ["0"] * 9 + ["1"] * 9),
    ])
    def test_variational_emits_per_direction_summary(self, tmp_path, cfg, directions):
        out = tmp_path / "out"
        assert main(["variational", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        rows = (out / "variational.csv").read_text().splitlines()
        assert rows[0] == "t,direction,mean_dy,sd_dy,mean_dz,sd_dz"
        assert [row.split(",")[1] for row in rows[1:]] == directions

    def test_truncated_variational_names_its_solves(self, tmp_path, capsys):
        cfg = base_config(dim_x=2, forward={"preset": "brownian", "x0": [0.0, 0.0]},
                          generator={"preset": "zero", "lipschitz": 0.0},
                          terminal={"preset": "quadratic"}, delays={})
        out = tmp_path / "out"
        assert main(["variational", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--picard", "1", "--tol", "1e-12"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("derivative sweeps: 1; ")
        for label in ("base solve", "derivative solve"):
            assert (f"; {label} stopped after 1 sweeps without converging "
                    "(last update ") in printed
        assert printed.count(">= tol 1e-12") == 2

    def test_converged_variational_names_no_solve(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["variational", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert "stopped" not in capsys.readouterr().out

    def test_study_l2reg_runs(self, tmp_path):
        cfg = base_config()
        cfg["generator"] = {"preset": "zero", "lipschitz": 0.0}
        cfg["terminal"] = {"preset": "quadratic"}
        cfg["forward"]["x0"] = [1.0]
        cfg["delays"] = {}
        cfg["solver"] = {"paths": 2000, "steps": 40, "picard": 3, "tol": 1e-4}
        cfg["study"] = {"meshes": [5, 10, 20], "reference_steps": 40, "slope_tol": 0.5}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["study-l2reg", "--config", path, "--out", str(out)]) == 0
        rows = (out / "l2reg.csv").read_text().splitlines()
        assert rows[0] == "mesh_size,functional"
        assert len(rows) == 4
        verdict = read_verdict(out)
        assert verdict["rate_measured"] == "true" and float(verdict["fitted_slope"]) > 0

    def test_study_l2reg_on_a_deterministic_control_measures_no_rate(self, tmp_path, capsys):
        # the flow-formula control of the linear delayed-control driver is 1 on
        # every path, so every functional sits at rounding level
        out = tmp_path / "out"
        assert main(["study-l2reg", "--config", str(CONFIGS / "delayed_control.json"),
                     "--paths", "2000", "--seed", "3", "--out", str(out)]) == 0
        verdict = read_verdict(out)
        assert verdict["rate_measured"] == "false" and verdict["pass"] == "false"
        assert verdict["fitted_slope"] == "nan"
        values = [float(row.split(",")[1])
                  for row in (out / "l2reg.csv").read_text().splitlines()[1:]]
        assert len(values) == 4 and max(values) < 1e-12
        assert capsys.readouterr().out.startswith(
            "regularity slope: not measured, every functional is at most 1e-12 of the "
            "reference control's mean square 0.5 (target 1.0)")

    def test_fd_check_runs(self, tmp_path):
        cfg = base_config()
        cfg["generator"] = {"preset": "zero", "lipschitz": 0.0}
        cfg["delays"] = {}
        cfg["study"] = {"fd_epsilons": [0.5, 0.25]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["fd-check", "--config", path, "--out", str(out)]) == 0
        rows = (out / "fd_check.csv").read_text().splitlines()
        assert rows[0] == "epsilon,error,block_se"

    def test_solve_reports_convergence(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["solve", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().out.startswith("converged in ")

    def test_truncated_solve_is_not_reported_as_converged(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        code = main(["solve", "--config", path, "--out", str(out), "--picard", "1", "--tol", "1e-12"])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("stopped after 1 sweeps without converging (last update ")
        assert ">= tol 1e-12" in printed
        assert "converged in" not in printed and "solved" not in printed

    @pytest.mark.parametrize("command, cfg, solves", [
        ("compare-z", base_config(), ["base solve", "derivative solve"]),
        ("study-picard", base_config(), ["base solve"]),
        ("study-yinc", base_config(), ["base solve"]),
        ("study-l2reg", l2reg_config(meshes=[2, 4, 8]), ["base solve", "derivative solve"]),
        ("fd-check", base_config(), ["base solve", "derivative solve",
                                     "shifted solve at eps 0.5", "shifted solve at eps 0.25",
                                     "shifted solve at eps 0.125",
                                     "noise-floor solve at eps 0.001"]),
        ("study-apriori", base_config(), ["base solve", "shifted solve at eps 0.4",
                                          "shifted solve at eps 0.2",
                                          "shifted solve at eps 0.1"]),
    ])
    def test_truncated_solves_of_a_study_are_named(self, tmp_path, capsys, command, cfg,
                                                   solves):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--picard", "1"]) == 0
        printed = capsys.readouterr().out
        for label in solves:
            assert (f"; {label} stopped after 1 sweeps without converging "
                    "(last update ") in printed
        assert printed.count(">= tol 0.001") == len(solves)

    @pytest.mark.parametrize("command, cfg", [
        ("study-picard", base_config()),
        ("study-yinc", base_config()),
        ("study-l2reg", l2reg_config(meshes=[2, 4, 8])),
        ("fd-check", base_config()),
        ("study-apriori", base_config()),
    ])
    def test_converged_solves_of_a_study_are_not_named(self, tmp_path, capsys, command, cfg):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert "stopped" not in capsys.readouterr().out
        verdict = read_verdict(out)
        converged = {k: v for k, v in verdict.items() if k.endswith("_converged")}
        assert converged and set(converged.values()) == {"true"}

    VERDICT_SOLVES = {
        "study-picard": ["base_solve"],
        "study-yinc": ["base_solve"],
        "study-l2reg": ["base_solve", "derivative_solve"],
        "fd-check": ["base_solve", "derivative_solve", "shifted_solve_at_eps_0.5",
                     "shifted_solve_at_eps_0.25", "shifted_solve_at_eps_0.125",
                     "noise_floor_solve_at_eps_0.001"],
        "study-apriori": ["base_solve", "shifted_solve_at_eps_0.4", "shifted_solve_at_eps_0.2",
                          "shifted_solve_at_eps_0.1"],
    }

    @pytest.mark.parametrize("command, cfg", [
        ("study-picard", base_config()),
        ("study-yinc", base_config()),
        ("study-l2reg", l2reg_config(meshes=[2, 4, 8])),
        ("fd-check", base_config()),
        ("study-apriori", base_config()),
    ])
    def test_truncated_solves_are_in_the_verdict(self, tmp_path, command, cfg):
        # the convergence keys sit beside the verdict and leave its pass rule alone
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--picard", "1"]) == 0
        verdict = read_verdict(out)
        solves = self.VERDICT_SOLVES[command]
        assert [k[: -len("_sweeps")] for k in verdict if k.endswith("_sweeps")] == solves
        for key in solves:
            assert verdict[f"{key}_sweeps"] == "1"
            assert verdict[f"{key}_converged"] == "false"
            assert float(verdict[f"{key}_last_update"]) >= 1e-3

    def test_fd_check_near_pair_has_no_richardson_error(self, tmp_path):
        # 0.2000000000005 is not the exact double of 0.1, so no step pairs
        cfg = base_config(generator={"preset": "zero", "lipschitz": 0.0}, delays={},
                          study={"fd_epsilons": [0.1, 0.2000000000005]})
        out = tmp_path / "out"
        assert main(["fd-check", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert "richardson_error: nan\n" in (out / "verdict.txt").read_text()

    @pytest.mark.parametrize("command, cfg", [
        ("variational", base_config()),
        ("compare-z", base_config()),
        ("fd-check", base_config()),
        ("study-l2reg", l2reg_config(meshes=[2, 4, 8])),
    ])
    def test_derivative_solve_runs_at_zero_ridge(self, tmp_path, command, cfg):
        # the derivative solve fits on the base solution's delayed features,
        # not on its own control, which is zero here up to fit residue
        cfg["solver"]["basis"] = {"ridge": 0}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0


class TestOverrideValidation:
    @pytest.mark.parametrize("flag, value, message", [
        ("--picard", "0", "less than the minimum of 1"),
        ("--picard", "-1", "less than the minimum of 1"),
        ("--paths", "0", "less than the minimum of 1"),
        ("--steps", "-3", "less than the minimum of 1"),
        ("--tol", "0", "less than or equal to the minimum of 0"),
        ("--tol", "nan", "not a finite number"),
        ("--seed", "-1", "less than the minimum of 0"),
        ("--seed", "18446744073709551616", "greater than the maximum of 18446744073709551615"),
    ])
    @pytest.mark.parametrize("command", ["solve", "fd-check"])
    def test_bad_override_exits_2_before_writing(self, tmp_path, capsys, command, flag, value,
                                                 message):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out), f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag} ") and message in err
        assert not out.exists()

    def test_config_seed_above_uint64_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(seed=2**64))
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        assert "config invalid at seed" in capsys.readouterr().err
        assert not out.exists()

    def test_valid_overrides_win_over_config(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        code = main(["solve", "--config", path, "--out", str(out), "--picard", "2",
                     "--tol", "1e-12", "--steps", "5", "--paths", "80",
                     "--seed", str(2**64 - 1)])
        assert code == 0
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 2
        assert len((out / "solution.csv").read_text().splitlines()) == 1 + 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 2**64 - 1
        assert manifest["overrides"] == {"paths": 80, "steps": 5, "picard": 2, "tol": 1e-12}

    @pytest.mark.parametrize("command, cfg, flags, overrides", [
        ("check-constants", base_config(), ["--beta-grid", "0.5:2:4", "--gamma-grid", "0.25:1:3"],
         {"beta_grid": "0.5:2:4", "gamma_grid": "0.25:1:3"}),
        ("check-constants", base_config(), ["--gamma-grid", "0.25:1:3"],
         {"gamma_grid": "0.25:1:3"}),
        ("study-l2reg", l2reg_config(meshes=[2, 4, 8]), ["--meshes", "4,8,16"],
         {"meshes": [4, 8, 16]}),
    ])
    def test_manifest_records_every_flag_given(self, tmp_path, command, cfg, flags, overrides):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out),
                     *flags]) == 0
        assert json.loads((out / "manifest.json").read_text())["overrides"] == overrides



class TestBasisFeatureValidation:
    @pytest.mark.parametrize("features, message", [
        (["X", "ydel"], "features/0: 'X' is not one of ['x', 'xdel', 'ydel', 'zdel']"),
        (["x", "x_lags"], "features/1: 'x_lags' is not one of ['x', 'xdel', 'ydel', 'zdel']"),
        (["x", "x"], "features: ['x', 'x'] has non-unique elements"),
        ([], "features: []"),
    ])
    def test_bad_features_exit_2_before_writing(self, tmp_path, capsys, features, message):
        cfg = base_config()
        cfg["solver"]["basis"] = {"features": features}
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"config invalid at solver/basis/{message}" in capsys.readouterr().err
        assert not out.exists()


class TestPathCountValidation:
    # delayed_control.json selects x, ydel and zdel (alpha_x has no mass): a
    # degree-2 basis of 10 functions; study-apriori fits on x alone (3).
    @pytest.mark.parametrize("command, paths, k", [
        ("solve", 20, 10), ("study-l2reg", 40, 10), ("fd-check", 99, 10),
        ("study-apriori", 20, 3),
    ])
    def test_too_few_paths_exit_2_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                    command, paths, k):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated paths before checking the path count")

        monkeypatch.setattr(cli, "simulate_forward", no_simulation)
        monkeypatch.setattr("delaybsde.solver.simulate_forward", no_simulation)
        out = tmp_path / "out"
        argv = [command, "--config", str(CONFIGS / "delayed_control.json"), "--out", str(out),
                "--paths", str(paths)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: basis size {k} needs at least {10 * k} paths, got {paths}" in err
        assert not out.exists()

    def test_coarse_state_basis_checked_before_simulating(self, tmp_path, capsys,
                                                          monkeypatch):
        # the Picard basis (ydel alone, k = 3) fits 40 paths, but study-l2reg's
        # coarse projections fit on the 2-d state: k = 6 at degree 2
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated paths before checking the path count")

        monkeypatch.setattr(cli, "simulate_forward", no_simulation)
        cfg = base_config(
            dim_x=2, forward={"preset": "brownian", "x0": [0.0, 0.0]},
            generator={"preset": "linear_ydel", "coeff": 0.1, "lipschitz": 0.1},
            terminal={"preset": "quadratic"}, delays={"alpha_y": [{"atom": [-0.25, 1.0]}]},
        )
        cfg["solver"]["basis"] = {"features": ["ydel"]}
        out = tmp_path / "out"
        argv = ["study-l2reg", "--config", write_config(tmp_path, cfg), "--out", str(out),
                "--paths", "40"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: basis size 6 needs at least 60 paths, got 40" in err
        assert not out.exists()

    def test_ten_paths_per_basis_function_accepted(self, tmp_path):
        argv = ["solve", "--config", str(CONFIGS / "delayed_control.json"),
                "--out", str(tmp_path / "out"), "--paths", "100", "--picard", "2"]
        assert main(argv) == 0


class TestStudyInputValidation:
    @pytest.mark.parametrize("command, study, flags, message", [
        ("fd-check", {"fd_epsilons": [0.5, 0]}, [],
         "config invalid at study/fd_epsilons/1: 0 should not be valid"),
        ("fd-check", {"fd_epsilons": []}, [],
         "config invalid at study/fd_epsilons: [] should be non-empty"),
        ("fd-check", {"fd_direction": [1.0, 0.0]}, [],
         "study/fd_direction: need dim_x=1 entries, got 2"),
        ("study-apriori", {"epsilons": [0.2, 0.0]}, [],
         "config invalid at study/epsilons/1: 0.0 should not be valid"),
        ("study-apriori", {"epsilons": []}, [],
         "config invalid at study/epsilons: [] should be non-empty"),
        ("study-yinc", {"separations": [0.0625, 0.125]}, [],
         "study/separations: need at least three separations for a rate fit"),
        ("study-yinc", {}, ["--steps", "2"],
         "default separations at 2 steps: need at least three separations"),
        ("compare-z", {}, ["--steps", "1"],
         "compare-z needs at least 2 steps for an interior node, got 1"),
        ("study-apriori", {"terminal_shift": 0, "driver_shift": 0.0}, [],
         "study/terminal_shift and study/driver_shift are both 0: nothing is perturbed"),
        ("study-yinc", {"target_slope": 7.0}, [],
         "config invalid at study: Additional properties are not allowed "
         "('target_slope' was unexpected)"),
    ])
    def test_bad_study_input_exits_2_before_writing(self, tmp_path, capsys, command, study,
                                                     flags, message):
        cfg = base_config()
        cfg["study"] = study
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(out), *flags]
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_study_apriori_runs_with_one_shift_zero(self, tmp_path):
        cfg = base_config()
        cfg["study"] = {"epsilons": [0.2, 0.1], "terminal_shift": 0.0}
        out = tmp_path / "out"
        assert main(["study-apriori", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        spread = (out / "verdict.txt").read_text()
        assert spread.startswith("ratio_spread: ") and "nan" not in spread

    def test_two_dimensional_fd_direction_accepted(self, tmp_path):
        cfg = base_config(dim_x=2)
        cfg["forward"]["x0"] = [0.0, 0.0]
        cfg["generator"] = {"preset": "zero", "lipschitz": 0.0}
        cfg["terminal"] = {"preset": "quadratic"}
        cfg["delays"] = {}
        cfg["study"] = {"fd_direction": [1.0, -1.0], "fd_epsilons": [0.5, 0.25]}
        out = tmp_path / "out"
        assert main(["fd-check", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert len((out / "fd_check.csv").read_text().splitlines()) == 3


def _unknown_forward_preset(cfg):
    cfg["forward"]["preset"] = "ornstein_uhlenbeck"


def _long_x0(cfg):
    cfg["forward"]["x0"] = [0.0, 1.0]


def _zero_ridge(cfg):
    # zero ridge on a noise-free state: x and x^2 are constant columns at
    # every node after node 0, so every design of sweep 1 is rank-deficient
    cfg["forward"] = {"preset": "linear_drift", "x0": [0.0], "rate": 0.0, "vol": 0.0}
    cfg["solver"]["basis"] = {"ridge": 0.0}


def _singular_flow(cfg):
    # drift rate -1/dt: the first Euler step multiplies the flow by 1 + rate dt = 0
    steps = cfg["solver"]["steps"]
    cfg["forward"] = {"preset": "linear_drift", "x0": [0.0],
                      "rate": -steps / cfg["horizon"], "vol": 0.0}


# Every command fails on the two input errors that surface only when the
# problem is built, and every command with a regression or forward bundle on
# a numerical failure; study-apriori also on a singular flow under its
# default basis.  check-constants runs neither.
_FAILURES = [
    *((command, _unknown_forward_preset, 2, "unknown forward preset 'ornstein_uhlenbeck'")
      for command in _COMMANDS),
    *((command, _long_x0, 2, "forward.x0 must have length dim_x=1") for command in _COMMANDS),
    *((command, _zero_ridge, 1, "regression failed at node")
      for command in _COMMANDS if command != "check-constants"),
    ("study-apriori", _singular_flow, 1, "singular variational flow at path 0, node 1"),
]


@pytest.mark.parametrize("command, break_config, code, message", _FAILURES,
                         ids=[f"{c}-{f.__name__.strip('_')}" for c, f, *_ in _FAILURES])
def test_failed_run_writes_nothing(tmp_path, capsys, command, break_config, code, message):
    cfg = base_config()
    break_config(cfg)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("entry, message", [
    ({"atom": [-2.0, 1]}, "atom location -2.0 outside [-0.5, 0)"),
    ({"atom": [-0.25, -1.0]}, "atom weights must be nonnegative"),
    ({"density": [-0.1, -0.3, 1.0]}, "density interval [-0.1, -0.3) outside [-0.5, 0)"),
    ({"density": [-0.3, -0.1, -1.0]}, "density levels must be nonnegative"),
])
@pytest.mark.parametrize("command", ["check-constants", "solve", "compare-z"])
def test_bad_delay_measure_exits_2_before_writing(tmp_path, capsys, command, entry, message):
    # the schema admits these entries; the measure rejects them as input errors
    cfg = json.loads((CONFIGS / "brownian_baseline.json").read_text())
    cfg["delays"] = {"alpha_y": [entry]}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: delays/alpha_y: {message}\n"
    assert not out.exists()


def test_compare_z_solves_once_through_the_module_attribute(tmp_path, monkeypatch):
    # the benchmark captures the base solution by replacing cli.picard_solve
    solutions = []

    def recorder(*args, **kwargs):
        solutions.append(picard_solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(cli, "picard_solve", recorder)
    out = tmp_path / "out"
    assert main(["compare-z", "--config", write_config(tmp_path, base_config()),
                 "--out", str(out)]) == 0
    assert len(solutions) == 1
    assert solutions[0].y.shape == (600, 9, 1)
    assert len((out / "compare_z.csv").read_text().splitlines()) == 10


class TestMeshValidation:
    @pytest.mark.parametrize("study, flag, message", [
        ({}, "0,4,8", "--meshes 0,4,8: 0 is less than the minimum of 2"),
        ({}, "1,4,8", "--meshes 1,4,8: 1 is less than the minimum of 2"),
        ({}, "3,4,8", "--meshes 3,4,8: mesh 3 does not divide reference_steps 16"),
        ({}, "4,8", "--meshes 4,8: need at least three meshes"),
        ({"meshes": [2, 4, 8]}, "4,8", "--meshes 4,8: need at least three meshes"),
        ({"meshes": [3, 4, 8]}, None, "study/meshes: mesh 3 does not divide reference_steps 16"),
        ({"meshes": [4, 8]}, None, "study/meshes: need at least three meshes"),
        ({}, None, "study/meshes: mesh 10 does not divide reference_steps 16"),
        ({"meshes": [1, 4, 8]}, None, "config invalid at study/meshes/0: 1 is less than"),
    ])
    def test_bad_meshes_exit_2_before_writing(self, tmp_path, capsys, study, flag, message):
        out = tmp_path / "out"
        argv = ["study-l2reg", "--config", write_config(tmp_path, l2reg_config(**study)),
                "--out", str(out)]
        assert main(argv + (["--meshes", flag] if flag else [])) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [None, "10,20,40,80"])
    def test_benchmark_meshes_on_a_320_step_mesh_pass(self, flag):
        cfg = l2reg_config(meshes=[10, 20, 40, 80], reference_steps=320)
        args = build_parser().parse_args(
            ["study-l2reg", "--config", "unused.json"] + (["--meshes", flag] if flag else []))
        assert _meshes(cfg, args) == ([10, 20, 40, 80], 320)


def scan_config(**overrides):
    """p = 4, both delays an atom at -0.25, tiny Lipschitz constant: every sign region occurs."""
    cfg = base_config(p=4)
    cfg["generator"] = {"preset": "linear_zdel", "coeff": 1e-4, "lipschitz": 1e-7}
    cfg["delays"] = {"alpha_y": [{"atom": [-0.25, 1.0]}], "alpha_z": [{"atom": [-0.25, 1.0]}]}
    cfg.update(overrides)
    return cfg


class TestScanGridValidation:
    @pytest.mark.parametrize("flag, value, message", [
        ("--gamma-grid", "0:1:5", "less than or equal to the minimum of 0"),
        ("--gamma-grid", "0.1:1:0", "less than the minimum of 1"),
        ("--gamma-grid", "0.1:1:-2", "less than the minimum of 1"),
        ("--beta-grid", "-0.5:1:3", "less than the minimum of 0"),
    ])
    def test_bad_grid_flag_exits_2_before_writing(self, tmp_path, capsys, flag, value, message):
        path = write_config(tmp_path, scan_config())
        out = tmp_path / "out"
        code = main(["check-constants", "--config", path, "--out", str(out), f"{flag}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{flag} {value}" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("key, spec, where", [
        ("gamma_grid", [0.0, 1.0, 5], "gamma_grid/0"),
        ("gamma_grid", [0.1, 1.0, 0], "gamma_grid/2"),
        ("beta_grid", [0.5, -1.0, 3], "beta_grid/1"),
        ("beta_grid", [0.5, 2.0, 2.5], "beta_grid/2"),
    ])
    def test_bad_config_grid_exits_2_before_writing(self, tmp_path, capsys, key, spec, where):
        path = write_config(tmp_path, scan_config(**{key: spec}))
        out = tmp_path / "out"
        assert main(["check-constants", "--config", path, "--out", str(out)]) == 2
        assert f"config invalid at {where}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_beta_is_a_valid_grid_end(self, tmp_path):
        path = write_config(tmp_path, scan_config(beta_grid=[0, 1, 3]))
        assert main(["check-constants", "--config", path, "--out", str(tmp_path / "out")]) == 0


def _grid_values(flag):
    lo, hi, n = flag.split(":")
    return np.linspace(float(lo), float(hi), int(n))


def _expected_row(params):
    """One constants.csv row rebuilt from a scalar constants_report, nan/-inf by rule."""
    nan = float("nan")
    rep = constants_report(params)
    d1, d2, d3 = rep.d1, rep.d2, rep.d3
    energy = d1 > 0 and d2 > 0 and d3 > 0
    cp = rep.cp if energy else nan
    lp_y, lp_z, lp_ok = ((rep.lp_lhs_y, rep.lp_lhs_z, rep.feasible_contraction) if energy
                         else (nan, nan, False))
    l2_y, l2_z, l2_ok = ((rep.l2_lhs_y, rep.l2_lhs_z, rep.feasible_l2) if params.beta > 0
                         else (nan, nan, False))
    feasible = l2_ok if params.p == 2 else energy and lp_ok
    values = [params.beta, params.gamma, d1, d2, d3, cp, l2_y, l2_z, lp_y, lp_z]
    return [repr(float(v)) for v in values] + ["true" if feasible else "false"]


class TestScanMatchesPublicFunctions:
    @pytest.mark.parametrize("cfg, beta_flag, gamma_flag", [
        (scan_config(), "0:3:7", "1e-7:0.02:12"),
        (scan_config(), "3:0:7", "0.02:1e-7:12"),
        (scan_config(), "2:0.5:7", "0.1:1:4"),
        (base_config(delays={"alpha_y": [{"atom": [-0.25, 1.0]}],
                             "alpha_z": [{"atom": [-0.25, 1.0]}]}), "0:2:9", "0.1:1:7"),
        (base_config(), "2:0.5:7", "1:0.1:7"),
    ])
    def test_csv_and_verdict_equal_scalar_functions(self, tmp_path, cfg, beta_flag, gamma_flag):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["check-constants", "--config", path, "--out", str(out),
                     f"--beta-grid={beta_flag}", f"--gamma-grid={gamma_flag}"]) == 0
        base = build_problem(load_config(path)).structural_params()
        betas, gammas = _grid_values(beta_flag), _grid_values(gamma_flag)
        lines = (out / "constants.csv").read_text().splitlines()
        cells = [line.split(",") for line in lines[1:]]
        expected = [_expected_row(replace(base, beta=float(b), gamma=float(g)))
                    for b in betas for g in gammas]
        assert cells == expected
        best = search_feasible(base, betas, gammas)
        verdict = "none" if best is None else f"beta={best[0]} gamma={best[1]} margin={best[2]}"
        assert (out / "verdict.txt").read_text() == f"best_feasible: {verdict}\n"

    def test_verdict_tie_break_on_a_decreasing_grid(self, tmp_path):
        # zero Lipschitz mass caps every margin at 1 once beta - gamma >= 1
        cfg = base_config(generator={"preset": "zero", "lipschitz": 0.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["check-constants", "--config", path, "--out", str(out),
                     "--beta-grid=4:3:2", "--gamma-grid=1:0.5:2"]) == 0
        assert (out / "verdict.txt").read_text() == "best_feasible: beta=3.0 gamma=0.5 margin=1.0\n"

    def test_p4_grid_crosses_every_sign_region(self, tmp_path):
        # guards the first case above: it must reach d1 <= 0, d2 <= 0 and d3 <= 0
        path = write_config(tmp_path, scan_config())
        out = tmp_path / "out"
        assert main(["check-constants", "--config", path, "--out", str(out),
                     "--beta-grid=0:3:7", "--gamma-grid=1e-7:0.02:12"]) == 0
        lines = (out / "constants.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        signs = {tuple(float(r[k]) > 0 for k in ("d1", "d2", "d3")) for r in rows}
        assert {(False, True, True), (True, False, False), (True, True, False)} <= signs
        assert any(r["feasible"] == "true" for r in rows)
        assert any(math.isinf(float(r["d3"])) for r in rows)
