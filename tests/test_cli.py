import json

import pytest

from delaybsde.cli import main
from delaybsde.config import ConfigError, build_problem, load_config, validate_config


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


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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
        cfg["study"] = {"separations": [0.5 / 7, 0.5 / 5, 0.5 / 3]}
        cfg["generator"] = {"preset": "zero", "lipschitz": 0.0}
        cfg["delays"] = {}
        path = write_config(tmp_path, cfg)
        code = main(["study-yinc", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "multiple" in capsys.readouterr().err

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

    def test_compare_z_emits_per_node_distances(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["compare-z", "--config", path, "--out", str(out)]) == 0
        rows = (out / "compare_z.csv").read_text().splitlines()
        assert rows[0] == "t,abs_distance,ref_norm,rel_distance"
        assert len(rows) == 10

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

    def test_study_apriori_runs(self, tmp_path):
        cfg = base_config()
        cfg["study"] = {"epsilons": [0.2, 0.1]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["study-apriori", "--config", path, "--out", str(out)]) == 0
        rows = (out / "apriori.csv").read_text().splitlines()
        assert rows[0].startswith("epsilon,")
        assert len(rows) == 3

    def test_variational_emits_per_direction_summary(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["variational", "--config", path, "--out", str(out)]) == 0
        rows = (out / "variational.csv").read_text().splitlines()
        assert rows[0] == "t,direction,mean_dy,sd_dy,mean_dz,sd_dz"
        assert len(rows) == 10

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
        assert "fitted_slope" in (out / "verdict.txt").read_text()

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
