import json

import numpy as np
import pytest

from cssolve.cli import ConfigError, load_config, main
from cssolve.grid import RadialFunction, make_grid, save_profile_csv

from oracles import BL_LEVEL


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_config(n=8193):
    return {
        "model": {"kind": "power", "p": 2.0, "omega": 1.0},
        "grid": {"r_max": 24.0, "n": n},
    }


class TestConfigValidation:
    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = base_config()
        cfg["surprise"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2

    def test_missing_required_section(self, tmp_path):
        path = write_config(tmp_path, {"grid": {"r_max": 8.0, "n": 64}})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_wrong_q_shape_for_solve(self, tmp_path):
        cfg = base_config(n=64)
        cfg["q"] = {"start": 0.0, "end": 1e-3, "steps": 3}
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["solve", "multiplicity", "sweep"])
    def test_geometric_grading_rejected_before_solving(self, tmp_path, capsys, monkeypatch,
                                                       command):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran on a rejected config")

        for name in ("nodal_shoot", "mountain_pass", "multiplicity_run", "continuation_in_q"):
            monkeypatch.setattr(f"cssolve.cli.{name}", no_solve)
        cfg = base_config(n=64)
        cfg["grid"]["grading"] = "geometric"
        cfg["q"] = {"start": 0.0, "end": 1e-3, "steps": 3} if command == "sweep" else 0.0
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_unknown_command_usage_error(self, tmp_path):
        path = write_config(tmp_path, base_config(n=64))
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", path])
        assert exc.value.code == 2


class TestHypotheses:
    def test_power_model_passes(self, tmp_path):
        path = write_config(tmp_path, base_config(n=64))
        assert main(["hypotheses", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "hypotheses.json").read_text())
        assert report["odd_violation"] == 0.0
        assert report["m0"] == 0.5


class TestSolve:
    def test_ground_state_exit_0(self, tmp_path):
        cfg = base_config()
        cfg["q"] = 0.0
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "profile_report.json").read_text())
        assert abs(report["level"] - BL_LEVEL) < 1e-3
        assert (tmp_path / "profile.csv").exists()
        verification = json.loads((tmp_path / "profile_verification.json").read_text())
        assert verification["residual_pde_sup"] < 1e-6

    def test_deterministic_output(self, tmp_path):
        cfg = base_config()
        cfg["q"] = 0.0
        path = write_config(tmp_path, cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", path, "--out", str(out_a), "--seed", "7"]) == 0
        assert main(["solve", "--config", path, "--out", str(out_b), "--seed", "7"]) == 0
        for name in ("profile.csv", "profile_report.json", "profile_verification.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestMultiplicity:
    def test_single_branch_exit_0(self, tmp_path):
        cfg = base_config()
        cfg["q"] = 0.0
        cfg["nodes"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["multiplicity", "--config", path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "profile_k0_report.json").exists()

    def test_active_truncation_exit_1(self, tmp_path, capsys):
        cfg = base_config()
        cfg["q"] = 1e-3
        cfg["nodes"] = 2
        path = write_config(tmp_path, cfg)
        assert main(["multiplicity", "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "k=1" in err and "truncation" in err
        assert (tmp_path / "distinctness.json").exists()


class TestSweep:
    def test_branch_csv_and_summary(self, tmp_path):
        cfg = base_config(n=2049)
        cfg["q"] = {"start": 1e-4, "end": 1e-3, "steps": 3}
        cfg["nodes"] = [0]
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "branch_k0.csv").read_text().splitlines()
        assert lines[0] == "q,level,u0,l2,trunc_inactive,converged"
        assert len(lines) == 4
        summary = json.loads((tmp_path / "sweep.json").read_text())
        assert summary["0"]["q_star"] is None
        assert summary["0"]["points"] == 3

    def test_threads_flag_ignored(self, tmp_path):
        cfg = base_config(n=1025)
        cfg["q"] = {"start": 1e-4, "end": 1e-3, "steps": 3}
        cfg["nodes"] = [0, 1]
        path = write_config(tmp_path, cfg)
        outs = [tmp_path / f"threads{t}" for t in (2, 1)]
        for t, out in zip((2, 1), outs):
            assert main(["sweep", "--config", path, "--out", str(out), "--threads", str(t)]) == 0
        for name in ("sweep.json", "branch_k0.csv", "branch_k1.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestGauge:
    def test_flux_charge_relation_from_profile(self, tmp_path):
        grid = make_grid(12.0, 513)
        u = RadialFunction(grid, np.exp(-grid.nodes**2))
        csv = tmp_path / "gaussian.csv"
        save_profile_csv(csv, u)
        cfg = {
            "model": {"kind": "power", "p": 2.0, "omega": 1.0},
            "grid": {"r_max": 12.0, "n": 513},
            "profile_csv": str(csv),
            "constants": {"kappa": 2.5},
        }
        path = write_config(tmp_path, cfg)
        assert main(["gauge", "--config", path, "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "gauge.json").read_text())
        assert abs(data["flux"] + data["charge"] / 2.5) < 1e-10


class TestOutputDir:
    def test_config_output_dir_used(self, tmp_path):
        cfg = base_config(n=64)
        cfg["output_dir"] = str(tmp_path / "from_config")
        path = write_config(tmp_path, cfg)
        assert main(["hypotheses", "--config", path]) == 0
        assert (tmp_path / "from_config" / "hypotheses.json").exists()
