import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

import cssolve
from cssolve.cli import CONFIG_SCHEMA, ConfigError, load_config, main
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

    def test_schema_is_a_valid_schema(self):
        # load_config validates against a validator built once, without checking the schema
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)

    def test_schema_violation_names_the_value_and_its_path(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(n=3))
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid config: 3 is less than the minimum of 16 (at grid/n)" in err

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

    @pytest.mark.parametrize("command", ["solve", "multiplicity", "sweep"])
    @pytest.mark.parametrize("key", ["solver", "grading"])
    def test_removed_settings_rejected_before_solving(self, tmp_path, capsys, monkeypatch,
                                                      command, key):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran on a rejected config")

        for name in ("nodal_shoot", "mountain_pass", "multiplicity_run", "continuation_in_q"):
            monkeypatch.setattr(f"cssolve.cli.{name}", no_solve)
        cfg = base_config(n=64)
        if key == "solver":
            cfg["solver"] = {"newton_tol": 1e-9}
        else:
            cfg["grid"]["grading"] = "uniform"
        cfg["q"] = {"start": 0.0, "end": 1e-3, "steps": 3} if command == "sweep" else 0.0
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["multiplicity", "sweep"])
    def test_empty_node_list_rejected(self, tmp_path, capsys, command):
        cfg = base_config(n=64)
        cfg["nodes"] = []
        cfg["q"] = {"start": 0.0, "end": 1e-3, "steps": 3} if command == "sweep" else 0.0
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "sweep.json").exists()

    def test_infinite_radius_exits_2(self, tmp_path, capsys):
        cfg = base_config(n=64)
        cfg["grid"]["r_max"] = math.inf  # written as Infinity, which load_config rejects
        cfg["q"] = 0.0
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "numbers must be finite, got Infinity" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command, key, text", [
        ("solve", "q", "NaN"),
        ("sweep", "q", '{"start": NaN, "end": 1e-3, "steps": 3}'),
        ("solve", "omega", "1e400"),
        ("solve", "q", "1" + "0" * 400),
    ])
    def test_non_finite_number_exits_2_before_solving(self, tmp_path, capsys, monkeypatch,
                                                       command, key, text):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran on a rejected config")

        for name in ("nodal_shoot", "mountain_pass", "multiplicity_run", "continuation_in_q"):
            monkeypatch.setattr(f"cssolve.cli.{name}", no_solve)
        # the token goes into the text as written: json.dumps writes 1e400 as Infinity
        cfg = base_config(n=64)
        if key == "q":
            cfg["q"] = "TOKEN"
        else:
            cfg["model"]["omega"] = "TOKEN"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"TOKEN"', text))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be finite" in err
        assert not out.exists()

    def test_unknown_command_usage_error(self, tmp_path):
        path = write_config(tmp_path, base_config(n=64))
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", path])
        assert exc.value.code == 2


class TestImports:
    def test_import_loads_only_what_a_solve_runs(self):
        # scipy.integrate, scipy.optimize and scipy.interpolate load where they are called
        heavy = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.interpolate")
        code = f"import sys, cssolve, cssolve.cli; print([m for m in {heavy!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(Path(cssolve.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert run.stdout.strip() == "[]"

    def test_solve_ivp_bound_on_first_access(self):
        import scipy.integrate

        from cssolve import solver

        assert solver.solve_ivp is scipy.integrate.solve_ivp
        with pytest.raises(AttributeError):
            solver.no_such_name


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
        assert report["residual_pde"] < 1e-6

    def test_one_certificate(self, tmp_path):
        # on n = 1025 the Nehari residual fails the certificate; the profile and
        # its report are written, and they are the only outputs
        cfg = base_config(n=1025)
        cfg["q"] = 0.0
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["profile.csv", "profile_report.json"]
        assert "residual_pde_l2" in json.loads((out / "profile_report.json").read_text())

    def test_deterministic_output(self, tmp_path):
        cfg = base_config()
        cfg["q"] = 0.0
        path = write_config(tmp_path, cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", path, "--out", str(out_a)]) == 0
        assert main(["solve", "--config", path, "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == ["profile.csv", "profile_report.json"]
        assert sorted(p.name for p in out_b.iterdir()) == names
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_active_truncation_exit_1(self, tmp_path, capsys):
        # the ground state converges at q = 0.01 on n = 1025, but with qN(u) > 1
        cfg = base_config(n=1025)
        cfg["q"] = 0.01
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 1
        assert "truncation active" in capsys.readouterr().err
        assert json.loads((tmp_path / "profile_report.json").read_text())["converged"]


class TestMountainPassSolve:
    def test_unbuildable_start_ray_exit_1(self, tmp_path, capsys):
        cfg = {
            "model": {"kind": "custom-table", "samples": [[0, 0], [1, -1], [2, -2], [3, -3]]},
            "grid": {"r_max": 24.0, "n": 257},
            "q": 0.0,
            "method": "mountain-pass",
        }
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "solve failed" in err
        assert "Traceback" not in err


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

    def test_zero_nodes_exits_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["q"] = 1e-3
        cfg["nodes"] = 0
        path = write_config(tmp_path, cfg)
        assert main(["multiplicity", "--config", path, "--out", str(tmp_path)]) == 2
        assert "nodes" in capsys.readouterr().err
        assert not list(tmp_path.glob("profile_k*"))

    def test_node_list_exits_2(self, tmp_path, capsys):
        cfg = base_config(n=64)
        cfg["q"] = 1e-3
        cfg["nodes"] = [2]
        path = write_config(tmp_path, cfg)
        assert main(["multiplicity", "--config", path, "--out", str(tmp_path)]) == 2
        assert "scalar nodes" in capsys.readouterr().err
        assert not list(tmp_path.glob("profile_k*"))


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

    def test_scalar_q_exits_2(self, tmp_path, capsys):
        cfg = base_config(n=64)
        cfg["q"] = 1e-3
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 2
        assert "sweep needs q as {start, end, steps}" in capsys.readouterr().err
        assert not (out / "sweep.json").exists()

    @pytest.mark.parametrize("method, code", [("mountain-pass", 2), ("nodal", 0)])
    def test_method_must_be_nodal(self, tmp_path, capsys, method, code):
        # continuation_in_q traces nodal branches; a mountain pass is rejected before any solve
        cfg = base_config(n=1025)
        cfg["q"] = {"start": 1e-4, "end": 1e-3, "steps": 2}
        cfg["nodes"] = [1]
        cfg["method"] = method
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out)]) == code
        assert ("method must be nodal" in capsys.readouterr().err) == (code == 2)
        assert (out / "sweep.json").exists() == (code == 0)

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

    def test_certified_solve_writes_the_fields(self, tmp_path, capsys):
        # with no profile_csv, gauge solves as solve does and writes the fields of its solution
        cfg = base_config(n=8193)
        cfg["q"] = 1e-3
        cfg["nodes"] = 0
        path = write_config(tmp_path, cfg)
        assert main(["gauge", "--config", path, "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "gauge.json").read_text())
        # the default kappa is 1
        assert data["kappa"] == 1.0
        assert data["flux"] == pytest.approx(-data["charge"], rel=1e-12)
        assert f"charge={data['charge']!r} flux={data['flux']!r}" in capsys.readouterr().out
        lines = (tmp_path / "gauge.csv").read_text().splitlines()
        assert lines[0] == "r,h,a0,a_tan,b,e_r" and len(lines) == 8194

    @pytest.mark.parametrize("command", ["solve", "gauge"])
    def test_uncertified_solve_exits_1(self, tmp_path, capsys, command):
        # on n = 1025 the q = 0 ground state converges, but its Nehari residual
        # fails the certificate
        cfg = base_config(n=1025)
        cfg["q"] = 0.0
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 1
        assert "Nehari residual" in capsys.readouterr().err
        assert not (tmp_path / "gauge.json").exists()

    @pytest.mark.parametrize("nodes, message", [(1, "mountain-pass method computes the 0-node"),
                                                 ([0], "scalar node count")],
                             ids=["one-node", "node-list"])
    def test_mountain_pass_config_exits_2(self, tmp_path, capsys, monkeypatch, nodes, message):
        # gauge reads method and nodes as solve does
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran on a rejected config")

        for name in ("nodal_shoot", "mountain_pass"):
            monkeypatch.setattr(f"cssolve.cli.{name}", no_solve)
        cfg = base_config(n=64)
        cfg["method"] = "mountain-pass"
        cfg["nodes"] = nodes
        path = write_config(tmp_path, cfg)
        assert main(["gauge", "--config", path, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "gauge.json").exists()

    def test_mountain_pass_method_used(self, tmp_path, monkeypatch):
        calls = []

        def record(name):
            def run(*args):
                calls.append(name)
                return SimpleNamespace(converged=False)
            return run

        for name in ("nodal_shoot", "mountain_pass"):
            monkeypatch.setattr(f"cssolve.cli.{name}", record(name))
        cfg = base_config(n=64)
        cfg["method"] = "mountain-pass"
        path = write_config(tmp_path, cfg)
        assert main(["gauge", "--config", path, "--out", str(tmp_path)]) == 1
        assert calls == ["mountain_pass"]

    def test_nonuniform_profile_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "nonuniform.csv"
        nodes = 12.0 * np.linspace(0.0, 1.0, 513) ** 2
        np.savetxt(csv, np.c_[nodes, np.exp(-nodes**2)], fmt="%.17g", delimiter=",",
                   header="r,value", comments="")
        cfg = {
            "model": {"kind": "power", "p": 2.0, "omega": 1.0},
            "grid": {"r_max": 12.0, "n": 513},
            "profile_csv": str(csv),
        }
        path = write_config(tmp_path, cfg)
        assert main(["gauge", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "not a uniform grid" in err
        assert "Traceback" not in err
        assert not (tmp_path / "gauge.json").exists()

    def test_one_row_profile_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "one_row.csv"
        csv.write_text("r,value\n0.0,1.0\n")
        cfg = {
            "model": {"kind": "power", "p": 2.0, "omega": 1.0},
            "grid": {"r_max": 12.0, "n": 513},
            "profile_csv": str(csv),
        }
        path = write_config(tmp_path, cfg)
        assert main(["gauge", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "gauge.json").exists()

    @pytest.mark.parametrize("rows, found", [("0.0,1.0\n", 1), ("5.0,1.0\n", 1), ("", 0)],
                             ids=["one row at r=0", "one row at r=5", "header only"])
    def test_short_profile_names_the_file(self, tmp_path, capsys, rows, found):
        csv = tmp_path / "short.csv"
        csv.write_text("r,value\n" + rows)
        cfg = {
            "model": {"kind": "power", "p": 2.0, "omega": 1.0},
            "grid": {"r_max": 12.0, "n": 513},
            "profile_csv": str(csv),
        }
        path = write_config(tmp_path, cfg)
        assert main(["gauge", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{csv}: a profile needs at least 16 rows, found {found}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "gauge.json").exists()

    def test_missing_profile_exits_2(self, tmp_path, capsys):
        cfg = {
            "model": {"kind": "power", "p": 2.0, "omega": 1.0},
            "grid": {"r_max": 12.0, "n": 513},
            "profile_csv": str(tmp_path / "absent.csv"),
        }
        path = write_config(tmp_path, cfg)
        assert main(["gauge", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read profile" in err and "Traceback" not in err
        assert not (tmp_path / "gauge.json").exists()

    def test_profile_on_another_grid_exits_2(self, tmp_path, capsys):
        grid = make_grid(12.0, 513)
        csv = tmp_path / "gaussian.csv"
        save_profile_csv(csv, RadialFunction(grid, np.exp(-grid.nodes**2)))
        cfg = {
            "model": {"kind": "power", "p": 2.0, "omega": 1.0},
            "grid": {"r_max": 30.0, "n": 64},
            "profile_csv": str(csv),
        }
        path = write_config(tmp_path, cfg)
        assert main(["gauge", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "(R=12, n=513)" in err and "(R=30, n=64)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "gauge.json").exists()


class TestOutputDir:
    def test_config_output_dir_used(self, tmp_path):
        cfg = base_config(n=64)
        cfg["output_dir"] = str(tmp_path / "from_config")
        path = write_config(tmp_path, cfg)
        assert main(["hypotheses", "--config", path]) == 0
        assert (tmp_path / "from_config" / "hypotheses.json").exists()
