"""Command-line driver.

Subcommands: solve | multiplicity | sweep | gauge | hypotheses, all taking
``--config <json> --out <dir>`` plus optional ``--seed`` and ``--threads``.
The solvers are deterministic, so ``--seed`` is accepted and ignored; so is
``--threads``, since everything runs on one thread.
Exit codes: 0 success, 1 numerical failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from .gauge import PhysicalConstants, gauge_fields, save_gauge_csv
from .grid import load_profile_csv, make_grid, save_profile_csv
from .nonlinearity import check_hypotheses, power_model, table_model
from .solver import (
    MinimaxConfig,
    SolveReport,
    continuation_in_q,
    mountain_pass,
    multiplicity_run,
    nodal_shoot,
    save_branch_csv,
)
from .verify import distinctness, verification_report

PDE_TOL = 1e-6
IDENTITY_TOL = 1e-5

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "grid"],
    "properties": {
        "model": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind", "p", "omega"],
                    "properties": {
                        "kind": {"const": "power"},
                        "p": {"type": "number"},
                        "omega": {"type": "number"},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind", "samples"],
                    "properties": {
                        "kind": {"const": "custom-table"},
                        "samples": {
                            "type": "array",
                            "minItems": 4,
                            "items": {
                                "type": "array",
                                "minItems": 2,
                                "maxItems": 2,
                                "items": {"type": "number"},
                            },
                        },
                    },
                },
            ]
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["r_max", "n"],
            "properties": {
                "r_max": {"type": "number", "exclusiveMinimum": 0},
                "n": {"type": "integer", "minimum": 16},
                # the solvers need equispaced nodes; make_grid still builds
                # geometric grids for library use
                "grading": {"enum": ["uniform"]},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path_points": {"type": "integer", "minimum": 8},
                "descent_step": {"type": "number", "exclusiveMinimum": 0},
                "max_outer_iters": {"type": "integer", "minimum": 1},
                "max_inner_iters": {"type": "integer", "minimum": 1},
                "grad_tol": {"type": "number", "exclusiveMinimum": 0},
                "newton_tol": {"type": "number", "exclusiveMinimum": 0},
                "distinct_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "q": {
            "oneOf": [
                {"type": "number", "minimum": 0},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["start", "end", "steps"],
                    "properties": {
                        "start": {"type": "number", "minimum": 0},
                        "end": {"type": "number", "exclusiveMinimum": 0},
                        "steps": {"type": "integer", "minimum": 2},
                    },
                },
            ]
        },
        "nodes": {
            "oneOf": [
                {"type": "integer", "minimum": 0},
                {"type": "array", "items": {"type": "integer", "minimum": 0}},
            ]
        },
        "method": {"enum": ["nodal", "mountain-pass"]},
        "profile_csv": {"type": "string"},
        "constants": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "e_coupling": {"type": "number", "exclusiveMinimum": 0},
                "kappa": {"type": "number", "exclusiveMinimum": 0},
                "mass": {"type": "number", "exclusiveMinimum": 0},
                "c_light": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "output_dir": {"type": "string"},
    },
}


class ConfigError(Exception):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid config: {exc.message} (at {'/'.join(map(str, exc.path))})") from exc
    return cfg


def build_model(cfg: dict):
    spec = cfg["model"]
    if spec["kind"] == "power":
        return power_model(spec["p"], spec["omega"])
    return table_model(spec["samples"])


def build_grid(cfg: dict):
    g = cfg["grid"]
    return make_grid(g["r_max"], g["n"])


def build_solver_config(cfg: dict) -> MinimaxConfig:
    return MinimaxConfig(**cfg.get("solver", {}))


def _scalar_q(cfg: dict) -> float:
    q = cfg.get("q", 0.0)
    if not isinstance(q, (int, float)):
        raise ConfigError("this command needs a scalar q")
    return float(q)


def _report_ok(rep: SolveReport) -> tuple[bool, str]:
    if not rep.converged:
        return False, "solver did not converge"
    scale = max(abs(rep.level), 1.0)
    if rep.residual_pde > PDE_TOL * max(1.0, float(np.max(np.abs(rep.u.values)))):
        return False, f"PDE residual {rep.residual_pde:.3e} above threshold"
    if rep.truncation_inactive:
        if abs(rep.residual_nehari) > IDENTITY_TOL * scale:
            return False, f"Nehari residual {rep.residual_nehari:.3e} above threshold"
        if abs(rep.residual_pohozaev) > IDENTITY_TOL * scale:
            return False, f"Pohozaev residual {rep.residual_pohozaev:.3e} above threshold"
    else:
        return False, "truncation active (qN(u) > 1): not a solution of the untruncated problem"
    return True, ""


def _write_solution(out: Path, stem: str, rep: SolveReport, model, q: float) -> None:
    save_profile_csv(out / f"{stem}.csv", rep.u)
    (out / f"{stem}_report.json").write_text(rep.to_json() + "\n")
    (out / f"{stem}_verification.json").write_text(
        verification_report(rep.u, q, model).to_json() + "\n")


def cmd_solve(cfg: dict, out: Path) -> int:
    model, grid = build_model(cfg), build_grid(cfg)
    scfg = build_solver_config(cfg)
    q = _scalar_q(cfg)
    nodes = cfg.get("nodes", 0)
    if not isinstance(nodes, int):
        raise ConfigError("solve needs a scalar node count")
    if cfg.get("method", "nodal") == "mountain-pass":
        if nodes != 0:
            raise ConfigError("mountain-pass method computes the 0-node solution")
        rep = mountain_pass(q, model, grid, scfg)
    else:
        rep = nodal_shoot(q, model, grid, nodes, scfg)
    _write_solution(out, "profile", rep, model, q)
    ok, why = _report_ok(rep)
    if not ok:
        print(f"solve failed: {why}", file=sys.stderr)
        return 1
    print(f"converged: level={rep.level!r} residual_pde={rep.residual_pde!r}")
    return 0


def cmd_multiplicity(cfg: dict, out: Path) -> int:
    model, grid = build_model(cfg), build_grid(cfg)
    scfg = build_solver_config(cfg)
    q = _scalar_q(cfg)
    nodes = cfg.get("nodes", 1)
    n = (max(nodes) + 1) if isinstance(nodes, list) else int(nodes)
    reports, failure = multiplicity_run(q, model, grid, n, scfg)
    for k, rep in enumerate(reports):
        _write_solution(out, f"profile_k{k}", rep, model, q)
    if len(reports) >= 2:
        dist, gaps, flagged = distinctness(reports, scfg.distinct_tol)
        (out / "distinctness.json").write_text(json.dumps(
            {"l2_distances": dist.tolist(), "level_gaps": gaps.tolist(),
             "flagged_pairs": flagged}, indent=2) + "\n")
    if failure is not None:
        print(f"multiplicity failed: {failure}", file=sys.stderr)
        return 1
    bad = [why for rep in reports for ok, why in [_report_ok(rep)] if not ok]
    if bad:
        print(f"multiplicity failed: {bad[0]}", file=sys.stderr)
        return 1
    print(f"{n} distinct solutions verified")
    return 0


def cmd_sweep(cfg: dict, out: Path) -> int:
    model, grid = build_model(cfg), build_grid(cfg)
    scfg = build_solver_config(cfg)
    qspec = cfg.get("q")
    if not isinstance(qspec, dict):
        raise ConfigError("sweep needs q as {start, end, steps}")
    nodes = cfg.get("nodes", 0)
    ks = nodes if isinstance(nodes, list) else [int(nodes)]

    summary = {}
    for k in ks:
        branch, q_star = continuation_in_q(model, grid, k, qspec["start"], qspec["end"],
                                           qspec["steps"], scfg)
        save_branch_csv(out / f"branch_k{k}.csv", branch)
        summary[str(k)] = {"q_star": q_star, "points": len(branch)}
    (out / "sweep.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


def cmd_gauge(cfg: dict, out: Path) -> int:
    model, grid = build_model(cfg), build_grid(cfg)
    consts = PhysicalConstants(**cfg.get("constants", {}))
    if "profile_csv" in cfg:
        u = load_profile_csv(cfg["profile_csv"])
    else:
        rep = nodal_shoot(_scalar_q(cfg), model, grid,
                          int(cfg.get("nodes", 0)), build_solver_config(cfg))
        if not rep.converged:
            print("gauge: underlying solve did not converge", file=sys.stderr)
            return 1
        u = rep.u
    fields = gauge_fields(u, consts)
    save_gauge_csv(out / "gauge.csv", out / "gauge.json", fields, consts.kappa)
    print(f"charge={fields.charge!r} flux={fields.flux!r}")
    return 0


def cmd_hypotheses(cfg: dict, out: Path) -> int:
    model = build_model(cfg)
    report = check_hypotheses(model)
    (out / "hypotheses.json").write_text(report.to_json() + "\n")
    print(report.to_json())
    return 0 if report.all_ok else 1


COMMANDS = {
    "solve": cmd_solve,
    "multiplicity": cmd_multiplicity,
    "sweep": cmd_sweep,
    "gauge": cmd_gauge,
    "hypotheses": cmd_hypotheses,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cssolve",
        description="Radial solutions of the planar gauged Schrödinger equation.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted and ignored: the solvers are deterministic")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: the solvers run on one thread")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = Path(cfg.get("output_dir", args.out) if args.out == "." else args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
