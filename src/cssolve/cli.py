"""Command-line driver.

Subcommands: solve | multiplicity | sweep | gauge | hypotheses, all taking
``--config <json> --out <dir>`` plus an optional ``--threads``, which is
accepted and ignored, since everything runs on one thread.  The config's
numbers must be finite.  A solution is written as two files, its profile
`<stem>.csv` and its certificate, the solve report `<stem>_report.json`.
A sweep traces nodal branches, so its `method` must be "nodal".
Exit codes: 0 success, 1 numerical failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import jsonschema

from .gauge import PhysicalConstants, gauge_fields, save_gauge_csv
from .grid import load_profile_csv, make_grid, save_profile_csv
from .nonlinearity import check_hypotheses, power_model, table_model
from .solver import (
    SolveReport,
    continuation_in_q,
    mountain_pass,
    multiplicity_run,
    nodal_shoot,
    save_branch_csv,
)
from .verify import certificate_failure, distinctness

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
                {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
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

# built once: jsonschema.validate would check CONFIG_SCHEMA against its meta-schema on every call
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


class ConfigError(Exception):
    pass


def _finite(token: str, kind=float):
    """kind(token) for json.load, which reads NaN, Infinity, 1e400 and 10**400 unchecked."""
    if not math.isfinite(float(token)):
        raise ConfigError(f"config numbers must be finite, got {token}")
    return kind(token)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite,
                            parse_int=lambda token: _finite(token, int))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # the error jsonschema.validate would raise
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"invalid config: {error.message} (at {'/'.join(map(str, error.path))})")
    return cfg


def build_model(cfg: dict):
    spec = cfg["model"]
    if spec["kind"] == "power":
        return power_model(spec["p"], spec["omega"])
    return table_model(spec["samples"])


def build_grid(cfg: dict):
    g = cfg["grid"]
    return make_grid(g["r_max"], g["n"])


def _scalar_q(cfg: dict) -> float:
    q = cfg.get("q", 0.0)
    if not isinstance(q, (int, float)):
        raise ConfigError("this command needs a scalar q")
    return float(q)


def _solve(cfg: dict, model, grid) -> SolveReport:
    """The config's solve at its scalar q: `method`, and a scalar `nodes` for the nodal one."""
    q = _scalar_q(cfg)
    nodes = cfg.get("nodes", 0)
    if not isinstance(nodes, int):
        raise ConfigError("this command needs a scalar node count")
    if cfg.get("method", "nodal") == "mountain-pass":
        if nodes != 0:
            raise ConfigError("mountain-pass method computes the 0-node solution")
        return mountain_pass(q, model, grid)
    return nodal_shoot(q, model, grid, nodes)


def _write_solution(out: Path, stem: str, rep: SolveReport) -> None:
    save_profile_csv(out / f"{stem}.csv", rep.u)
    (out / f"{stem}_report.json").write_text(rep.to_json() + "\n")


def cmd_solve(cfg: dict, out: Path) -> int:
    model = build_model(cfg)
    rep = _solve(cfg, model, build_grid(cfg))
    _write_solution(out, "profile", rep)
    why = certificate_failure(rep)
    if why:
        print(f"solve failed: {why}", file=sys.stderr)
        return 1
    print(f"converged: level={rep.level!r} residual_pde={rep.residual_pde!r}")
    return 0


def cmd_multiplicity(cfg: dict, out: Path) -> int:
    model, grid = build_model(cfg), build_grid(cfg)
    q = _scalar_q(cfg)
    n = cfg.get("nodes", 1)
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"multiplicity needs a scalar nodes >= 1 (branches k = 0..nodes-1), "
                          f"got {n}")
    reports, failure = multiplicity_run(q, model, grid, n)
    for k, rep in enumerate(reports):
        _write_solution(out, f"profile_k{k}", rep)
    if len(reports) >= 2:
        dist, gaps, flagged = distinctness(reports)
        (out / "distinctness.json").write_text(json.dumps(
            {"l2_distances": dist.tolist(), "level_gaps": gaps.tolist(),
             "flagged_pairs": flagged}, indent=2) + "\n")
    if failure is not None:
        print(f"multiplicity failed: {failure}", file=sys.stderr)
        return 1
    print(f"{n} distinct solutions verified")
    return 0


def cmd_sweep(cfg: dict, out: Path) -> int:
    model, grid = build_model(cfg), build_grid(cfg)
    if cfg.get("method", "nodal") != "nodal":
        raise ConfigError(f"sweep traces nodal branches; method must be nodal, got {cfg['method']}")
    qspec = cfg.get("q")
    if not isinstance(qspec, dict):
        raise ConfigError("sweep needs q as {start, end, steps}")
    nodes = cfg.get("nodes", 0)
    ks = nodes if isinstance(nodes, list) else [int(nodes)]

    summary = {}
    for k in ks:
        reports, q_star = continuation_in_q(model, grid, k, qspec["start"], qspec["end"],
                                            qspec["steps"])
        save_branch_csv(out / f"branch_k{k}.csv", reports)
        summary[str(k)] = {"q_star": q_star, "points": len(reports)}
    (out / "sweep.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


def cmd_gauge(cfg: dict, out: Path) -> int:
    model, grid = build_model(cfg), build_grid(cfg)
    consts = PhysicalConstants(**cfg.get("constants", {}))
    if "profile_csv" in cfg:
        try:
            u = load_profile_csv(cfg["profile_csv"])
        except OSError as exc:
            raise ConfigError(f"cannot read profile {cfg['profile_csv']}: {exc}") from exc
        if u.grid != grid:
            raise ConfigError(f"{cfg['profile_csv']}: the profile's grid (R={u.grid.r_max:g}, "
                              f"n={u.grid.n}) is not the config's (R={grid.r_max:g}, n={grid.n})")
    else:
        rep = _solve(cfg, model, grid)
        why = certificate_failure(rep)
        if why:
            print(f"gauge failed: {why}", file=sys.stderr)
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
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: the solvers run on one thread")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = Path(cfg.get("output_dir", args.out) if args.out == "." else args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
