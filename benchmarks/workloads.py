"""The workloads, the CLI sweep, their seeded inputs and the certificate results pass.

An operation is one solve, or one full ``cssolve sweep``.  Its time runs from
the call until the result has passed its certificate; the certificate is
checked inside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import cssolve
from cssolve import cli, solver

MODEL = {"kind": "power", "p": 2.0, "omega": 1.0}
R_MAX = 24.0
PDE_TOL = 1e-6       # the CLI's acceptance thresholds, fixed here so that
IDENTITY_TOL = 1e-5  # a change to the CLI cannot loosen the benchmark's gate
ORACLE_U0_TOL = 1e-8          # absolute, as tests/test_solver.py
ORACLE_LEVEL_REL_TOL = 5e-5   # relative, as tests/test_solver.py
N = 8193      # the coarsest grid on which the Nehari and Pohozaev identities hold
STRATA = 6    # couplings per run, one from each equal slice of the band


@dataclass
class Op:
    """One timed operation: its input, its cost and the numbers it certified."""

    q: float
    threads: int = 1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    failure: str = ""
    solutions: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failure


def numbers(rep, k: int) -> dict:
    """What a later change must reproduce (to 1e-12 relative) next to its timing."""
    return {
        "k": k, "q": rep.q, "level": rep.level, "u0": float(rep.u.values[0]),
        "residual_pde": rep.residual_pde, "residual_nehari": rep.residual_nehari,
        "residual_pohozaev": rep.residual_pohozaev, "iterations": rep.iterations,
        "node_count": rep.node_count, "converged": rep.converged,
        "truncation_inactive": rep.truncation_inactive,
    }


def point_failure(rep, k: int) -> str:
    """Convergence, strong-form residual, inactive truncation and node count."""
    if not rep.converged:
        return "solver did not converge"
    if rep.residual_pde > PDE_TOL * max(1.0, float(np.max(np.abs(rep.u.values)))):
        return f"PDE residual {rep.residual_pde:.3e} above threshold"
    if not rep.truncation_inactive:
        return "truncation active (qN(u) > 1)"
    if rep.node_count != k:
        return f"node count {rep.node_count} != {k}"
    return ""


def solve_failure(rep, k: int) -> str:
    """The CLI's acceptance rule for a solve: ``point_failure`` plus the Nehari
    and Pohozaev identities, which need the n = 8193 grid to hold."""
    why = point_failure(rep, k)
    if why:
        return why
    scale = max(abs(rep.level), 1.0)
    if abs(rep.residual_nehari) > IDENTITY_TOL * scale:
        return f"Nehari residual {rep.residual_nehari:.3e} above threshold"
    if abs(rep.residual_pohozaev) > IDENTITY_TOL * scale:
        return f"Pohozaev residual {rep.residual_pohozaev:.3e} above threshold"
    return ""


def cross_check(oracles) -> tuple[str, dict, object]:
    """q = 0 ground state at n = 8193 against the independent oracle values.

    The solve is warm-started from a Gaussian, which costs 0.4 s instead of
    the 6 s of a cold shot; cold shots are certified in the ``excited_warm``
    set-up and the traced runs.  Returns (failure, numbers, certified profile).
    """
    model, grid = cssolve.power_model(2.0, 1.0), cssolve.make_grid(R_MAX, N)
    guess = cssolve.RadialFunction(grid, 2.0 * np.exp(-grid.nodes**2 / 4.0))
    rep = cssolve.nodal_shoot(0.0, model, grid, 0, warm_start=guess)
    why = solve_failure(rep, 0)
    if not why and abs(rep.u.values[0] - oracles.BL_U0) > ORACLE_U0_TOL:
        why = f"u(0) = {rep.u.values[0]!r} differs from the oracle {oracles.BL_U0!r}"
    if not why and abs(rep.level - oracles.BL_LEVEL) > ORACLE_LEVEL_REL_TOL * oracles.BL_LEVEL:
        why = f"level {rep.level!r} differs from the oracle {oracles.BL_LEVEL!r}"
    return why, numbers(rep, 0), rep.u


class _Capture:
    """Collect the report of every ``nodal_shoot`` that ``continuation_in_q`` makes.

    The CLI writes only a branch summary; the certificate needs each point's
    residual and node count.  ``list.append`` is atomic, so the sweep's
    threads can share the list.
    """

    def __init__(self):
        self.reports: list[tuple[int, object]] = []

    def __enter__(self):
        self._orig = inner = solver.nodal_shoot

        def nodal_shoot(q, model, grid, k, *args, **kwargs):
            rep = inner(q, model, grid, k, *args, **kwargs)
            self.reports.append((k, rep))
            return rep

        solver.nodal_shoot = nodal_shoot
        return self

    def __exit__(self, *exc):
        solver.nodal_shoot = self._orig


class BranchSweep:
    """``cssolve sweep --threads 2`` in-process: a cold shot, then warm-started
    Newton, on two branches, with the CLI's config validation, CSV/JSON writes
    and thread pool on the timed path.

    One sweep takes 10 to 20 s, so a run of a minute would time three to five;
    that is too few for a steady time on a shared two-core host.  It is not an
    end-to-end workload: the ``excited_warm`` traced run uses it for the cli
    and shooting metrics.
    """

    n, q_band = 4097, (1e-5, 3e-5)
    ks = (0, 1)
    q_end, steps = 0.05, 12

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.q = random.Random(f"branch_sweep:{seed}").uniform(*self.q_band)

    def run(self, q: float, threads: int = 2) -> Op:
        op = Op(q, threads)
        cfg_path = self.workdir / "branch_sweep_run.json"
        cfg_path.write_text(json.dumps({
            "model": MODEL, "grid": {"r_max": R_MAX, "n": self.n},
            "q": {"start": q, "end": self.q_end, "steps": self.steps},
            "nodes": list(self.ks)}))
        out = self.workdir / "branch_sweep_out"
        shutil.rmtree(out, ignore_errors=True)
        stdout = io.StringIO()
        t0, c0 = perf_counter(), process_time()
        with _Capture() as cap, contextlib.redirect_stdout(stdout):
            rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                           "--threads", str(threads)])
        op.failure = self.certify(rc, stdout.getvalue(), out, cap.reports)
        op.wall_s, op.cpu_s = perf_counter() - t0, process_time() - c0
        op.solutions = [numbers(rep, k) for k, rep in cap.reports]
        return op

    def certify(self, rc: int, stdout: str, out: Path, reports) -> str:
        """Every point before q* is certified and each branch stops because
        the truncation became active, not because a solve failed.

        The Nehari and Pohozaev identities are recorded but not gated: at
        n = 4097 their O(h^2) error (about 1e-4 and 8e-4) is above the 1e-5
        threshold, which the package documents.
        """
        if rc != 0:
            return f"cssolve sweep exited {rc}"
        summary = json.loads((out / "sweep.json").read_text())
        lines = stdout.strip().splitlines()
        if not lines or json.loads(lines[-1]) != summary:
            return "printed summary differs from sweep.json"
        for k in self.ks:
            entry = summary[str(k)]
            with open(out / f"branch_k{k}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            reps = [rep for kk, rep in reports if kk == k]
            if not (len(rows) == len(reps) == entry["points"]):
                return f"branch k={k}: {len(rows)} rows, {len(reps)} solves, {entry['points']} points"
            for row, rep in zip(rows, reps):
                if (float(row["q"]), float(row["level"]), float(row["u0"])) != (
                        rep.q, rep.level, float(rep.u.values[0])):
                    return f"branch k={k}: CSV row at q={row['q']} differs from the solve"
            for rep in reps[:-1]:
                why = point_failure(rep, k)
                if why:
                    return f"branch k={k} at q={rep.q!r}: {why}"
            last = reps[-1]
            if entry["q_star"] is None or last.q != entry["q_star"]:
                return f"branch k={k} did not stop at a bracketed q*"
            if not last.converged or last.truncation_inactive or last.node_count != k:
                return f"branch k={k} stopped at q*={last.q!r} because a solve failed"
        return ""


class WarmSolve:
    """The certified k-node solution at coupling q, warm-started from the
    certified q = 0 solution with k nodes, on the n = 8193 grid.

    This is the step ``continuation_in_q`` and every sweep point take: frozen
    gauge potential, inner Newton, the full Newton-Krylov polish and the
    certificate.  It takes 0.15 to 0.35 s, short enough that a run repeats
    every input many times.  The seed draws one q from each of ``STRATA``
    equal slices of the band, so every run covers the band alike.
    """

    name: str
    k: int
    q_band: tuple[float, float]

    def __init__(self, workdir: Path, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        lo, hi = self.q_band
        width = (hi - lo) / STRATA
        self.couplings = [lo + (i + rng.random()) * width for i in range(STRATA)]
        self.config_path = workdir / f"{self.name}.json"
        self.config_path.write_text(json.dumps({
            "model": MODEL, "grid": {"r_max": R_MAX, "n": N},
            "q": self.couplings[0], "nodes": self.k}))
        self.model = self.grid = self.start = None

    def setup(self) -> None:
        """Validate the config and build the grid and model, as the CLI does."""
        cfg = cli.load_config(str(self.config_path))
        self.model, self.grid = cli.build_model(cfg), cli.build_grid(cfg)

    def prepare(self, ground) -> Op | None:
        """Set the q = 0 start profile; ``ground`` is the oracle-checked ground state.
        Returns the operation that made it, if one had to be made."""
        raise NotImplementedError

    def _timed(self, q: float, call):
        """(operation, report) of one certified solve."""
        op = Op(q)
        t0, c0 = perf_counter(), process_time()
        rep = call()
        op.failure = solve_failure(rep, self.k)
        op.wall_s, op.cpu_s = perf_counter() - t0, process_time() - c0
        op.solutions.append(numbers(rep, self.k))
        return op, rep

    def run(self, q: float) -> Op:
        return self._timed(q, lambda: cssolve.nodal_shoot(
            q, self.model, self.grid, self.k, warm_start=self.start))[0]


class GroundWarm(WarmSolve):
    """Ground state.  Its traced run adds one mountain pass at the same q, where
    the cumulative quadrature and ray energies dominate."""

    name = "ground_warm"
    k, q_band = 0, (1e-5, 1e-3)

    def prepare(self, ground) -> Op | None:
        self.start = ground
        return None

    def mountain_pass(self, q: float) -> Op:
        return self._timed(q, lambda: cssolve.mountain_pass(q, self.model, self.grid))[0]


class ExcitedWarm(WarmSolve):
    """1-node state, started from a cold 1-node shot at q = 0 made in set-up.
    Its traced run adds the CLI sweep, which shoots cold on both branches."""

    name = "excited_warm"
    k, q_band = 1, (1e-5, 2e-4)

    def prepare(self, ground) -> Op | None:
        op, rep = self._timed(0.0, lambda: cssolve.nodal_shoot(0.0, self.model, self.grid, 1))
        self.start = rep.u
        return op


WORKLOADS = {w.name: w for w in (GroundWarm, ExcitedWarm)}
