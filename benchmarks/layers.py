"""Per-layer metrics: what the traced run wraps, how spans become metrics, and
the layer microbenchmarks at n = 1025, 4097 and 8193.

``nonlinearity`` has no layer of its own: its cost is the per-element closure
``model.g``, which runs inside the other layers and is cheaper to call than to
time from outside.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import scipy.sparse.linalg as spla

import cssolve
from cssolve import cli, energy, gauge, grid, nonlinearity, solver, verify

LAYERS = ("grid", "gauge", "energy", "solver", "verify", "cli")

# Timed with a span: calls and self time are reported.
SPANS = (
    "grid.cumulative_integral", "grid.cumulative_adjoint", "grid.laplacian_radial",
    "grid.differentiate", "gauge.big_n", "gauge.big_n_gradient", "energy.j_trunc",
    "energy.riesz_gradient", "solver._shoot", "solver._inner_newton", "solver.newton_refine",
    "solver._jacobian_apply", "verify.residual_pde",
)
# Only counted; their time stays with the enclosing span.
COUNTS = ("grid.diff_matrix", "gauge.prefix_h", "gauge.suffix_a", "solver.solve_ivp")
# Spans that give the trace its structure but are not metrics themselves.
STRUCTURE = ("solver.mountain_pass", "solver.nodal_shoot", "solver.continuation_in_q")
# What a warm-started solve runs: it never shoots and takes no descent sweep.
OP_SPANS = tuple(name for name in SPANS if name not in ("solver._shoot", "energy.riesz_gradient"))
OP_COUNTS = tuple(name for name in COUNTS if name != "solver.solve_ivp")

MODULES = (cssolve, cli, energy, gauge, grid, nonlinearity, solver, verify, spla)

MICRO_SIZES = (1025, 4097, 8193)
MICRO_Q = 1e-4


def _lookup(name: str):
    layer, attr = name.split(".", 1)
    return getattr({"grid": grid, "gauge": gauge, "energy": energy, "solver": solver,
                    "verify": verify}[layer], attr)


def targets() -> list[tuple[str, str, object]]:
    """(kind, span name, function) for every traced function.

    ``solve_ivp`` is counted where ``solver`` binds it; the closures ``fate``
    and ``rhs`` it runs cannot be wrapped.  ``spsolve`` is reached through the
    ``scipy.sparse.linalg`` module by both ``solver`` and ``energy``, so its
    count is split by the enclosing span.
    """
    out = [("span", name, _lookup(name)) for name in SPANS + STRUCTURE]
    out += [("count", name, _lookup(name)) for name in COUNTS]
    out += [
        ("count", "spsolve", spla.spsolve),
        ("span", "cli.load_config", cli.load_config),
        ("span", "cli.write", cli.save_branch_csv),
        ("span", "cli.write", cli._write_solution),
    ]
    return out


def _summary(tracer):
    summary = tracer.summary()
    return lambda name: summary.get(name, {"calls": 0, "self_s": 0.0})


def metrics(tracer, solutions: list[dict], base_s: float,
            traced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the workload's traced operation, as {name: (value, unit)}."""
    rec = _summary(tracer)
    out: dict[str, tuple[float, str]] = {}
    for name in OP_SPANS:
        out[f"{name}.calls"] = (rec(name)["calls"], "count")
        out[f"{name}.self_s"] = (rec(name)["self_s"], "s")
    for name in OP_COUNTS:
        out[f"{name}.calls"] = (tracer.count(name), "count")
    out["solver.spsolve.calls"] = (tracer.count("spsolve", parent_prefix="solver."), "count")
    out["verify.max_residual_pde"] = (max((s["residual_pde"] for s in solutions), default=0.0), "1")
    out["trace.overhead_frac"] = ((traced_s - base_s) / base_s if base_s else 0.0, "frac")
    return out


def mp_metrics(tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """One traced mountain pass (``ground_warm``); all 0 for an empty tracer."""
    rec = _summary(tracer)
    sweeps = tracer.child_count("energy.riesz_gradient", "solver.mountain_pass")
    j_calls = rec("energy.j_trunc")["calls"]
    return {
        "mp.traced_wall_s": (wall_s, "s"),
        "mp.sweeps": (sweeps, "count"),
        "mp.j_trunc.calls": (j_calls, "count"),
        "mp.j_trunc.self_s": (rec("energy.j_trunc")["self_s"], "s"),
        "mp.j_trunc.per_sweep": (j_calls / sweeps if sweeps else 0.0, "ratio"),
        "mp.riesz_gradient.self_s": (rec("energy.riesz_gradient")["self_s"], "s"),
        "mp.cumulative_integral.calls": (rec("grid.cumulative_integral")["calls"], "count"),
        "mp.cumulative_integral.self_s": (rec("grid.cumulative_integral")["self_s"], "s"),
        "mp.newton_refine.self_s": (rec("solver.newton_refine")["self_s"], "s"),
    }


def sweep_metrics(tracer, threads2_s: float | None,
                  threads1_s: float | None) -> dict[str, tuple[float, str]]:
    """The cli layer and cold shooting, from a traced sweep and the untraced
    --threads 2 and --threads 1 sweeps (``excited_warm``); all 0 for an empty
    tracer."""
    rec = _summary(tracer)
    return {
        "cli.load_config.self_s": (rec("cli.load_config")["self_s"], "s"),
        "cli.write.self_s": (rec("cli.write")["self_s"], "s"),
        "cli.sweep.threads1_s": (threads1_s or 0.0, "s"),
        "cli.sweep.thread_ratio": (threads2_s / threads1_s if threads1_s else 0.0, "ratio"),
        "sweep._shoot.calls": (rec("solver._shoot")["calls"], "count"),
        "sweep._shoot.self_s": (rec("solver._shoot")["self_s"], "s"),
        "sweep.solve_ivp.calls": (tracer.count("solver.solve_ivp"), "count"),
        "sweep.newton_refine.calls": (rec("solver.newton_refine")["calls"], "count"),
        "sweep.newton_refine.self_s": (rec("solver.newton_refine")["self_s"], "s"),
    }


def shares(tracer) -> dict[str, float]:
    """Each layer's share of the thread time spent inside traced cssolve functions.

    The benchmark's own root spans are left out, so the main thread waiting on
    the sweep's thread pool is not counted.  Under two threads a span's self
    time includes waiting for the interpreter lock.
    """
    busy = dict.fromkeys(LAYERS, 0.0)
    for name, rec in tracer.summary().items():
        layer = name.split(".", 1)[0]
        if layer in busy:
            busy[layer] += rec["self_s"]
    total = sum(busy.values()) or 1.0
    return {layer: secs / total for layer, secs in busy.items()}


def _per_call(fn, block_s: float = 0.02, repeats: int = 5) -> float:
    """Median seconds per call over ``repeats`` blocks of at least ``block_s``."""
    fn()
    t0 = perf_counter()
    fn()
    number = max(1, int(block_s / max(perf_counter() - t0, 1e-9)))
    per = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        per.append((perf_counter() - t0) / number)
    return statistics.median(per)


def micro(profile, model) -> tuple[dict[str, tuple[float, str]], list[dict]]:
    """Microseconds per call of each layer function on the certified q = 0 ground state.

    The profile is certified on n = 8193; the coarser grids are nested, so it
    is restricted to them by striding.  Bytes moved are *computed*, not
    measured: float64 arrays the call must read once and write once, times n.
    """
    out: dict[str, tuple[float, str]] = {}
    detail: list[dict] = []
    q = MICRO_Q
    for n in MICRO_SIZES:
        stride = (profile.grid.n - 1) // (n - 1)
        g = grid.make_grid(profile.grid.r_max, n)
        u = grid.RadialFunction(g, profile.values[::stride])
        z = u.values
        f = g.nodes * z**2
        cases = (  # (metric stem, call, arrays read + written)
            ("grid.cumulative_integral", lambda: grid.cumulative_integral(g, f), 2),
            ("grid.cumulative_adjoint", lambda: grid.cumulative_adjoint(g, z), 2),
            ("gauge.big_n", lambda: gauge.big_n(u), 3),
            ("gauge.big_n_gradient", lambda: gauge.big_n_gradient(u), 4),
            ("grid.laplacian_radial", lambda: grid.laplacian_radial(u), 3),
            ("verify.residual_pde", lambda: verify.residual_pde(u, q, model), 3),
            ("energy.riesz_gradient", lambda: energy.riesz_gradient(0.0, u, q, model), 4),
            ("solver._jacobian_apply", lambda: solver._jacobian_apply(u, q, model, z), 4),
        )
        for stem, call, arrays in cases:
            secs = _per_call(call)
            out[f"{stem}.us_per_call.n{n}"] = (secs * 1e6, "us")
            nbytes = arrays * n * 8
            detail.append({"function": stem, "n": n, "us_per_call": secs * 1e6,
                           "bytes_moved_computed": nbytes,
                           "gb_per_s_computed": nbytes / secs / 1e9})
    return out, detail
