"""cssolve benchmark: time to a certified solution, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload ground_warm --seed 1 --seconds 50 --trace 0

Workloads: ground_warm, excited_warm (see workloads.py and README.md).  The
seed draws the run's couplings q; the same seed gives the same inputs.

--trace 0  solves the run's couplings in turn, again and again, for about
           --seconds seconds, certifies each result and reports the
           end-to-end metrics (the fastest repeat at each q, averaged over
           the couplings; set-up is a median).
--trace 1  times one operation untraced and traced from outside (tracing.py),
           adds a traced mountain pass (ground_warm) or the CLI sweep with
           --threads 2, --threads 1 and traced (excited_warm), runs the layer
           microbenchmarks and reports the per-layer metrics.

Set-up runs a q = 0 ground-state cross-check against the independent oracle
values in tests/oracles.py.  A metric table goes to standard output; the last
line is one JSON object {"correct", "attempted", "failed", "metrics"}.  The
certified numbers of every operation, the environment and (traced) the spans
are written under benchmarks/results/.
"""

from __future__ import annotations

import os

# One OpenBLAS thread per Python thread: with --threads 2 the two together stay
# within the two cores this benchmark is sized for, and idle BLAS threads do
# not spin into cpu_s.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("ground_warm", "excited_warm")
SETUP_PROBES = 5
TRACE_REPEATS = 3

# glibc sysconf numbers (_SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE,
# _SC_LEVEL3_CACHE_SIZE); Python does not name them.
_GLIBC_CACHE_SYSCONF = {"l1d": 188, "l2": 191, "l3": 194}


def _openblas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS (numpy's and scipy's) will use."""
    import numpy
    import scipy

    out = {}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            out[pkg.__name__] = fn()
    return out


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    if platform.libc_ver()[0] == "glibc":
        for level, num in _GLIBC_CACHE_SYSCONF.items():
            try:
                caches[level] = os.sysconf(num)
            except (OSError, ValueError):
                caches[level] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
    }


def setup_seconds(config_path: Path) -> list[float]:
    """Cold set-up time of SETUP_PROBES fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(config_path)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _guarded(run, q, **kwargs):
    """Run one operation; an exception is a failed operation, not a crash."""
    from workloads import Op

    try:
        return run(q, **kwargs)
    except Exception:  # the benchmark reports the failure and goes on
        traceback.print_exc()
        return Op(q, failure="raised " + traceback.format_exc().strip().splitlines()[-1])


def _log(op, label="op") -> None:
    status = "certified" if op.ok else f"FAILED: {op.failure}"
    print(f"{label}: q={op.q:.6g} threads={op.threads} wall={op.wall_s:.3f}s "
          f"cpu={op.cpu_s:.3f}s {status}", file=sys.stderr)


def measure(wl, seconds: float) -> list:
    """Solve the run's couplings in turn, again and again; stop when the next
    solve would likely end past ``seconds``, after at least one round.

    The solvers are deterministic, so every repeat at a q must certify
    exactly the numbers of the first solve at that q.
    """
    ops, first = [], {}
    start = perf_counter()
    for i in itertools.count():
        q = wl.couplings[i % len(wl.couplings)]
        op = _guarded(wl.run, q)
        if op.ok and first.setdefault(q, op.solutions) != op.solutions:
            op.failure = "certified numbers differ from the first solve at this q"
        if not op.ok:
            _log(op)
        ops.append(op)
        typical = statistics.median(op.wall_s for op in ops)
        if i + 1 >= len(wl.couplings) and perf_counter() - start + typical > seconds:
            return ops


def best_per_q(ops, attr: str) -> list[float]:
    """The fastest repeat at each q, in the order of the run's couplings."""
    best: dict[float, float] = {}
    for op in ops:
        best[op.q] = min(best.get(op.q, float("inf")), getattr(op, attr))
    return list(best.values())


def run_traced(run, q, setup=None):
    """One operation with every layer function wrapped; returns (op, tracer)."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(layers.MODULES, layers.targets())
    try:
        if setup is not None:
            with tracer.span("bench.setup"):
                setup()
        with tracer.span("bench.op"):
            op = _guarded(run, q)
    finally:
        tracer.uninstall()
    return op, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    oracle_file = ROOT / "tests" / "oracles.py"
    if not (src / "cssolve" / "__init__.py").is_file() or not oracle_file.is_file():
        print(f"benchmark: {ROOT} is not a cssolve checkout (needs src/cssolve and tests/oracles.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    RESULTS.mkdir(exist_ok=True)

    import cssolve

    if not Path(cssolve.__file__).resolve().is_relative_to(src):
        print(f"benchmark: cssolve imported from {cssolve.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    import layers
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](RESULTS, args.seed)
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment(),
                    "env_threads": {v: os.environ[v] for v in
                                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}

    if not args.trace:
        record["setup_probes_s"] = setup_seconds(wl.config_path)
    wl.setup()
    cc_failure, cc_numbers, profile = workloads.cross_check(oracles)
    record["cross_check"] = {"failure": cc_failure, **cc_numbers}
    print(f"cross-check q=0 against oracle: {'ok' if not cc_failure else 'FAILED: ' + cc_failure}",
          file=sys.stderr)
    start_op = _guarded(lambda _q: wl.prepare(profile), 0.0)
    set_up_ops = [start_op] if start_op is not None else []
    for op in set_up_ops:
        _log(op, "start profile")
    record["start"] = [asdict(op) for op in set_up_ops]

    if not args.trace:
        ops = measure(wl, args.seconds)
        best_wall, best_cpu = best_per_q(ops, "wall_s"), best_per_q(ops, "cpu_s")
        record["best_wall_s"], record["best_cpu_s"] = best_wall, best_cpu
        # The fastest repeat at each q, as timeit reports, averaged over the
        # run's couplings: on a shared host the core runs at full speed only
        # part of the time, and that share moves from minute to minute.
        metrics = {
            "time_to_certified_s": (statistics.fmean(best_wall), "s"),
            "cpu_s": (statistics.fmean(best_cpu), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "setup_s": (statistics.median(record["setup_probes_s"]), "s"),
        }
    else:
        # Best of three each way, as in the untraced runs.
        q0 = wl.couplings[0]
        bases = [_guarded(wl.run, q0) for _ in range(TRACE_REPEATS)]
        runs = [run_traced(wl.run, q0, setup=wl.setup) for _ in range(TRACE_REPEATS)]
        base = min(bases, key=lambda op: op.wall_s)
        traced, tracer = min(runs, key=lambda run: run[0].wall_s)
        _log(base, "untraced, best")
        _log(traced, "traced, best")
        ops = bases + [op for op, _ in runs]
        metrics = layers.metrics(tracer, traced.solutions, base.wall_s, traced.wall_s)
        record["spans"] = tracer.summary()
        record["layer_share"] = layers.shares(tracer)
        tracer.dump(RESULTS / f"{args.workload}_seed{args.seed}_spans.jsonl")
        # Each workload's traced run adds the long operations of its family:
        # a mountain pass for the ground state, the CLI sweep (cold shots on
        # two branches, then warm steps) for the excited one.
        mp_tracer, mp_wall = Tracer(), 0.0
        sweep_tracer, threads2, threads1 = Tracer(), None, None
        if isinstance(wl, workloads.GroundWarm):
            mp, mp_tracer = run_traced(wl.mountain_pass, q0)
            _log(mp, "mountain pass traced")
            ops.append(mp)
            mp_wall = mp.wall_s
            record["mp_layer_share"] = layers.shares(mp_tracer)
            mp_tracer.dump(RESULTS / f"{args.workload}_seed{args.seed}_mp_spans.jsonl")
        else:
            sweep = workloads.BranchSweep(RESULTS, args.seed)
            two = _guarded(sweep.run, sweep.q)
            one = _guarded(sweep.run, sweep.q, threads=1)
            sweep_traced, sweep_tracer = run_traced(sweep.run, sweep.q)
            for op, label in ((two, "sweep untraced"), (one, "sweep untraced"),
                              (sweep_traced, "sweep traced")):
                _log(op, label)
            ops += [two, one, sweep_traced]
            threads2, threads1 = two.wall_s, one.wall_s
            record["sweep_layer_share"] = layers.shares(sweep_tracer)
            sweep_tracer.dump(RESULTS / f"{args.workload}_seed{args.seed}_sweep_spans.jsonl")
        metrics.update(layers.mp_metrics(mp_tracer, mp_wall))
        metrics.update(layers.sweep_metrics(sweep_tracer, threads2, threads1))
        micro_metrics, record["micro"] = layers.micro(profile, wl.model)
        metrics.update(micro_metrics)

    attempted = len(set_up_ops) + len(ops)
    failed = sum(not op.ok for op in set_up_ops + ops)
    correct = failed == 0 and not cc_failure
    payload = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(ops=[asdict(op) for op in ops], correct=correct, metrics=payload)
    (RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"{'median wall of all solves (not a metric)':<46} "
              f"{statistics.median(op.wall_s for op in ops):>16.6g} s")
    print(f"{'failed_frac (not a bounded metric)':<46} {failed / attempted:>16.6g} "
          f"of {attempted} operations; q=0 cross-check {'ok' if not cc_failure else 'FAILED'}")
    for key, label in (("layer_share", "share of traced time: "),
                       ("mp_layer_share", "share of traced mountain pass time: "),
                       ("sweep_layer_share", "share of traced sweep time: ")):
        for layer, share in record.get(key, {}).items():
            print(f"{label + layer:<46} {share:>16.3f}")
    for row in record.get("micro", []):
        print(f"{row['function'] + ' n=' + str(row['n']):<46} {row['bytes_moved_computed']:>16d} "
              f"bytes moved (computed), {row['gb_per_s_computed']:.3g} GB/s (computed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
