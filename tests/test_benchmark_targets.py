"""The benchmark's trace targets stay bound in cssolve.

`benchmarks/layers.py` names the functions its tracer wraps, and
`Tracer.install` raises `LookupError` for a name bound in no module.  This
checks the same binding at unit-test speed, so renaming or deleting a traced
function fails here and not only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def _load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("cssolve_bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_bound(monkeypatch):
    layers = _load_layers(monkeypatch)
    targets = layers.targets()
    assert targets
    unbound = [name for _kind, name, fn in targets
               if not any(value is fn for mod in layers.MODULES for value in vars(mod).values())]
    assert unbound == []
