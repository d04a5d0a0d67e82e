"""One cold set-up, timed inside a fresh interpreter.

    python3 benchmarks/setup_probe.py <repo root> <config.json>

Imports cssolve and scipy, validates the config and builds the grid and
model, as every CLI call does, then prints {"setup_s": seconds}.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(ROOT / "src"))

import scipy.integrate  # noqa: E402,F401
import scipy.sparse.linalg  # noqa: E402,F401

from cssolve import cli  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"cssolve imported from {cli.__file__}, not from {ROOT / 'src'}")
cfg = cli.load_config(sys.argv[2])
cli.build_model(cfg)
cli.build_grid(cfg)
print(json.dumps({"setup_s": time.perf_counter() - T0}))
