import sys
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from cssolve.grid import RadialFunction, make_grid

sys.path.insert(0, str(Path(__file__).resolve().parent))

# the settings of every property over `profiles`
PROPERTY = settings(max_examples=40, deadline=None, database=None)


def ring_sum(grid, rings) -> np.ndarray:
    """The sum of a exp(-((r - c)/s)^2) over the rings (a, c, s), sampled on grid."""
    return sum(a * np.exp(-(((grid.nodes - c) / s) ** 2)) for a, c, s in rings)


@st.composite
def profiles(draw, rough=True, vanish=False):
    """A RadialFunction on make_grid(R, n), R in [2, 40] and n in [16, 3000].

    Three Gaussian rings of random sign, amplitude in [0.2, 3], centre in
    [0, R] and width in [0.5, 2], but at least 4h, so that the grid
    resolves them.  rough adds white noise or a (-1)^i sawtooth of
    amplitude up to 0.1; vanish multiplies by 1 - (r/R)^2, so that u(R) = 0.
    """
    grid = make_grid(draw(st.floats(2.0, 40.0)), draw(st.integers(16, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rings = [(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0), rng.uniform(0.0, grid.r_max),
              max(rng.uniform(0.5, 2.0), 4.0 * grid.h)) for _ in range(3)]
    u = ring_sum(grid, rings)
    tail = draw(st.sampled_from(("smooth", "noise", "sawtooth") if rough else ("smooth",)))
    if tail == "noise":
        u = u + rng.uniform(0.0, 0.1) * rng.standard_normal(grid.n)
    elif tail == "sawtooth":
        u = u + rng.uniform(0.0, 0.1) * (-1.0) ** np.arange(grid.n)
    if vanish:
        u = u * (1.0 - (grid.nodes / grid.r_max) ** 2)
    return RadialFunction(grid, u)
