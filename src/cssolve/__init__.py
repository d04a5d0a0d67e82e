"""Radially symmetric solver for the planar gauged Schrödinger equation.

Core objects: radial grids and quadrature (`grid`), the nonlocal gauge
integrals (`gauge`), nonlinearity models and envelopes (`nonlinearity`),
the energy ladder (`energy`), critical-point solvers (`solver`) and
independent verification (`verify`).  `cli` exposes the command line.
"""

from .energy import EnergyBreakdown, j_q, j_tilde, j_trunc, rescale_omega
from .gauge import GaugeFields, PhysicalConstants, big_n, gauge_fields, prefix_h, suffix_a
from .grid import RadialFunction, RadialGrid, dilate, integrate_plane, make_grid
from .nonlinearity import HypothesisReport, NonlinearityModel, check_hypotheses, power_model, table_model
from .solver import (
    SolveReport,
    continuation_in_q,
    mountain_pass,
    multiplicity_run,
    newton_refine,
    nodal_shoot,
)
from .verify import residual_pde

__version__ = "0.1.0"
