"""Independent checks on candidate solutions, and the rule that accepts one.

The checks report numbers: the strong residual of the discrete system and
the Nehari and Pohozaev residuals, which `solver.SolveReport` carries for a
solve, the ledger identity and pairwise distinctness.  `certificate_failure`
is the acceptance rule, with its thresholds `PDE_TOL` and `IDENTITY_TOL`;
the CLI and `solver.multiplicity_run` apply it.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import d_theta_j_tilde, energy_pieces, j_tilde, truncation_bounds
from .gauge import gauge_potential
from .grid import RadialFunction, integrate_plane, laplacian_radial, norm_lp, per_iterate, robin_row
from .nonlinearity import NonlinearityModel

# plane-L^2 distance below which two solutions are not distinct
DISTINCT_TOL = 0.1
# certificate_failure's gates: the strong residual's relative to max(1, sup|u|),
# the Nehari and Pohozaev residuals' relative to max(1, |level|)
PDE_TOL = 1e-6
IDENTITY_TOL = 1e-5


def robin_rate(model: NonlinearityModel, v_end: float) -> float:
    """kappa = sqrt(2 m0 + V(R)), at least 1e-6: the rate of the outer row u' + kappa u = 0."""
    return math.sqrt(max(2.0 * model.m0 + v_end, 1e-12))


@per_iterate
def strong_residual(u: RadialFunction, q: float, model: NonlinearityModel) -> np.ndarray:
    """F(u), the residual of the discrete system that the solver drives to zero.

    Rows 0..n-2 are -Delta u + 2q u A_u + q u h_u^2/r^2 - g(u), Delta the
    grid's `laplacian`; the last is `robin_row` at `robin_rate` of V(R).
    """
    _, v_pot = gauge_potential(u, q)
    res = v_pot * u.values
    res -= laplacian_radial(u)
    res -= model.g(u.values)
    res[-1] = robin_row(u.values, u.grid.h, robin_rate(model, float(v_pot[-1])))
    res.setflags(write=False)
    return res


def residual_pde(u: RadialFunction, q: float, model: NonlinearityModel) -> tuple[float, float]:
    """(sup norm, plane L^2 norm) of the strong residual F(u), Robin row last."""
    res = strong_residual(u, q, model)
    sup = float(np.max(np.abs(res)))
    l2 = math.sqrt(max(integrate_plane(u.grid, res**2), 0.0))
    return sup, l2


def nehari_residual(u: RadialFunction, q: float, model: NonlinearityModel) -> float:
    """d/dt j_trunc(u + t u) at t = 0: ||grad u||^2 + 3C + (3/2)D - int g(u)u, (C, D) from
    `truncation_bounds`; `weak_gradient(0, u, q, model, u)` to roundoff, as N'(u)[u] = 6N(u)."""
    c, d = truncation_bounds(0.0, u, q)
    g_u = integrate_plane(u.grid, model.g(u.values) * u.values)
    return 2.0 * energy_pieces(u, model).dirichlet + 3.0 * c + 1.5 * d - g_u


def pohozaev_residual(u: RadialFunction, q: float, model: NonlinearityModel) -> float:
    """Dilation derivative of the truncated action at theta = 0; the
    scale-invariance identity 2qN - 2 int G(u) when truncation is inactive."""
    return d_theta_j_tilde(0.0, u, q, model)


def ledger_identity(theta: float, u: RadialFunction, q: float, model: NonlinearityModel) -> float:
    """Algebraic identity linking level, dilation derivative and Dirichlet norm:

        2 Jt(theta, u) - dJt/dtheta = ||grad u||^2 - C - D,

    with (C, D) = truncation_bounds(theta, u, q). Returns the absolute defect,
    which is pure roundoff for any input. Equivalently
    ||grad u||^2 = (2 Jt - dJt) + C + D.
    """
    c, d = truncation_bounds(theta, u, q)
    grad2 = 2.0 * energy_pieces(u, model).dirichlet
    lhs = 2.0 * j_tilde(theta, u, q, model).total - d_theta_j_tilde(theta, u, q, model)
    return abs(lhs - (grad2 - c - d))


def distinctness(reports):
    """Pairwise plane-L^2 distances and level gaps between solve reports.

    Returns (distance_matrix, level_gap_matrix, flagged_pairs) where flagged
    pairs fall below DISTINCT_TOL.
    """
    if len(reports) < 2:
        raise ValueError("need at least two reports")
    g = reports[0].u.grid
    for r in reports[1:]:
        if r.u.grid != g:
            raise ValueError("reports must share a grid")
    n = len(reports)
    dist = np.zeros((n, n))
    gaps = np.zeros((n, n))
    flagged = []
    for i in range(n):
        for j in range(i + 1, n):
            d = norm_lp(RadialFunction(g, reports[i].u.values - reports[j].u.values), 2.0)
            dist[i, j] = dist[j, i] = d
            gap = abs(reports[i].level - reports[j].level)
            gaps[i, j] = gaps[j, i] = gap
            if d < DISTINCT_TOL:
                flagged.append((i, j))
    return dist, gaps, flagged


def certificate_failure(rep) -> str:
    """Why the solve report rep is not certified; "" when it is.

    rep has the fields of `solver.SolveReport`.  The gates, in order:
    convergence, the strong residual, qN(u) <= 1, then the Nehari and
    Pohozaev residuals, which hold only where the truncation is inactive.
    """
    if not rep.converged:
        return "solver did not converge"
    if rep.residual_pde > PDE_TOL * max(1.0, float(np.max(np.abs(rep.u.values)))):
        return f"PDE residual {rep.residual_pde:.3e} above threshold"
    if not rep.truncation_inactive:
        return "truncation active (qN(u) > 1): not a solution of the untruncated problem"
    for name, res in (("Nehari", rep.residual_nehari), ("Pohozaev", rep.residual_pohozaev)):
        if abs(res) > IDENTITY_TOL * max(abs(rep.level), 1.0):
            return f"{name} residual {res:.3e} above threshold"
    return ""
