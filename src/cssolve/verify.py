"""Independent checks on candidate solutions.

Everything here only reports numbers; pass/fail policy lives with callers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .energy import d_theta_j_tilde, j_tilde, phi, phi_prime, weak_gradient
from .gauge import big_n, prefix_h, suffix_from_prefix
from .grid import RadialFunction, differentiate, integrate_plane, laplacian_radial, norm_lp
from .nonlinearity import NonlinearityModel


@dataclass(frozen=True)
class VerificationReport:
    residual_pde_sup: float
    residual_pde_l2: float
    nehari: float
    pohozaev: float
    q_n_check: bool
    bhs_inequality_ok: bool
    ledger_identity_err: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "residual_pde_sup": self.residual_pde_sup,
                "residual_pde_l2": self.residual_pde_l2,
                "nehari": self.nehari,
                "pohozaev": self.pohozaev,
                "q_n_check": self.q_n_check,
                "bhs_inequality_ok": self.bhs_inequality_ok,
                "ledger_identity_err": self.ledger_identity_err,
            },
            indent=2,
        )


def residual_pde(u: RadialFunction, q: float, model: NonlinearityModel) -> tuple[float, float]:
    """Strong-form residual of -Delta u + 2q u A_u + q u h_u^2/r^2 - g(u).

    Returns (sup norm, plane L^2 norm).
    """
    g = u.grid
    lap = laplacian_radial(u)
    h = prefix_h(u).values
    a = suffix_from_prefix(u, h)
    h2_over_r2 = np.zeros(g.n)
    h2_over_r2[1:] = (h[1:] / g.nodes[1:]) ** 2
    res = -lap + q * (2.0 * a + h2_over_r2) * u.values - model.g(u.values)
    sup = float(np.max(np.abs(res)))
    l2 = math.sqrt(max(integrate_plane(g, res**2), 0.0))
    return sup, l2


def nehari_residual(u: RadialFunction, q: float, model: NonlinearityModel) -> float:
    """d/dt j_trunc(u + t u) at t = 0; equals ||grad u||^2 + 3qN - int g(u)u
    when the truncation is inactive. Zero at critical points."""
    return weak_gradient(0.0, u, q, model, u)


def pohozaev_residual(u: RadialFunction, q: float, model: NonlinearityModel) -> float:
    """Dilation derivative of the truncated action at theta = 0; the
    scale-invariance identity 2qN - 2 int G(u) when truncation is inactive."""
    return d_theta_j_tilde(0.0, u, q, model)


def ledger_identity(theta: float, u: RadialFunction, q: float, model: NonlinearityModel) -> float:
    """Algebraic identity linking level, dilation derivative and Dirichlet norm:

        2 Jt(theta, u) - dJt/dtheta = ||grad u||^2 - C - D,
        C = q e^{4 theta} phi(s) N >= 0,  D = 2 q^2 e^{8 theta} phi'(s) N^2 <= 0,

    with s = q e^{4 theta} N(u). Returns the absolute defect, which is pure
    roundoff for any input. Equivalently ||grad u||^2 = (2 Jt - dJt) + C + D.
    """
    n_val = big_n(u)
    e4 = math.exp(4.0 * theta)
    s = q * e4 * n_val
    c = q * e4 * phi(s) * n_val
    d = 2.0 * q * q * e4 * e4 * phi_prime(s) * n_val**2
    grad2 = integrate_plane(u.grid, differentiate(u).values ** 2)
    lhs = 2.0 * j_tilde(theta, u, q, model).total - d_theta_j_tilde(theta, u, q, model)
    return abs(lhs - (grad2 - c - d))


def truncation_bounds(theta: float, u: RadialFunction, q: float) -> tuple[float, float]:
    """The (C, D) pair from ledger_identity; C in [0, 2) and |D| < 16 whenever
    q e^{4 theta} N < 2, and both vanish when q e^{4 theta} N >= 2."""
    n_val = big_n(u)
    e4 = math.exp(4.0 * theta)
    s = q * e4 * n_val
    return q * e4 * phi(s) * n_val, 2.0 * q * q * e4 * e4 * phi_prime(s) * n_val**2


def bhs_inequality(u: RadialFunction) -> bool:
    """||u||_4^4 <= 2 ||grad u||_2 N(u)^{1/2} (an interpolation-type bound)."""
    if not np.any(u.values):
        raise ValueError("u must be nonzero")
    left = norm_lp(u, 4.0) ** 4
    grad = math.sqrt(max(integrate_plane(u.grid, differentiate(u).values ** 2), 0.0))
    right = 2.0 * grad * math.sqrt(max(big_n(u), 0.0))
    return bool(left <= right + 1e-12)


def distinctness(reports, threshold: float = 0.1):
    """Pairwise plane-L^2 distances and level gaps between solve reports.

    Returns (distance_matrix, level_gap_matrix, flagged_pairs) where flagged
    pairs fall below the distance threshold.
    """
    if len(reports) < 2:
        raise ValueError("need at least two reports")
    g = reports[0].u.grid
    for r in reports[1:]:
        if not np.array_equal(r.u.grid.nodes, g.nodes):
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
            if d < threshold:
                flagged.append((i, j))
    return dist, gaps, flagged


def verification_report(u: RadialFunction, q: float, model: NonlinearityModel) -> VerificationReport:
    sup, l2 = residual_pde(u, q, model)
    defect = ledger_identity(0.2, u, q, model)
    try:
        bhs_ok = bhs_inequality(u)
    except ValueError:
        bhs_ok = True
    return VerificationReport(
        residual_pde_sup=sup,
        residual_pde_l2=l2,
        nehari=nehari_residual(u, q, model),
        pohozaev=pohozaev_residual(u, q, model),
        q_n_check=bool(q * big_n(u) <= 1.0),
        bhs_inequality_ok=bhs_ok,
        ledger_identity_err=defect,
    )
