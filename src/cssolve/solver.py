"""Critical-point computation for the gauged radial problem.

Three complementary engines:

* ``mountain_pass`` — discrete path deformation for the lowest positive
  level: steepest descent in the Sobolev metric at the path maximizer.
* ``nodal_shoot`` — shooting with nonlocal-coefficient freezing: the gauge
  potential is frozen, the resulting local ODE is solved by node-counting
  bisection plus a banded Newton iteration, and the potential is refreshed
  until the fixed point is reached.  Produces k-node profiles.
* ``newton_refine`` — matrix-free Newton--Krylov polish of the full
  nonlocal strong-form system.

``continuation_in_q`` and ``multiplicity_run`` orchestrate these to trace
branches in the coupling q and to produce n distinct solutions at small q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.linalg.lapack import dgttrf, dgttrs

from .energy import j_trunc, riesz_gradient
from .gauge import big_n, prefix_h, suffix_from_prefix
from .grid import (RadialFunction, RadialGrid, cumulative_integral, dilate, integrate_plane,
                   laplacian_radial, norm_sobolev)
from .nonlinearity import NonlinearityModel
from .verify import nehari_residual, pohozaev_residual, residual_pde


@dataclass(frozen=True)
class MinimaxConfig:
    """Knobs for the minimax search and the polishing iterations."""

    path_points: int = 17
    descent_step: float = 0.5
    max_outer_iters: int = 400
    max_inner_iters: int = 60
    grad_tol: float = 1e-3
    newton_tol: float = 1e-9
    distinct_tol: float = 0.1

    def __post_init__(self):
        if self.path_points < 8:
            raise ValueError("path_points must be at least 8")
        if min(self.descent_step, self.grad_tol, self.newton_tol) <= 0:
            raise ValueError("tolerances and steps must be positive")


@dataclass(frozen=True)
class SolveReport:
    """A candidate critical point with its certification numbers."""

    u: RadialFunction
    level: float
    q: float
    node_count: int
    residual_pde: float
    residual_nehari: float
    residual_pohozaev: float
    truncation_inactive: bool
    iterations: int
    converged: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "level": self.level,
                "q": self.q,
                "node_count": self.node_count,
                "u0": float(self.u.values[0]),
                "residual_pde": self.residual_pde,
                "residual_nehari": self.residual_nehari,
                "residual_pohozaev": self.residual_pohozaev,
                "truncation_inactive": self.truncation_inactive,
                "iterations": self.iterations,
                "converged": self.converged,
            },
            indent=2,
        )


@dataclass(frozen=True)
class BranchPoint:
    """One sample of a solution branch traced in the coupling q."""

    q: float
    level: float
    u0: float
    l2_norm: float
    truncation_inactive: bool
    converged: bool


def count_nodes(u: RadialFunction) -> int:
    """Sign changes of the profile, ignoring sub-roundoff tail wiggle."""
    vals = u.values
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0
    sig = vals[np.abs(vals) > 1e-7 * scale]
    if sig.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(np.sign(sig)) != 0))


def _gprime(model: NonlinearityModel, u: np.ndarray) -> np.ndarray:
    if model.gprime is not None:
        return model.gprime(u)
    eps = 1e-7 * max(1.0, float(np.max(np.abs(u))))
    return (model.g(u + eps) - model.g(u - eps)) / (2.0 * eps)


def _gauge_terms(u: RadialFunction, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(h_u, V) with V(r) = 2q A_u(r) + q h_u(r)^2 / r^2, from one prefix integral.

    V is the frozen gauge potential; the h^2/r^2 term vanishes at 0.
    """
    g = u.grid
    h = prefix_h(u).values
    v = 2.0 * q * suffix_from_prefix(u, h)
    v[1:] += q * (h[1:] / g.nodes[1:]) ** 2
    return h, v


def _decay_rate(model: NonlinearityModel, v_end: float) -> float:
    return math.sqrt(max(2.0 * model.m0 + v_end, 1e-12))


def _residual_floor(grid: RadialGrid) -> float:
    """Sup-norm residual floor 3e3 eps / h^2 set by the stencils' h^-2 roundoff."""
    if grid.grading != "uniform":
        return 0.0
    return 3e3 * np.finfo(float).eps / (grid.nodes[1] - grid.nodes[0]) ** 2


# ---------------------------------------------------------------------------
# Shooting on the frozen-coefficient local ODE
# ---------------------------------------------------------------------------


def _shoot(grid: RadialGrid, v_pot: np.ndarray, model: NonlinearityModel, k: int,
           a_max: float = 60.0) -> Optional[np.ndarray]:
    """Node-counting bisection on u(0) for -u'' - u'/r + V u = g(u).

    Overshooting (more than k sign changes) brackets from above; a trajectory
    that diverges with the sign it holds after k changes brackets from below.
    Returns the profile sampled on the grid with an exponential tail patch, or
    None if no bracket exists below a_max.
    """
    v_interp = PchipInterpolator(grid.nodes, v_pot)

    def rhs(r, y):
        u, du = y
        if r < 1e-12:
            return [du, 0.5 * (v_pot[0] * u - float(model.g(u)))]
        return [du, -du / r + (float(v_interp(r))) * u - float(model.g(u))]

    def fate(a):
        ev = lambda r, y: y[0]
        ev.terminal = False
        sol = solve_ivp(rhs, [0.0, grid.r_max], [a, 0.0], rtol=1e-10, atol=1e-13,
                        events=[ev], max_step=0.2)
        crossings = sol.t_events[0].size
        if crossings > k:
            return +1
        u_end = sol.y[0, -1]
        if u_end * (-1.0) ** crossings > 0:
            return -1  # holding sign and diverging away from zero: amplitude too small
        return +1

    lo, hi, a = 1e-3, None, 1.0
    while hi is None:
        if fate(a) > 0:
            hi = a
        else:
            lo, a = a, a * 1.5
            if a > a_max:
                return None
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if fate(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-13 * hi:
            break
    a = 0.5 * (lo + hi)
    sol = solve_ivp(rhs, [0.0, grid.r_max], [a, 0.0], rtol=1e-12, atol=1e-15,
                    t_eval=grid.nodes, max_step=0.2)
    u = np.zeros(grid.n)
    u[: sol.y.shape[1]] = sol.y[0]
    # beyond the resolvable decay the trajectory blows up; patch with the
    # linearized exponential tail from the first tiny-and-growing node.
    kappa = _decay_rate(model, float(v_pot[-1]))
    mag = np.abs(u)
    tiny_and_growing = (mag < 1e-6 * mag.max()) & np.r_[np.diff(mag) > 0, True]
    if tiny_and_growing.any():
        i = int(np.argmax(tiny_and_growing))
        if 0 < i < grid.n - 1:
            u[i:] = u[i] * np.exp(-kappa * (grid.nodes[i:] - grid.nodes[i]))
    return u


@lru_cache(maxsize=8)
def _newton_pattern(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC layout of the inner-Newton Jacobian on n nodes: (order, indices, indptr).

    Values listed as (lower, diagonal, upper, origin row, Robin row) go to CSC
    order as vals[order], column by column with rows ascending.
    """
    # origin row (0; 0, 1), tridiagonal interior, Robin row (n-1; n-3..n-1)
    i = np.arange(1, n - 1)
    rows = np.concatenate((i, i, i, [0, 0, n - 1, n - 1, n - 1]))
    cols = np.concatenate((i - 1, i, i + 1, [0, 1, n - 3, n - 2, n - 1]))
    order = np.lexsort((rows, cols))
    indices = rows[order].astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    for a in (order, indices, indptr):
        a.setflags(write=False)
    return order, indices, indptr


def _inner_newton(grid: RadialGrid, v_pot: np.ndarray, model: NonlinearityModel,
                  u0: np.ndarray, max_iters: int):
    """Damped Newton for the frozen-coefficient BVP on second-order stencils.

    Rows: smooth-limit Laplacian at r = 0, centered stencils inside, and the
    asymptotic Robin condition u'(R) + kappa u(R) = 0 at the outer edge.
    """
    r, h, n = grid.nodes, grid.nodes[1] - grid.nodes[0], grid.n
    kappa = _decay_rate(model, float(v_pot[-1]))
    u = u0.copy()
    floor = _residual_floor(grid)
    order, indices, indptr = _newton_pattern(n)
    lower = -1.0 / h**2 + 1.0 / (2.0 * h * r[1:-1])
    upper = -1.0 / h**2 - 1.0 / (2.0 * h * r[1:-1])
    edges = [-4.0 / h**2, 1.0 / (2.0 * h), -4.0 / (2.0 * h), 3.0 / (2.0 * h) + kappa]

    def resid(u):
        f = np.empty(n)
        upp = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2
        up = (u[2:] - u[:-2]) / (2.0 * h)
        gu = model.g(u)
        f[1:-1] = -upp - up / r[1:-1] + v_pot[1:-1] * u[1:-1] - gu[1:-1]
        f[0] = -4.0 * (u[1] - u[0]) / h**2 + v_pot[0] * u[0] - gu[0]
        f[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h) + kappa * u[-1]
        return f

    for it in range(max_iters):
        f = resid(u)
        nf = float(np.max(np.abs(f)))
        tol = max(1e-11, floor * max(1.0, float(np.max(np.abs(u)))))
        if nf < tol:
            return u, True, it
        diag = v_pot - _gprime(model, u)
        vals = np.concatenate((lower, 2.0 / h**2 + diag[1:-1], upper,
                               [4.0 / h**2 + diag[0]], edges))
        jac = sp.csc_matrix((vals[order], indices, indptr), shape=(n, n))
        # COLAMD returns the identity ordering on this pattern; skip computing it
        step = spla.spsolve(jac, f, permc_spec="NATURAL")
        lam = 1.0
        while lam > 1e-12:
            trial = u - lam * step
            nt = float(np.max(np.abs(resid(trial))))
            if nt < nf * (1.0 - 0.25 * lam) or nt < tol:
                u = trial
                break
            lam *= 0.5
        else:
            return u, False, it
    return u, False, max_iters


# ---------------------------------------------------------------------------
# Full nonlocal Newton--Krylov polish
# ---------------------------------------------------------------------------


def _full_residual(u: RadialFunction, q: float, model: NonlinearityModel,
                   terms: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Strong-form residual with the Robin outer row; terms = _gauge_terms(u, q)."""
    g = u.grid
    _, v_pot = _gauge_terms(u, q) if terms is None else terms
    f = -laplacian_radial(u) + v_pot * u.values - model.g(u.values)
    h = g.nodes[1] - g.nodes[0]
    kappa = _decay_rate(model, float(v_pot[-1]))
    f[-1] = (3.0 * u.values[-1] - 4.0 * u.values[-2] + u.values[-3]) / (2.0 * h) + kappa * u.values[-1]
    return f


def _linearization(u: RadialFunction, q: float, model: NonlinearityModel,
                   terms: Optional[tuple[np.ndarray, np.ndarray]] = None):
    """Exact linearization of _full_residual at u, as the map z -> J(u) z.

    V(u) = 2q A_u + q h_u^2/r^2 is differentiated through the cumulative
    quadrature that defines it, so J is exact to roundoff.  Terms in u alone
    are computed once here, or passed in as terms = _gauge_terms(u, q); each
    application costs two quadratures.  The Robin rate kappa is frozen, which
    perturbs only the last row of J.
    """
    g = u.grid
    r, uv = g.nodes, u.values
    h = r[1] - r[0]
    h_u, v_pot = _gauge_terms(u, q) if terms is None else terms
    gp = _gprime(model, uv)
    kappa = _decay_rate(model, float(v_pot[-1]))

    def apply(z: np.ndarray) -> np.ndarray:
        dh = cumulative_integral(g, 2.0 * r * uv * z)
        f2 = np.zeros(g.n)
        f2[1:] = (2.0 * uv[1:] * z[1:] * h_u[1:] + uv[1:] ** 2 * dh[1:]) / r[1:]
        cs = cumulative_integral(g, f2)
        dv = 2.0 * q * (cs[-1] - cs)
        if q != 0.0:
            dv[1:] += 2.0 * q * h_u[1:] * dh[1:] / r[1:] ** 2
        out = -laplacian_radial(RadialFunction(g, z)) + v_pot * z + dv * uv - gp * z
        out[-1] = (3.0 * z[-1] - 4.0 * z[-2] + z[-3]) / (2.0 * h) + kappa * z[-1]
        return out

    return apply


def _jacobian_apply(u: RadialFunction, q: float, model: NonlinearityModel,
                    z: np.ndarray) -> np.ndarray:
    """_linearization(u, q, model) applied to the single vector z."""
    return _linearization(u, q, model)(z)


def _preconditioner(grid: RadialGrid, m0: float) -> spla.LinearOperator:
    """Inverse of the second-order -Delta_r + 2 m0 with the Robin outer row.

    The matrix is tridiagonal; it is factored once with LAPACK gttrf and each
    application is one gttrs solve, the elimination solve_banded's gtsv does.
    """
    n, h, r = grid.n, grid.nodes[1] - grid.nodes[0], grid.nodes
    kappa0 = math.sqrt(2.0 * m0)
    ab = np.zeros((3, n))  # rows: superdiagonal, diagonal, subdiagonal
    ab[1, 1:-1] = 2.0 / h**2 + 2.0 * m0
    ab[0, 2:] = -1.0 / h**2 - 1.0 / (2.0 * h * r[1:-1])
    ab[2, :-2] = -1.0 / h**2 + 1.0 / (2.0 * h * r[1:-1])
    ab[1, 0] = 4.0 / h**2 + 2.0 * m0
    ab[0, 1] = -4.0 / h**2
    ab[1, -1] = 3.0 / (2.0 * h) + kappa0
    ab[2, -2] = -2.0 / h
    *factors, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise np.linalg.LinAlgError("singular preconditioner")
    return spla.LinearOperator((n, n), matvec=lambda z: dgttrs(*factors, z)[0])


def newton_refine(u: RadialFunction, q: float, model: NonlinearityModel,
                  cfg: MinimaxConfig = MinimaxConfig()) -> SolveReport:
    """Matrix-free damped Newton on the full nonlocal strong-form system.

    Jacobian action applied matrix-free through the exact linearization of
    the residual map (finite-difference directional derivatives carry an
    h^-2-amplified noise floor that stalls the Krylov solver); linear solves
    by LGMRES preconditioned with the banded (-Delta_r + 2 m0) factorization.
    """
    g = u.grid
    if g.grading != "uniform":
        raise ValueError("newton_refine requires a uniform grid")
    n = g.n
    floor = _residual_floor(g)
    precond = _preconditioner(g, model.m0)

    vals = u.values.copy()
    iterations = 0
    for it in range(cfg.max_inner_iters):
        cur = RadialFunction(g, vals)
        # the gauge terms of the iterate serve its residual and its linearization
        terms = _gauge_terms(cur, q)
        f = _full_residual(cur, q, model, terms)
        nf = float(np.max(np.abs(f)))
        scale = max(1.0, float(np.max(np.abs(vals))))
        tol = max(cfg.newton_tol, floor * scale)
        if nf < tol:
            break
        iterations = it + 1
        op = spla.LinearOperator((n, n), matvec=_linearization(cur, q, model, terms))
        step, info = spla.lgmres(op, f, M=precond, rtol=1e-8, atol=0.0, maxiter=200)
        if info != 0:
            break
        lam = 1.0
        accepted = False
        while lam > 1e-12:
            trial = vals - lam * step
            nt = float(np.max(np.abs(_full_residual(RadialFunction(g, trial), q, model))))
            if nt < nf * (1.0 - 0.25 * lam) or nt < tol:
                vals = trial
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
    out = RadialFunction(g, vals)
    return _report(out, q, model, iterations, cfg)


def _report(u: RadialFunction, q: float, model: NonlinearityModel,
            iterations: int, cfg: MinimaxConfig, converged: Optional[bool] = None) -> SolveReport:
    sup, _ = residual_pde(u, q, model)
    if converged is None:
        floor = _residual_floor(u.grid) * max(1.0, float(np.max(np.abs(u.values))))
        converged = sup < max(10.0 * cfg.newton_tol, 10.0 * floor)
    # the zero profile satisfies the equation exactly but is not a solution
    if converged and float(np.max(np.abs(u.values))) < 1e-8:
        converged = False
    return SolveReport(
        u=u,
        level=j_trunc(u, q, model).total,
        q=q,
        node_count=count_nodes(u),
        residual_pde=sup,
        residual_nehari=nehari_residual(u, q, model),
        residual_pohozaev=pohozaev_residual(u, q, model),
        truncation_inactive=bool(q * big_n(u) <= 1.0),
        iterations=iterations,
        converged=bool(converged),
    )


# ---------------------------------------------------------------------------
# Nodal shooting with coefficient freezing
# ---------------------------------------------------------------------------


def nodal_shoot(q: float, model: NonlinearityModel, grid: RadialGrid, k: int,
                cfg: MinimaxConfig = MinimaxConfig(),
                warm_start: Optional[RadialFunction] = None) -> SolveReport:
    """Find a k-node solution by freezing the gauge potential.

    Outer loop: freeze V from the current iterate, solve the local BVP
    (shooting for the first iterate, Newton afterwards), refresh V; stop at a
    fixed point, then polish with the full nonlocal Newton.
    """
    if k < 0 or q < 0:
        raise ValueError("k and q must be non-negative")
    if not grid.grading == "uniform":
        raise ValueError("nodal_shoot requires a uniform grid")
    zero = RadialFunction(grid, np.zeros(grid.n))

    if warm_start is not None:
        u = warm_start.values.copy()
    else:
        _, v0 = _gauge_terms(zero, q)
        shot = _shoot(grid, v0, model, k)
        if shot is None:
            return _report(zero, q, model, 0, cfg, converged=False)
        u, ok, _ = _inner_newton(grid, v0, model, shot, cfg.max_inner_iters)
        if not ok:
            return _report(RadialFunction(grid, u), q, model, 0, cfg, converged=False)

    start_norm = float(np.max(np.abs(u)))
    for outer in range(cfg.max_outer_iters):
        _, v = _gauge_terms(RadialFunction(grid, u), q)
        un, ok, _ = _inner_newton(grid, v, model, u, cfg.max_inner_iters)
        if not ok or count_nodes(RadialFunction(grid, un)) != k:
            return _report(RadialFunction(grid, u), q, model, outer, cfg, converged=False)
        delta = float(np.max(np.abs(un - u)))
        u = 0.5 * (u + un) if delta > 1.0 else un
        if float(np.max(np.abs(u))) > 10.0 * max(start_norm, 1.0):
            return _report(RadialFunction(grid, u), q, model, outer, cfg, converged=False)
        if delta < 1e-10:
            break
    else:
        return _report(RadialFunction(grid, u), q, model, cfg.max_outer_iters, cfg, converged=False)

    report = newton_refine(RadialFunction(grid, u), q, model, cfg)
    if report.node_count != k:
        report = replace(report, converged=False)
    return report


# ---------------------------------------------------------------------------
# Mountain pass
# ---------------------------------------------------------------------------


def initial_path(model: NonlinearityModel, grid: RadialGrid, n: int,
                 cfg: MinimaxConfig = MinimaxConfig(), q: float = 0.0) -> list[RadialFunction]:
    """Discrete path from 0 to a negative-energy profile.

    The endpoint bump is first amplified until int G > 0, then spatially
    spread (dilation doubling, at most 60 times) until its truncated energy
    is negative.  For n >= 2 the same construction seeds the odd cone over
    k-node profiles (k < n): the path is through the k = n-1 shooting
    profile scaled the same way.
    """
    if n < 1:
        raise ValueError("level index must be at least 1")
    if n == 1:
        bump = RadialFunction(grid, np.exp(-grid.nodes**2))
    else:
        _, v0 = _gauge_terms(RadialFunction(grid, np.zeros(grid.n)), q)
        shot = _shoot(grid, v0, model, n - 1)
        if shot is None:
            raise RuntimeError("no shooting profile available to seed the path")
        bump = RadialFunction(grid, shot / np.max(np.abs(shot)))

    amp = 1.0
    for _ in range(60):
        if integrate_plane(grid, model.big_g(amp * bump.values)) > 0:
            break
        amp *= 1.5
    else:
        raise RuntimeError("could not make int G positive: superlinearity fails numerically")
    endpoint = RadialFunction(grid, amp * bump.values)
    for _ in range(60):
        if j_trunc(endpoint, q, model).total < 0:
            break
        endpoint = dilate(endpoint, 0.5)
    else:
        raise RuntimeError("could not reach negative energy within 60 dilation doublings")

    sigmas = np.linspace(0.0, 1.0, cfg.path_points)
    return [RadialFunction(grid, s * endpoint.values) for s in sigmas]


def mountain_pass(q: float, model: NonlinearityModel, grid: RadialGrid,
                  cfg: MinimaxConfig = MinimaxConfig()) -> SolveReport:
    """Lowest positive critical level by discrete path deformation.

    Each sweep finds the energy maximizer along the path, takes a damped
    steepest-descent step in the Sobolev-gradient metric there, and locally
    re-interpolates the neighbors; once the gradient at the maximizer is
    below grad_tol the candidate is handed to newton_refine.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    path = initial_path(model, grid, 1, cfg, q)
    direction = path[-1]

    def ray_max(w: RadialFunction):
        """Maximize j_trunc along the path sigma -> sigma * t_hi * w."""
        t_hi = 1.0
        for _ in range(60):
            if j_trunc(RadialFunction(grid, t_hi * w.values), q, model).total < 0:
                break
            t_hi *= 2.0
        sigmas = np.linspace(0.0, 1.0, cfg.path_points)
        vals = [j_trunc(RadialFunction(grid, s * t_hi * w.values), q, model).total
                for s in sigmas]
        j = int(np.argmax(vals))
        lo = sigmas[max(j - 1, 0)]
        hi = sigmas[min(j + 1, cfg.path_points - 1)]
        # golden-section refinement between the flanking path nodes
        gr = 0.5 * (math.sqrt(5.0) - 1.0)
        a, b = lo, hi
        c, d = b - gr * (b - a), a + gr * (b - a)
        fc = j_trunc(RadialFunction(grid, c * t_hi * w.values), q, model).total
        fd = j_trunc(RadialFunction(grid, d * t_hi * w.values), q, model).total
        for _ in range(60):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = j_trunc(RadialFunction(grid, c * t_hi * w.values), q, model).total
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = j_trunc(RadialFunction(grid, d * t_hi * w.values), q, model).total
            if b - a < 1e-12:
                break
        s_star = 0.5 * (a + b)
        u_star = RadialFunction(grid, s_star * t_hi * w.values)
        return u_star, j_trunc(u_star, q, model).total

    sweeps = 0
    u_star, e_star = ray_max(direction)
    for sweeps in range(1, cfg.max_outer_iters + 1):
        w = riesz_gradient(0.0, u_star, q, model)
        gnorm = norm_sobolev(w, model.m0)
        if gnorm < cfg.grad_tol:
            break
        step = cfg.descent_step
        moved = u_star
        while step > 1e-12:
            trial = RadialFunction(grid, u_star.values - step * w.values)
            if j_trunc(trial, q, model).total < e_star:
                moved = trial
                break
            step *= 0.5
        # re-interpolate: the new path is the ray through the descended point
        u_star, e_star = ray_max(moved)
    report = newton_refine(u_star, q, model, cfg)
    # solutions come in (u, -u) pairs; report the peak-positive member
    peak = report.u.values[int(np.argmax(np.abs(report.u.values)))]
    if peak < 0:
        report = _report(RadialFunction(grid, -report.u.values), q, model,
                         report.iterations, cfg, converged=report.converged)
    return replace(report, iterations=sweeps + report.iterations)


# ---------------------------------------------------------------------------
# Continuation and multiplicity
# ---------------------------------------------------------------------------


def continuation_in_q(model: NonlinearityModel, grid: RadialGrid, k: int,
                      q_start: float, q_end: float, steps: int,
                      cfg: MinimaxConfig = MinimaxConfig()):
    """March q geometrically from q_start to q_end, warm-starting each solve.

    Returns (branch_points, q_star): q_star is the first q where the branch
    fails to converge or the truncation activates (qN(u) > 1); None if the
    branch survives to q_end.
    """
    if q_start >= q_end:
        raise ValueError("q_start must be below q_end")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    if q_start > 0:
        qs = np.geomspace(q_start, q_end, steps)
    else:
        qs = np.concatenate(([0.0], np.geomspace(q_end * 1e-4, q_end, steps - 1)))

    branch: list[BranchPoint] = []
    q_star = None
    warm = None
    for q in qs:
        rep = nodal_shoot(float(q), model, grid, k, cfg, warm_start=warm)
        l2 = math.sqrt(max(integrate_plane(grid, rep.u.values**2), 0.0))
        branch.append(BranchPoint(float(q), rep.level, float(rep.u.values[0]),
                                  l2, rep.truncation_inactive, rep.converged))
        if not rep.converged or not rep.truncation_inactive:
            q_star = float(q)
            break
        warm = rep.u
    return branch, q_star


def multiplicity_run(q: float, model: NonlinearityModel, grid: RadialGrid, n: int,
                     cfg: MinimaxConfig = MinimaxConfig()):
    """n distinct solutions at coupling q: k-node profiles for k = 0..n-1.

    Returns (reports, failure) where failure names the first failing branch
    (None on full success).  Checks: convergence, pairwise plane-L^2
    distance above cfg.distinct_tol, strictly increasing levels, and
    truncation inactivity.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    reports: list[SolveReport] = []
    failure = None
    for k in range(n):
        rep = nodal_shoot(q, model, grid, k, cfg)
        reports.append(rep)
        if not rep.converged:
            failure = f"branch k={k} did not converge at q={q}"
            break
        if not rep.truncation_inactive:
            failure = f"branch k={k} has active truncation at q={q}"
            break
        if reports[:-1]:
            prev = reports[-2]
            dist = math.sqrt(max(integrate_plane(grid, (rep.u.values - prev.u.values) ** 2), 0.0))
            if dist < cfg.distinct_tol:
                failure = f"branch k={k} not distinct from k={k-1}"
                break
            if rep.level <= prev.level:
                failure = f"level ordering violated at k={k}"
                break
    return reports, failure


def save_branch_csv(path, branch: list[BranchPoint]) -> None:
    """Branch file: header q,level,u0,l2,trunc_inactive,converged."""
    import csv

    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["q", "level", "u0", "l2", "trunc_inactive", "converged"])
        for b in branch:
            wr.writerow([repr(b.q), repr(b.level), repr(b.u0), repr(b.l2_norm),
                         int(b.truncation_inactive), int(b.converged)])
