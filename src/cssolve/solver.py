"""Critical-point computation for the gauged radial problem.

Three complementary engines:

* ``mountain_pass`` — discrete path deformation for the lowest positive
  level: steepest descent in the Sobolev metric at the path maximizer.
* ``nodal_shoot`` — shooting with nonlocal-coefficient freezing: a cold
  start shoots on the 3-point rows of the q = 0 local problem for a k-node
  profile; then the gauge potential is frozen, the resulting local problem
  is solved by a banded Newton iteration on the same rows, and the potential
  is refreshed until the fixed point is reached.
* ``newton_refine`` — matrix-free Newton--Krylov polish of the full
  nonlocal strong-form system.

``continuation_in_q`` and ``multiplicity_run`` orchestrate these to trace
branches in the coupling q and to produce n distinct solutions at small q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla
# not called: the benchmark's tracer counts calls through this binding
from scipy.integrate import solve_ivp  # noqa: F401
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
# Shooting on the 3-point rows of the q = 0 local problem
# ---------------------------------------------------------------------------


def _bands(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of the 3-point -u'' - u'/r at the interior nodes.

    Row i is lower_i u_{i-1} + (2/h^2) u_i + upper_i u_{i+1}, with
    lower/upper = -1/h^2 +/- 1/(2 h r_i).
    """
    r, h = grid.nodes[1:-1], grid.nodes[1] - grid.nodes[0]
    return -1.0 / h**2 + 1.0 / (2.0 * h * r), -1.0 / h**2 - 1.0 / (2.0 * h * r)


def _march(grid: RadialGrid, model: NonlinearityModel, amps: np.ndarray) -> np.ndarray:
    """Profiles u[:, j] with u(0) = amps[j] that satisfy the q = 0 rows from r = 0 out.

    The origin row gives u_1 = u_0 - h^2 g(u_0)/4 and interior row i gives
    u_{i+1} from u_i and u_{i-1}; all amplitudes advance together.
    """
    h = grid.nodes[1] - grid.nodes[0]
    lower, upper = _bands(grid)
    # row i solved for u_{i+1}: -(lower_i u_{i-1} + (2/h^2) u_i - g(u_i)) / upper_i
    rows = zip((-lower / upper).tolist(), (-2.0 / h**2 / upper).tolist(), (1.0 / upper).tolist())
    u = np.empty((grid.n, amps.size))
    u[0] = amps
    u[1] = amps - h**2 * model.g(amps) / 4.0
    for i, (c_prev, c_mid, c_g) in enumerate(rows, start=1):
        u[i + 1] = c_prev * u[i - 1] + c_mid * u[i] + c_g * model.g(u[i])
    return u


def _shoot(grid: RadialGrid, model: NonlinearityModel, k: int) -> Optional[np.ndarray]:
    """k-node profile of the q = 0 local problem by shooting on its 3-point rows.

    A shot with more than k sign changes overshoots; otherwise its sign at
    r = R decides: holding the sign it has after its changes means the
    amplitude is too small.  The first overshooting rung of the amplitude
    ladder 1.5^j (j < 11) brackets u(0); each pass then cuts the bracket into
    33 parts, marched together, until it is 1e-13 wide relative to u(0).
    Returns the profile with an exponential tail patch, or None if no rung
    overshoots.
    """

    def overshoots(amps):
        u = _march(grid, model, amps)
        crossings = np.count_nonzero(np.diff(np.signbit(u), axis=0), axis=0)
        return (crossings > k) | (u[-1] * (-1.0) ** crossings <= 0)

    ladder = 1.5 ** np.arange(11)
    over = overshoots(ladder)
    if not over.any():
        return None
    j = int(np.argmax(over))
    lo, hi = (ladder[j - 1] if j else 1e-3), ladder[j]
    while hi - lo >= 1e-13 * hi:
        edges = np.linspace(lo, hi, 34)
        # the first overshooting edge; hi itself when no interior one does
        i = int(np.argmax(np.append(overshoots(edges[1:-1]), True)))
        lo, hi = edges[i], edges[i + 1]
    u = _march(grid, model, np.array([0.5 * (lo + hi)]))[:, 0]
    # beyond the resolvable decay the trajectory blows up; patch with the
    # linearized exponential tail from the first tiny-and-growing node.
    kappa = _decay_rate(model, 0.0)
    mag = np.abs(u)
    tiny_and_growing = (mag < 1e-6 * mag.max()) & np.r_[np.diff(mag) > 0, True]
    if tiny_and_growing.any():
        i = int(np.argmax(tiny_and_growing))
        if 0 < i < grid.n - 1:
            u[i:] = u[i] * np.exp(-kappa * (grid.nodes[i:] - grid.nodes[i]))
    return u


def _robin_row(v: np.ndarray, h: float, kappa: float) -> float:
    """Outer row u'(R) + kappa u(R) of v, with the one-sided second-order u'(R)."""
    return (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h) + kappa * v[-1]


def _local_solver(grid: RadialGrid, diag: np.ndarray, kappa: float):
    """solve(b) = A^{-1} b for the second-order -Delta_r + diag, or None if A is singular.

    Rows of A: the smooth limit -4 (u_1 - u_0) / h^2 at r = 0, the 3-point
    -u'' - u'/r inside, and the Robin row u'(R) + kappa u(R) at the outer
    edge.  The Robin row's (n-1, n-3) entry is eliminated with row n-2 (the
    right-hand side takes the same row operation), which leaves A
    tridiagonal; LAPACK gttrf factors it once and each solve is one gttrs.
    """
    h = grid.nodes[1] - grid.nodes[0]
    lower, upper = _bands(grid)
    d = 2.0 / h**2 + diag
    d[0] = 4.0 / h**2 + diag[0]
    # Robin row (1, -4, 3 + 2 h kappa) / 2h on nodes n-3, n-2, n-1, minus c times row n-2
    c = 1.0 / (2.0 * h) / lower[-1]
    dl = np.append(lower, -4.0 / (2.0 * h) - c * d[-2])
    d[-1] = 3.0 / (2.0 * h) + kappa - c * upper[-1]
    du = np.concatenate(([-4.0 / h**2], upper))
    *factors, info = dgttrf(dl, d, du)
    if info != 0:
        return None

    def solve(b: np.ndarray) -> np.ndarray:
        rhs = np.array(b, dtype=float)
        rhs[-1] -= c * rhs[-2]
        return dgttrs(*factors, rhs, overwrite_b=True)[0]

    return solve


def _inner_newton(grid: RadialGrid, v_pot: np.ndarray, model: NonlinearityModel,
                  u0: np.ndarray, max_iters: int):
    """Damped Newton for the frozen-coefficient BVP on second-order stencils.

    Rows: smooth-limit Laplacian at r = 0, centered stencils inside, and the
    asymptotic Robin condition u'(R) + kappa u(R) = 0 at the outer edge.
    Returns (u, ok, iterations); ok is False on a singular Jacobian, a
    non-finite step or a failed line search.
    """
    h, n = grid.nodes[1] - grid.nodes[0], grid.n
    lower, upper = _bands(grid)
    kappa = _decay_rate(model, float(v_pot[-1]))
    u = u0.copy()
    floor = _residual_floor(grid)

    def resid(u):
        f = np.empty(n)
        gu = model.g(u)
        f[1:-1] = (lower * u[:-2] + 2.0 / h**2 * u[1:-1] + upper * u[2:]
                   + v_pot[1:-1] * u[1:-1] - gu[1:-1])
        f[0] = -4.0 * (u[1] - u[0]) / h**2 + v_pot[0] * u[0] - gu[0]
        f[-1] = _robin_row(u, h, kappa)
        return f

    f = resid(u)
    for it in range(max_iters):
        nf = float(np.max(np.abs(f)))
        tol = max(1e-11, floor * max(1.0, float(np.max(np.abs(u)))))
        if nf < tol:
            return u, True, it
        solve = _local_solver(grid, v_pot - _gprime(model, u), kappa)
        step = None if solve is None else solve(f)
        if step is None or not np.all(np.isfinite(step)):
            return u, False, it
        lam = 1.0
        while lam > 1e-12:
            trial = u - lam * step
            ft = resid(trial)
            nt = float(np.max(np.abs(ft)))
            if nt < nf * (1.0 - 0.25 * lam) or nt < tol:
                u, f = trial, ft
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
    f[-1] = _robin_row(u.values, g.nodes[1] - g.nodes[0], _decay_rate(model, float(v_pot[-1])))
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
        out[-1] = _robin_row(z, h, kappa)
        return out

    return apply


def _jacobian_apply(u: RadialFunction, q: float, model: NonlinearityModel,
                    z: np.ndarray) -> np.ndarray:
    """_linearization(u, q, model) applied to the single vector z."""
    return _linearization(u, q, model)(z)


def newton_refine(u: RadialFunction, q: float, model: NonlinearityModel,
                  cfg: MinimaxConfig = MinimaxConfig()) -> SolveReport:
    """Matrix-free damped Newton on the full nonlocal strong-form system.

    Jacobian action applied matrix-free through the exact linearization of
    the residual map (finite-difference directional derivatives carry an
    h^-2-amplified noise floor that stalls the Krylov solver); linear solves
    by LGMRES, preconditioned with the second-order local part of J: the
    3-point -Delta_r + V - g'(u) with the Robin row (`_local_solver`), built
    once per Newton step.  A singular preconditioner or a non-finite step
    stops the iteration with converged=False.
    """
    g = u.grid
    if g.grading != "uniform":
        raise ValueError("newton_refine requires a uniform grid")
    floor = _residual_floor(g)
    # the gauge terms of an iterate serve its residual and its linearization
    terms = _gauge_terms(u, q)
    f = _full_residual(u, q, model, terms)
    iterations = 0
    converged = None
    for it in range(cfg.max_inner_iters):
        nf = float(np.max(np.abs(f)))
        tol = max(cfg.newton_tol, floor * max(1.0, float(np.max(np.abs(u.values)))))
        if nf < tol:
            break
        iterations = it + 1
        v_pot = terms[1]
        solve = _local_solver(g, v_pot - _gprime(model, u.values),
                              _decay_rate(model, float(v_pot[-1])))
        if solve is None:
            converged = False
            break
        op = spla.LinearOperator((g.n, g.n), matvec=_linearization(u, q, model, terms))
        precond = spla.LinearOperator((g.n, g.n), matvec=solve)
        step, info = spla.lgmres(op, f, M=precond, rtol=1e-8, atol=0.0, maxiter=200)
        if info != 0:
            break
        if not np.all(np.isfinite(step)):
            converged = False
            break
        lam = 1.0
        while lam > 1e-12:
            trial = RadialFunction(g, u.values - lam * step)
            trial_terms = _gauge_terms(trial, q)
            ft = _full_residual(trial, q, model, trial_terms)
            nt = float(np.max(np.abs(ft)))
            if nt < nf * (1.0 - 0.25 * lam) or nt < tol:
                u, terms, f = trial, trial_terms, ft
                break
            lam *= 0.5
        else:
            break
    return _report(u, q, model, iterations, cfg, converged)


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

    A cold start takes the k-node q = 0 shot (`_shoot`) as its first iterate.
    Outer loop: freeze V from the current iterate, solve the local BVP by
    Newton, refresh V; stop at a fixed point, then polish with the full
    nonlocal Newton.
    """
    if k < 0 or q < 0:
        raise ValueError("k and q must be non-negative")
    if not grid.grading == "uniform":
        raise ValueError("nodal_shoot requires a uniform grid")
    if warm_start is not None:
        u = warm_start.values.copy()
    else:
        u = _shoot(grid, model, k)
        if u is None:
            return _report(RadialFunction(grid, np.zeros(grid.n)), q, model, 0, cfg,
                           converged=False)

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
        shot = _shoot(grid, model, n - 1)
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
