"""Critical-point computation for the gauged radial problem.

Three complementary engines:

* ``mountain_pass`` — the lowest positive level: maximize the energy along
  a ray, take a steepest-descent step in the Sobolev metric from the ray
  maximizer, repeat on the ray through the descended point, then polish.
* ``nodal_shoot`` — a cold start shoots on the 3-point rows of the q = 0
  local problem for a k-node profile; from it, or from a warm start, a
  chord iteration solves the full nonlocal system on the 5-point rows with
  one M for J's local part at the first iterate (`_band_solver`: a 3-point
  tridiagonal LU, factored once, and a Jacobi sweep on the 5-point rows),
  one evaluation and one M solve per step.  Each chord step is mixed with
  the previous one (depth-one Anderson, a secant step that recovers part of
  the nonlocal J that M leaves out); it stops on its iterate's residual.
* ``newton_refine`` — matrix-free Newton--Krylov polish of the full
  nonlocal strong-form system: each Newton step is solved by scipy's
  restarted GMRES, right-preconditioned by the same M at the Newton
  iterate, one J application and one M solve per iteration.  It certifies
  the chord's result, and takes over when the chord stalls.

Each iterate's gauge terms and strong residual are kept on it
(`grid.per_iterate`): the step that evaluates it, J's linearization at it
and the certificate all read the one evaluation.

``continuation_in_q`` and ``multiplicity_run`` orchestrate these to trace
branches in the coupling q and to produce n distinct solutions at small q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import LinearOperator, gmres

from .energy import j_trunc, riesz_gradient
from .gauge import gauge_potential
from .grid import (RadialFunction, RadialGrid, cumulative_integral, dilate, integrate_plane,
                   laplacian_radial, norm_sobolev, over_r, robin_row)
from .nonlinearity import NonlinearityModel
from .verify import (certificate_failure, distinctness, nehari_residual, pohozaev_residual,
                     residual_pde, robin_rate, strong_residual)


def __getattr__(name: str):
    """`solve_ivp`, bound here on first access and never called.

    The benchmark's tracer counts calls through ``solver.solve_ivp``; binding
    it lazily keeps scipy.integrate, and the scipy.optimize, scipy.special
    and scipy.fft it imports, out of every process that does not ask for it.
    """
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        globals()[name] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SolveReport:
    """A candidate critical point and its certificate, every number that says u is a solution."""

    u: RadialFunction
    level: float
    q: float
    node_count: int
    residual_pde: float
    residual_pde_l2: float
    residual_nehari: float
    residual_pohozaev: float
    truncation_inactive: bool
    iterations: int
    converged: bool

    def to_json(self) -> str:
        """Every field; u is written as its value at the origin, u0."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["u0"] = float(data.pop("u").values[0])
        return json.dumps(data, indent=2)


def count_nodes(u: RadialFunction) -> int:
    """Sign changes of the profile, ignoring sub-roundoff tail wiggle."""
    vals = u.values
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0
    # the samples kept are nonzero, so their sign bits are their signs
    neg = np.signbit(vals[np.abs(vals) > 1e-7 * scale])
    return int(np.count_nonzero(neg[1:] != neg[:-1]))


def _is_zero(u: RadialFunction, start: RadialFunction) -> bool:
    """max|u| <= 1e-3 max|start|: u has collapsed from start towards the zero profile.

    The zero profile solves the equation exactly but is not a solution.
    """
    return float(np.max(np.abs(u.values))) <= 1e-3 * float(np.max(np.abs(start.values)))


def _residual_tol(u: RadialFunction) -> float:
    """Sup-norm residual target of u: max(1e-9, 3e3 eps / h^2 max(1, |u|_inf)).

    3e3 eps / h^2 is the floor that the stencils' h^-2 roundoff sets.
    """
    floor = 3e3 * np.finfo(float).eps / u.grid.h**2
    return max(_NEWTON_TOL, floor * max(1.0, float(np.max(np.abs(u.values)))))


# ---------------------------------------------------------------------------
# Shooting on the 3-point rows of the q = 0 local problem
# ---------------------------------------------------------------------------


def _march(grid: RadialGrid, model: NonlinearityModel, amps: np.ndarray) -> np.ndarray:
    """Profiles u[:, j] with u(0) = amps[j] that satisfy the q = 0 rows from r = 0 out.

    The origin row gives u_1 = u_0 - h^2 g(u_0)/4 and interior row i gives
    u_{i+1} from u_i and u_{i-1}; all amplitudes advance together.
    """
    h = grid.h
    lower, _, upper, _ = grid.tridiagonal
    lower, upper = lower[:-1], upper[1:]
    # row i solved for u_{i+1}: -(lower_i u_{i-1} + (2/h^2) u_i - g(u_i)) / upper_i
    rows = zip((-lower / upper).tolist(), (-2.0 / h**2 / upper).tolist(), (1.0 / upper).tolist())
    u = np.empty((grid.n, amps.size))
    u[0] = amps
    u[1] = amps - h**2 * model.g(amps) / 4.0
    # on coarse grids a large amplitude runs past the finite range; _shoot
    # counts that as an overshoot, so the overflow is expected here
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (c_prev, c_mid, c_g) in enumerate(rows, start=1):
            u[i + 1] = c_prev * u[i - 1] + c_mid * u[i] + c_g * model.g(u[i])
    return u


def _shoot(grid: RadialGrid, model: NonlinearityModel, k: int) -> Optional[np.ndarray]:
    """k-node profile of the q = 0 local problem by shooting on its 3-point rows.

    A shot that leaves the finite range or has more than k sign changes
    overshoots; otherwise its sign at r = R decides: holding the sign it has
    after its changes means the amplitude is too small.  The first
    overshooting rung of the amplitude ladder 1.5^j (j < 11) brackets u(0);
    each pass then cuts the bracket into 33 parts, marched together, until
    it is 1e-13 wide relative to u(0).  Returns the profile with an
    exponential tail patch past its k-th sign change, or None if no rung
    overshoots or the profile at the bracket's midpoint is not finite.
    """

    def overshoots(amps):
        u = _march(grid, model, amps)
        crossings = np.count_nonzero(np.diff(np.signbit(u), axis=0), axis=0)
        # a march that overflows stays inf or NaN to r = R
        return (crossings > k) | (u[-1] * (-1.0) ** crossings <= 0) | ~np.isfinite(u[-1])

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
    if not np.isfinite(u[-1]):
        return None
    # beyond the resolvable decay the trajectory blows up; patch with the
    # linearized exponential tail from the first tiny-and-growing node past
    # the k-th sign change (a sample next to a node crossing is tiny too).
    kappa = robin_rate(model, 0.0)
    mag = np.abs(u)
    crossings = np.r_[0, np.cumsum(np.diff(np.signbit(u)))]
    tiny_and_growing = (mag < 1e-6 * mag.max()) & np.r_[np.diff(mag) > 0, True]
    tiny_and_growing &= crossings >= k
    if tiny_and_growing.any():
        i = int(np.argmax(tiny_and_growing))
        if 0 < i < grid.n - 1:
            u[i:] = u[i] * np.exp(-kappa * (grid.nodes[i:] - grid.nodes[i]))
    return u


def _band_solver(u: RadialFunction, q: float, model: NonlinearityModel):
    """solve(b) = M^{-1} b for the chord's M, the polish's preconditioner; None if T is singular.

    M stands for A, J's local part at u: -Delta_r + V - g'(u) on the grid's
    5-point `laplacian` rows (V kept on u), the Robin row u'(R) + kappa u(R)
    last.  A solve first solves T x = b, the same operator on the 3-point
    rows (`RadialGrid.tridiagonal`), factored once by LAPACK gttrf, one gttrs
    each; then it takes one damped Jacobi sweep on A's own rows,
    x += (15/32) D^{-1} (b - A x), D = diag(A).  Inside, with
    t = sin^2(theta/2), T^{-1} A has symbol 1 + t/3 and h^2 D = 5/2, so
    I - M^{-1} A has symbol -(t/3)(1 - (15/32)(8t + 8t^2/3)/5): 0 at the
    highest frequency, at most 0.095, and O(h^2) on smooth errors.  T alone
    leaves the highest frequency at a third.
    """
    g, (lower, diag, upper, m) = u.grid, u.grid.tridiagonal
    _, v_pot = gauge_potential(u, q)
    c = v_pot - model.gprime(u.values)
    kappa = robin_rate(model, float(v_pot[-1]))
    # the Robin row takes kappa on its diagonal, and -m times row n - 2's V - g'(u)
    dl = lower.copy()
    dl[-1] -= m * c[-2]
    c_robin = np.r_[c[:-1], kappa]
    *lu, info = dgttrf(dl, diag + c_robin, upper, overwrite_dl=1, overwrite_d=1)
    if info != 0:
        return None
    jacobi = _JACOBI_DAMPING / (g.five_point_diagonal + c_robin)

    def solve(b: np.ndarray) -> np.ndarray:
        rhs = b.copy()
        rhs[-1] -= m * b[-2]
        x = dgttrs(*lu, rhs, overwrite_b=1)[0]
        r = laplacian_radial(g, x)
        r += b
        r -= c * x
        r[-1] = b[-1] - robin_row(x, g.h, kappa)
        r *= jacobi
        r += x
        return r

    return solve


# ---------------------------------------------------------------------------
# Full nonlocal Newton--Krylov polish
# ---------------------------------------------------------------------------


def _jacobian_apply(u: RadialFunction, q: float, model: NonlinearityModel,
                    z: np.ndarray) -> np.ndarray:
    """J(u) z: the exact linearization at u of f, the residual `verify.strong_residual`.

    V(u) = 2q A_u + q h_u^2/r^2 is differentiated through the cumulative
    quadrature that defines it, so J is exact to roundoff.  h_u and V are
    read off u (`gauge_potential`); each application costs two quadratures.
    The Robin rate kappa is frozen, which perturbs only the last row of J.
    """
    g = u.grid
    r, uv = g.nodes, u.values
    h_u, v_pot = gauge_potential(u, q)
    dh = cumulative_integral(g, 2.0 * r * uv * z)
    cs = cumulative_integral(g, over_r(g, 2.0 * uv * z * h_u + uv**2 * dh))
    dv = 2.0 * q * (cs[-1] - cs)
    if q != 0.0:
        dv[1:] += 2.0 * q * h_u[1:] * dh[1:] / r[1:] ** 2
    out = -laplacian_radial(g, z) + v_pot * z + dv * uv - model.gprime(uv) * z
    out[-1] = robin_row(z, g.h, robin_rate(model, float(v_pot[-1])))
    return out


# Newton-step tolerance ||f - J x||_2 <= rtol ||f||_2 and restart budget
_KRYLOV_RTOL = 1e-8
_KRYLOV_RESTART = 30
_KRYLOV_CYCLES = 200
# mountain pass: samples per ray, first descent step, sweep budget and gradient tolerance
_PATH_POINTS = 17
_DESCENT_STEP = 0.5
_MAX_SWEEPS = 400
_GRAD_TOL = 1e-3
# step budget of the chord and of the Newton polish, and the polish's sup-norm target
_MAX_STEPS = 60
_NEWTON_TOL = 1e-9
# the chord's stop on max|F|, in eps/h^2 max(1, |u|_inf): the 5-point rows (|L|_inf =
# 5.3/h^2) leave 2.5-7 of that at the floor, a smooth residual 8 or more (n = 8193)
_CHORD_STOP = 5.0
# the weight of _band_solver's Jacobi sweep, which zeroes the highest frequency
_JACOBI_DAMPING = 15.0 / 32.0


def _krylov_step(jac, solve, f: np.ndarray) -> tuple[np.ndarray, int]:
    """x with ||f - J x||_2 <= 1e-8 ||f||_2 by restarted GMRES (Saad and Schultz 1986).

    jac(z) = J z and solve(v) = M^{-1} v.  scipy's gmres solves J M^{-1} y = f
    from y = 0 in cycles of 30, at most 200, and x = M^{-1} y: with M on the
    right, its residual f - J M^{-1} y is the true one.  Each iteration, and
    each cycle's closing residual check, is one solve and one J application.
    Returns (x, info): info is 0 on success and 200 when the budget runs out.
    A value of J M^{-1} v that is not finite ends the solve with x = 0 and
    info -1; scipy's GMRES would carry it through the whole budget.
    """

    def matvec(v: np.ndarray) -> np.ndarray:
        out = jac(solve(v))
        if not np.isfinite(out).all():
            raise FloatingPointError("J M^-1 v is not finite")
        return out

    # with its dtype given, the operator is never probed with J 0
    op = LinearOperator((f.size, f.size), matvec=matvec, dtype=float)
    try:
        y, info = gmres(op, f, rtol=_KRYLOV_RTOL, atol=0.0, restart=_KRYLOV_RESTART,
                        maxiter=_KRYLOV_CYCLES)
    except FloatingPointError:
        return np.zeros(f.size), -1
    return solve(y), info


def newton_refine(u: RadialFunction, q: float, model: NonlinearityModel) -> SolveReport:
    """Matrix-free damped Newton on the full nonlocal strong-form system.

    Jacobian action applied matrix-free through the exact linearization of
    the residual map (finite-difference directional derivatives carry an
    h^-2-amplified noise floor that stalls the Krylov solver).  Each Newton
    step J s = f is solved by restarted GMRES (`_krylov_step`) to 1e-8
    relative, right-preconditioned with the chord's M at u (`_band_solver`:
    the tridiagonal LU of J's local part on the 3-point rows, factored once
    per Newton step, and one damped Jacobi sweep on its 5-point rows).  Each
    Krylov iteration costs one J application and one M solve; the nonlocal
    gauge term and what the sweep leaves of the 3-point error are left to
    the iteration.  Each iterate's gauge terms and strong residual are
    evaluated once and kept on it, where the linearization and the
    certificate read them.  A singular preconditioner, a non-finite step or
    a collapse towards zero (`_is_zero`) gives converged=False.
    """
    g, start = u.grid, u
    f = strong_residual(u, q, model)
    iterations = 0
    converged = None
    for it in range(_MAX_STEPS):
        nf = float(np.max(np.abs(f)))
        tol = _residual_tol(u)
        if nf < tol:
            break
        iterations = it + 1
        solve = _band_solver(u, q, model)
        if solve is None:
            converged = False
            break
        step, info = _krylov_step(lambda z: _jacobian_apply(u, q, model, z), solve, f)
        if info != 0:
            break
        if not np.all(np.isfinite(step)):
            converged = False
            break
        lam = 1.0
        while lam > 1e-12:
            trial = RadialFunction(g, u.values - lam * step)
            ft = strong_residual(trial, q, model)
            nt = float(np.max(np.abs(ft)))
            if nt < nf * (1.0 - 0.25 * lam) or nt < tol:
                u, f = trial, ft
                break
            lam *= 0.5
        else:
            break
    return _report(u, q, model, iterations, False if _is_zero(u, start) else converged)


def _report(u: RadialFunction, q: float, model: NonlinearityModel,
            iterations: int, converged: Optional[bool] = None) -> SolveReport:
    """The certificate of u, read off the gauge terms, strong residual and energy pieces on u."""
    sup, l2 = residual_pde(u, q, model)
    if converged is None:
        converged = sup < 10.0 * _residual_tol(u)
    breakdown = j_trunc(u, q, model)
    return SolveReport(
        u=u,
        level=breakdown.total,
        q=q,
        node_count=count_nodes(u),
        residual_pde=sup,
        residual_pde_l2=l2,
        residual_nehari=nehari_residual(u, q, model),
        residual_pohozaev=pohozaev_residual(u, q, model),
        truncation_inactive=not breakdown.truncation_active,
        iterations=iterations,
        converged=bool(converged),
    )


# ---------------------------------------------------------------------------
# Nodal shooting and the chord iteration
# ---------------------------------------------------------------------------


def _inner_newton(u: RadialFunction, q: float, model: NonlinearityModel, k: int):
    """Chord (simplified Newton) iteration for a k-node solution of the full system.

    M is `newton_refine`'s preconditioner at the start iterate (`_band_solver`):
    J's local part -Delta_r + V - g'(u) with the Robin row, solved on its
    3-point rows by a tridiagonal LU factored once, then one damped Jacobi
    sweep on its 5-point rows.  Each step evaluates the iterate once
    (`strong_residual`, Robin row last, kept on it with its gauge terms) and takes
    the chord step s_k = M^{-1} f(u_k).  The nonlocal part of J left out of M
    sets the chord's rate, so each step is mixed with the previous one: depth-one
    Anderson mixing (type II; Walker and Ni, SIAM J. Numer. Anal. 49, 2011)
    of u -> u - M^{-1} f(u) sets

        u_{k+1} = u_k - s_k - gamma (du - ds),  gamma = <ds, s_k> / <ds, ds>,

    with du = u_k - u_{k-1} and ds = s_k - s_{k-1}, a secant step.  A step
    with max|s_k| > 1 is halved, and neither it nor one below 1e-10, whose ds
    is near the rounding of f, is mixed.  The chord returns the first iterate
    with max|f| <= 5 eps/h^2 max(1, |u|_inf) and solves no M after it.  One
    with max|f| above half the last one's, or 60 steps, leave u to `newton_refine`
    (ds = 0 means f_k = f_{k-1}, a stall, so <ds, ds> > 0 when mixing).
    Returns (u, steps, ok); ok is False on a singular M, a non-finite step, or
    a new iterate with a changed node count or max|u| past 10 max(|u_start|, 1).
    """
    g = u.grid
    solve = _band_solver(u, q, model)
    if solve is None:
        return u, 0, False
    top = float(np.max(np.abs(u.values)))
    bound, stop = 10.0 * max(top, 1.0), _CHORD_STOP * np.finfo(float).eps / g.h**2
    last, prev = math.inf, None
    for steps in range(_MAX_STEPS):
        f = strong_residual(u, q, model)
        nf = float(np.max(np.abs(f)))
        if nf <= stop * max(1.0, top) or nf > 0.5 * last:
            return u, steps, True
        last = nf
        step = solve(f)
        size = float(np.max(np.abs(step)))
        if not math.isfinite(size):
            return u, steps, False
        if size > 1.0:
            new = u.values - 0.5 * step
        else:
            new = u.values - step
            if prev is not None and size >= 1e-10:
                # ds in the last step's array and du - ds in du's, each used once
                du, ds = u.values - prev[0], np.subtract(step, prev[1], out=prev[1])
                du -= ds
                new -= np.multiply(float(ds @ step) / float(ds @ ds), du, out=du)
        prev = u.values, step
        # a fresh array: frozen here, so RadialFunction wraps it without a copy
        new.setflags(write=False)
        trial, top = RadialFunction(g, new), float(np.max(np.abs(new)))
        if top > bound or count_nodes(trial) != k:
            return u, steps, False
        u = trial
    return u, _MAX_STEPS, True


def nodal_shoot(q: float, model: NonlinearityModel, grid: RadialGrid, k: int,
                warm_start: Optional[RadialFunction] = None) -> SolveReport:
    """Find a k-node solution by a chord iteration and a Newton--Krylov polish.

    A cold start takes the k-node q = 0 shot (`_shoot`) as its first iterate;
    a warm start must live on grid.  The chord iteration (`_inner_newton`)
    solves the full nonlocal 5-point system with the local Jacobian of the
    first iterate, factored once; `newton_refine` then certifies the result,
    or polishes it when the chord stalled.  The certificate reads the gauge
    terms and strong residual kept on the last iterate.  `iterations` counts
    chord and Newton steps.  A polish that changes the node count or collapses
    the profile towards zero (`_is_zero`; at large q it can do either) has left
    the k-node branch, so the report then carries the chord's last iterate
    with converged=False.
    """
    if k < 0 or q < 0:
        raise ValueError("k and q must be non-negative")
    if warm_start is not None:
        if warm_start.grid != grid:
            raise ValueError("warm_start and grid must be the same grid")
        # a new iterate, so a start reused across couplings keeps nothing per q
        start = RadialFunction(grid, warm_start.values)
    else:
        shot = _shoot(grid, model, k)
        if shot is None:
            return _report(RadialFunction(grid, np.zeros(grid.n)), q, model, 0, converged=False)
        start = RadialFunction(grid, shot)

    u, steps, ok = _inner_newton(start, q, model, k)
    if not ok:
        return _report(u, q, model, steps, converged=False)
    report = newton_refine(u, q, model)
    iterations = steps + report.iterations
    if report.node_count != k or _is_zero(report.u, u):
        return _report(u, q, model, iterations, converged=False)
    return replace(report, iterations=iterations)


# ---------------------------------------------------------------------------
# Mountain pass
# ---------------------------------------------------------------------------


def negative_energy_endpoint(model: NonlinearityModel, grid: RadialGrid,
                             q: float = 0.0) -> RadialFunction:
    """A profile of negative truncated energy: the end of a path from 0 over the pass.

    The bump exp(-r^2) is first amplified until int G > 0, then spatially
    spread (dilation doubling, at most 60 times) until its truncated energy
    is negative.
    """
    bump = RadialFunction(grid, np.exp(-grid.nodes**2))
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
            return endpoint
        endpoint = dilate(endpoint, 0.5)
    raise RuntimeError("could not reach negative energy within 60 dilation doublings")


def mountain_pass(q: float, model: NonlinearityModel, grid: RadialGrid) -> SolveReport:
    """Lowest positive critical level: ray maximization, Sobolev steepest descent, polish.

    Each sweep takes a steepest-descent step u* - s w from the ray maximizer
    u*, w the Sobolev gradient there, and maximizes j_trunc along the ray
    through the descended point.  The step s starts at 1/2 and halves until
    that ray maximum lies below j_trunc(u*) - s ||w||^2 / 2 (an Armijo test in
    the Sobolev metric).  Once the gradient at the maximizer is below 1e-3,
    or no s above 1e-12 passes, the maximizer is handed to newton_refine.
    The first ray runs through `negative_energy_endpoint`; if that raises,
    the zero profile is returned with converged=False.
    """
    from scipy.optimize import minimize_scalar

    if q < 0:
        raise ValueError("q must be non-negative")
    try:
        direction = negative_energy_endpoint(model, grid, q)
    except RuntimeError:
        return _report(RadialFunction(grid, np.zeros(grid.n)), q, model, 0, converged=False)

    def ray_max(w: RadialFunction):
        """(t* w, j_trunc(t* w)) at the maximum of j_trunc along the ray t -> t w.

        t_hi doubles until j_trunc(t_hi w) < 0; the best of 17
        samples on [0, t_hi] and its two neighbours bracket t*, which Brent's
        bounded method then locates.
        """

        def level(t: float) -> float:
            return j_trunc(RadialFunction(grid, t * w.values), q, model).total

        t_hi = 1.0
        for _ in range(60):
            if level(t_hi) < 0:
                break
            t_hi *= 2.0
        ts = np.linspace(0.0, t_hi, _PATH_POINTS)
        j = int(np.argmax([level(t) for t in ts]))
        bracket = (ts[max(j - 1, 0)], ts[min(j + 1, _PATH_POINTS - 1)])
        best = minimize_scalar(lambda t: -level(t), bounds=bracket, method="bounded",
                               options={"xatol": 1e-12 * t_hi})
        return RadialFunction(grid, best.x * w.values), -best.fun

    sweeps = 0
    u_star, e_star = ray_max(direction)
    for sweeps in range(1, _MAX_SWEEPS + 1):
        w = riesz_gradient(0.0, u_star, q, model)
        gnorm = norm_sobolev(w, model.m0)
        if gnorm < _GRAD_TOL:
            break
        step = _DESCENT_STEP
        while step > 1e-12:
            trial, e_trial = ray_max(RadialFunction(grid, u_star.values - step * w.values))
            # sufficient decrease of the ray maximum: s ||w||^2 / 2 below e*
            if e_trial < e_star - 0.5 * step * gnorm**2:
                u_star, e_star = trial, e_trial
                break
            step *= 0.5
        else:
            # u* and so w stay as they are, and every later sweep would fail the same way
            break
    report = newton_refine(u_star, q, model)
    # solutions come in (u, -u) pairs; report the peak-positive member.  g is odd, so
    # every certificate field of -u is that of u bit for bit
    peak = report.u.values[int(np.argmax(np.abs(report.u.values)))]
    if peak < 0:
        report = replace(report, u=RadialFunction(grid, -report.u.values))
    return replace(report, iterations=sweeps + report.iterations)


# ---------------------------------------------------------------------------
# Continuation and multiplicity
# ---------------------------------------------------------------------------


def continuation_in_q(model: NonlinearityModel, grid: RadialGrid, k: int,
                      q_start: float, q_end: float, steps: int):
    """March q geometrically from q_start to q_end, warm-starting each solve.

    Returns (reports, q_star): the `SolveReport` of each point in order, and
    q_star, the first q where the branch fails to converge or the truncation
    activates (qN(u) > 1); None if the branch survives to q_end.  Not
    `verify.certificate_failure`: a sweep may run on a grid too coarse for the
    Nehari and Pohozaev identities, and its branch must still end where the
    truncation activates.
    """
    if q_start >= q_end:
        raise ValueError("q_start must be below q_end")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    if q_start > 0:
        qs = np.geomspace(q_start, q_end, steps)
    else:
        qs = np.concatenate(([0.0], np.geomspace(q_end * 1e-4, q_end, steps - 1)))

    reports: list[SolveReport] = []
    q_star = None
    warm = None
    for q in qs:
        rep = nodal_shoot(float(q), model, grid, k, warm_start=warm)
        reports.append(rep)
        if not rep.converged or not rep.truncation_inactive:
            q_star = float(q)
            break
        warm = rep.u
    return reports, q_star


def multiplicity_run(q: float, model: NonlinearityModel, grid: RadialGrid, n: int):
    """n distinct solutions at coupling q: k-node profiles for k = 0..n-1.

    Returns (reports, failure) where failure names the first failing branch
    (None on full success).  Checks: each branch certified by
    `verify.certificate_failure`, successive branches distinct by
    `verify.distinctness` (plane-L^2 distance at least DISTINCT_TOL), and
    strictly increasing levels.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    reports: list[SolveReport] = []
    for k in range(n):
        rep = nodal_shoot(q, model, grid, k)
        reports.append(rep)
        why = certificate_failure(rep)
        if why:
            return reports, f"branch k={k} at q={q}: {why}"
        if k and distinctness(reports[-2:])[2]:
            return reports, f"branch k={k} not distinct from k={k-1}"
        if k and rep.level <= reports[-2].level:
            return reports, f"level ordering violated at k={k}"
    return reports, None


def save_branch_csv(path, reports: list[SolveReport]) -> None:
    """Branch file, a row per report: q,level,u0,l2,trunc_inactive,converged; l2 = ||u||_2."""
    import csv

    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["q", "level", "u0", "l2", "trunc_inactive", "converged"])
        for rep in reports:
            l2 = math.sqrt(max(integrate_plane(rep.u.grid, rep.u.values**2), 0.0))
            wr.writerow([repr(rep.q), repr(rep.level), repr(float(rep.u.values[0])), repr(l2),
                         int(rep.truncation_inactive), int(rep.converged)])
