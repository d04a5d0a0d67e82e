"""Radial grids on [0, R_max] and calculus for radial functions on the plane.

A radial function u(r) stands for the planar field u(|x|); all integrals
are plane integrals, i.e. carry the measure 2*pi*r*dr.  Uniform grids get
composite-Simpson weights and a Simpson-consistent cumulative rule;
geometrically graded grids fall back to trapezoid everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TWO_PI = 2.0 * np.pi

MIN_NODES = 16

_DILATE_POINTS = 8


@dataclass(frozen=True)
class RadialGrid:
    """Ascending radii r_0 = 0 < ... < r_{n-1} = R_max with quadrature weights.

    weights are for the 1-D integral int_0^{R_max} f(r) dr; they are positive
    and sum to R_max.
    """

    nodes: np.ndarray
    weights: np.ndarray
    grading: str = "uniform"
    ratio: float = 1.0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.size < MIN_NODES:
            raise ValueError(f"grid needs at least {MIN_NODES} nodes")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must start at 0 and increase strictly")
        if weights.shape != nodes.shape or np.any(weights <= 0):
            raise ValueError("weights must be positive, one per node")
        nodes.setflags(write=False)
        weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @cached_property
    def tail_weights(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(u'', u') weights of the one-sided 6-point stencils at r_{n-2}, r_{n-1}.

        `laplacian_radial` applies them on a uniform grid; computed on first
        use and then kept, since they depend on the nodes alone.
        """
        x = self.nodes[-6:]
        weights = tuple((_fornberg(x, x0, 2), _fornberg(x, x0, 1)) for x0 in x[-2:])
        for w in weights:
            for a in w:
                a.setflags(write=False)
        return weights

    @cached_property
    def graded_weights(self) -> tuple[np.ndarray, ...]:
        """(index, u'' weights, u' weights) of the 3-point stencils of a graded grid.

        Row i holds the stencil's nodes and their `_fornberg` weights at r_i;
        `laplacian_radial` applies them.  Computed on first use and then kept.
        """
        x, n = self.nodes, self.n
        index = np.clip(np.arange(n) - 1, 0, n - 3)[:, None] + np.arange(3)
        weights = (index,) + tuple(np.array([_fornberg(x[k], x0, m) for k, x0 in zip(index, x)])
                                   for m in (2, 1))
        for a in weights:
            a.setflags(write=False)
        return weights

    @cached_property
    def sobolev_metrics(self) -> dict:
        """{m0: (D, solve)}, filled by `sobolev_metric`."""
        return {}


@dataclass(frozen=True)
class RadialFunction:
    """Samples of a radial profile u(r) on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.flags.writeable:
            # freeze a private copy; never flip flags on the caller's array
            values = values.copy()
            values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid size")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n equispaced nodes.

    An odd interval count is handled with a Simpson 3/8 closure on the last
    three intervals; all weights stay positive.
    """
    m = n - 1
    w = np.zeros(n)
    if m % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= h / 3.0
    else:
        k = m - 3
        if k > 0:
            w[0] = 1.0
            w[1:k:2] = 4.0
            w[2:k:2] = 2.0
            w[k] = 1.0
            w[: k + 1] *= h / 3.0
        w[k] += 3.0 * h / 8.0
        w[k + 1] += 9.0 * h / 8.0
        w[k + 2] += 9.0 * h / 8.0
        w[k + 3] += 3.0 * h / 8.0
    return w


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on ascending nodes."""
    half = np.diff(nodes) / 2.0
    return np.r_[half, 0.0] + np.r_[0.0, half]


def make_grid(r_max: float, n: int, grading: str = "uniform", ratio: float = 1.0) -> RadialGrid:
    """Build a radial grid on [0, r_max].

    grading "uniform" gives equispaced nodes with composite-Simpson weights;
    "geometric" gives spacings growing by `ratio` with trapezoid weights,
    renormalized so the last node is exactly r_max.
    """
    if not (r_max > 0):
        raise ValueError("r_max must be positive")
    if n < MIN_NODES:
        raise ValueError(f"need n >= {MIN_NODES}")
    if grading == "uniform":
        nodes = np.linspace(0.0, r_max, n)
        nodes = nodes.copy()
        nodes[0] = 0.0
        nodes[-1] = r_max
        weights = _simpson_weights(n, r_max / (n - 1))
        return RadialGrid(nodes, weights, "uniform", 1.0)
    if grading == "geometric":
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        d = ratio ** np.arange(n - 1)
        nodes = np.concatenate(([0.0], np.cumsum(d)))
        nodes *= r_max / nodes[-1]
        nodes[-1] = r_max
        return RadialGrid(nodes, _trapezoid_weights(nodes), "geometric", float(ratio))
    raise ValueError(f"unknown grading {grading!r}")


def integrate_plane(f, values: Optional[np.ndarray] = None) -> float:
    """Plane integral of a radial integrand: 2*pi * int f(r) r dr.

    Accepts either a RadialFunction or a (grid, values) pair.
    """
    if values is None:
        g, vals = f.grid, f.values
    else:
        g, vals = f, np.asarray(values)
    return TWO_PI * float(np.sum(g.weights * vals * g.nodes))


def cumulative_integral(grid: RadialGrid, f: np.ndarray) -> np.ndarray:
    """C_i = int_0^{r_i} f dr with the grid's cumulative rule (C_0 = 0).

    On a uniform grid interval k = [r_{k-1}, r_k] takes the quadratic through
    r_{k-1..k+1} for odd k, and through r_{k-2..k} for even k and for the
    last interval of an even n; on a graded grid, the trapezoid.
    """
    f = np.asarray(f)
    n = grid.n
    inc = np.empty(n - 1)  # inc[k-1] is the integral over interval k
    if grid.grading == "uniform":
        c = (grid.nodes[1] - grid.nodes[0]) / 12.0
        c5, c8 = c * 5.0, c * 8.0
        f0, f1, f2 = f[0 : n - 2 : 2], f[1 : n - 1 : 2], f[2:n:2]
        inc[0 : n - 2 : 2] = c5 * f0 + c8 * f1 - c * f2
        inc[1 : n - 1 : 2] = -c * f0 + c8 * f1 + c5 * f2
        if n % 2 == 0:
            inc[-1] = -c * f[-3] + c8 * f[-2] + c5 * f[-1]
    else:
        half = np.diff(grid.nodes) / 2.0
        inc[:] = half * f[:-1] + half * f[1:]
    out = np.zeros(n)
    np.cumsum(inc, out=out[1:])
    return out


def cumulative_adjoint(grid: RadialGrid, z: np.ndarray) -> np.ndarray:
    """Transpose of cumulative_integral: returns C^T z.

    Needed to assemble exact discrete gradients of prefix-built functionals.
    Each node sums its terms in interval order, as a loop over intervals would.
    """
    z = np.asarray(z)
    n = grid.n
    # C_i = sum_{k<=i} inc_k, so C^T z weights increment k by suffix sums of z
    s = np.cumsum(z[::-1])[::-1]  # s[k] = sum_{i>=k} z_i
    out = np.zeros(n)
    if grid.grading == "uniform":
        c = (grid.nodes[1] - grid.nodes[0]) / 12.0
        c5, c8 = c * 5.0, c * 8.0
        m = 2 * ((n - 1) // 2)  # nodes 0..m carry the odd/even interval pairs
        sf, sb = s[1 : n - 1 : 2], s[2:n:2]  # forward and backward interval weights
        out[2 : m + 1 : 2] = -c * sf + c5 * sb  # right end of pair, then left end
        out[0:m:2] += c5 * sf
        out[0:m:2] -= c * sb
        out[1:m:2] = c8 * sf + c8 * sb
        if n % 2 == 0:
            out[-3] -= c * s[-1]
            out[-2] += c8 * s[-1]
            out[-1] = c5 * s[-1]
    else:
        t = np.diff(grid.nodes) / 2.0 * s[1:]
        out[1:] = t
        out[:-1] += t
    return out


def _diff_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(a, b, alpha, beta) of `differentiate`: u'_i = a (u_{i+1} - u_i) - b (u_{i-1} - u_i)
    inside and u'_{n-1} = alpha (u_{n-1} - u_{n-2}) + beta (u_{n-2} - u_{n-3})."""
    d = np.diff(x)
    dl, dr, d1, d2 = d[:-1], d[1:], d[-1], d[-2]
    return (dl / (dr * (dl + dr)), dr / (dl * (dl + dr)),
            (2.0 * d1 + d2) / (d1 * (d1 + d2)), -d1 / (d2 * (d1 + d2)))


def differentiate(u: RadialFunction) -> RadialFunction:
    """Second-order discrete d/dr; u'(0) = 0 by radial symmetry.

    Interior nodes use the 3-point stencil; the outer endpoint a one-sided
    second-order stencil.  Written in difference form so constants map to
    exactly zero.
    """
    g = u.grid
    v = u.values
    if g.n < 3:
        raise ValueError("need at least 3 nodes to differentiate")
    a, b, alpha, beta = _diff_weights(g.nodes)
    out = np.empty(g.n)
    out[0] = 0.0
    out[1:-1] = a * (v[2:] - v[1:-1]) - b * (v[:-2] - v[1:-1])
    out[-1] = alpha * (v[-1] - v[-2]) + beta * (v[-2] - v[-3])
    return RadialFunction(g, out)


def diff_matrix(grid: RadialGrid):
    """Sparse matrix realizing `differentiate` (rows match it exactly)."""
    n = grid.n
    a, b, alpha, beta = _diff_weights(grid.nodes)
    i = np.arange(1, n - 1)
    rows = np.concatenate((i, i, i, [n - 1] * 3))
    cols = np.concatenate((i + 1, i, i - 1, [n - 1, n - 2, n - 3]))
    vals = np.concatenate((a, b - a, -b, [alpha, beta - alpha, -beta]))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def sobolev_metric(grid: RadialGrid, m0: float):
    """(D, solve): D = `diff_matrix(grid)` and solve(b) = (D^T W D + m0 W)^{-1} b, W = 2 pi w r.

    The discrete metric of `norm_sobolev`, factored by SuperLU on first use
    for each (grid, m0) and kept on the grid.
    """
    if m0 not in grid.sobolev_metrics:
        d = diff_matrix(grid)
        big_w = sp.diags(TWO_PI * grid.weights * grid.nodes)
        grid.sobolev_metrics[m0] = d, spla.splu((d.T @ big_w @ d + m0 * big_w).tocsc()).solve
    return grid.sobolev_metrics[m0]


def norm_lp(u: RadialFunction, p: float) -> float:
    """Plane L^p norm (2*pi int |u|^p r dr)^{1/p}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    g = u.grid
    val = TWO_PI * float(np.sum(g.weights * np.abs(u.values) ** p * g.nodes))
    return val ** (1.0 / p)


def norm_sobolev(u: RadialFunction, m0: float) -> float:
    """sqrt(||u'||_2^2 + m0 ||u||_2^2), both in the plane L^2."""
    if m0 <= 0:
        raise ValueError("m0 must be positive")
    du = differentiate(u).values
    g = u.grid
    grad2 = TWO_PI * float(np.sum(g.weights * du**2 * g.nodes))
    l22 = TWO_PI * float(np.sum(g.weights * u.values**2 * g.nodes))
    return float(np.sqrt(grad2 + m0 * l22))


def dilate(u: RadialFunction, tau: float) -> RadialFunction:
    """v(r) = u(tau r); 0 beyond R_max.

    Resamples with a local 8-point Lagrange polynomial on the even extension
    of u through r = 0, the convention `laplacian_radial` uses.  The scheme
    is accurate to second differences: `laplacian_radial` of a dilated
    smooth profile matches that of the exactly sampled dilation, which is
    what lets `rescale_omega` carry a solution to a solution.  It does not
    preserve monotonicity between nodes.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    g = u.grid
    if tau == 1.0:
        return u
    x = g.nodes
    t = tau * x
    inside = t <= g.r_max
    t_in = t[inside]
    mirror = _DILATE_POINTS // 2 - 1
    # even extension: mirrored nodes -x_k carry u_k, k = mirror, ..., 1
    xe = np.concatenate((-x[mirror:0:-1], x))
    ve = np.concatenate((u.values[mirror:0:-1], u.values))
    # t in [x_j, x_{j+1}) takes extended indices from j on, i.e. the nodes
    # j - mirror, ..., j + mirror + 1 centred on its interval
    start = np.searchsorted(x, t_in, side="right") - 1
    idx = np.minimum(start, xe.size - _DILATE_POINTS)[:, None] + np.arange(_DILATE_POINTS)
    xs = xe[idx]
    # Lagrange basis L_k(t) = prod_{j != k} (t - x_j) / (x_k - x_j); the
    # diagonal factors are set to 1, so a target on a node returns its value
    num = np.repeat((t_in[:, None] - xs)[:, None, :], _DILATE_POINTS, axis=1)
    den = xs[:, :, None] - xs[:, None, :]
    k = np.arange(_DILATE_POINTS)
    num[:, k, k] = den[:, k, k] = 1.0
    v = np.zeros(g.n)
    v[inside] = np.sum(np.prod(num / den, axis=2) * ve[idx], axis=1)
    return RadialFunction(g, v)


def _fornberg(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 on nodes x."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def laplacian_radial(u: RadialFunction) -> np.ndarray:
    """Radial Laplacian u'' + u'/r, with the smooth limit 2u''(0) at r = 0.

    Fourth-order stencils on uniform grids (even extension through the
    origin), second-order 3-point stencils on graded grids.
    """
    g = u.grid
    x, v = g.nodes, u.values
    n = g.n
    out = np.empty(n)
    if g.grading == "uniform":
        h = x[1] - x[0]
        h2 = 12.0 * h * h
        h1 = 12.0 * h
        # interior, 5-point centered: v[i-2], ..., v[i+2] for i = 2, ..., n-3
        vm2, vm1, v0, vp1, vp2 = (v[k : n - 4 + k] for k in range(5))
        upp = (-vm2 + 16 * vm1 - 30 * v0 + 16 * vp1 - vp2) / h2
        up = (vm2 - 8 * vm1 + 8 * vp1 - vp2) / h1
        out[2 : n - 2] = upp + up / x[2 : n - 2]
        # r = 0: Delta u = 2 u''(0), even extension
        out[0] = 2.0 * (-30 * v[0] + 32 * v[1] - 2 * v[2]) / h2
        # r = h: even extension supplies the ghost value u(-h) = u(h)
        upp1 = (16 * v[0] - 31 * v[1] + 16 * v[2] - v[3]) / h2
        up1 = (-8 * v[0] + v[1] + 8 * v[2] - v[3]) / h1
        out[1] = upp1 + up1 / x[1]
        # last two nodes: one-sided 6-point stencils
        tail = v[n - 6 :]
        for i, (w2, w1) in zip((n - 2, n - 1), g.tail_weights):
            out[i] = np.dot(w2, tail) + np.dot(w1, tail) / x[i]
    else:
        index, w2, w1 = g.graded_weights
        # row-wise dot products; matmul forms each as np.dot does
        vs = v[index][:, :, None]
        upp = (w2[:, None, :] @ vs)[:, 0, 0]
        up = (w1[:, None, :] @ vs)[:, 0, 0]
        out[0] = 2.0 * upp[0]
        out[1:] = upp[1:] + up[1:] / x[1:]
    return out


def save_profile_csv(path, u: RadialFunction) -> None:
    """Write a profile as CSV with header r,value at full precision."""
    with open(path, "w") as fh:
        fh.write("r,value\n")
        for r, v in zip(u.grid.nodes, u.values):
            fh.write(f"{float(r)!r},{float(v)!r}\n")


def load_profile_csv(path, grading: str = "uniform") -> RadialFunction:
    """Read a profile CSV written by save_profile_csv, rebuilding the grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    nodes = data[:, 0]
    if grading == "uniform":
        grid = make_grid(nodes[-1], len(nodes), "uniform")
    else:
        grid = RadialGrid(nodes, _trapezoid_weights(nodes), grading)
    return RadialFunction(grid, data[:, 1])
