"""Uniform radial grids on [0, R_max] and calculus for radial functions on the plane.

A radial function u(r) stands for the planar field u(|x|); all integrals
are plane integrals, i.e. carry the measure 2*pi*r*dr.  A grid is the
pair (R_max, n) of an equispaced grid.  Its quadrature rule is written
once, as the grid's increment matrix B, `RadialGrid.cumulative_increments`:
the cumulative integral sums its rows, the adjoint is its transpose, and
the weights of a plain integral are its column sums B^T 1.  The
derivative is written once, as the matrix `RadialGrid.derivative`.  The
Laplacian is written once, as the matrix `RadialGrid.laplacian`.  A grid
keeps what depends on it alone; a `RadialFunction` keeps, in its `memo`,
what the `per_iterate` functions compute of it.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TWO_PI = 2.0 * np.pi

MIN_NODES = 16

_DILATE_POINTS = 8


@dataclass(frozen=True)
class RadialGrid:
    """The uniform grid of n nodes on [0, r_max], r_i = i h.

    A grid is the pair (r_max, n), so grids compare and hash by value.  All
    else is derived from it on first use and kept read-only: the nodes
    np.linspace(0, r_max, n), the spacing h = r_1 - r_0 that every stencil
    reads, the weights B^T 1 of the 1-D integral int_0^{r_max} f(r) dr
    (composite Simpson on odd n; on even n the last interval closes with
    B's backward quadratic), the plane measure 2 pi w r, and the stencil matrices below.
    """

    r_max: float
    n: int

    def __post_init__(self):
        r_max, n = float(self.r_max), operator.index(self.n)
        if not 0.0 < r_max < math.inf:
            raise ValueError("r_max must be positive and finite")
        if n < MIN_NODES:
            raise ValueError(f"grid needs at least {MIN_NODES} nodes")
        object.__setattr__(self, "r_max", r_max)
        object.__setattr__(self, "n", n)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _read_only(np.linspace(0.0, self.r_max, self.n))

    @cached_property
    def h(self) -> float:
        return self.nodes[1] - self.nodes[0]

    @cached_property
    def weights(self) -> np.ndarray:
        """The column sums B^T 1 of `cumulative_increments`: int f dr is C(f)[-1]."""
        return _read_only(self.cumulative_increments_t @ np.ones(self.n - 1))

    @cached_property
    def plane_weights(self) -> np.ndarray:
        """2 pi w r, the plane measure: integrate_plane(g, f) is plane_weights . f; read-only."""
        return _read_only(TWO_PI * self.weights * self.nodes)

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """The radial Laplacian u'' + u'/r as a read-only CSR matrix; built on first use and kept.

        Fourth-order rows: 2u''(0) at the origin and the ghost value
        u(-h) = u(h) at r = h, both from the even extension through the
        origin; 5-point centred rows inside; one-sided 6-point stencils at
        the last two nodes.
        """
        x, n, h = self.nodes, self.n, self.h
        h2, h1 = 12.0 * h * h, 12.0 * h
        i = np.arange(2, n - 2)
        inner = (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / h2
                 + np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / h1 / x[i, None])
        tail = [_fornberg(x[-6:], x0, 2) + _fornberg(x[-6:], x0, 1) / x0 for x0 in x[-2:]]
        data = np.r_[2.0 * np.array([-30.0, 32.0, -2.0]) / h2,
                     np.array([16.0, -31.0, 16.0, -1.0]) / h2
                     + np.array([-8.0, 1.0, 8.0, -1.0]) / h1 / x[1],
                     inner.ravel(), *tail]
        cols = np.r_[0:3, 0:4, (i[:, None] + np.arange(-2, 3)).ravel(), n - 6:n, n - 6:n]
        indptr = np.r_[0, np.cumsum(np.r_[3, 4, np.full(n - 4, 5), 6, 6])]
        return _read_only(sp.csr_matrix((data, cols, indptr), shape=(n, n)))

    @cached_property
    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(lower, diag, upper, m): the 3-point -Delta_r and kappa-free Robin row, for gttrf.

        Row 0 is -4(u_1 - u_0)/h^2 (the even extension).  Interior row i is
        lower_i u_{i-1} + (2/h^2) u_i + upper_i u_{i+1}, with lower/upper =
        -1/h^2 +/- 1/(2 h r_i): lower[:-1] and upper[1:] are these rows, which
        the cold shot marches.  The last is `robin_row` at kappa = 0 less
        m = 1/(2h lower_{n-2}) times row n-2, which removes its u_{n-3} entry,
        so a diagonal added to row n-2 enters it times -m.  Read-only; built
        on first use.
        """
        r, h, h2 = self.nodes[1:-1], self.h, self.h**2
        lower, upper = -1.0 / h2 + 1.0 / (2.0 * h * r), -1.0 / h2 - 1.0 / (2.0 * h * r)
        robin = robin_row(np.eye(3), h, 0.0)
        m = robin[0] / lower[-1]
        diag = np.r_[4.0 / h2, np.full(self.n - 2, 2.0 / h2), robin[2] - m * upper[-1]]
        return (_read_only(np.r_[lower, robin[1] - m * 2.0 / h2]), _read_only(diag),
                _read_only(np.r_[-4.0 / h2, upper]), m)

    @cached_property
    def five_point_diagonal(self) -> np.ndarray:
        """The diagonal of -`laplacian`, the kappa-free `robin_row`'s 3/(2h) last; read-only."""
        robin = robin_row(np.eye(3), self.h, 0.0)
        return _read_only(np.r_[-self.laplacian.diagonal()[:-1], robin[2]])

    @cached_property
    def cumulative_increments(self) -> sp.csr_matrix:
        """The cumulative rule as a read-only CSR matrix B, shape (n - 1, n).

        Row k - 1 is the integral over [r_{k-1}, r_k]: that of the quadratic
        through r_{k-1..k+1} for odd k, and through r_{k-2..k} for even k and
        for the last interval of an even n.  Built on first use and then kept.
        """
        n = self.n
        k = np.arange(1, n)
        c = self.h / 12.0
        fwd = (k % 2 == 1) & (k < n - 1)
        cols = np.where(fwd, k - 1, k - 2)[:, None] + np.arange(3)
        data = np.where(fwd[:, None], [c * 5.0, c * 8.0, -c], [-c, c * 8.0, c * 5.0])
        return _read_only(sp.csr_matrix((data.ravel(), cols.ravel(), np.arange(n) * 3),
                                         shape=(n - 1, n)))

    @cached_property
    def cumulative_increments_t(self) -> sp.csc_matrix:
        """B^T, the CSC transpose of `cumulative_increments`, read-only; built on first use."""
        return _read_only(self.cumulative_increments.T)

    @cached_property
    def derivative(self) -> sp.csr_matrix:
        """The discrete d/dr as a read-only CSR matrix; built on first use and then kept.

        Interior rows are (u_{i+1} - u_{i-1}) / 2h.  The origin row is empty,
        so u'(0) = 0 by radial symmetry, and the last row is the one-sided
        second-order u'(R) of `robin_row` at kappa = 0.
        """
        n, c = self.n, 1.0 / (2.0 * self.h)
        i = np.arange(1, n - 1)
        cols = np.r_[np.c_[i - 1, i + 1].ravel(), n - 3, n - 2, n - 1]
        data = np.r_[np.tile([-c, c], n - 2), robin_row(np.eye(3), self.h, 0.0)]
        indptr = np.r_[0, 0, 2 * i, 2 * n - 1]
        return _read_only(sp.csr_matrix((data, cols, indptr), shape=(n, n)))

    @cached_property
    def derivative_t(self) -> sp.csc_matrix:
        """D^T, the CSC transpose of `derivative` on its arrays, read-only; built on first use."""
        return self.derivative.T

    @cached_property
    def sobolev_metrics(self) -> dict:
        """{m0: solve}, filled by `sobolev_metric`."""
        return {}


@dataclass(frozen=True)
class RadialFunction:
    """Read-only samples of a radial profile u(r) on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.flags.writeable:
            # freeze a private copy; never flip flags on the caller's array
            values = values.copy()
            values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n,):
            raise ValueError("values must match the grid size")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")

    @cached_property
    def memo(self) -> dict:
        """{(function, *args): value}, filled by the `per_iterate` functions of u."""
        return {}


def per_iterate(fn):
    """fn(u, *args), computed once per (u, args) and kept in u.memo.

    The values of u never change, so neither does a quantity of u; fn must
    return a read-only value.  args key the memo by hash: a float q by
    value, a NonlinearityModel by identity.
    """

    @wraps(fn)
    def memoized(u, *args):
        memo, key = u.memo, (fn, *args)
        if key not in memo:
            memo[key] = fn(u, *args)
        return memo[key]

    return memoized


def _read_only(a):
    """a, frozen in place and returned: an array, or the arrays behind a sparse matrix."""
    for x in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        x.setflags(write=False)
    return a


def make_grid(r_max: float, n: int) -> RadialGrid:
    """The uniform grid of n nodes on [0, r_max], RadialGrid(r_max, n)."""
    return RadialGrid(r_max, n)


def integrate_plane(f, values: Optional[np.ndarray] = None) -> float:
    """Plane integral of a radial integrand: 2*pi * int f(r) r dr.

    Accepts either a RadialFunction or a (grid, values) pair.
    """
    g, vals = (f.grid, f.values) if values is None else (f, values)
    return float(np.dot(g.plane_weights, vals))


def over_r(grid: RadialGrid, x: np.ndarray) -> np.ndarray:
    """x / r, with 0 at r = 0: the limit there of x / r for the x = O(r^2) it is given."""
    out = np.zeros(grid.n)
    np.divide(x[1:], grid.nodes[1:], out=out[1:])
    return out


def cumulative_integral(grid: RadialGrid, f: np.ndarray) -> np.ndarray:
    """C_i = int_0^{r_i} f dr with the grid's cumulative rule (C_0 = 0)."""
    out = np.zeros(grid.n)
    np.cumsum(grid.cumulative_increments @ f, out=out[1:])
    return out


def cumulative_adjoint(grid: RadialGrid, z: np.ndarray) -> np.ndarray:
    """Transpose of cumulative_integral: returns C^T z.

    Needed to assemble exact discrete gradients of prefix-built functionals.
    C_i sums increments k <= i, so increment k is weighted by the suffix sum
    s_k = sum_{i>=k} z_i; the CSC matvec of B^T (the grid's
    `cumulative_increments_t`) adds each node's terms in interval order.
    """
    s = np.cumsum(np.asarray(z)[::-1])[::-1]
    return grid.cumulative_increments_t @ s[1:]


@per_iterate
def differentiate(u: RadialFunction) -> RadialFunction:
    """u' = `RadialGrid.derivative` u; u'(0) = 0 by radial symmetry."""
    # a fresh array: frozen here, so RadialFunction wraps it without a copy
    return RadialFunction(u.grid, _read_only(u.grid.derivative @ u.values))


def diff_matrix(grid: RadialGrid) -> sp.csr_matrix:
    """The grid's derivative matrix `RadialGrid.derivative`, the D of `sobolev_metric`."""
    return grid.derivative


def sobolev_metric(grid: RadialGrid, m0: float):
    """solve(b) = (D^T W D + m0 W)^{-1} b, with D = `diff_matrix(grid)` and W = 2 pi w r.

    The discrete metric of `norm_sobolev`, factored by SuperLU on first use
    for each (grid, m0) and kept on the grid.
    """
    if m0 not in grid.sobolev_metrics:
        d = diff_matrix(grid)
        big_w = sp.diags(grid.plane_weights)
        grid.sobolev_metrics[m0] = spla.splu((d.T @ big_w @ d + m0 * big_w).tocsc()).solve
    return grid.sobolev_metrics[m0]


def norm_lp(u: RadialFunction, p: float) -> float:
    """Plane L^p norm (2*pi int |u|^p r dr)^{1/p}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return integrate_plane(u.grid, np.abs(u.values) ** p) ** (1.0 / p)


def norm_sobolev(u: RadialFunction, m0: float) -> float:
    """sqrt(||u'||_2^2 + m0 ||u||_2^2), both in the plane L^2."""
    if m0 <= 0:
        raise ValueError("m0 must be positive")
    grad2 = integrate_plane(u.grid, differentiate(u).values ** 2)
    l22 = integrate_plane(u.grid, u.values**2)
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


def robin_row(v: np.ndarray, h: float, kappa: float) -> float | np.ndarray:
    """Outer row u'(R) + kappa u(R) of v, with the one-sided second-order u'(R).

    Applied to np.eye(3) it returns the row's coefficients of u_{n-3}, u_{n-2}, u_{n-1}.
    """
    return (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h) + kappa * v[-1]


def laplacian_radial(u, values: Optional[np.ndarray] = None) -> np.ndarray:
    """Radial Laplacian u'' + u'/r (2u''(0) at r = 0): the grid's `RadialGrid.laplacian` times u.

    Accepts either a RadialFunction or a (grid, values) pair.
    """
    g, v = (u.grid, u.values) if values is None else (u, values)
    return g.laplacian @ v


def save_profile_csv(path, u: RadialFunction) -> None:
    """Write a profile as CSV with header r,value at full precision."""
    with open(path, "w") as fh:
        fh.write("r,value\n")
        for r, v in zip(u.grid.nodes, u.values):
            fh.write(f"{float(r)!r},{float(v)!r}\n")


def load_profile_csv(path) -> RadialFunction:
    """Read a profile CSV written by save_profile_csv, on the grid it was saved on.

    The nodes are written exactly, so those of a uniform grid rebuild it bit
    for bit.  Fewer than MIN_NODES rows, or nodes that are not a uniform
    grid, raise ValueError naming the file.
    """
    with warnings.catch_warnings():
        # a header-only file is reported below, as a profile of 0 rows
        warnings.simplefilter("ignore", UserWarning)
        # ndmin=2: a single data row is still a table
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = table.shape[0]
    if rows < MIN_NODES:
        raise ValueError(f"{path}: a profile needs at least {MIN_NODES} rows, found {rows}")
    nodes, values = table.T
    if 0.0 < nodes[-1] < math.inf:
        grid = make_grid(nodes[-1], rows)
        if np.array_equal(grid.nodes, nodes):
            return RadialFunction(grid, values)
    raise ValueError(f"{path}: the profile's nodes are not a uniform grid")
