import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cssolve.grid import (
    RadialFunction,
    RadialGrid,
    _fornberg,
    _simpson_weights,
    cumulative_adjoint,
    cumulative_integral,
    diff_matrix,
    differentiate,
    dilate,
    integrate_plane,
    laplacian_radial,
    load_profile_csv,
    make_grid,
    norm_lp,
    norm_sobolev,
    robin_row,
    save_profile_csv,
)


@pytest.fixture(scope="module")
def uniform():
    return make_grid(8.0, 4097)


def _reference_increments(grid):
    """The cumulative rule as per-interval (index, coefficient) triples.

    An independent gather form of the rule; the grid's increment matrix in
    cssolve.grid must reproduce it bit for bit.
    """
    n, x = grid.n, grid.nodes
    ks = np.arange(1, n)
    idx = np.empty((n - 1, 3), dtype=np.intp)
    coef = np.empty((n - 1, 3))
    h = x[1] - x[0]
    fwd = (ks % 2 == 1) & (ks < n - 1)
    kf, kb = ks[fwd], ks[~fwd]
    idx[fwd] = np.stack([kf - 1, kf, kf + 1], axis=1)
    coef[fwd] = h / 12.0 * np.array([5.0, 8.0, -1.0])
    idx[~fwd] = np.stack([kb - 2, kb - 1, kb], axis=1)
    coef[~fwd] = h / 12.0 * np.array([-1.0, 8.0, 5.0])
    return idx, coef


def _reference_cumulative(grid, f):
    idx, coef = _reference_increments(grid)
    out = np.zeros(grid.n)
    np.cumsum(np.sum(coef * f[idx], axis=1), out=out[1:])
    return out


def _reference_adjoint(grid, z):
    idx, coef = _reference_increments(grid)
    s = np.cumsum(z[::-1])[::-1]
    out = np.zeros(grid.n)
    np.add.at(out, idx, coef * s[1:, None])  # unbuffered, in interval order
    return out


def _reference_laplacian(u):
    """laplacian_radial in gather form, with its tail weights computed per call.

    An independent copy of the stencils; the grid's Laplacian matrix must
    reproduce it to the rounding of summing each row in another order.
    """
    g = u.grid
    x, v = g.nodes, u.values
    n = g.n
    out = np.empty(n)
    h = x[1] - x[0]
    h2 = 12.0 * h * h
    h1 = 12.0 * h
    i = np.arange(2, n - 2)
    upp = (-v[i - 2] + 16 * v[i - 1] - 30 * v[i] + 16 * v[i + 1] - v[i + 2]) / h2
    up = (v[i - 2] - 8 * v[i - 1] + 8 * v[i + 1] - v[i + 2]) / h1
    out[2 : n - 2] = upp + up / x[i]
    out[0] = 2.0 * (-30 * v[0] + 32 * v[1] - 2 * v[2]) / h2
    upp1 = (16 * v[0] - 31 * v[1] + 16 * v[2] - v[3]) / h2
    up1 = (-8 * v[0] + v[1] + 8 * v[2] - v[3]) / h1
    out[1] = upp1 + up1 / x[1]
    for i in (n - 2, n - 1):
        sl = slice(n - 6, n)
        w2 = _fornberg(x[sl], x[i], 2)
        w1 = _fornberg(x[sl], x[i], 1)
        out[i] = np.dot(w2, v[sl]) + np.dot(w1, v[sl]) / x[i]
    return out


def gauss(grid):
    return RadialFunction(grid, np.exp(-grid.nodes**2))


class TestMakeGrid:
    def test_uniform_weights_sum_to_r_max(self, uniform):
        assert math.isclose(uniform.weights.sum(), 8.0, rel_tol=1e-14)

    def test_weights_positive(self, uniform):
        assert np.all(uniform.weights > 0)

    def test_odd_interval_count_uses_positive_closure(self):
        g = make_grid(8.0, 4096)  # 4095 intervals, odd
        assert np.all(g.weights > 0)
        assert math.isclose(g.weights.sum(), 8.0, rel_tol=1e-14)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            make_grid(8.0, 8)
        with pytest.raises(ValueError, match="16 nodes"):
            RadialGrid(8.0, 15)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            make_grid(-1.0, 128)

    @pytest.mark.parametrize("r_max", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_radius_not_positive_and_finite(self, r_max):
        with pytest.raises(ValueError, match="positive and finite"):
            RadialGrid(r_max, 129)

    def test_grids_compare_and_hash_by_value(self):
        grid = make_grid(24, 1025)
        assert grid == make_grid(24.0, 1025) == RadialGrid(np.float64(24.0), np.int64(1025))
        assert hash(grid) == hash(make_grid(24.0, 1025))
        assert grid != make_grid(24.0, 1024)
        assert grid != make_grid(np.nextafter(24.0, 25.0), 1025)

    @pytest.mark.parametrize("n", [16, 17, 4096, 4097, 8193])
    def test_nodes_weights_and_spacing_derived_on_first_use(self, n):
        grid = make_grid(24.0, n)
        assert not {"nodes", "weights", "h"} & set(vars(grid))
        assert np.array_equal(grid.nodes, np.linspace(0.0, 24.0, n))
        assert np.array_equal(grid.weights, _simpson_weights(n, 24.0 / (n - 1)))
        assert grid.h == grid.nodes[1] - grid.nodes[0]
        assert grid.nodes is grid.nodes and grid.weights is grid.weights
        assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable


class TestIntegration:
    def test_plane_integral_of_gaussian(self, uniform):
        # 2 pi int e^{-r^2} r dr = pi
        val = integrate_plane(gauss(uniform))
        assert abs(val - math.pi) < 1e-10

    def test_quartic_exact(self, uniform):
        # Simpson is exact on cubics: 2 pi int r^2 * r dr over [0,8]
        f = RadialFunction(uniform, uniform.nodes**2)
        assert math.isclose(integrate_plane(f), 2 * math.pi * 8.0**4 / 4, rel_tol=1e-13)

    def test_grid_values_call_form(self, uniform):
        u = gauss(uniform)
        assert integrate_plane(uniform, u.values) == integrate_plane(u)

    def test_cumulative_matches_analytic(self, uniform):
        # int_0^r s e^{-s^2} ds = (1 - e^{-r^2})/2
        c = cumulative_integral(uniform, uniform.nodes * np.exp(-uniform.nodes**2))
        exact = (1.0 - np.exp(-uniform.nodes**2)) / 2.0
        assert np.max(np.abs(c - exact)) < 1e-10

    def test_cumulative_adjoint_is_exact_transpose(self, uniform):
        rng = np.random.default_rng(7)
        f = rng.standard_normal(uniform.n)
        z = rng.standard_normal(uniform.n)
        lhs = np.dot(z, cumulative_integral(uniform, f))
        rhs = np.dot(cumulative_adjoint(uniform, z), f)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("grid", [make_grid(8.0, 4096)], ids=["uniform_even_n"])
    def test_cumulative_adjoint_transpose_even_and_graded(self, grid):
        # an even n closes with a backward interval
        rng = np.random.default_rng(11)
        f = rng.standard_normal(grid.n)
        z = rng.standard_normal(grid.n)
        lhs = np.dot(z, cumulative_integral(grid, f))
        rhs = np.dot(cumulative_adjoint(grid, z), f)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("n", [16, 17, 4096, 4097], ids=lambda n: f"{n}-uniform")
    def test_cumulative_increments_cached_and_read_only(self, n):
        grid = make_grid(8.0, n)
        # built on first use, not when the grid is built
        assert "cumulative_increments" not in vars(grid)
        assert "cumulative_increments_t" not in vars(grid)
        b = grid.cumulative_increments
        assert grid.cumulative_increments is b
        assert b.shape == (n - 1, n)
        for a in (b.data, b.indices, b.indptr):
            assert not a.flags.writeable
        idx, coef = _reference_increments(grid)
        rows = np.repeat(np.arange(n - 1), 3)
        ref = sp.csr_matrix((coef.ravel(), (rows, idx.ravel())), shape=(n - 1, n))
        assert (b != ref).nnz == 0
        # the adjoint's transpose is kept next to it
        bt = grid.cumulative_increments_t
        assert grid.cumulative_increments_t is bt
        for a in (bt.data, bt.indices, bt.indptr):
            assert not a.flags.writeable
        assert (bt != b.T).nnz == 0

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(16, 3000), seed=st.integers(0, 2**32 - 1))
    @example(n=16, seed=1)
    @example(n=17, seed=2)
    @example(n=4096, seed=3)
    @example(n=4097, seed=4)
    def test_slice_form_matches_reference_bitwise(self, n, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(rng.uniform(1.0, 30.0), n)
        f = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0)
        assert np.array_equal(cumulative_integral(grid, f), _reference_cumulative(grid, f))
        assert np.array_equal(cumulative_adjoint(grid, f), _reference_adjoint(grid, f))


class TestDerivatives:
    def test_differentiate_gaussian(self, uniform):
        du = differentiate(gauss(uniform))
        exact = -2.0 * uniform.nodes * np.exp(-uniform.nodes**2)
        assert np.max(np.abs(du.values - exact)) < 1e-5

    def test_derivative_zero_at_origin(self, uniform):
        assert differentiate(gauss(uniform)).values[0] == 0.0

    @pytest.mark.parametrize("n", [16, 17, 1025, 4096])
    def test_derivative_matrix(self, n):
        grid = make_grid(24.0, n)  # h = 24 / (n - 1) is no power of 2
        assert "derivative" not in vars(grid)
        d = grid.derivative
        assert grid.derivative is d and diff_matrix(grid) is d
        for a in (d.data, d.indices, d.indptr):
            assert not a.flags.writeable
        x, h = grid.nodes, grid.h
        # u'(0) = 0: the origin row is empty
        assert d.indptr[1] == 0
        # the last row is the Robin row's one-sided u'(R) at kappa = 0
        last = slice(d.indptr[-2], d.indptr[-1])
        assert np.array_equal(d.indices[last], np.arange(n - 3, n))
        assert np.array_equal(d.data[last], robin_row(np.eye(3), h, 0.0))
        # interior rows are +-1/(2h) on the neighbours
        assert np.all(d.diagonal(-1)[:-1] == -1.0 / (2.0 * h))
        assert np.all(d.diagonal(1)[1:] == 1.0 / (2.0 * h))
        assert d.nnz == 2 * (n - 2) + 3
        # exact on quadratics, to the roundoff of differencing O(1) values over h
        u = 1.5 - 0.7 * x / x[-1] + 2.0 * (x / x[-1]) ** 2
        exact = -0.7 / x[-1] + 4.0 * x / x[-1] ** 2
        assert np.max(np.abs(d @ u - exact)[1:]) <= 1e-13 / h
        # constants: exactly 0 inside, roundoff in the one-sided last row
        for c in (1.0, -2.4e5, 3.7e-6):
            du = d @ np.full(n, c)
            assert not du[:-1].any()
            assert abs(du[-1]) <= 8.0 * np.finfo(float).eps * abs(c) / h
        assert np.array_equal(differentiate(RadialFunction(grid, u)).values, d @ u)

    def test_laplacian_fourth_order_on_gaussian(self, uniform):
        lap = laplacian_radial(gauss(uniform))
        exact = (4.0 * uniform.nodes**2 - 4.0) * np.exp(-uniform.nodes**2)
        assert np.max(np.abs(lap - exact)) < 1e-9

    def test_laplacian_origin_limit(self, uniform):
        # Delta u (0) = 2 u''(0) = -4 for the Gaussian
        lap = laplacian_radial(gauss(uniform))
        assert abs(lap[0] + 4.0) < 1e-9

    @pytest.mark.parametrize("n", [16, 17, 1025, 4096, 4097])
    def test_laplacian_matrix(self, n):
        grid = make_grid(24.0, n)  # h = 24 / (n - 1) is no power of 2
        assert "laplacian" not in vars(grid)
        lap = grid.laplacian
        assert grid.laplacian is lap
        for a in (lap.data, lap.indices, lap.indptr):
            assert not a.flags.writeable
        x, h = grid.nodes, grid.h
        h2, h1 = 12.0 * h * h, 12.0 * h
        # the fourth-order stencils written out, row by row: (first column, coefficients)
        rows = [(0, 2.0 * np.array([-30.0, 32.0, -2.0]) / h2),
                (0, np.array([16.0, -31.0, 16.0, -1.0]) / h2
                 + np.array([-8.0, 1.0, 8.0, -1.0]) / h1 / x[1])]
        rows += [(i - 2, np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / h2
                  + np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / h1 / x[i]) for i in range(2, n - 2)]
        # the last two rows are fresh one-sided 6-point Fornberg weights
        rows += [(n - 6, _fornberg(x[n - 6 :], x[i], 2) + _fornberg(x[n - 6 :], x[i], 1) / x[i])
                 for i in (n - 2, n - 1)]
        assert lap.shape == (n, n) and lap.indptr.size == n + 1
        for i, (first, coef) in enumerate(rows):
            row = slice(lap.indptr[i], lap.indptr[i + 1])
            assert np.array_equal(lap.indices[row], first + np.arange(coef.size))
            assert lap.data[row].tobytes() == coef.tobytes()
        assert np.array_equal(laplacian_radial(grid, x**2), lap @ x**2)

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(16, 3000), seed=st.integers(0, 2**32 - 1))
    @example(n=16, seed=1)
    @example(n=17, seed=2)
    @example(n=4096, seed=3)
    @example(n=4097, seed=4)
    def test_laplacian_matches_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(rng.uniform(1.0, 30.0), n)
        u = RadialFunction(grid, rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0))
        # both sum the same products in another order: each row within a few
        # roundings of |L| |v| (measured at most 3.0 eps)
        scale = abs(grid.laplacian) @ np.abs(u.values)
        err = np.abs(laplacian_radial(u) - _reference_laplacian(u))
        assert np.all(err <= 8.0 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("n", [16, 1025])
    def test_robin_band_cached_read_only_and_built_on_first_use(self, n):
        grid = make_grid(24.0, n)
        assert "robin_band" not in vars(grid)
        band = grid.robin_band
        assert grid.robin_band is band
        assert not band.flags.writeable and band.flags.f_contiguous
        assert band.shape == (11, n)
        # gbtrf's fill-in rows, then -L on its 4 sub- and 2 superdiagonals
        assert not band[:4].any()
        lap = grid.laplacian[:-1].tocoo()
        ref = np.zeros((7, n))
        ref[2 + lap.row - lap.col, lap.col] = -lap.data
        assert np.array_equal(band[4:, :-5], ref[:, :-5])
        # the last row is the kappa-free Robin row (3 u_{n-1} - 4 u_{n-2} + u_{n-3}) / 2h
        h = grid.nodes[1] - grid.nodes[0]
        last = [band[6 + n - 1 - j, j] for j in range(n - 5, n)]
        assert last == [0.0, 0.0, 1.0 / (2.0 * h), -4.0 / (2.0 * h), 3.0 / (2.0 * h)]


class TestNorms:
    def test_l2_norm_of_gaussian(self, uniform):
        # ||u||_2^2 = 2 pi int e^{-2r^2} r dr = pi/2
        assert math.isclose(norm_lp(gauss(uniform), 2.0), math.sqrt(math.pi / 2), rel_tol=1e-10)

    def test_l4_norm_of_gaussian(self, uniform):
        # ||u||_4^4 = pi/4
        assert math.isclose(norm_lp(gauss(uniform), 4.0) ** 4, math.pi / 4, rel_tol=1e-10)

    def test_sobolev_norm_of_gaussian(self, uniform):
        # ||grad u||^2 = pi, m0 ||u||^2 = pi/4 at m0 = 1/2
        val = norm_sobolev(gauss(uniform), 0.5)
        assert math.isclose(val, math.sqrt(math.pi + math.pi / 4), rel_tol=1e-5)

    def test_norm_rejects_bad_p(self, uniform):
        with pytest.raises(ValueError):
            norm_lp(gauss(uniform), 0.5)


class TestDilate:
    def test_dilation_of_gaussian(self, uniform):
        v = dilate(gauss(uniform), 2.0)
        exact = np.exp(-(2.0 * uniform.nodes) ** 2)
        assert np.max(np.abs(v.values - exact)) < 1e-9

    def test_expanding_dilation_zero_fill(self, uniform):
        v = dilate(gauss(uniform), 4.0)
        assert np.all(np.isfinite(v.values))
        assert v.values[-1] == 0.0  # u is sampled at 4 r_max, beyond the domain

    def test_identity(self, uniform):
        u = gauss(uniform)
        assert dilate(u, 1.0) is u

    @pytest.mark.parametrize("tau", [1.0 / math.sqrt(1.2), 0.5])
    def test_second_differences_transported(self, tau):
        # the Laplacian of the resampled profile must match that of the
        # exactly sampled dilation; rescale_omega relies on this
        grid = make_grid(8.0, 1025)
        inside = tau * grid.nodes <= grid.r_max
        got = laplacian_radial(dilate(gauss(grid), tau))
        exact = laplacian_radial(RadialFunction(grid, np.exp(-(tau * grid.nodes) ** 2)))
        assert np.max(np.abs(got - exact)[inside]) < 1e-6


class TestSerialization:
    def test_roundtrip(self, uniform, tmp_path):
        u = gauss(uniform)
        path = tmp_path / "profile.csv"
        save_profile_csv(path, u)
        v = load_profile_csv(path)
        assert np.array_equal(v.values, u.values)
        assert np.array_equal(v.grid.nodes, uniform.nodes)

    def test_header(self, uniform, tmp_path):
        path = tmp_path / "profile.csv"
        save_profile_csv(path, gauss(uniform))
        assert path.read_text().splitlines()[0] == "r,value"

    def test_load_rejects_nonuniform_nodes(self, tmp_path):
        path = tmp_path / "profile.csv"
        nodes = 8.0 * np.linspace(0.0, 1.0, 129) ** 2
        np.savetxt(path, np.c_[nodes, np.exp(-nodes**2)], fmt="%.17g", delimiter=",",
                   header="r,value", comments="")
        with pytest.raises(ValueError, match="not a uniform grid"):
            load_profile_csv(path)

    @pytest.mark.parametrize("g", [make_grid(24.0, 8193)], ids=["uniform"])
    def test_roundtrip_keeps_the_grid(self, g, tmp_path):
        u = gauss(g)
        path = tmp_path / "profile.csv"
        save_profile_csv(path, u)
        v = load_profile_csv(path)
        assert np.array_equal(v.grid.nodes, g.nodes)
        assert np.array_equal(v.grid.weights, g.weights)
        assert np.array_equal(v.values, u.values)


class TestRadialFunction:
    def test_rejects_size_mismatch(self, uniform):
        with pytest.raises(ValueError):
            RadialFunction(uniform, np.zeros(3))

    def test_rejects_nan(self, uniform):
        vals = np.zeros(uniform.n)
        vals[0] = np.nan
        with pytest.raises(ValueError):
            RadialFunction(uniform, vals)

    def test_does_not_freeze_callers_array(self, uniform):
        vals = np.zeros(uniform.n)
        RadialFunction(uniform, vals)
        vals[0] = 1.0  # must stay writable
