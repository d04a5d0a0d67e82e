import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cssolve.grid import (
    RadialFunction,
    _fornberg,
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
    save_profile_csv,
)


@pytest.fixture(scope="module")
def uniform():
    return make_grid(8.0, 4097)


def _reference_increments(grid):
    """The cumulative rule as per-interval (index, coefficient) triples.

    An independent gather form of the rule; the slice form in cssolve.grid
    must reproduce it bit for bit.
    """
    n, x = grid.n, grid.nodes
    ks = np.arange(1, n)
    idx = np.empty((n - 1, 3), dtype=np.intp)
    coef = np.empty((n - 1, 3))
    if grid.grading == "uniform":
        h = x[1] - x[0]
        fwd = (ks % 2 == 1) & (ks < n - 1)
        kf, kb = ks[fwd], ks[~fwd]
        idx[fwd] = np.stack([kf - 1, kf, kf + 1], axis=1)
        coef[fwd] = h / 12.0 * np.array([5.0, 8.0, -1.0])
        idx[~fwd] = np.stack([kb - 2, kb - 1, kb], axis=1)
        coef[~fwd] = h / 12.0 * np.array([-1.0, 8.0, 5.0])
    else:
        d = np.diff(x)
        idx[:] = np.stack([ks - 1, ks - 1, ks], axis=1)
        coef[:, 0] = 0.0
        coef[:, 1] = coef[:, 2] = d / 2.0
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

    An independent copy of the stencils; the slice form and the grid-owned
    tail weights in cssolve.grid must reproduce it bit for bit.
    """
    g = u.grid
    x, v = g.nodes, u.values
    n = g.n
    out = np.empty(n)
    if g.grading == "uniform":
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
    else:
        for i in range(n):
            if i == 0:
                sl = slice(0, 3)
                out[0] = 2.0 * np.dot(_fornberg(x[sl], 0.0, 2), v[sl])
                continue
            sl = slice(max(0, i - 1), min(n, i + 2))
            if sl.stop - sl.start < 3:
                sl = slice(n - 3, n)
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

    def test_geometric_grading_monotone(self):
        g = make_grid(8.0, 128, grading="geometric", ratio=1.02)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 8.0

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            make_grid(8.0, 8)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            make_grid(-1.0, 128)


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

    @pytest.mark.parametrize("grid", [make_grid(8.0, 4096),
                                      make_grid(8.0, 1025, "geometric", 1.003)],
                             ids=["uniform_even_n", "geometric"])
    def test_cumulative_adjoint_transpose_even_and_graded(self, grid):
        # an even n closes with a backward interval; a graded grid is trapezoid
        rng = np.random.default_rng(11)
        f = rng.standard_normal(grid.n)
        z = rng.standard_normal(grid.n)
        lhs = np.dot(z, cumulative_integral(grid, f))
        rhs = np.dot(cumulative_adjoint(grid, z), f)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(16, 3000), grading=st.sampled_from(["uniform", "geometric"]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=16, grading="uniform", seed=1)
    @example(n=17, grading="uniform", seed=2)
    @example(n=4096, grading="uniform", seed=3)
    @example(n=4097, grading="uniform", seed=4)
    @example(n=16, grading="geometric", seed=5)
    @example(n=17, grading="geometric", seed=6)
    @example(n=4096, grading="geometric", seed=7)
    @example(n=4097, grading="geometric", seed=8)
    def test_slice_form_matches_reference_bitwise(self, n, grading, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(rng.uniform(1.0, 30.0), n, grading, 1.0 + 3.0 / n)
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

    def test_diff_matrix_matches_differentiate(self, uniform):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(uniform.n)
        d = diff_matrix(uniform)
        ref = differentiate(RadialFunction(uniform, v)).values
        assert np.max(np.abs(d @ v - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_laplacian_fourth_order_on_gaussian(self, uniform):
        lap = laplacian_radial(gauss(uniform))
        exact = (4.0 * uniform.nodes**2 - 4.0) * np.exp(-uniform.nodes**2)
        assert np.max(np.abs(lap - exact)) < 1e-9

    def test_laplacian_origin_limit(self, uniform):
        # Delta u (0) = 2 u''(0) = -4 for the Gaussian
        lap = laplacian_radial(gauss(uniform))
        assert abs(lap[0] + 4.0) < 1e-9

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(16, 3000), grading=st.sampled_from(["uniform", "geometric"]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=16, grading="uniform", seed=1)
    @example(n=17, grading="uniform", seed=2)
    @example(n=4096, grading="uniform", seed=3)
    @example(n=4097, grading="uniform", seed=4)
    @example(n=16, grading="geometric", seed=5)
    @example(n=17, grading="geometric", seed=6)
    @example(n=4096, grading="geometric", seed=7)
    @example(n=4097, grading="geometric", seed=8)
    def test_laplacian_matches_reference_bitwise(self, n, grading, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(rng.uniform(1.0, 30.0), n, grading, 1.0 + 3.0 / n)
        u = RadialFunction(grid, rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0))
        assert np.array_equal(laplacian_radial(u), _reference_laplacian(u))

    @pytest.mark.parametrize("n", [16, 17, 4096, 4097])
    def test_tail_weights_cached_and_equal_fresh_fornberg(self, n):
        grid = make_grid(8.0, n)
        # computed on first use, not when the grid is built
        assert "tail_weights" not in vars(grid)
        weights = grid.tail_weights
        assert grid.tail_weights is weights
        x = grid.nodes
        for i, (w2, w1) in zip((n - 2, n - 1), weights):
            assert np.array_equal(w2, _fornberg(x[n - 6 :], x[i], 2))
            assert np.array_equal(w1, _fornberg(x[n - 6 :], x[i], 1))


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
