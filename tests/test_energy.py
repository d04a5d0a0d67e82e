import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from cssolve.energy import (
    d_theta_j_tilde,
    i_comparison,
    j_q,
    j_tilde,
    j_trunc,
    phi,
    phi_prime,
    rescale_omega,
    riesz_gradient,
    weak_gradient,
)
from cssolve.gauge import big_n, big_n_prime
from cssolve.grid import (RadialFunction, diff_matrix, differentiate, dilate, integrate_plane,
                          make_grid, sobolev_metric)
from cssolve.nonlinearity import power_model

from conftest import PROPERTY, profiles, ring_sum


@pytest.fixture(scope="module")
def grid():
    return make_grid(8.0, 4097)


@pytest.fixture(scope="module")
def gauss(grid):
    return RadialFunction(grid, np.exp(-grid.nodes**2))


@pytest.fixture(scope="module")
def model():
    return power_model(2.0, 1.0)


class TestPhi:
    def test_plateau_and_support(self):
        assert phi(0.0) == 1.0 and phi(1.0) == 1.0
        assert phi(2.0) == 0.0 and phi(5.0) == 0.0

    def test_monotone_in_between(self):
        values = [phi(s) for s in np.linspace(1.0, 2.0, 200)]
        assert np.all(np.diff(values) <= 0)

    def test_slope_bound(self):
        assert max(abs(phi_prime(s)) for s in np.linspace(0.0, 3.0, 2001)) <= 15.0 / 8.0 + 1e-12

    def test_derivative_consistent(self):
        for s in np.linspace(0.5, 2.5, 101):
            fd = (phi(s + 1e-7) - phi(s - 1e-7)) / 2e-7
            assert abs(fd - phi_prime(s)) < 1e-6


class TestJq:
    def test_zero_profile(self, grid, model):
        u = RadialFunction(grid, np.zeros(grid.n))
        assert j_q(u, 1.0, model).total == 0.0

    def test_gaussian_closed_form(self, gauss, model):
        # 1/2 ||grad||^2 = pi/2; (1/2) N = (pi/32) ln(4/3);
        # -int G = -2 pi int (e^{-3r^2}/3 - e^{-2r^2}/2) r dr = 5 pi/36
        exact = math.pi / 2 + (math.pi / 32) * math.log(4.0 / 3.0) + 5.0 * math.pi / 36.0
        assert abs(j_q(gauss, 1.0, model).total - exact) < 1e-5

    def test_breakdown_sums(self, gauss, model):
        eb = j_q(gauss, 0.7, model)
        assert eb.total == eb.dirichlet + eb.nonlocal_term + eb.potential

    def test_q_zero_is_local_functional(self, gauss, model):
        eb = j_q(gauss, 0.0, model)
        assert eb.nonlocal_term == 0.0

    def test_rejects_negative_q(self, gauss, model):
        with pytest.raises(ValueError):
            j_q(gauss, -1.0, model)


class TestJTrunc:
    def test_inactive_region_matches_j_q(self, gauss, model):
        q = 0.5 / big_n(gauss)  # qN = 1/2 <= 1
        assert j_trunc(gauss, q, model).total == j_q(gauss, q, model).total

    def test_saturated_region_drops_nonlocal(self, gauss, model):
        q = 3.0 / big_n(gauss)  # qN = 3 >= 2
        eb = j_trunc(gauss, q, model)
        assert eb.nonlocal_term == 0.0
        assert eb.truncation_active

    @PROPERTY
    @given(u=profiles())
    def test_dominates_comparison_functional(self, model, u):
        assert j_trunc(u, 0.01, model).total >= i_comparison(u, model) - 1e-10


class TestIComparison:
    def test_zero(self, grid, model):
        assert i_comparison(RadialFunction(grid, np.zeros(grid.n)), model) == 0.0

    def test_small_profiles_are_pure_dirichlet(self, grid, model):
        u = RadialFunction(grid, 0.4 * np.exp(-grid.nodes**2))  # sup <= delta0
        d = 0.5 * integrate_plane(grid, differentiate(u).values ** 2)
        assert math.isclose(i_comparison(u, model), d, rel_tol=1e-12)
        assert i_comparison(u, model) > 0


class TestJTilde:
    def test_theta_zero_is_j_trunc(self, gauss, model):
        assert j_tilde(0.0, gauss, 0.5, model).total == j_trunc(gauss, 0.5, model).total

    def test_matches_actual_dilation(self, gauss, model):
        theta = 0.3
        lhs = j_tilde(theta, gauss, 0.5, model).total
        rhs = j_trunc(dilate(gauss, math.exp(-theta)), 0.5, model).total
        assert abs(lhs - rhs) < 1e-5 * max(abs(lhs), 1.0)

    def test_zero_profile_all_theta(self, grid, model):
        u = RadialFunction(grid, np.zeros(grid.n))
        for theta in (-1.0, 0.0, 2.0):
            assert j_tilde(theta, u, 1.0, model).total == 0.0


class TestDerivatives:
    @staticmethod
    def _gaussians(grid, rng):
        """Ten centred Gaussians of amplitude in [0.2, 3] and width in [0.5, 2].

        Finite differences at step 1e-6 lose about 1e-10 |j| to roundoff, so
        these stay on profiles whose action is O(1), not on `profiles`.
        """
        for _ in range(10):
            ring = (rng.uniform(0.2, 3.0), 0.0, rng.uniform(0.5, 2.0))
            yield RadialFunction(grid, ring_sum(grid, [ring]))

    def test_theta_derivative_matches_fd(self, grid, model):
        rng = np.random.default_rng(1)
        for u in self._gaussians(grid, rng):
            theta = rng.uniform(-0.4, 0.4)
            q = rng.uniform(0.0, 0.05)
            s = q * math.exp(4 * theta) * big_n(u)
            if min(abs(s - 1.0), abs(s - 2.0)) < 0.05:
                continue  # stay away from the cutoff kinks
            fd = (j_tilde(theta + 1e-6, u, q, model).total
                  - j_tilde(theta - 1e-6, u, q, model).total) / 2e-6
            an = d_theta_j_tilde(theta, u, q, model)
            assert abs(fd - an) < 1e-6 * max(abs(an), 1.0)

    def test_weak_gradient_matches_fd(self, grid, model):
        rng = np.random.default_rng(2)
        for u in self._gaussians(grid, rng):
            v = RadialFunction(grid, rng.standard_normal(grid.n) * np.exp(-grid.nodes))
            theta = rng.uniform(-0.3, 0.3)
            q = rng.uniform(0.0, 0.05)
            eps = 1e-6
            fd = (j_tilde(theta, RadialFunction(grid, u.values + eps * v.values), q, model).total
                  - j_tilde(theta, RadialFunction(grid, u.values - eps * v.values), q, model).total
                  ) / (2 * eps)
            an = weak_gradient(theta, u, q, model, v)
            assert abs(fd - an) < 1e-6 * max(abs(an), 1.0)

    @pytest.mark.parametrize("theta", [-0.3, 0.0, 0.2])
    @pytest.mark.parametrize("s", [0.5, 1.5, 3.0], ids=["s<1", "1<s<2", "s>2"])
    def test_weak_gradient_matches_its_formula(self, model, theta, s):
        # G . v against the formula with N'(u)[v] from big_n_prime, in each
        # piece of the cutoff: phi = 1, phi' != 0, and phi = phi' = 0
        g = make_grid(8.0, 1025)
        u = RadialFunction(g, 1.7 * np.exp(-g.nodes**2 / 2.0))
        rng = np.random.default_rng(7)
        v = RadialFunction(g, rng.standard_normal(g.n) * np.exp(-0.5 * g.nodes))
        n_val = big_n(u)
        e4 = math.exp(4.0 * theta)
        q = s / (e4 * n_val)
        weight = 0.5 * q * e4 * phi(s) + 0.5 * q * q * e4 * e4 * phi_prime(s) * n_val
        reference = (integrate_plane(g, differentiate(u).values * differentiate(v).values)
                     + weight * big_n_prime(u, v)
                     - math.exp(2.0 * theta) * integrate_plane(g, model.g(u.values) * v.values))
        an = weak_gradient(theta, u, q, model, v)
        assert abs(an - reference) <= 1e-12 * abs(reference)

    def test_weak_gradient_diagonal_identity(self, gauss, model):
        # v = u, theta = 0, truncation inactive:
        # ||grad u||^2 + 3 q N - int g(u) u
        q = 0.5 / big_n(gauss)
        grad2 = integrate_plane(gauss.grid, differentiate(gauss).values ** 2)
        expected = (grad2 + 3.0 * q * big_n(gauss)
                    - integrate_plane(gauss.grid, model.g(gauss.values) * gauss.values))
        assert abs(weak_gradient(0.0, gauss, q, model, gauss) - expected) < 1e-10

    def test_weak_gradient_zero_direction(self, gauss, model, grid):
        zero = RadialFunction(grid, np.zeros(grid.n))
        assert weak_gradient(0.0, gauss, 0.5, model, zero) == 0.0

    def test_grid_mismatch(self, gauss, model):
        other = make_grid(8.0, 129)
        with pytest.raises(ValueError):
            weak_gradient(0.0, gauss, 0.5, model, RadialFunction(other, np.zeros(129)))


class TestRieszGradient:
    @PROPERTY
    @given(u=profiles(), seed=st.integers(0, 2**32 - 1))
    def test_duality_property(self, model, u, seed):
        g = u.grid
        w = riesz_gradient(0.2, u, 0.03, model)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            v = RadialFunction(g, rng.standard_normal(g.n) * np.exp(-0.5 * g.nodes))
            pairing = (integrate_plane(g, differentiate(w).values * differentiate(v).values)
                       + model.m0 * integrate_plane(g, w.values * v.values))
            target = weak_gradient(0.2, u, 0.03, model, v)
            assert abs(pairing - target) < 1e-8 * max(abs(target), 1.0)

    def test_zero_profile(self, grid, model):
        w = riesz_gradient(0.0, RadialFunction(grid, np.zeros(grid.n)), 1.0, model)
        assert np.max(np.abs(w.values)) < 1e-14

    @pytest.mark.parametrize("n", [1025, 4096, 8193])
    def test_cached_metric_solve_equals_fresh_spsolve(self, model, n):
        g = make_grid(24.0, n)
        # factored on first use, not when the grid is built, and then kept
        assert "sobolev_metrics" not in vars(g)
        solve = sobolev_metric(g, model.m0)
        assert sobolev_metric(g, model.m0) is solve
        w_plane = 2.0 * math.pi * g.weights * g.nodes
        big_w = sp.diags(w_plane)
        fresh = diff_matrix(g)
        a = (fresh.T @ big_w @ fresh + model.m0 * big_w).tocsc()
        rng = np.random.default_rng(n)
        for _ in range(3):
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0)
            assert np.array_equal(solve(b), spla.spsolve(a, b))
        # the whole gradient, against the per-call factorization it replaces
        u = RadialFunction(g, 2.4 * np.exp(-g.nodes**2 / 3.0))
        rhs = (fresh.T @ (w_plane * (fresh @ u.values)) - w_plane * model.g(u.values))
        assert np.array_equal(riesz_gradient(0.0, u, 0.0, model).values, spla.spsolve(a, rhs))


class TestRescaleOmega:
    def test_identity_at_omega_one(self, gauss):
        v, q = rescale_omega(gauss, 1.0, 2.0)
        assert q == 1.0
        assert v is gauss

    def test_exponent_arithmetic(self, gauss):
        _, q = rescale_omega(gauss, 4.0, 2.0)
        assert q == 16.0  # 4^{2(3-2)/(2-1)}

    def test_rejects_p_three(self, gauss):
        with pytest.raises(ValueError):
            rescale_omega(gauss, 2.0, 3.0)

    def test_rejects_nonpositive_omega(self, gauss):
        with pytest.raises(ValueError):
            rescale_omega(gauss, 0.0, 2.0)

    def test_profile_scaling(self, gauss, grid):
        omega = 1.44
        v, _ = rescale_omega(gauss, omega, 2.0)
        # v(r) = omega^{-1} u(omega^{-1/2} r)
        exact = np.exp(-(grid.nodes / math.sqrt(omega)) ** 2) / omega
        assert np.max(np.abs(v.values - exact)) < 1e-6
