
import numpy as np
import pytest
from hypothesis import given

from cssolve import gauge
from cssolve.gauge import (
    PhysicalConstants,
    big_n,
    big_n_gradient,
    big_n_prime,
    gauge_fields,
    gauge_potential,
    prefix_h,
    suffix_a,
)
from cssolve.grid import RadialFunction, dilate, make_grid

from conftest import PROPERTY, profiles
from oracles import GAUSS_A0, GAUSS_N, dense_big_n


@pytest.fixture(scope="module")
def grid():
    return make_grid(8.0, 4097)


@pytest.fixture(scope="module")
def gauss(grid):
    return RadialFunction(grid, np.exp(-grid.nodes**2))


class TestPrefixH:
    def test_gaussian_closed_form(self, gauss, grid):
        exact = (1.0 - np.exp(-2.0 * grid.nodes**2)) / 4.0
        assert np.max(np.abs(prefix_h(gauss).values - exact)) < 1e-10

    def test_starts_at_zero_and_monotone(self, gauss):
        h = prefix_h(gauss).values
        assert h[0] == 0.0
        assert np.all(np.diff(h) >= 0)


class TestSuffixA:
    def test_gaussian_value_at_origin(self, gauss):
        assert abs(suffix_a(gauss).values[0] - GAUSS_A0) < 1e-9

    def test_vanishes_at_outer_edge(self, gauss):
        assert suffix_a(gauss).values[-1] == 0.0

    def test_nonincreasing_for_positive_profile(self, gauss):
        a = suffix_a(gauss).values
        assert np.all(np.diff(a) <= 1e-15)

    def test_gauge_potential_reads_it_once(self, gauss, monkeypatch):
        calls = []

        def counted(u):
            calls.append(u)
            return suffix_a(u)

        monkeypatch.setattr(gauge, "suffix_a", counted)
        # a copy keeps nothing; the second call reads the potential kept on it
        fresh = RadialFunction(gauss.grid, gauss.values.copy())
        gauge_potential(fresh, 0.3)
        gauge_potential(fresh, 0.3)
        assert len(calls) == 1 and calls[0] is fresh


class TestBigN:
    def test_gaussian_closed_form(self, gauss):
        assert abs(big_n(gauss) - GAUSS_N) < 1e-6

    def test_against_dense_independent_quadrature(self, grid):
        u = RadialFunction(grid, np.exp(-grid.nodes) * np.cos(grid.nodes))
        dense_nodes = np.linspace(0.0, 8.0, 1 << 17)
        ref = dense_big_n(dense_nodes, np.exp(-dense_nodes) * np.cos(dense_nodes))
        assert abs(big_n(u) - ref) < 1e-7

    def test_dilation_law(self, gauss):
        n0 = big_n(gauss)
        for tau in (0.5, 2.0, 5.0):
            assert abs(big_n(dilate(gauss, tau)) - n0 / tau**4) < 1e-5 * n0 / tau**4

    def test_zero(self, grid):
        assert big_n(RadialFunction(grid, np.zeros(grid.n))) == 0.0


class TestBigNPrime:
    @PROPERTY
    @given(u=profiles())
    def test_six_n_identity(self, u):
        assert abs(big_n_prime(u, u) - 6.0 * big_n(u)) < 1e-12 * big_n(u)

    def test_matches_finite_difference(self, grid, gauss):
        rng = np.random.default_rng(5)
        v = RadialFunction(grid, rng.standard_normal(grid.n) * np.exp(-grid.nodes))
        eps = 1e-6
        up = RadialFunction(grid, gauss.values + eps * v.values)
        um = RadialFunction(grid, gauss.values - eps * v.values)
        fd = (big_n(up) - big_n(um)) / (2.0 * eps)
        assert abs(big_n_prime(gauss, v) - fd) < 1e-8 * max(abs(fd), 1.0)

    def test_gradient_realizes_pairing(self, grid, gauss):
        rng = np.random.default_rng(11)
        f = big_n_gradient(gauss)
        for _ in range(5):
            v = RadialFunction(grid, rng.standard_normal(grid.n))
            assert abs(np.dot(f, v.values) - big_n_prime(gauss, v)) < 1e-12

    def test_grid_mismatch_rejected(self, gauss):
        other = make_grid(8.0, 129)
        with pytest.raises(ValueError):
            big_n_prime(gauss, RadialFunction(other, np.zeros(129)))


class TestGaugeFields:
    def test_flux_charge_relation(self, gauss):
        fields = gauge_fields(gauss)
        assert abs(fields.flux + fields.charge) < 1e-10

    def test_flux_charge_relation_general_kappa(self, gauss):
        consts = PhysicalConstants(kappa=2.5)
        fields = gauge_fields(gauss, consts)
        assert abs(fields.flux + fields.charge / 2.5) < 1e-10

    def test_b_field_proportional_to_density(self, gauss, grid):
        fields = gauge_fields(gauss)
        assert np.max(np.abs(fields.b_field.values + gauss.values**2)) < 1e-12

    def test_tangential_component_vanishes_at_origin(self, gauss):
        assert gauge_fields(gauss).a_tangential.values[0] == 0.0

    def test_constants_validated(self):
        with pytest.raises(ValueError):
            PhysicalConstants(kappa=-1.0)
