import json
import math

import numpy as np
import pytest

from cssolve.grid import RadialFunction, make_grid
from cssolve.nonlinearity import (
    capital_lambda,
    capital_lambda_bar,
    check_hypotheses,
    lambda_bar_of,
    lambda_of,
    power_model,
    table_model,
)


@pytest.fixture(scope="module")
def model():
    return power_model(2.0, 1.0)


class TestPowerModel:
    def test_m0_and_delta0(self, model):
        assert model.m0 == 0.5
        assert model.delta0 == 0.5

    def test_delta0_general_exponent(self):
        m = power_model(3.5, 2.0)
        assert math.isclose(m.delta0, 1.0 ** (1 / 2.5), rel_tol=1e-14)

    def test_g_and_primitive_consistent(self, model):
        xi = np.linspace(0.0, 3.0, 301)
        big_g = model.big_g(xi)
        fd = np.gradient(big_g, xi, edge_order=2)
        assert np.max(np.abs(fd - model.g(xi))) < 1e-3

    def test_odd(self, model):
        xi = np.linspace(0.1, 5.0, 50)
        assert np.max(np.abs(model.g(-xi) + model.g(xi))) < 1e-14

    @pytest.mark.parametrize("p", [1.2, 2.0, 3.0, 4.5])
    def test_in_place_forms_equal_one_line_forms(self, p):
        # g, g' and G update one array in place, in the one-line form's order
        m, omega = power_model(p, 0.7), 0.7
        rng = np.random.default_rng(int(10 * p))
        xi = rng.standard_normal(1000) * 10.0 ** rng.uniform(-6.0, 2.0, 1000)
        xi[::9] = 0.0
        grid = make_grid(24.0, 1025)
        profile = RadialFunction(grid, 2.4 * np.exp(-grid.nodes**2 / 3.0)).values
        for x in (xi, profile):
            assert np.array_equal(m.g(x), np.abs(x) ** (p - 1) * x - omega * x)
            assert np.array_equal(m.gprime(x), p * np.abs(x) ** (p - 1) - omega)
            assert np.array_equal(m.big_g(x), np.abs(x) ** (p + 1) / (p + 1) - omega * x**2 / 2.0)
        assert not profile.flags.writeable
        for f in (m.g, m.gprime, m.big_g):
            assert np.ndim(f(-1.5)) == 0 and f(-1.5) == f(np.array([-1.5]))[0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            power_model(1.0, 1.0)
        with pytest.raises(ValueError):
            power_model(2.0, -1.0)


class TestEnvelopes:
    def test_lambda_zero_below_delta0(self, model):
        xi = np.linspace(0.0, 0.5, 100)
        assert np.all(lambda_of(model, xi) == 0.0)

    def test_lambda_closed_form_above_delta0(self, model):
        xi = np.linspace(0.5, 4.0, 200)
        assert np.max(np.abs(lambda_of(model, xi) - (xi**2 - 0.5 * xi))) < 1e-14

    def test_bar_dominates(self, model):
        xi = np.linspace(0.0, 10.0, 1000)
        assert np.all(lambda_bar_of(model, xi) >= lambda_of(model, xi) - 1e-12)

    def test_bar_ratio_monotone(self, model):
        xi = np.linspace(0.01, 10.0, 1000)
        ratio = lambda_bar_of(model, xi) / xi**model.p0
        assert np.all(np.diff(ratio) >= -1e-10)

    def test_capitals_vanish_below_delta0(self, model):
        xi = np.linspace(0.0, 0.5, 100)
        assert np.max(capital_lambda(model, xi)) < 1e-12
        assert np.max(capital_lambda_bar(model, xi)) < 1e-12

    def test_capital_bar_dominates(self, model):
        xi = np.linspace(0.0, 10.0, 1000)
        assert np.all(capital_lambda_bar(model, xi) >= capital_lambda(model, xi) - 1e-10)

    def test_p0_plus_one_bound(self, model):
        # (p0+1) Lambda_bar(xi) <= xi lambda_bar(xi)
        xi = np.linspace(0.01, 10.0, 1000)
        lhs = (model.p0 + 1.0) * capital_lambda_bar(model, xi)
        rhs = xi * lambda_bar_of(model, xi)
        # tabulated envelopes touch equality at delta0; allow table error there
        assert np.all(lhs <= rhs + 2e-6 * np.maximum(rhs, 1.0))

    def test_primitive_lower_bound(self, model):
        # G(xi) + m0 xi^2 / 2 <= Lambda(xi)
        xi = np.linspace(0.0, 10.0, 1000)
        lhs = model.big_g(xi) + model.m0 * xi**2 / 2.0
        assert np.all(lhs <= capital_lambda(model, xi) + 1e-8)

    def test_odd_extension(self, model):
        xi = np.linspace(0.1, 3.0, 30)
        assert np.allclose(lambda_of(model, -xi), -lambda_of(model, xi))
        assert np.allclose(lambda_bar_of(model, -xi), -lambda_bar_of(model, xi))

    def test_scalar_call(self, model):
        assert lambda_of(model, 1.0) == 0.5
        assert isinstance(lambda_bar_of(model, 1.0), float)


def saturable_model():
    xi = np.linspace(0.0, 8.0, 400)
    return table_model(np.column_stack([xi, xi**3 / (1.0 + xi**2) - xi / 2.0]))


class TestEnvelopeTable:
    """The envelopes read one table per model, whose nodes do not depend on the call."""

    @pytest.mark.parametrize("make", [lambda: power_model(2.0, 1.0), saturable_model],
                             ids=["power", "saturable"])
    def test_values_do_not_depend_on_earlier_calls(self, make):
        envelopes = (lambda_bar_of, capital_lambda, capital_lambda_bar)
        probes = (0.5, 2.0, 7.9)
        fresh = [[f(make(), xi) for xi in probes] for f in envelopes]
        grown = make()
        for f in envelopes:
            f(grown, 30.0)
        assert [[f(grown, xi) for xi in probes] for f in envelopes] == fresh

    def test_capital_lambda_vanishes_at_delta0_after_a_large_call(self):
        model = power_model(2.0, 1.0)
        capital_lambda(model, 10.0)
        assert capital_lambda(model, 0.5) == 0.0

    def test_table_grows_by_octaves(self):
        # 16384 steps on [0, 1] and on each of the 14 octaves up to 2^14 > 1e4
        model = power_model(2.0, 1.0)
        capital_lambda(model, 1e4)
        nodes = model._table[0]
        assert nodes.size == 15 * 16384 + 1
        assert nodes[-1] == 2.0**14
        assert np.all(np.diff(nodes) > 0)


class TestTableModel:
    def test_reproduces_power_nonlinearity(self):
        xi = np.linspace(0.0, 6.0, 400)
        samples = np.column_stack([xi, np.abs(xi) * xi - xi])
        m = table_model(samples)
        probe = np.linspace(0.1, 5.0, 50)
        # shape-preserving interpolation is only O(h^2) near the minimum of g
        assert np.max(np.abs(m.g(probe) - (probe**2 - probe))) < 1e-4
        assert abs(m.m0 - 0.5) < 1e-3

    def test_derivative_is_the_interpolant_slope(self):
        xi = np.linspace(0.0, 6.0, 400)
        m = table_model(np.column_stack([xi, np.abs(xi) * xi - xi]))
        probe = np.linspace(0.1, 5.9, 50)
        eps = 1e-6
        fd = (m.g(probe + eps) - m.g(probe - eps)) / (2.0 * eps)
        assert np.max(np.abs(m.gprime(probe) - fd)) < 1e-6
        # g' is even, and g is constant past the last sample
        assert np.array_equal(m.gprime(-probe), m.gprime(probe))
        assert np.all(m.gprime(np.array([6.5, -7.0, 1e6])) == 0.0)

    def test_samples_above_zero_start_at_the_origin(self):
        # a table whose first abscissa is above 0 is the same table with (0, 0) given
        xi = np.linspace(0.1, 8.0, 64)
        g = xi**3 / (1.0 + xi**2) - xi / 2.0
        m = table_model(np.column_stack([xi, g]))
        ref = table_model(np.column_stack([np.r_[0.0, xi], np.r_[0.0, g]]))
        x = np.linspace(-9.0, 9.0, 1001)
        for name in ("g", "big_g", "gprime"):
            assert np.array_equal(getattr(m, name)(x), getattr(ref, name)(x)), name
        assert m.m0 == ref.m0

    def test_rejects_decreasing_abscissae(self):
        with pytest.raises(ValueError):
            table_model([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2], [2.0, 3.0]])


class TestCheckHypotheses:
    def test_power_model_passes(self, model):
        report = check_hypotheses(model)
        assert report.all_ok
        assert report.odd_violation < 1e-12
        assert report.g2prime_ok and report.growth_ok
        assert abs(report.m0 - 0.5) < 1e-12
        assert abs(report.delta0 - 0.5) < 1e-12
        assert report.zeta0 is not None and 1.4 < report.zeta0 < 1.6

    def test_json_keys(self, model):
        data = json.loads(check_hypotheses(model).to_json())
        assert set(data) == {"odd_violation", "m0", "delta0", "zeta0", "growth_ok", "g2prime_ok"}
