import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cssolve.energy import d_theta_j_tilde, energy_pieces, weak_gradient
from cssolve.gauge import big_n, gauge_potential, prefix_h
from cssolve.grid import (RadialFunction, differentiate, dilate, integrate_plane,
                          laplacian_radial, make_grid, norm_lp, robin_row)
from cssolve.nonlinearity import power_model
from cssolve.solver import nodal_shoot
from cssolve.verify import (
    IDENTITY_TOL,
    PDE_TOL,
    certificate_failure,
    distinctness,
    ledger_identity,
    nehari_residual,
    pohozaev_residual,
    residual_pde,
    robin_rate,
    strong_residual,
    truncation_bounds,
)

from conftest import PROPERTY, profiles, ring_sum
from oracles import bl_ground_state


@pytest.fixture(scope="module")
def grid():
    return make_grid(8.0, 4097)


@pytest.fixture(scope="module")
def gauss(grid):
    return RadialFunction(grid, np.exp(-grid.nodes**2))


@pytest.fixture(scope="module")
def model():
    return power_model(2.0, 1.0)


def bhs_inequality(u: RadialFunction) -> bool:
    """||u||_4^4 <= 2 ||grad u||_2 N(u)^{1/2}, for u in H^1 of the plane.

    On the grid that asks u to vanish at R, and the grid to resolve u: a
    profile cut off at R with |u(R)| large is not in H^1, and the grid's
    derivative misses a ring narrower than about 2h; on either the
    inequality can fail.
    """
    if not np.any(u.values):
        raise ValueError("u must be nonzero")
    left = norm_lp(u, 4.0) ** 4
    grad = math.sqrt(max(integrate_plane(u.grid, differentiate(u).values ** 2), 0.0))
    return bool(left <= 2.0 * grad * math.sqrt(max(big_n(u), 0.0)) + 1e-12)


# a ring centred on R = 2, its peak at the cut: left over right is 2.5
_CUT = make_grid(2.0, 1025)
CUT_RING = RadialFunction(_CUT, ring_sum(_CUT, [(1.0, 2.0, 2.0)]))


class TestResidualPde:
    def test_zero_profile(self, grid, model):
        sup, l2 = residual_pde(RadialFunction(grid, np.zeros(grid.n)), 1.0, model)
        assert sup == 0.0 and l2 == 0.0

    def test_oracle_ground_state(self, model):
        g = make_grid(24.0, 8193)
        u = RadialFunction(g, bl_ground_state(g.nodes))
        sup, _ = residual_pde(u, 0.0, model)
        assert sup < 1e-6

    def test_gaussian_analytic_residual(self, gauss, grid, model):
        # q = 0: residual is -Delta u + u - u^2 with u = e^{-r^2}
        sup, _ = residual_pde(gauss, 0.0, model)
        r = grid.nodes
        exact = -(4 * r**2 - 4) * np.exp(-(r**2)) + np.exp(-(r**2)) - np.exp(-2 * r**2)
        assert abs(sup - np.max(np.abs(exact))) < 1e-8

    def test_robin_row_last(self, grid, model):
        # the system the solver drives to zero: PDE rows at nodes 0..n-2, then
        # u'(R) + kappa u(R) with kappa = robin_rate(model, V(R))
        u = RadialFunction(grid, 1.0 / (1.0 + grid.nodes**2))
        q = 0.3
        _, v_pot = gauge_potential(u, q)
        res = strong_residual(u, q, model)
        pde = -laplacian_radial(u) + v_pot * u.values - model.g(u.values)
        assert np.array_equal(res[:-1], pde[:-1])
        kappa = robin_rate(model, float(v_pot[-1]))
        assert kappa == math.sqrt(2.0 * model.m0 + v_pot[-1])
        assert res[-1] == robin_row(u.values, grid.h, kappa)
        assert res[-1] != pde[-1]

    def test_robin_rate_floor(self, model):
        assert robin_rate(model, -2.0 * model.m0 - 1.0) == 1e-6


class TestIdentities:
    @PROPERTY
    @given(u=profiles())
    def test_nehari_equals_weak_gradient(self, model, u):
        assert nehari_residual(u, 0.02, model) == weak_gradient(0.0, u, 0.02, model, u)

    @PROPERTY
    @given(u=profiles())
    def test_pohozaev_equals_theta_derivative(self, model, u):
        assert pohozaev_residual(u, 0.02, model) == d_theta_j_tilde(0.0, u, 0.02, model)

    def test_zero_profile(self, grid, model):
        zero = RadialFunction(grid, np.zeros(grid.n))
        assert nehari_residual(zero, 1.0, model) == 0.0
        assert pohozaev_residual(zero, 1.0, model) == 0.0


class TestLedgerIdentity:
    @PROPERTY
    @given(u=profiles(), theta=st.floats(-0.5, 0.5), q=st.floats(0.0, 0.2))
    def test_machine_precision_on_random_inputs(self, model, u, theta, q):
        # roundoff of the identity's terms: white noise makes ||grad u||^2 the largest
        grad2 = 2.0 * energy_pieces(u, model).dirichlet
        scale = max(1.0, grad2, abs(2 * d_theta_j_tilde(theta, u, q, model)))
        assert ledger_identity(theta, u, q, model) < 1e-12 * scale

    def test_both_cutoff_branches(self, gauss, model):
        n_val = big_n(gauss)
        for s_target in (0.5, 1.5, 3.0):
            q = s_target / n_val
            assert ledger_identity(0.0, gauss, q, model) < 1e-12

    def test_saturated_cutoff_zeroes_c_and_d(self, gauss, model):
        q = 2.5 / big_n(gauss)
        c, d = truncation_bounds(0.0, gauss, q)
        assert c == 0.0 and d == 0.0

    @PROPERTY
    @given(u=profiles(), theta=st.floats(-0.5, 0.5), q=st.floats(0.0, 0.2))
    def test_truncation_bounds_in_range(self, u, theta, q):
        if q * math.exp(4 * theta) * big_n(u) < 2.0:
            c, d = truncation_bounds(theta, u, q)
            assert 0.0 <= c < 2.0
            assert abs(d) < 16.0


class TestBhsInequality:
    def test_holds_on_gaussian(self, gauss):
        assert bhs_inequality(gauss)

    @PROPERTY
    @given(u=profiles(rough=False, vanish=True))
    @example(u=CUT_RING).xfail(raises=AssertionError, reason="u(R) != 0: u is not in H^1")
    def test_holds_on_random_profiles(self, u):
        assert bhs_inequality(u)

    def test_dilation_invariant(self, gauss):
        for tau in (0.5, 2.0):
            assert bhs_inequality(dilate(gauss, tau)) == bhs_inequality(gauss)

    def test_rejects_zero(self, grid):
        with pytest.raises(ValueError):
            bhs_inequality(RadialFunction(grid, np.zeros(grid.n)))


class _FakeReport:
    def __init__(self, u, level):
        self.u = u
        self.level = level


class TestDistinctness:
    def test_duplicate_flagged(self, gauss):
        reports = [_FakeReport(gauss, 1.0), _FakeReport(gauss, 1.0)]
        dist, gaps, flagged = distinctness(reports)
        assert dist[0, 1] == 0.0
        assert flagged == [(0, 1)]

    def test_sign_pair_distance(self, gauss, grid):
        neg = RadialFunction(grid, -gauss.values)
        dist, _, flagged = distinctness([_FakeReport(gauss, 1.0), _FakeReport(neg, 1.0)])
        two_norms = 2.0 * math.sqrt(math.pi / 2.0)  # 2 ||e^{-r^2}||_2
        assert abs(dist[0, 1] - two_norms) < 1e-10
        assert flagged == []

    def test_needs_two_reports(self, gauss):
        with pytest.raises(ValueError):
            distinctness([_FakeReport(gauss, 1.0)])

    def test_grid_mismatch(self, gauss):
        other = make_grid(8.0, 129)
        v = RadialFunction(other, np.zeros(129))
        with pytest.raises(ValueError):
            distinctness([_FakeReport(gauss, 1.0), _FakeReport(v, 1.0)])


class TestCertificateFailure:
    @pytest.fixture(scope="class")
    def certified(self, model):
        return nodal_shoot(0.0, model, make_grid(24.0, 8193), 0)

    def test_ground_state_is_certified(self, certified):
        assert certified.converged and certified.truncation_inactive
        assert certificate_failure(certified) == ""

    # (field, value as a multiple of its gate, the message's start)
    GATES = [
        ("converged", None, "solver did not converge"),
        ("residual_pde", 1.01, "PDE residual"),
        ("truncation_inactive", None, "truncation active"),
        ("residual_nehari", -1.01, "Nehari residual"),
        ("residual_pohozaev", 1.01, "Pohozaev residual"),
    ]

    def _gate(self, rep, field):
        if field == "residual_pde":
            return PDE_TOL * max(1.0, float(np.max(np.abs(rep.u.values))))
        return IDENTITY_TOL * max(1.0, abs(rep.level))

    @pytest.mark.parametrize("field, factor, message", GATES, ids=[g[0] for g in GATES])
    def test_names_each_gate(self, certified, field, factor, message):
        value = False if factor is None else factor * self._gate(certified, field)
        why = certificate_failure(replace(certified, **{field: value}))
        assert why.startswith(message)
        if factor is not None:
            # at the gate itself the report is still certified
            at_gate = math.copysign(self._gate(certified, field), factor)
            assert certificate_failure(replace(certified, **{field: at_gate})) == ""

    def test_first_failing_gate_is_named(self, certified):
        # later gates are not read once one fails
        rep = replace(certified, truncation_inactive=False,
                      residual_nehari=1.0, residual_pohozaev=1.0)
        assert certificate_failure(rep).startswith("truncation active")
        assert certificate_failure(replace(rep, converged=False)) == "solver did not converge"


# every quantity kept on an iterate, as a call of (u, q, model)
MEMOIZED = {
    "prefix_h": lambda u, q, model: prefix_h(u),
    "differentiate": lambda u, q, model: differentiate(u),
    "big_n": lambda u, q, model: big_n(u),
    "gauge_potential": lambda u, q, model: gauge_potential(u, q),
    "energy_pieces": lambda u, q, model: energy_pieces(u, model),
    "strong_residual": lambda u, q, model: strong_residual(u, q, model),
}


def _parts(value) -> list:
    """The numbers and arrays a kept value is made of."""
    if isinstance(value, RadialFunction):
        return [value.values]
    return list(value) if isinstance(value, tuple) else [value]


def _bit_equal(a, b) -> bool:
    pa, pb = _parts(a), _parts(b)
    return len(pa) == len(pb) and all(np.array_equal(x, y) for x, y in zip(pa, pb))


class TestIterateMemo:
    Q = 1e-3

    @staticmethod
    def _iterate(grid):
        return RadialFunction(grid, 2.0 * np.exp(-grid.nodes**2 / 2.0) * np.cos(grid.nodes))

    @pytest.mark.parametrize("name", list(MEMOIZED))
    def test_hit_is_kept_read_only_and_equals_fresh(self, grid, model, name):
        call = MEMOIZED[name]
        u = self._iterate(grid)
        first = call(u, self.Q, model)
        assert call(u, self.Q, model) is first
        assert all(not part.flags.writeable for part in _parts(first)
                   if isinstance(part, np.ndarray))
        # a copy keeps nothing, so its value is computed afresh
        assert _bit_equal(first, call(RadialFunction(grid, u.values.copy()), self.Q, model))

    @pytest.mark.parametrize("name", ["gauge_potential", "strong_residual"])
    def test_each_coupling_has_its_own_entry(self, grid, model, name):
        call = MEMOIZED[name]
        u = self._iterate(grid)
        low, high = call(u, self.Q, model), call(u, 2.0 * self.Q, model)
        assert not _bit_equal(low, high)
        assert call(u, self.Q, model) is low
        assert _bit_equal(high, call(RadialFunction(grid, u.values.copy()), 2.0 * self.Q, model))

    @pytest.mark.parametrize("name", ["energy_pieces", "strong_residual"])
    def test_each_model_has_its_own_entry(self, grid, name):
        call = MEMOIZED[name]
        u = self._iterate(grid)
        first, second = power_model(2.0, 1.0), power_model(2.0, 1.2)
        a, b = call(u, self.Q, first), call(u, self.Q, second)
        assert not _bit_equal(a, b)
        assert call(u, self.Q, first) is a
        assert _bit_equal(b, call(RadialFunction(grid, u.values.copy()), self.Q, second))
