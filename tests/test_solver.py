import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded

from cssolve import solver
from cssolve.energy import j_trunc
from cssolve.gauge import prefix_h, suffix_a
from cssolve.grid import RadialFunction, integrate_plane, make_grid
from cssolve.nonlinearity import power_model
from cssolve.solver import (
    MinimaxConfig,
    _full_residual,
    _gauge_terms,
    _gprime,
    _inner_newton,
    _jacobian_apply,
    _linearization,
    _local_solver,
    _shoot,
    continuation_in_q,
    count_nodes,
    initial_path,
    mountain_pass,
    multiplicity_run,
    newton_refine,
    nodal_shoot,
    save_branch_csv,
)
from cssolve.verify import residual_pde

from oracles import BL_LEVEL, BL_U0, bl_ground_state


@pytest.fixture(scope="module")
def model():
    return power_model(2.0, 1.0)


@pytest.fixture(scope="module")
def grid():
    return make_grid(24.0, 8193)


@pytest.fixture(scope="module")
def ground_state(model, grid):
    return nodal_shoot(0.0, model, grid, 0)


@pytest.fixture(scope="module")
def mp_ground_state(model, grid):
    return mountain_pass(0.0, model, grid)


class TestMinimaxConfig:
    def test_defaults_valid(self):
        MinimaxConfig()

    def test_rejects_few_path_points(self):
        with pytest.raises(ValueError):
            MinimaxConfig(path_points=4)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            MinimaxConfig(grad_tol=0.0)


class TestNodalShoot:
    def test_ground_state_matches_oracle_origin_value(self, ground_state):
        assert ground_state.converged
        assert abs(ground_state.u.values[0] - BL_U0) < 1e-8

    def test_ground_state_level(self, ground_state):
        assert abs(ground_state.level - BL_LEVEL) < 5e-5 * BL_LEVEL

    def test_ground_state_profile_matches_oracle(self, ground_state, grid):
        ref = bl_ground_state(grid.nodes)
        dist = math.sqrt(integrate_plane(grid, (ground_state.u.values - ref) ** 2))
        assert dist < 1e-6

    def test_residual_small(self, ground_state):
        assert ground_state.residual_pde < 1e-8

    def test_node_count_zero(self, ground_state):
        assert ground_state.node_count == 0
        assert np.all(ground_state.u.values > -1e-12)

    def test_level_is_energy(self, ground_state, model):
        assert ground_state.level == j_trunc(ground_state.u, 0.0, model).total

    def test_one_node_profile(self, model, grid):
        rep = nodal_shoot(1e-3, model, grid, 1)
        assert rep.node_count == 1
        assert rep.residual_pde < 1e-8
        assert rep.level > 0

    def test_rejects_negative_arguments(self, model, grid):
        with pytest.raises(ValueError):
            nodal_shoot(-1.0, model, grid, 0)
        with pytest.raises(ValueError):
            nodal_shoot(0.0, model, grid, -1)

    def test_large_q_reports_nonconvergence(self, model):
        g = make_grid(24.0, 2049)
        rep = nodal_shoot(1.0, model, g, 0)
        assert not (rep.converged and rep.truncation_inactive)

    def test_warm_step_pins_certified_numbers(self, model, grid, ground_state):
        # the continuation step; a speed-up must leave its certified numbers
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=ground_state.u)
        assert rep.converged
        assert rep.iterations == 1
        assert rep.level == pytest.approx(7.754114926920636, rel=1e-12)
        assert rep.u.values[0] == pytest.approx(2.3929637952167195, rel=1e-12)


class TestShoot:
    """The cold shot marches the q = 0 rows that _inner_newton solves."""

    @pytest.mark.parametrize("n", [1025, 2049, 4097])
    def test_origin_value_second_order(self, model, n):
        g = make_grid(24.0, n)
        h = g.nodes[1] - g.nodes[0]
        # measured 0.146 h^2 at each n: the 3-point scheme's O(h^2) error
        assert abs(_shoot(g, model, 0)[0] - BL_U0) < 0.2 * h**2

    def test_is_the_discrete_fixed_point(self, model):
        g = make_grid(24.0, 1025)
        shot = _shoot(g, model, 0)
        u, ok, _ = _inner_newton(g, np.zeros(g.n), model, shot, 60)
        assert ok
        assert abs(shot[0] - u[0]) <= 1e-11 * u[0]

    def test_no_bracket_reports_nonconvergence(self, model):
        g = make_grid(24.0, 1025)
        assert _shoot(g, model, 40) is None
        rep = nodal_shoot(0.0, model, g, 40)
        assert not rep.converged


class TestMountainPass:
    def test_agrees_with_nodal_shoot(self, mp_ground_state, ground_state, grid):
        dist = math.sqrt(integrate_plane(
            grid, (mp_ground_state.u.values - ground_state.u.values) ** 2))
        assert dist < 1e-6

    def test_residual(self, mp_ground_state):
        assert mp_ground_state.converged
        assert mp_ground_state.residual_pde < 1e-6

    def test_level_positive(self, mp_ground_state):
        assert mp_ground_state.level > 0

    def test_small_q_level_close_and_above(self, model, mp_ground_state):
        g = make_grid(24.0, 2049)
        rep = mountain_pass(1e-3, model, g)
        assert rep.converged
        assert abs(rep.level - mp_ground_state.level) < 0.05 * mp_ground_state.level
        assert rep.level > mp_ground_state.level


class TestInitialPath:
    def test_endpoint_energy_negative(self, model):
        g = make_grid(24.0, 1025)
        path = initial_path(model, g, 1)
        assert j_trunc(path[-1], 0.0, model).total < 0

    def test_starts_at_zero(self, model):
        g = make_grid(24.0, 1025)
        path = initial_path(model, g, 1)
        assert np.all(path[0].values == 0.0)
        assert j_trunc(path[0], 0.0, model).total == 0.0

    def test_max_energy_positive(self, model):
        g = make_grid(24.0, 1025)
        path = initial_path(model, g, 1)
        assert max(j_trunc(p, 0.0, model).total for p in path) > 0

    def test_nodal_seed_for_higher_levels(self, model):
        g = make_grid(24.0, 1025)
        path = initial_path(model, g, 2)
        assert j_trunc(path[-1], 0.0, model).total < 0


class TestNewtonRefine:
    def test_fixed_point_of_exact_solution(self, ground_state, model):
        rep = newton_refine(ground_state.u, 0.0, model)
        assert rep.iterations == 0
        assert np.array_equal(rep.u.values, ground_state.u.values)

    def test_polishes_perturbed_solution(self, ground_state, model, grid):
        rough = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = newton_refine(rough, 0.0, model)
        assert rep.converged
        assert rep.residual_pde < 1e-6
        assert np.max(np.abs(rep.u.values - ground_state.u.values)) < 1e-7


class TestLinearization:
    Q = 1e-3

    @pytest.fixture(scope="class")
    def point(self):
        g = make_grid(24.0, 1025)
        u = RadialFunction(g, 2.4 * np.exp(-g.nodes**2 / 3.0))
        z = np.cos(g.nodes) * np.exp(-g.nodes**2 / 8.0)
        return u, z

    def test_frozen_closure_equals_jacobian_apply(self, point, model):
        u, z = point
        lin = _linearization(u, self.Q, model)
        # reused across directions, as LGMRES reuses it within a Newton step
        for w in (z, z**2, np.sin(3.0 * u.grid.nodes) * z, z):
            assert np.array_equal(lin(w), _jacobian_apply(u, self.Q, model, w))

    def test_matches_central_difference(self, point, model):
        u, z = point
        eps = 1e-4
        plus = _full_residual(RadialFunction(u.grid, u.values + eps * z), self.Q, model)
        minus = _full_residual(RadialFunction(u.grid, u.values - eps * z), self.Q, model)
        fd = (plus - minus) / (2.0 * eps)
        jz = _linearization(u, self.Q, model)(z)
        # the last row is left out: kappa is frozen there (see the docstring)
        err = np.max(np.abs(jz[:-1] - fd[:-1]))
        assert err < 1e-6 * np.max(np.abs(fd[:-1]))


class TestReorderedKernels:
    """The once-per-grid and once-per-step forms reproduce the per-call ones bit for bit."""

    @pytest.mark.parametrize("q", [0.0, 1e-3])
    def test_gauge_terms_match_prefix_and_suffix(self, model, q):
        g = make_grid(24.0, 1025)
        u = RadialFunction(g, 2.4 * np.exp(-g.nodes**2 / 3.0))
        h = prefix_h(u).values
        v = 2.0 * q * suffix_a(u).values
        v[1:] += q * (h[1:] / g.nodes[1:]) ** 2
        h_u, v_pot = _gauge_terms(u, q)
        assert np.array_equal(h_u, h)
        assert np.array_equal(v_pot, v)

    @pytest.mark.parametrize("n", [16, 17, 1025, 4096, 4097, 8193])
    def test_preconditioner_matches_solve_banded(self, model, n):
        # newton_refine's preconditioner, -Delta_r + V - g'(u) with the Robin row,
        # against LAPACK gtsv on the banded form with the (n-1, n-3) corner eliminated
        g = make_grid(24.0, n)
        r, h = g.nodes, g.nodes[1] - g.nodes[0]
        u = 2.4 * np.exp(-r**2 / 3.0)
        _, v_pot = _gauge_terms(RadialFunction(g, u), 1e-3)
        diag = v_pot - _gprime(model, u)
        kappa = math.sqrt(2.0 * model.m0 + v_pot[-1])
        ab = np.zeros((3, n))
        ab[1, 1:-1] = 2.0 / h**2 + diag[1:-1]
        ab[0, 2:] = -1.0 / h**2 - 1.0 / (2.0 * h * r[1:-1])
        ab[2, :-2] = -1.0 / h**2 + 1.0 / (2.0 * h * r[1:-1])
        ab[1, 0] = 4.0 / h**2 + diag[0]
        ab[0, 1] = -4.0 / h**2
        # Robin row (1/2h, -2/h, 3/2h + kappa) minus c times row n-2
        c = 1.0 / (2.0 * h) / ab[2, -3]
        ab[2, -2] = -4.0 / (2.0 * h) - c * ab[1, -2]
        ab[1, -1] = 3.0 / (2.0 * h) + kappa - c * ab[0, -1]
        solve = _local_solver(g, diag, kappa)
        rng = np.random.default_rng(n)
        for _ in range(4):
            z = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
            rhs = z.copy()
            rhs[-1] -= c * rhs[-2]
            assert np.array_equal(solve(z), solve_banded((1, 1), ab, rhs))

    @pytest.mark.parametrize("n", [16, 17, 1025, 4096, 4097, 8193])
    def test_local_solver_matches_sparse_assembly(self, model, n):
        # the 3-point -Delta_r + diag, assembled independently with the Robin row's
        # (n-1, n-3) corner that _local_solver eliminates
        g = make_grid(24.0, n)
        r, h = g.nodes, g.nodes[1] - g.nodes[0]
        u = 2.4 * np.exp(-r**2 / 3.0)
        _, v_pot = _gauge_terms(RadialFunction(g, u), 1e-3)
        diag = v_pot - _gprime(model, u)
        kappa = math.sqrt(2.0 * model.m0 + v_pot[-1])
        i = np.arange(1, n - 1)
        rows = np.concatenate((i, i, i, [0, 0, n - 1, n - 1, n - 1]))
        cols = np.concatenate((i - 1, i, i + 1, [0, 1, n - 3, n - 2, n - 1]))
        vals = np.concatenate((-1.0 / h**2 + 1.0 / (2.0 * h * r[1:-1]), 2.0 / h**2 + diag[1:-1],
                               -1.0 / h**2 - 1.0 / (2.0 * h * r[1:-1]),
                               [4.0 / h**2 + diag[0], -4.0 / h**2],
                               [1.0 / (2.0 * h), -2.0 / h, 3.0 / (2.0 * h) + kappa]))
        a = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        solve = _local_solver(g, diag, kappa)
        rng = np.random.default_rng(n)
        for _ in range(4):
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
            x = solve(b)
            # normwise backward error: |A x - b| against |A| |x|
            assert np.max(np.abs(a @ x - b)) <= 1e-12 * np.max(abs(a) @ np.abs(x))

    def test_warm_step_matvec_count(self, model, grid, ground_state, monkeypatch):
        applications = []

        def counted(*args, **kwargs):
            apply = _linearization(*args, **kwargs)

            def wrapper(z):
                applications.append(1)
                return apply(z)

            return wrapper

        monkeypatch.setattr(solver, "_linearization", counted)
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=ground_state.u)
        assert rep.converged
        # the -Delta_2 + 2 m0 preconditioner, blind to V - g'(u), needed 24
        assert 0 < len(applications) <= 16


class TestFailurePaths:
    @staticmethod
    def _zero_pivot(dl, d, du):
        return dl, d, du, np.zeros(d.size - 2), np.arange(1, d.size + 1, dtype=np.int32), 1

    def test_singular_local_solver_fails_nodal_shoot(self, model, grid, ground_state, monkeypatch):
        monkeypatch.setattr(solver, "dgttrf", self._zero_pivot)
        start = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=start)
        assert not rep.converged

    def test_singular_preconditioner_fails_newton_refine(self, model, grid, ground_state,
                                                         monkeypatch):
        monkeypatch.setattr(solver, "dgttrf", self._zero_pivot)
        rough = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = newton_refine(rough, 0.0, model)
        assert not rep.converged
        assert rep.iterations == 1

    def test_non_finite_step_fails_newton_refine(self, model, grid, ground_state, monkeypatch):
        monkeypatch.setattr(solver.spla, "lgmres",
                            lambda op, f, **kwargs: (np.full(f.size, np.nan), 0))
        rough = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = newton_refine(rough, 0.0, model)
        assert not rep.converged
        assert np.array_equal(rep.u.values, rough.values)


class TestCountNodes:
    def test_positive_profile(self, grid):
        assert count_nodes(RadialFunction(grid, np.exp(-grid.nodes**2))) == 0

    def test_single_sign_change(self, grid):
        assert count_nodes(RadialFunction(grid, (1 - grid.nodes) * np.exp(-grid.nodes))) == 1

    def test_zero(self, grid):
        assert count_nodes(RadialFunction(grid, np.zeros(grid.n))) == 0


class TestContinuation:
    def test_branch_from_zero_coupling(self, model):
        g = make_grid(24.0, 4097)
        branch, q_star = continuation_in_q(model, g, 0, 0.0, 5e-3, 6)
        assert branch[0].converged
        assert abs(branch[0].u0 - BL_U0) < 1e-6
        assert all(b.converged for b in branch)
        qs = [b.q for b in branch]
        assert qs == sorted(qs)

    def test_truncation_inactive_below_q_star(self, model):
        g = make_grid(24.0, 4097)
        branch, q_star = continuation_in_q(model, g, 0, 1e-4, 0.05, 10)
        assert q_star is not None
        for b in branch[:-1]:
            assert b.truncation_inactive

    def test_rejects_bad_range(self, model, grid):
        with pytest.raises(ValueError):
            continuation_in_q(model, grid, 0, 1.0, 0.5, 4)

    def test_branch_csv(self, model, tmp_path):
        g = make_grid(24.0, 2049)
        branch, _ = continuation_in_q(model, g, 0, 1e-4, 1e-3, 3)
        path = tmp_path / "branch.csv"
        save_branch_csv(path, branch)
        lines = path.read_text().splitlines()
        assert lines[0] == "q,level,u0,l2,trunc_inactive,converged"
        assert len(lines) == len(branch) + 1


class TestMultiplicity:
    def test_single_solution_at_zero_coupling(self, model, grid, ground_state):
        reports, failure = multiplicity_run(0.0, model, grid, 1)
        assert failure is None
        assert abs(reports[0].u.values[0] - ground_state.u.values[0]) < 1e-10

    def test_three_branches_converge_and_order(self, model, grid):
        reports, _ = multiplicity_run(1e-3, model, grid, 3)
        assert len(reports) >= 2
        assert [r.node_count for r in reports] == list(range(len(reports)))
        levels = [r.level for r in reports]
        assert levels == sorted(levels)
        for r in reports:
            assert r.residual_pde < 1e-8

    def test_sign_flip_preserves_residual(self, ground_state, model, grid):
        neg = RadialFunction(grid, -ground_state.u.values)
        sup_pos, _ = residual_pde(ground_state.u, 0.0, model)
        sup_neg, _ = residual_pde(neg, 0.0, model)
        assert abs(sup_pos - sup_neg) < 1e-14


class TestSolveReport:
    def test_json_fields(self, ground_state):
        import json

        data = json.loads(ground_state.to_json())
        assert set(data) == {"level", "q", "node_count", "u0", "residual_pde",
                             "residual_nehari", "residual_pohozaev",
                             "truncation_inactive", "iterations", "converged"}
