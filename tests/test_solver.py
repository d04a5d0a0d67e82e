import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded

from cssolve import energy, gauge, solver, verify
from cssolve.energy import j_trunc
from cssolve.gauge import big_n, gauge_potential, prefix_h, suffix_a
from cssolve.grid import RadialFunction, integrate_plane, make_grid
from cssolve.nonlinearity import power_model, table_model
from cssolve.solver import (
    MinimaxConfig,
    _band_solver,
    _fgmres,
    _full_residual,
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
from cssolve.verify import (nehari_residual, pohozaev_residual, residual_pde,
                            verification_report)

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

    @pytest.mark.parametrize("n", [16, 33, 64])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_coarse_grid_overflow_is_an_overshoot(self, model, n, k):
        # the top rungs of the ladder march past the finite range on these grids
        g = make_grid(24.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shot = _shoot(g, model, k)
            nodal_shoot(0.0, model, g, k)
        assert shot is None or np.all(np.isfinite(shot))


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


class TestRaySearch:
    def test_j_trunc_calls_bounded(self, model, monkeypatch):
        calls = []
        counted = solver.j_trunc

        def count(*args, **kwargs):
            calls.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(solver, "j_trunc", count)
        rep = mountain_pass(1e-3, model, make_grid(24.0, 2049))
        assert rep.converged
        assert len(calls) <= 1500

    def test_unbuildable_start_ray_fails_the_solve(self):
        # g(xi) = -xi: int G < 0 for every amplitude, so there is no start ray
        model = table_model([[0, 0], [1, -1], [2, -2], [3, -3]])
        rep = mountain_pass(0.0, model, make_grid(24.0, 257))
        assert not rep.converged
        assert np.all(rep.u.values == 0.0)


class TestInitialPath:
    def test_endpoint_energy_negative(self, model):
        g = make_grid(24.0, 1025)
        path = initial_path(model, g)
        assert j_trunc(path[-1], 0.0, model).total < 0

    def test_starts_at_zero(self, model):
        g = make_grid(24.0, 1025)
        path = initial_path(model, g)
        assert np.all(path[0].values == 0.0)
        assert j_trunc(path[0], 0.0, model).total == 0.0

    def test_max_energy_positive(self, model):
        g = make_grid(24.0, 1025)
        path = initial_path(model, g)
        assert max(j_trunc(p, 0.0, model).total for p in path) > 0


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
        # reused across directions, as the Krylov solver reuses it within a Newton step
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


class TestFgmres:
    """The Newton step's Krylov solve on the polish's own J and preconditioner."""

    @staticmethod
    def _step(model, q, n=1025):
        g = make_grid(24.0, n)
        u = RadialFunction(g, 2.4 * np.exp(-g.nodes**2 / 3.0))
        terms = gauge_potential(u, q)
        jac = _linearization(u, q, model, terms)
        solve = _band_solver(g, terms[1] - _gprime(model, u.values),
                             math.sqrt(2.0 * model.m0 + terms[1][-1]))
        return jac, solve, _full_residual(u, q, model, terms)

    @staticmethod
    def _counted(fn, calls):
        def wrapper(z):
            calls.append(1)
            return fn(z)

        return wrapper

    def test_meets_the_relative_tolerance(self, model):
        jac, solve, f = self._step(model, 1e-3)
        x, info = _fgmres(jac, solve, f)
        assert info == 0
        assert np.linalg.norm(f - jac(x)) <= 1e-8 * np.linalg.norm(f)

    def test_exact_preconditioner_takes_one_iteration(self, model):
        # at q = 0, J is its own local part, so M = J^-1 up to rounding
        applications, solves = [], []
        jac, solve, f = self._step(model, 0.0)
        x, info = _fgmres(self._counted(jac, applications), self._counted(solve, solves), f)
        assert info == 0
        assert len(solves) == 1
        # one iteration and the true-residual check
        assert len(applications) == 2
        assert np.linalg.norm(f - jac(x)) <= 1e-8 * np.linalg.norm(f)

    def test_stagnation_runs_out_of_budget(self):
        # GMRES(30) on a cyclic shift of 64 unknowns makes no progress from e_0
        f = np.zeros(64)
        f[0] = 1.0
        x, info = _fgmres(lambda z: np.roll(z, 1), lambda v: v, f)
        assert info == 1
        assert np.isfinite(x).all()


class TestReorderedKernels:
    """The once-per-grid and once-per-step forms reproduce the per-call ones bit for bit."""

    @pytest.mark.parametrize("q", [0.0, 1e-3])
    def test_gauge_terms_match_prefix_and_suffix(self, model, q):
        g = make_grid(24.0, 1025)
        u = RadialFunction(g, 2.4 * np.exp(-g.nodes**2 / 3.0))
        h = prefix_h(u).values
        v = 2.0 * q * suffix_a(u).values
        v[1:] += q * (h[1:] / g.nodes[1:]) ** 2
        h_u, v_pot = gauge_potential(u, q)
        assert np.array_equal(h_u, h)
        assert np.array_equal(v_pot, v)

    @pytest.mark.parametrize("n", [16, 17, 1025, 4096, 4097, 8193])
    def test_preconditioner_matches_solve_banded(self, model, n):
        # the inner-Newton solver, the 3-point -Delta_r + V - g'(u) with the Robin row,
        # against LAPACK gtsv on the banded form with the (n-1, n-3) corner eliminated
        g = make_grid(24.0, n)
        r, h = g.nodes, g.nodes[1] - g.nodes[0]
        u = 2.4 * np.exp(-r**2 / 3.0)
        _, v_pot = gauge_potential(RadialFunction(g, u), 1e-3)
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
        _, v_pot = gauge_potential(RadialFunction(g, u), 1e-3)
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

    @pytest.mark.parametrize("n", [16, 17, 1025, 4096, 4097])
    def test_band_solver_inverts_local_jacobian(self, model, n):
        # at q = 0 the gauge terms vanish and J is exactly the local part that
        # newton_refine's preconditioner factors
        g = make_grid(24.0, n)
        u = RadialFunction(g, 2.4 * np.exp(-g.nodes**2 / 3.0))
        jac = _linearization(u, 0.0, model)
        solve = _band_solver(g, -_gprime(model, u.values), math.sqrt(2.0 * model.m0))
        # J is banded, so combs of period 8 split it column by column: |J| |x| from J alone
        combs = np.arange(n) % 8 == np.arange(8)[:, None]
        rng = np.random.default_rng(n)
        for _ in range(4):
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
            x = solve(b)
            abs_jx = sum(np.abs(jac(np.where(comb, x, 0.0))) for comb in combs)
            # normwise backward error: |J x - b| against |J| |x|
            assert np.max(np.abs(jac(x) - b)) <= 1e-12 * np.max(abs_jx)

    def test_warm_step_matvec_count(self, model, grid, ground_state, monkeypatch):
        applications, solves = [], []

        def counted(make, calls):
            def wrapped_make(*args, **kwargs):
                fn = make(*args, **kwargs)

                def wrapper(z):
                    calls.append(1)
                    return fn(z)

                return wrapper

            return wrapped_make

        monkeypatch.setattr(solver, "_linearization", counted(_linearization, applications))
        monkeypatch.setattr(solver, "_band_solver", counted(_band_solver, solves))
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=ground_state.u)
        assert rep.converged
        # the -Delta_2 + 2 m0 preconditioner, blind to V - g'(u), needed 24, the
        # 3-point local part 10-14, and the exact local part 5 while J 0 was applied;
        # LGMRES then applied J 4 times and M 4 times, flexible GMRES J 4 times
        # (3 iterations and the true-residual check) and M 3 times
        assert 0 < len(applications) <= 5
        assert 0 < len(solves) <= 3

    def test_polish_never_applies_jacobian_to_zero(self, model, grid, ground_state, monkeypatch):
        directions = []

        def recorded(*args, **kwargs):
            apply = _linearization(*args, **kwargs)

            def wrapper(z):
                directions.append(np.array(z))
                return apply(z)

            return wrapper

        monkeypatch.setattr(solver, "_linearization", recorded)
        for q in (5.9e-5, 1e-3):
            assert nodal_shoot(q, model, grid, 0, warm_start=ground_state.u).converged
        assert directions
        # the Krylov solve starts from x0 = 0; J 0 = 0 needs no application
        assert all(z.any() for z in directions)

    def test_warm_step_certificate_evaluates_once(self, model, grid, ground_state, monkeypatch):
        calls = {"big_n": 0, "residual_pde": 0}
        for name in calls:
            fn = getattr(verify if name == "residual_pde" else gauge, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod in (gauge, energy, verify, solver):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted)
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=ground_state.u)
        assert rep.converged
        # N(u) feeds the level, Nehari, Pohozaev and the truncation check
        assert calls == {"big_n": 1, "residual_pde": 1}

    def test_warm_step_residual_handed_to_certificate(self, model, grid, ground_state,
                                                      monkeypatch):
        handed = []

        def recorded(u, q, model, terms=None, res=None):
            handed.append((u, q, res))
            return residual_pde(u, q, model, terms, res)

        monkeypatch.setattr(solver, "residual_pde", recorded)
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=ground_state.u)
        assert rep.converged
        [(u, q, res)] = handed
        assert u is rep.u and res is not None
        # the polish's last strong residual, before the Robin row replaced its last entry
        sup, l2 = residual_pde(u, q, model, res=res)
        assert (sup, l2) == residual_pde(u, q, model)
        assert rep.residual_pde == sup

    def test_three_point_rows_cached_and_read_only(self):
        g = make_grid(24.0, 1025)
        assert "three_point_rows" not in vars(g)
        rows = g.three_point_rows
        assert g.three_point_rows is rows
        r, h = g.nodes[1:-1], g.nodes[1] - g.nodes[0]
        for a, sign in zip(rows, (1.0, -1.0)):
            assert not a.flags.writeable
            assert np.array_equal(a, -1.0 / h**2 + sign / (2.0 * h * r))


class TestCertificate:
    """Certificates built from once-evaluated pieces equal the standalone functions."""

    @pytest.mark.parametrize("coupling", [("q", 0.0), ("q", 1e-3), ("qN", 1.5), ("qN", 3.0)],
                             ids=["q=0", "q=1e-3", "qN=1.5", "qN=3"])
    def test_report_equals_standalone_values(self, model, ground_state, coupling):
        u = ground_state.u
        kind, value = coupling
        q = value if kind == "q" else value / big_n(u)
        rep = solver._report(u, q, model, 0, MinimaxConfig(), terms=gauge_potential(u, q))
        assert rep.level == j_trunc(u, q, model).total
        assert rep.residual_nehari == nehari_residual(u, q, model)
        assert rep.residual_pohozaev == pohozaev_residual(u, q, model)
        assert rep.residual_pde == residual_pde(u, q, model)[0]
        assert rep.truncation_inactive == (q * big_n(u) <= 1.0)

    def test_verification_report_matches_warm_step(self, model, grid, ground_state):
        q = 5.9e-5
        rep = nodal_shoot(q, model, grid, 0, warm_start=ground_state.u)
        assert rep.converged
        ver = verification_report(rep.u, q, model)
        assert ver.residual_pde_sup == rep.residual_pde
        assert ver.nehari == rep.residual_nehari
        assert ver.pohozaev == rep.residual_pohozaev
        assert ver.q_n_check == rep.truncation_inactive


class TestFailurePaths:
    @staticmethod
    def _zero_pivot(dl, d, du):
        return dl, d, du, np.zeros(d.size - 2), np.arange(1, d.size + 1, dtype=np.int32), 1

    @staticmethod
    def _band_zero_pivot(ab, kl, ku, **kwargs):
        return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 1

    def test_singular_local_solver_fails_nodal_shoot(self, model, grid, ground_state, monkeypatch):
        monkeypatch.setattr(solver, "dgttrf", self._zero_pivot)
        start = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=start)
        assert not rep.converged

    def test_singular_preconditioner_fails_newton_refine(self, model, grid, ground_state,
                                                         monkeypatch):
        monkeypatch.setattr(solver, "dgbtrf", self._band_zero_pivot)
        rough = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = newton_refine(rough, 0.0, model)
        assert not rep.converged
        assert rep.iterations == 1

    def test_non_finite_step_fails_newton_refine(self, model, grid, ground_state, monkeypatch):
        monkeypatch.setattr(solver, "_fgmres",
                            lambda jac, solve, f: (np.full(f.size, np.nan), 0))
        rough = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = newton_refine(rough, 0.0, model)
        assert not rep.converged
        assert np.array_equal(rep.u.values, rough.values)

    def test_non_finite_preconditioner_fails_newton_refine(self, model, grid, ground_state,
                                                           monkeypatch):
        solves = []

        def band_solver(*args):
            solve = _band_solver(*args)

            def nan_on_second_call(b):
                solves.append(1)
                return np.full(b.size, np.nan) if len(solves) == 2 else solve(b)

            return nan_on_second_call

        monkeypatch.setattr(solver, "_band_solver", band_solver)
        rough = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = newton_refine(rough, 1e-3, model)
        # the first Krylov solve fails, so the polish stops before its first step
        assert len(solves) == 2
        assert not rep.converged
        assert np.array_equal(rep.u.values, rough.values)

    def test_warm_start_on_another_grid_is_rejected(self, model, grid, ground_state):
        for other in (make_grid(24.0, 4097), make_grid(20.0, 8193)):
            with pytest.raises(ValueError, match="same grid"):
                nodal_shoot(5.9e-5, model, other, 0, warm_start=ground_state.u)
        # a grid with the same nodes is the same grid
        assert nodal_shoot(5.9e-5, model, make_grid(24.0, 8193), 0,
                           warm_start=ground_state.u).converged


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
