import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf

import cssolve
from cssolve import solver
from cssolve.energy import j_trunc, riesz_gradient
from cssolve.gauge import big_n, gauge_potential, prefix_h, suffix_a
from cssolve.grid import (RadialFunction, _fornberg, cumulative_integral, integrate_plane,
                          laplacian_radial, make_grid, norm_lp, over_r, robin_row)
from cssolve.nonlinearity import power_model, table_model
from cssolve.solver import (
    _band_solver,
    _jacobian_apply,
    _krylov_step,
    _march,
    _shoot,
    continuation_in_q,
    count_nodes,
    mountain_pass,
    multiplicity_run,
    negative_energy_endpoint,
    newton_refine,
    nodal_shoot,
    save_branch_csv,
)
from cssolve.verify import (distinctness, nehari_residual, pohozaev_residual, residual_pde,
                            strong_residual)

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
def excited_state(model, grid):
    return nodal_shoot(0.0, model, grid, 1)


@pytest.fixture(scope="module")
def mp_ground_state(model, grid):
    return mountain_pass(0.0, model, grid)


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
        # four chord steps, no Newton step
        assert rep.iterations == 4
        assert rep.level == pytest.approx(7.754114926920636, rel=1e-12)
        # at the residual's roundoff floor the solve fixes u(0) only so far: four
        # more Newton steps (Krylov rtol 1e-12) from a certified step moved it by
        # up to 1.6e-12 relative, so the pin allows 3x that.  Re-pinned when the
        # Laplacian became the grid's CSR matrix, whose coefficients are each
        # rounded once: L u moved by a few eps per row, and u(0) by 2.7e-11 relative
        assert rep.u.values[0] == pytest.approx(2.392963795282274, rel=5e-12)

    def test_excited_warm_step_pins_certified_numbers(self, model, grid, excited_state):
        # the strongest coupling of the 1-node band, qN = 0.61; the pins were
        # measured with the plain chord (8 steps), the tolerances are those above;
        # u(0) re-pinned with the CSR Laplacian, as above (2.8e-11 relative)
        rep = nodal_shoot(2e-4, model, grid, 1, warm_start=excited_state.u)
        assert rep.converged and rep.node_count == 1
        assert rep.level == pytest.approx(50.36795101505306, rel=1e-12)
        assert rep.u.values[0] == pytest.approx(3.5983789007745135, rel=5e-12)

    @pytest.mark.parametrize("k, q", [(0, 5.9e-5), (1, 2e-4)], ids=["k=0", "k=1"])
    def test_warm_step_ends_at_the_residual_floor(self, model, grid, ground_state, excited_state,
                                                  k, q):
        # the pinned warm steps: 2.6e-10 and 2.5e-10 with the exact banded LU as M, 2.9e-9
        # at k = 1 with M's tridiagonal stage alone, which leaves the high frequencies
        rep = nodal_shoot(q, model, grid, k, warm_start=(ground_state, excited_state)[k].u)
        assert rep.converged
        assert rep.residual_pde <= 1e-9

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_cold_shot_certifies_well_inside_the_residual_target(self, model, k):
        # the chord stops on its step, not on the residual, and M leaves the high
        # frequencies to about 1e-3 per step; the margins were 1134x, 4.7x and 15.7x
        rep = nodal_shoot(3e-5, model, make_grid(24.0, 2049), k)
        assert rep.converged and rep.node_count == k
        assert rep.residual_pde <= 0.5 * solver._residual_tol(rep.u)

    def test_cold_shot_converges_in_few_steps(self, model):
        # the plain chord took 18 steps here; the mixed one takes 8
        rep = nodal_shoot(1e-2, model, make_grid(24.0, 1025), 0)
        assert rep.converged and rep.node_count == 0
        assert rep.iterations <= 10


class TestShoot:
    """The cold shot marches the 3-point rows of the q = 0 local problem."""

    @pytest.mark.parametrize("n", [1025, 2049, 4097])
    def test_origin_value_second_order(self, model, n):
        g = make_grid(24.0, n)
        h = g.nodes[1] - g.nodes[0]
        # measured 0.146 h^2 at each n: the 3-point scheme's O(h^2) error
        assert abs(_shoot(g, model, 0)[0] - BL_U0) < 0.2 * h**2

    def test_is_the_discrete_fixed_point(self, model):
        g = make_grid(24.0, 1025)
        h = g.nodes[1] - g.nodes[0]
        lower, _, upper, _ = g.tridiagonal
        shot = _shoot(g, model, 0)
        # the exponential tail patch starts where the shot leaves the march
        patch = int(np.argmax(_march(g, model, shot[:1])[:, 0] != shot))
        assert patch > g.n // 2
        f = np.empty(g.n - 1)
        f[0] = -4.0 * (shot[1] - shot[0]) / h**2 - model.g(shot[0])
        f[1:] = (lower[:-1] * shot[:-2] + 2.0 / h**2 * shot[1:-1] + upper[1:] * shot[2:]
                 - model.g(shot[1:-1]))
        # rows 0 .. patch - 2 read no patched value; measured 1.8e-12, roundoff
        # of the 4 u_0 / h^2 terms (3.9e-12)
        assert np.max(np.abs(f[: patch - 1])) < 1e-11
        # the tail decays at the Robin rate, up to the one-sided u'(R)'s O(h^2)
        # error (measured 1.3e-4 relative)
        kappa = math.sqrt(2.0 * model.m0)
        assert abs(robin_row(shot, h, kappa)) < 1e-3 * kappa * abs(shot[-1])

    def test_tail_patch_keeps_the_outer_nodes(self, model):
        # at this grid a sample next to the third crossing is below 1e-6 max|u|
        # and growing; the patch must not start there and cut off the last node
        g = make_grid(24.0, 8193)
        assert count_nodes(RadialFunction(g, _shoot(g, model, 3))) == 3

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

    @pytest.mark.parametrize("first_step", [1.0, 1.5, 2.0])
    def test_long_first_step_is_cut_back(self, model, monkeypatch, first_step):
        # any step lowers j_trunc once it is long enough; accepting that, the pass
        # spent its 400 sweeps (1 and 2) or ended uncertified (1.5), and a decrease
        # of 1e-4 s ||w||^2 in place of s ||w||^2 / 2 still took 406 iterations at 1 and 2
        grid = make_grid(24.0, 1025)
        reference = mountain_pass(0.0, model, grid)
        monkeypatch.setattr(solver, "_DESCENT_STEP", first_step)
        rep = mountain_pass(0.0, model, grid)
        assert rep.converged and rep.iterations <= 40
        assert rep.level == pytest.approx(reference.level, rel=1e-12)

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

    def test_non_descent_direction_keeps_the_ray_maximizer(self, model, monkeypatch):
        # a gradient of the wrong sign raises the ray maximum at every step size,
        # so the first sweep halves the step below 1e-12 and the descent stops there
        grid = make_grid(24.0, 1025)
        starts = []

        def recorded(u, q, model):
            starts.append(u.values)
            return newton_refine(u, q, model)

        monkeypatch.setattr(solver, "newton_refine", recorded)
        monkeypatch.setattr(solver, "riesz_gradient",
                            lambda *args: RadialFunction(grid, -riesz_gradient(*args).values))
        for sweeps in (0, 3):
            monkeypatch.setattr(solver, "_MAX_SWEEPS", sweeps)
            mountain_pass(0.0, model, grid)
        # the polish starts where it would with no sweep at all, up to the ray
        # maximization's sqrt(eps) accuracy in t on a flat maximum
        np.testing.assert_allclose(starts[1], starts[0], rtol=1e-7, atol=0.0)


class TestInitialPath:
    """The endpoint of the mountain pass's first ray."""

    def test_endpoint_energy_negative(self, model):
        g = make_grid(24.0, 1025)
        endpoint = negative_energy_endpoint(model, g)
        assert j_trunc(endpoint, 0.0, model).total < 0

    def test_max_energy_positive(self, model):
        g = make_grid(24.0, 1025)
        endpoint = negative_energy_endpoint(model, g)
        levels = [j_trunc(RadialFunction(g, s * endpoint.values), 0.0, model).total
                  for s in np.linspace(0.0, 1.0, 17)]
        # the segment s * endpoint, s in [0, 1], runs from 0 over the pass
        assert levels[0] == 0.0
        assert max(levels) > 0


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

    def test_application_keeps_no_state(self, point, model):
        u, z = point
        first = _jacobian_apply(u, self.Q, model, z)
        # other directions at the same u, as the Krylov solver applies J within a Newton step
        for w in (z**2, np.sin(3.0 * u.grid.nodes) * z):
            _jacobian_apply(u, self.Q, model, w)
        assert np.array_equal(_jacobian_apply(u, self.Q, model, z), first)

    def test_matches_central_difference(self, point, model):
        u, z = point
        eps = 1e-4
        plus = strong_residual(RadialFunction(u.grid, u.values + eps * z), self.Q, model)
        minus = strong_residual(RadialFunction(u.grid, u.values - eps * z), self.Q, model)
        fd = (plus - minus) / (2.0 * eps)
        jz = _jacobian_apply(u, self.Q, model, z)
        # the last row is left out: kappa is frozen there (see the docstring)
        err = np.max(np.abs(jz[:-1] - fd[:-1]))
        assert err < 1e-6 * np.max(np.abs(fd[:-1]))


class TestKrylovStep:
    """The Newton step's Krylov solve on the polish's own J and preconditioner."""

    @staticmethod
    def _step(model, q, n=1025):
        g = make_grid(24.0, n)
        u = RadialFunction(g, 2.4 * np.exp(-g.nodes**2 / 3.0))
        return (lambda z: _jacobian_apply(u, q, model, z), _band_solver(u, q, model),
                strong_residual(u, q, model))

    @staticmethod
    def _counted(fn, calls):
        def wrapper(z):
            calls.append(1)
            return fn(z)

        return wrapper

    def test_meets_the_relative_tolerance(self, model):
        jac, solve, f = self._step(model, 1e-3)
        x, info = _krylov_step(jac, solve, f)
        assert info == 0
        assert np.linalg.norm(f - jac(x)) <= 1e-8 * np.linalg.norm(f)

    def test_exact_preconditioner_takes_one_iteration(self, model):
        # M = J^-1 up to rounding: SuperLU of J, assembled column by column on a small grid
        applications, solves = [], []
        jac, _, f = self._step(model, 0.0, n=129)
        solve = spla.splu(sp.csc_matrix(np.column_stack([jac(e) for e in np.eye(f.size)]))).solve
        x, info = _krylov_step(self._counted(jac, applications), self._counted(solve, solves), f)
        assert info == 0
        # one iteration and the true-residual check, each J M^-1, then x = M^-1 y
        assert len(applications) == 2
        assert len(solves) <= 3
        assert np.linalg.norm(f - jac(x)) <= 1e-8 * np.linalg.norm(f)

    def test_stagnation_runs_out_of_budget(self):
        # GMRES(30) on a cyclic shift of 64 unknowns makes no progress from e_0
        f = np.zeros(64)
        f[0] = 1.0
        x, info = _krylov_step(lambda z: np.roll(z, 1), lambda v: v, f)
        assert info != 0
        assert np.isfinite(x).all()

    def test_non_finite_application_stops_the_solve(self, model, grid, ground_state,
                                                    monkeypatch):
        applications = []

        def nan_on_second_call(u, q, model, z):
            applications.append(1)
            return np.full(z.size, np.nan) if len(applications) == 2 else _jacobian_apply(
                u, q, model, z)

        monkeypatch.setattr(solver, "_jacobian_apply", nan_on_second_call)
        rough = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = newton_refine(rough, 1e-3, model)
        # scipy's GMRES alone would carry the NaN through 200 cycles of 30
        assert len(applications) == 2
        assert not rep.converged
        assert np.array_equal(rep.u.values, rough.values)


class TestReorderedKernels:
    """The once-per-grid and once-per-step forms reproduce the per-call ones bit for bit."""

    @pytest.mark.parametrize("q", [0.0, 1e-3])
    def test_gauge_terms_match_prefix_and_suffix(self, model, q):
        g = make_grid(24.0, 1025)
        u = RadialFunction(g, 2.4 * np.exp(-g.nodes**2 / 3.0))
        h = prefix_h(u).values
        # h_u and A_u update their integrands in place, in their one-line forms' order
        assert np.array_equal(h, cumulative_integral(g, g.nodes * u.values**2))
        cum = cumulative_integral(g, over_r(g, u.values**2 * h))
        assert np.array_equal(suffix_a(u).values, cum[-1] - cum)
        v = 2.0 * q * suffix_a(u).values
        v[1:] += q * (h[1:] / g.nodes[1:]) ** 2
        h_u, v_pot = gauge_potential(u, q)
        assert np.array_equal(h_u, h)
        assert np.array_equal(v_pot, v)

    @staticmethod
    def _local_part(model, n):
        """(u, V - g'(u), kappa) at q = 1e-3 on make_grid(24, n)."""
        g = make_grid(24.0, n)
        u = RadialFunction(g, 2.4 * np.exp(-g.nodes**2 / 3.0))
        _, v_pot = gauge_potential(u, 1e-3)
        return u, v_pot - model.gprime(u.values), math.sqrt(2.0 * model.m0 + v_pot[-1])

    @staticmethod
    def _stages(model, u):
        """(T^-1, M^-1) of the chord's M at q = 1e-3: with no Jacobi sweep, the solve is T's."""
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(solver, "_JACOBI_DAMPING", 0.0)
            t_solve = _band_solver(u, 1e-3, model)
        return t_solve, _band_solver(u, 1e-3, model)

    @pytest.mark.parametrize("n", [16, 17, 1025, 4096, 4097, 8193])
    def test_preconditioner_matches_solve_banded(self, model, n):
        # the chord's M and the polish's preconditioner: T's stage against LAPACK gtsv
        # on T written out here from the 3-point, origin and Robin rows (not read off
        # the grid), then one Jacobi sweep on the 5-point rows written out here
        u, diag, kappa = self._local_part(model, n)
        r, h = u.grid.nodes, u.grid.nodes[1] - u.grid.nodes[0]
        h2, h1 = 12.0 * h * h, 12.0 * h
        # solve_banded storage: T_ij at tb[1 + i - j, j]
        tb = np.zeros((3, n))
        tb[0, 1], tb[1, 0] = -4.0 / h**2, 4.0 / h**2 + diag[0]
        i = np.arange(1, n - 1)
        tb[2, i - 1] = -1.0 / h**2 + 1.0 / (2.0 * h * r[i])
        tb[1, i] = 2.0 / h**2 + diag[i]
        tb[0, i + 1] = -1.0 / h**2 - 1.0 / (2.0 * h * r[i])
        # the Robin row (1/2h, -4/2h, 3/2h + kappa) less m times row n - 2, which removes
        # its u_{n-3} entry: the diagonal of row n - 2 is taken off after its 2/h^2
        m = 1.0 / (2.0 * h) / tb[2, n - 3]
        tb[2, n - 2] = (-4.0 / (2.0 * h) - m * 2.0 / h**2) - m * diag[n - 2]
        tb[1, n - 1] = (3.0 / (2.0 * h) - m * tb[0, n - 1]) + kappa
        kl, ku = 4, 2
        # A, the 5-point rows: A_ij at ab[ku + i - j, j]
        ab = np.zeros((kl + ku + 1, n))

        def put(i, cols, laplacian_row):
            ab[ku + i - cols, cols] = -laplacian_row

        put(0, np.arange(3), 2.0 * np.array([-30.0, 32.0, -2.0]) / h2)
        put(1, np.arange(4), np.array([16.0, -31.0, 16.0, -1.0]) / h2
            + np.array([-8.0, 1.0, 8.0, -1.0]) / h1 / r[1])
        for i in range(2, n - 2):
            put(i, np.arange(i - 2, i + 3), np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / h2
                + np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / h1 / r[i])
        put(n - 2, np.arange(n - 6, n),
            _fornberg(r[n - 6 :], r[n - 2], 2) + _fornberg(r[n - 6 :], r[n - 2], 1) / r[n - 2])
        ab[ku] += diag
        # the Robin row in place of the last Laplacian row
        ab[ku + n - 1 - np.arange(n - 3, n), np.arange(n - 3, n)] = [
            1.0 / (2.0 * h), -4.0 / (2.0 * h), 3.0 / (2.0 * h) + kappa]

        def a_times(x):
            out = np.zeros(n)
            for d in range(-kl, ku + 1):
                rows = slice(max(0, -d), min(n, n - d))
                cols = slice(rows.start + d, rows.stop + d)
                out[rows] += ab[ku - d, cols] * x[cols]
            return out

        t_solve, solve = self._stages(model, u)
        rng = np.random.default_rng(n)
        for _ in range(4):
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
            rhs = b.copy()
            rhs[-1] -= m * b[-2]
            x = solve_banded((1, 1), tb, rhs)
            assert np.array_equal(t_solve(b), x)
            want = x + 15.0 / 32.0 * (b - a_times(x)) / ab[ku]
            assert np.max(np.abs(solve(b) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [16, 17, 1025, 4096, 4097, 8193])
    def test_local_solver_matches_sparse_assembly(self, model, n):
        # the chord's M on the local -Delta_r + V - g'(u): T is assembled here as CSR
        # from the 3-point, origin and Robin rows, A from laplacian_radial applied to
        # each unit vector with the last row replaced by the Robin row
        u, diag, kappa = self._local_part(model, n)
        g = u.grid
        r, h = g.nodes, g.nodes[1] - g.nodes[0]
        robin = [1.0 / (2.0 * h), -2.0 / h, 3.0 / (2.0 * h) + kappa]
        i = np.arange(1, n - 1)
        three_point = np.c_[-1.0 / h**2 + 1.0 / (2.0 * h * r[i]), np.full(n - 2, 2.0 / h**2),
                            -1.0 / h**2 - 1.0 / (2.0 * h * r[i])]
        t = sp.csr_matrix((np.r_[4.0 / h**2, -4.0 / h**2, three_point.ravel(), robin],
                           (np.r_[0, 0, np.repeat(i, 3), np.full(3, n - 1)],
                            np.r_[0, 1, (i[:, None] + np.arange(-1, 2)).ravel(),
                                  np.arange(n - 3, n)])),
                          shape=(n, n)) + sp.diags(np.r_[diag[:-1], 0.0])
        rows, cols, vals = [], [], []
        e = np.zeros(n)
        for j in range(n):
            e[j] = 1.0
            column = -laplacian_radial(g, e)
            e[j] = 0.0
            (i,) = np.nonzero(column[:-1])
            rows.append(i)
            cols.append(np.full(i.size, j))
            vals.append(column[i])
        rows.append(np.full(3, n - 1))
        cols.append(np.arange(n - 3, n))
        vals.append(robin)
        a = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n)) + sp.diags(np.r_[diag[:-1], 0.0])
        t_solve, solve = self._stages(model, u)
        rng = np.random.default_rng(n)
        for _ in range(4):
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
            x = t_solve(b)
            # normwise backward error: |T x - b| against |T| |x|
            assert np.max(np.abs(t @ x - b)) <= 1e-12 * np.max(abs(t) @ np.abs(x))
            want = x + 15.0 / 32.0 * (b - a @ x) / a.diagonal()
            assert np.max(np.abs(solve(b) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [16, 1025, 8193])
    def test_jacobi_sweep_is_its_one_line_form(self, model, n):
        # the sweep updates L x in place: x + jacobi (b + L x - c x), Robin entry last
        u, c, kappa = self._local_part(model, n)
        g = u.grid
        t_solve, solve = self._stages(model, u)
        jacobi = solver._JACOBI_DAMPING / (g.five_point_diagonal + np.r_[c[:-1], kappa])
        rng = np.random.default_rng(n)
        for _ in range(4):
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
            x = t_solve(b)
            r = b + laplacian_radial(g, x) - c * x
            r[-1] = b[-1] - robin_row(x, g.h, kappa)
            assert np.array_equal(solve(b), x + jacobi * r)

    @pytest.mark.parametrize("n", [1025, 4096, 4097, 8193])
    def test_band_solver_inverts_local_jacobian(self, model, n):
        # at q = 0, J is its local part A.  With t = sin^2(theta/2), I - M^-1 A has symbol
        # -(t/3)(1 - (15/32)(8t + 8t^2/3)/5): 0 at the highest frequency, O(h^2) on smooth
        # errors, 0.094 at theta = pi/2, the largest.  T alone leaves theta = pi at 1/3,
        # and a sweep weighted 1/2 at 1/45
        g = make_grid(24.0, n)
        r, i = g.nodes, np.arange(n)
        u = RadialFunction(g, 2.4 * np.exp(-r**2 / 3.0))
        solve = _band_solver(u, 0.0, model)

        def shrink(z):
            e = z - solve(_jacobian_apply(u, 0.0, model, z))
            return np.max(np.abs(e)) / np.max(np.abs(z))

        bump = np.exp(-((r - 12.0) ** 2))
        # measured at n = 1025: 1.5e-4, 1.2e-5 and 0.094
        assert shrink((-1.0) ** i * bump) <= 1e-3
        assert shrink(np.exp(-((r - 8.0) ** 2) / 4.0)) <= 1e-3
        assert shrink(np.cos(0.5 * np.pi * i) * bump) <= 0.1

    @pytest.mark.parametrize("k, q, most_solves", [(0, 5.9e-5, 4), (1, 2e-4, 6)],
                             ids=["k=0", "k=1"])
    def test_warm_step_matvec_count(self, model, grid, ground_state, excited_state,
                                    monkeypatch, k, q, most_solves):
        applications, factorizations, solves = [], [], []

        def counted_jacobian(*args):
            applications.append(1)
            return _jacobian_apply(*args)

        def counted(make, calls):
            def wrapped_make(*args, **kwargs):
                fn = make(*args, **kwargs)

                def wrapper(z):
                    calls.append(1)
                    return fn(z)

                return wrapper

            return wrapped_make

        def counted_lu(*args, **kwargs):
            factorizations.append(1)
            return dgttrf(*args, **kwargs)

        monkeypatch.setattr(solver, "_jacobian_apply", counted_jacobian)
        monkeypatch.setattr(solver, "_band_solver", counted(_band_solver, solves))
        monkeypatch.setattr(solver, "dgttrf", counted_lu)
        rep = nodal_shoot(q, model, grid, k, warm_start=(ground_state, excited_state)[k].u)
        assert rep.converged
        # the chord factors T once at the warm start and applies M once per
        # step (measured: 4 at k = 0; 6 at k = 1, where the plain chord took 8);
        # no Newton step, so J is never applied
        assert applications == []
        assert len(factorizations) == 1
        assert 0 < len(solves) <= most_solves

    @pytest.mark.parametrize("k, q, most", [(0, 5.9e-5, (10, 5, 0)), (1, 2e-4, (14, 7, 0))],
                             ids=["k=0", "k=1"])
    def test_warm_step_leaf_work(self, model, grid, ground_state, excited_state, monkeypatch,
                                 k, q, most):
        # the kernels that nothing keeps on an iterate, counted at every binding
        calls = dict.fromkeys(("cumulative_integral", "laplacian_radial", "cumulative_adjoint"), 0)
        for name in calls:
            fn = getattr(cssolve.grid, name)

            def counted(*args, _fn=fn, _name=name):
                # laplacian_radial(grid, z) applies J's local part to a direction, not an iterate
                calls[_name] += _name != "laplacian_radial" or len(args) == 1
                return _fn(*args)

            for mod in (cssolve.grid, cssolve.gauge, cssolve.energy, cssolve.verify, solver):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted)
        rep = nodal_shoot(q, model, grid, k, warm_start=(ground_state, excited_state)[k].u)
        assert rep.converged
        # measured before the iterate kept its quantities: two quadratures and
        # one Laplacian per evaluated iterate; the Nehari residual takes no adjoint
        for got, pinned in zip(calls.values(), most):
            assert 0 < got <= pinned if pinned else got == 0

    @pytest.mark.parametrize("k, q", [(0, 5.9e-5), (1, 2e-4)], ids=["k=0", "k=1"])
    def test_warm_step_builds_no_gradient(self, model, grid, ground_state, excited_state,
                                          monkeypatch, k, q):
        # the certificate's Nehari residual is a scalar from N'(u)[u] = 6N(u): no
        # length-n gradient of N, and so no adjoint quadrature, at any binding
        calls = []
        for name in ("big_n_gradient", "cumulative_adjoint"):
            fn = getattr(cssolve.gauge, name)

            def counted(*args, _fn=fn, _name=name):
                calls.append(_name)
                return _fn(*args)

            for mod in (cssolve.grid, cssolve.gauge, cssolve.energy, cssolve.verify, solver):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted)
        rep = nodal_shoot(q, model, grid, k, warm_start=(ground_state, excited_state)[k].u)
        assert rep.converged
        assert calls == []

    @pytest.mark.parametrize("k, q", [(0, 5.9e-5), (1, 5e-5)])
    def test_warm_step_makes_no_newton_krylov_step(self, model, grid, ground_state,
                                                   excited_state, monkeypatch, k, q):
        krylov, factorizations = [], []

        def counted(fn, calls):
            return lambda *args, **kwargs: calls.append(1) or fn(*args, **kwargs)

        monkeypatch.setattr(solver, "_krylov_step", counted(_krylov_step, krylov))
        # the chord's one factorization: T's, by LAPACK's tridiagonal gttrf
        monkeypatch.setattr(solver, "dgttrf", counted(dgttrf, factorizations))
        start = (ground_state, excited_state)[k].u
        rep = nodal_shoot(q, model, grid, k, warm_start=start)
        assert rep.converged and rep.node_count == k
        assert krylov == [] and len(factorizations) == 1

    def test_stalled_chord_hands_over_to_newton_refine(self, model, grid, ground_state,
                                                       monkeypatch):
        q = 5.9e-5
        reference = nodal_shoot(q, model, grid, 0, warm_start=ground_state.u)

        def overshooting(*args):
            solve = _band_solver(*args)
            # 2.5 M^-1: each chord step overshoots the error 1.5-fold; GMRES is
            # blind to the scale of its preconditioner
            return lambda b: 2.5 * solve(b)

        polished = []

        def recorded(*args, **kwargs):
            polished.append(newton_refine(*args, **kwargs))
            return polished[-1]

        monkeypatch.setattr(solver, "_band_solver", overshooting)
        monkeypatch.setattr(solver, "newton_refine", recorded)
        rep = nodal_shoot(q, model, grid, 0, warm_start=ground_state.u)
        [polish] = polished
        # one chord step, whose successor did not shrink, then Newton steps
        assert polish.iterations >= 1
        assert rep.iterations == 1 + polish.iterations
        assert rep.converged
        assert rep.level == pytest.approx(reference.level, rel=1e-12)
        assert rep.u.values[0] == pytest.approx(reference.u.values[0], rel=5e-12)

    def test_polish_never_applies_jacobian_to_zero(self, model, grid, ground_state, monkeypatch):
        directions = []

        def recorded(u, q, model, z):
            directions.append(np.array(z))
            return _jacobian_apply(u, q, model, z)

        monkeypatch.setattr(solver, "_jacobian_apply", recorded)
        rough = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        for q in (5.9e-5, 1e-3):
            assert newton_refine(rough, q, model).converged
        assert directions
        # the Krylov solve starts from x0 = 0; J 0 = 0 needs no application
        assert all(z.any() for z in directions)

    def test_warm_step_certificate_evaluates_once(self, model, grid, ground_state, monkeypatch):
        computed, certified = [], []

        class Recording(dict):
            """An iterate's memo that records each quantity computed into it."""

            def __setitem__(self, key, value):
                computed.append(key[0].__name__)
                super().__setitem__(key, value)

        def counted(*args):
            certified.append(args[0])
            return residual_pde(*args)

        monkeypatch.setattr(RadialFunction, "memo",
                            property(lambda u: u.__dict__.setdefault("memo", Recording())))
        monkeypatch.setattr(solver, "residual_pde", counted)
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=ground_state.u)
        assert rep.converged
        # N(u) feeds the level, Nehari, Pohozaev and the truncation check
        assert computed.count("big_n") == computed.count("energy_pieces") == 1
        [u] = certified
        assert u is rep.u
        # each iterate's gauge terms and strong residual, once: the warm
        # start and one iterate per chord step
        assert computed.count("gauge_potential") == computed.count("strong_residual")
        assert computed.count("strong_residual") == rep.iterations + 1

    def test_warm_step_residual_handed_to_certificate(self, model, grid, ground_state,
                                                      monkeypatch):
        evaluated = []

        def recorded(u, q, model):
            evaluated.append((u, strong_residual(u, q, model)))
            return evaluated[-1][1]

        monkeypatch.setattr(solver, "strong_residual", recorded)
        q = 5.9e-5
        rep = nodal_shoot(q, model, grid, 0, warm_start=ground_state.u)
        assert rep.converged
        # the polish's last strong residual, the Robin row its last entry, is
        # the one the certificate reads off its iterate
        u, res = evaluated[-1]
        assert u is rep.u
        assert strong_residual(u, q, model) is res
        assert rep.residual_pde == float(np.max(np.abs(res)))
        fresh = RadialFunction(grid, u.values.copy())
        assert residual_pde(u, q, model) == residual_pde(fresh, q, model)


class TestCertificate:
    """Certificates built from once-evaluated pieces equal the standalone functions."""

    @pytest.mark.parametrize("coupling", [("q", 0.0), ("q", 1e-3), ("qN", 1.5), ("qN", 3.0)],
                             ids=["q=0", "q=1e-3", "qN=1.5", "qN=3"])
    def test_report_equals_standalone_values(self, model, ground_state, coupling):
        u = ground_state.u
        kind, value = coupling
        q = value if kind == "q" else value / big_n(u)
        rep = solver._report(u, q, model, 0)

        def fresh():
            # a copy keeps nothing, so each standalone value is computed afresh
            return RadialFunction(u.grid, u.values.copy())

        assert rep.level == j_trunc(fresh(), q, model).total
        assert rep.residual_nehari == nehari_residual(fresh(), q, model)
        assert rep.residual_pohozaev == pohozaev_residual(fresh(), q, model)
        assert (rep.residual_pde, rep.residual_pde_l2) == residual_pde(fresh(), q, model)
        assert rep.truncation_inactive == (q * big_n(fresh()) <= 1.0)

    @pytest.mark.parametrize("odd_model", ["power", "table"])
    def test_sign_flip_keeps_every_certificate_field(self, odd_model):
        # the mountain pass flips its polished result to the peak-positive member and
        # keeps the certificate: for an odd g every field of -u is that of u bit for bit
        if odd_model == "power":
            model = power_model(2.0, 1.0)
        else:
            xi = np.linspace(0.0, 8.0, 64)
            model = table_model(np.column_stack([xi, xi**3 / (1.0 + xi**2) - xi / 2.0]))
        grid = make_grid(24.0, 1025)
        # a 1-node profile that is not a solution, so no residual is zero
        u = RadialFunction(grid, 3.0 * (1.0 - grid.nodes**2 / 4.0) * np.exp(-grid.nodes**2 / 4.0))
        neg = RadialFunction(grid, -u.values)
        rep = solver._report(u, 1e-3, model, 7)
        flipped, fresh = replace(rep, u=neg), solver._report(neg, 1e-3, model, 7)
        assert fresh.node_count == 1 and fresh.residual_pde > 0.0
        for name in (f.name for f in fields(solver.SolveReport) if f.name != "u"):
            assert getattr(fresh, name) == getattr(flipped, name), name


class TestFailurePaths:
    @staticmethod
    def _tridiagonal_zero_pivot(dl, d, du, **kwargs):
        return dl, d, du, np.zeros(d.size - 2), np.arange(1, d.size + 1, dtype=np.int32), 1

    def test_singular_local_solver_fails_nodal_shoot(self, model, grid, ground_state, monkeypatch):
        # the chord's M factors T at the first iterate
        monkeypatch.setattr(solver, "dgttrf", self._tridiagonal_zero_pivot)
        start = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=start)
        assert not rep.converged
        assert rep.iterations == 0
        assert np.array_equal(rep.u.values, start.values)

    def test_singular_preconditioner_fails_newton_refine(self, model, grid, ground_state,
                                                         monkeypatch):
        monkeypatch.setattr(solver, "dgttrf", self._tridiagonal_zero_pivot)
        rough = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = newton_refine(rough, 0.0, model)
        assert not rep.converged
        assert rep.iterations == 1

    def test_non_finite_chord_step_fails_nodal_shoot(self, model, grid, ground_state,
                                                     monkeypatch):
        # the chord stops at its first step, which is NaN, and keeps its start
        monkeypatch.setattr(solver, "_band_solver",
                            lambda u, q, model: lambda b: np.full(b.size, np.nan))
        start = RadialFunction(grid, ground_state.u.values * (1 + 1e-4))
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=start)
        assert not rep.converged
        assert rep.iterations == 0
        assert np.array_equal(rep.u.values, start.values)

    def test_non_finite_step_fails_newton_refine(self, model, grid, ground_state, monkeypatch):
        monkeypatch.setattr(solver, "_krylov_step",
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

    @pytest.mark.parametrize("k", [1, 2])
    def test_polish_that_leaves_the_branch_reports_the_chord_iterate(self, model, k):
        # at q = 1e-2 the chord stalls and newton_refine collapses the k-node
        # shot to a 0-node profile; the report keeps the last k-node iterate
        rep = nodal_shoot(1e-2, model, make_grid(24.0, 129), k)
        assert not rep.converged
        assert rep.node_count == k
        assert np.max(np.abs(rep.u.values)) > 1.0

    def test_polish_that_collapses_to_zero_reports_the_chord_iterate(self, model, monkeypatch):
        # past the k = 0 fold the chord stalls on a 0-node iterate and
        # newton_refine collapses it to u = 0, which has 0 nodes too; the
        # report keeps the chord's last iterate
        grid = make_grid(24.0, 1025)
        u = nodal_shoot(0.0, model, grid, 0).u
        for q in np.geomspace(1e-4, 0.01432, 8):
            u = nodal_shoot(float(q), model, grid, 0, warm_start=u).u
        inner, polished = solver.newton_refine, []

        def refine(*args, **kwargs):
            polished.append(inner(*args, **kwargs))
            return polished[-1]

        monkeypatch.setattr(solver, "newton_refine", refine)
        rep = nodal_shoot(0.025, model, grid, 0, warm_start=u)
        assert len(polished) == 1 and np.max(np.abs(polished[0].u.values)) < 1e-8
        assert not rep.converged
        assert rep.node_count == 0
        assert np.max(np.abs(rep.u.values)) > 1.0

    def test_polish_that_collapses_to_small_profile_is_not_certified(self, model, grid,
                                                                     monkeypatch):
        # past the k = 0 fold the chord stalls after one step at max|u| = 2.79 and
        # newton_refine takes it to max|u| = 1.3e-8, where the residual meets its
        # target; the collapse is judged against the polish's start
        polished = []

        def refine(*args, **kwargs):
            polished.append(newton_refine(*args, **kwargs))
            return polished[-1]

        monkeypatch.setattr(solver, "newton_refine", refine)
        rep = nodal_shoot(0.02, model, grid, 0)
        [polish] = polished
        assert np.max(np.abs(polish.u.values)) < 1e-6
        assert not polish.converged
        assert not rep.converged
        assert rep.node_count == 0
        assert np.max(np.abs(rep.u.values)) > 1.0

    def test_chord_that_changes_the_node_count_fails(self, model, grid, excited_state):
        # the chord's first step from a 1-node solution keeps its node
        rep = nodal_shoot(5.9e-5, model, grid, 0, warm_start=excited_state.u)
        assert not rep.converged
        assert rep.iterations == 0
        assert np.array_equal(rep.u.values, excited_state.u.values)

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

    def test_sign_flips_below_the_threshold_are_ignored(self, grid):
        u = (1 - grid.nodes) * np.exp(-grid.nodes)
        # alternate the sign of every tail sample below 1e-7 max|u|
        tail = np.abs(u) < 1e-7 * np.max(np.abs(u))
        assert tail.sum() > 100
        flipped = u.copy()
        flipped[tail] *= (-1.0) ** np.arange(tail.sum())
        assert np.count_nonzero(np.diff(np.signbit(flipped))) > 100
        assert count_nodes(RadialFunction(grid, flipped)) == count_nodes(RadialFunction(grid, u)) == 1


class TestContinuation:
    def test_branch_from_zero_coupling(self, model):
        g = make_grid(24.0, 4097)
        branch, q_star = continuation_in_q(model, g, 0, 0.0, 5e-3, 6)
        assert branch[0].converged
        assert abs(branch[0].u.values[0] - BL_U0) < 1e-6
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

    def test_uncertified_branch_fails_the_run(self, model):
        # on n = 1025 the ground state converges with qN < 1, but its Nehari
        # residual (-1.5e-3) is above the certificate's gate (7.8e-5)
        reports, failure = multiplicity_run(3e-5, model, make_grid(24.0, 1025), 2)
        assert len(reports) == 1 and reports[0].converged and reports[0].truncation_inactive
        assert failure.startswith("branch k=0 at q=3e-05: Nehari residual")

    def test_branches_closer_than_tolerance_are_not_distinct(self, model, grid, ground_state,
                                                            monkeypatch):
        bump = RadialFunction(grid, np.exp(-grid.nodes**2))
        # two converged profiles 0.05 apart in plane L^2, half of DISTINCT_TOL
        shift = 0.05 / norm_lp(bump, 2.0) * bump.values
        near = RadialFunction(grid, ground_state.u.values + shift)
        shots = [ground_state, replace(ground_state, u=near, node_count=1,
                                       level=ground_state.level + 1.0)]
        monkeypatch.setattr(solver, "nodal_shoot", lambda q, model, grid, k: shots[k])
        reports, failure = multiplicity_run(0.0, model, grid, 2)
        assert failure == "branch k=1 not distinct from k=0"
        dist, _, flagged = distinctness(reports)
        assert dist[0, 1] == pytest.approx(0.05, rel=1e-12)
        assert flagged == [(0, 1)]

    def test_levels_out_of_order_fail_the_run(self, model, grid, ground_state, monkeypatch):
        # a certified k = 1 report, distinct from k = 0, whose level is below it
        below = replace(ground_state, u=RadialFunction(grid, -ground_state.u.values),
                        node_count=1, level=ground_state.level - 1.0)
        shots = [ground_state, below]
        monkeypatch.setattr(solver, "nodal_shoot", lambda q, model, grid, k: shots[k])
        reports, failure = multiplicity_run(0.0, model, grid, 2)
        assert failure == "level ordering violated at k=1"
        assert len(reports) == 2 and all(r is s for r, s in zip(reports, shots))

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
                             "residual_pde_l2", "residual_nehari", "residual_pohozaev",
                             "truncation_inactive", "iterations", "converged"}
