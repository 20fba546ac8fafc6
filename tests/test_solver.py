"""Steady residual, Newton solves and branch continuation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flexwave import core, solver
from flexwave.core import (
    INFINITE_DEPTH,
    IceModel,
    NonpositiveRadicand,
    PhysicalParams,
    default_grid_size,
    eval_profile,
    qx_on_grid,
)
from flexwave.solver import (
    Direction,
    NoConvergence,
    SingularJacobian,
    SolverConfig,
    StepUnderflow,
    bifurcation_speed,
    branch_direction,
    continue_branch,
    newton_solve,
    residual,
)
from flexwave.theory import c_nls, nls_coefficients, resonant_rigidity

LIN = IceModel.LINEAR_BIHARMONIC
NL = IceModel.NONLINEAR_COSSERAT


def deep(d):
    return PhysicalParams(h=INFINITE_DEPTH, D=d)


class TestResidual:
    @pytest.mark.parametrize("c", [0.3, 1.0, 2.7])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 0.5])
    def test_flat_water_travels_at_any_speed(self, c, h):
        p = PhysicalParams(h=h, D=0.05)
        z = np.zeros(12)
        z[0] = c
        f = residual(z, 0.0, p, LIN)
        assert np.max(np.abs(f)) < 1e-13

    def test_bifurcation_seed_is_quadratically_small(self):
        p = deep(0.02)
        norms = {}
        for eps in (1e-4, 1e-5):
            z = np.zeros(16)
            z[0] = bifurcation_speed(p)
            norms[eps] = np.max(np.abs(residual(z, eps, p, LIN)))
        assert norms[1e-5] <= 1e-8
        assert 50 < norms[1e-4] / norms[1e-5] < 200  # second-order in amplitude

    def test_radicand_guard(self):
        z = np.zeros(8)
        z[0] = 0.1
        with pytest.raises(NonpositiveRadicand):
            residual(z, 0.5, deep(0.0), LIN)


class TestRadicandRule:
    """The residual and q_x share one admissibility rule for the radicand."""

    @pytest.mark.parametrize(
        "a1, c",
        [
            (0.5, 0.1),  # negative where eta is high
            (0.125, 0.5),  # c^2 - 2 eta is exactly zero at x = 0, positive elsewhere
        ],
    )
    def test_both_layers_reject_the_same_profile(self, a1, c):
        z = np.zeros(8)
        z[0] = c
        eta = eval_profile(np.concatenate(([a1], z[1:])), 64)
        with pytest.raises(NonpositiveRadicand):
            residual(z, a1, deep(0.0), LIN)
        with pytest.raises(NonpositiveRadicand):
            qx_on_grid(eta, c, deep(0.0), LIN)

    def test_both_layers_accept_water_at_rest(self):
        z = np.zeros(8)
        assert np.all(residual(z, 0.0, deep(0.1), NL) == 0.0)
        assert np.all(qx_on_grid(np.zeros((5, 64)), 0.0, deep(0.1), NL) == 0.0)
        # F = 0 already, so Newton returns without needing the Jacobian
        assert newton_solve(z, 0.0, deep(0.1), NL).c == 0.0
        with pytest.raises(SingularJacobian):
            _jacobian(z, 0.0, deep(0.1), NL)


def test_failed_newton_solve_is_a_singular_jacobian(monkeypatch):
    def fail(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    p = deep(0.02)
    z = np.zeros(8)
    z[0] = bifurcation_speed(p)
    monkeypatch.setattr(np.linalg, "solve", fail)
    with pytest.raises(SingularJacobian, match="Singular matrix"):
        newton_solve(z, 1e-3, p, LIN)


def _jacobian(z, a1, params, model):
    """Newton's exact Jacobian at z, as `newton_solve` forms it."""
    return solver._jacobian_at(solver._evaluate(z, a1, params, model)[1], z, a1, params, model)


def _central_difference_jacobian(z, a1, params, model, step=1e-8):
    jac = np.empty((z.size, z.size))
    for j in range(z.size):
        dz = np.zeros(z.size)
        dz[j] = step
        jac[:, j] = (residual(z + dz, a1, params, model) - residual(z - dz, a1, params, model)) / (2 * step)
    return jac


def _forward_difference_newton(z, a1, params, model, step=1e-7):
    """Reference Newton iteration with a forward-difference Jacobian, run to
    its own rounding floor: it keeps stepping while |F|_inf decreases."""
    z = z.copy()
    f = residual(z, a1, params, model)
    for _ in range(solver.MAX_NEWTON_ITERS):
        jac = np.empty((z.size, z.size))
        for j in range(z.size):
            zj = z.copy()
            zj[j] += step
            jac[:, j] = (residual(zj, a1, params, model) - f) / step
        z_next = z - np.linalg.solve(jac, f)
        f_next = residual(z_next, a1, params, model)
        if not np.max(np.abs(f_next)) < np.max(np.abs(f)):
            break
        z, f = z_next, f_next
    assert np.max(np.abs(f)) <= solver.RESIDUAL_TOL
    return z


class TestJacobian:
    @pytest.mark.parametrize("model", [LIN, NL])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 1.0])
    def test_matches_central_differences(self, model, h):
        params = PhysicalParams(h=h, D=0.01)
        wave = continue_branch(params, model, 0.05, SolverConfig(n_modes=32, amplitude_step=0.01)).points[-1]
        assert wave.n_modes == 32
        z = np.concatenate(([wave.c], wave.coeffs[1:]))
        exact = _jacobian(z, wave.a1, params, model)
        fd = _central_difference_jacobian(z, wave.a1, params, model)
        assert np.max(np.abs(exact - fd)) / np.max(np.abs(fd)) <= 1e-6

    def test_off_the_branch(self):
        # an iterate away from any solution, with a mode-2 component of the
        # wrong sign and a speed far from the bifurcation speed
        params = PhysicalParams(h=0.7, D=0.2)
        z = np.zeros(12)
        z[:4] = [1.4, -0.01, 0.003, 0.001]
        exact = _jacobian(z, 0.04, params, NL)
        fd = _central_difference_jacobian(z, 0.04, params, NL)
        assert np.max(np.abs(exact - fd)) / np.max(np.abs(fd)) <= 1e-6

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("model", [LIN, NL])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 1.0])
    def test_cached_tables_give_the_jacobian_of_fresh_derivatives(self, monkeypatch, n, model, h):
        # the Jacobian read from the table, after a solve has used it, is
        # bitwise the one whose directions cos(j x), j = 2..n, are
        # differentiated afresh by eval_profile, one direction at a time
        params = PhysicalParams(h=h, D=0.01)
        z0 = np.zeros(n)
        z0[0] = bifurcation_speed(params)
        wave = newton_solve(z0, 0.01, params, model)
        z = np.concatenate(([wave.c], wave.coeffs[1:]))
        cached = _jacobian(z, wave.a1, params, model)
        m_grid = default_grid_size(n)
        fresh = np.stack([eval_profile(unit, m_grid) for unit in np.eye(n)[1:]], axis=1)
        assert np.array_equal(solver._trig_tables(n, m_grid)[:, 1:], fresh)

        def fresh_p_flex_derivative(surface, _directions, model):
            return core.p_flex_derivative_grid(surface, fresh, model)

        monkeypatch.setattr(solver, "p_flex_derivative_grid", fresh_p_flex_derivative)
        assert np.array_equal(_jacobian(z, wave.a1, params, model), cached)

    def test_cached_tables_are_read_only(self):
        # every solve at (N, M) shares them, so no caller may write to one
        for table in (solver._trig_tables(16, 64), core._derivative_factors(16)):
            with pytest.raises(ValueError, match="read-only"):
                table += 0

    @pytest.mark.parametrize("n, m_grid", [(16, 64), (5, 64), (32, 128)])
    def test_table_is_the_derivative_stack_of_the_unit_vectors(self, n, m_grid):
        # one (5, n, M) array: cos(j x) and its derivatives, from eval_profile
        tables = solver._trig_tables(n, m_grid)
        assert not tables.flags.writeable
        assert np.array_equal(tables, eval_profile(np.eye(n), m_grid))
        assert tables.nbytes == 5 * n * m_grid * 8

    @pytest.mark.parametrize("model", [LIN, NL])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 1.0])
    def test_branch_matches_forward_difference_newton(self, model, h):
        params = PhysicalParams(h=h, D=0.01)
        branch = continue_branch(params, model, 0.01, SolverConfig(n_modes=16, amplitude_step=2e-3))
        z = np.zeros(16)
        z[0] = bifurcation_speed(params)
        for wave in branch.points:
            z = _forward_difference_newton(z, wave.a1, params, model)
            assert abs(z[0] - wave.c) <= 1e-12
            assert np.max(np.abs(z[1:] - wave.coeffs[1:])) <= 1e-12


class TestNewton:
    @pytest.mark.parametrize("model", [LIN, NL])
    @pytest.mark.parametrize("d", [0.01, 25.0])
    def test_rounding_floor(self, branch_cache, model, d):
        # Newton past convergence on the a1 = 0.1 wave padded to 64 modes:
        # the residual settles at the round-off of the quadrature, which a
        # spectral fourth derivative of grid samples would multiply by (M/2)^4
        wave = branch_cache(d, model, 0.1, n_modes=32, step=0.01).points[-1]
        z = np.zeros(64)
        z[0] = wave.c
        z[1 : wave.n_modes] = wave.coeffs[1:]
        floor = []
        for _ in range(10):
            f = residual(z, wave.a1, wave.params, model)
            floor.append(np.max(np.abs(f)))
            z = z - np.linalg.solve(_jacobian(z, wave.a1, wave.params, model), f)
        assert min(floor[5:]) <= 1e-12

    def test_converged_point_is_fixed(self, small_wave_d001):
        w = small_wave_d001
        z = np.concatenate(([w.c], w.coeffs[1:]))
        again = newton_solve(z, w.a1, w.params, w.model)
        assert again.c == w.c
        assert_allclose(again.coeffs, w.coeffs, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "d,expect_faster", [(0.01, True), (0.1, False)]
    )
    def test_small_wave_speed_shift_sign(self, d, expect_faster):
        p = deep(d)
        z0 = np.zeros(16)
        z0[0] = bifurcation_speed(p)
        wave = newton_solve(z0, 1e-3, p, LIN)
        assert (wave.c > math.sqrt(1.0 + p.D)) is expect_faster

    def test_recovers_bifurcation_speed(self):
        for d in (0.01, 0.1, 25.0):
            p = deep(d)
            z0 = np.zeros(16)
            z0[0] = bifurcation_speed(p)
            wave = newton_solve(z0, 1e-4, p, LIN)
            assert abs(wave.c - math.sqrt(1.0 + d)) < 1e-6

    def test_nan_residual_is_no_convergence(self):
        z0 = np.zeros(16)
        z0[0] = math.nan
        with pytest.raises(NoConvergence, match="after 0 iterations"):
            newton_solve(z0, 1e-3, deep(0.01), LIN)

    @pytest.mark.parametrize("model", [LIN, NL])
    def test_one_surface_evaluation_per_iterate(self, monkeypatch, model):
        # each Newton step projects one Jacobian, which calls P_flex' once;
        # the iterates are the guess, one per Newton step and the chord step's.
        # The table at (16, 64) is built first: its one eval_profile call is
        # made once per size, not per iterate
        solver._trig_tables(16, 64)
        calls = {"eval_profile": 0, "p_flex_derivative_grid": 0}
        for name in calls:
            def counted(*args, _fn=getattr(solver, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(solver, name, counted)
        p = PhysicalParams(h=1.0, D=0.01)
        z0 = np.zeros(16)
        z0[0] = bifurcation_speed(p)
        newton_solve(z0, 5e-3, p, model)
        steps = calls["p_flex_derivative_grid"]
        assert steps >= 2
        assert calls["eval_profile"] == steps + 2


class TestContinuation:
    def test_gravity_branch_matches_stokes_expansion(self, branch_cache):
        # classical deep-water result: c = c0 (1 + a1^2/2) + O(a1^4)
        branch = branch_cache(0.0, LIN, 0.01)
        w = branch.points[-1]
        assert (w.c - 1.0) / w.a1**2 == pytest.approx(0.5, rel=0.01)
        assert w.coeffs[1] / w.a1**2 == pytest.approx(0.5, rel=0.01)

    def test_branch_is_strictly_increasing_in_a1(self, branch_cache):
        branch = branch_cache(0.01, LIN, 0.01)
        a1 = np.array([w.a1 for w in branch.points])
        assert np.all(np.diff(a1) > 0)

    def test_speed_limit_is_quadratic_in_amplitude(self, branch_cache):
        branch = branch_cache(0.01, LIN, 0.01, step=1e-3)
        c0 = bifurcation_speed(branch.params)
        pts = {w.a1: w.c for w in branch.points}
        r1 = (pts[0.001] - c0) / 0.001**2
        r2 = (pts[0.002] - c0) / 0.002**2
        assert r2 / r1 == pytest.approx(1.0, abs=0.02)

    def test_hugs_asymptotic_branch(self, branch_cache):
        for d in (0.01, 0.1):
            for model in (LIN, NL):
                branch = branch_cache(d, model, 0.01)
                coeffs = nls_coefficients(model, branch.params)
                c0 = bifurcation_speed(branch.params)
                for w in branch.points:
                    predicted = c_nls(w.a1 / 2.0, coeffs)
                    assert abs(w.c - predicted) <= 0.2 * abs(predicted - c0)

    def test_mode_doubling_leaves_speed_unchanged(self, small_wave_d001):
        w = small_wave_d001
        n = w.n_modes
        z = np.concatenate(([w.c], w.coeffs[1:], np.zeros(n)))
        refined = newton_solve(z, w.a1, w.params, w.model)
        assert abs(refined.c - w.c) < 1e-10

    def test_quadrature_refinement_leaves_residual_converged(self, small_wave_d001):
        # N zero modes double the quadrature grid and add F_m for N < m <= 2N
        w = small_wave_d001
        n = w.n_modes
        z = np.concatenate(([w.c], w.coeffs[1:], np.zeros(n)))
        assert default_grid_size(2 * n) == 2 * default_grid_size(n)
        fine = residual(z, w.a1, w.params, w.model)
        assert np.max(np.abs(fine)) < 1e-9

    def test_step_underflow_past_limiting_amplitude(self):
        p = PhysicalParams(h=0.05, D=0.0)
        cfg = SolverConfig(n_modes=8, max_modes=8, amplitude_step=5e-3)
        with pytest.raises(StepUnderflow) as err:
            continue_branch(p, LIN, 0.1, cfg)
        # the partial branch is preserved, and the step floor, relative to
        # the configured step, stops the halving soon after the fold
        assert 0 < len(err.value.branch.points) < 100

    @pytest.mark.parametrize("model", [LIN, NL])
    def test_one_jacobian_per_point_after_the_third(self, monkeypatch, model):
        # the quadratic predictor puts each guess one Newton step from the
        # branch, and the chord finish takes no Jacobian
        jacobians, per_solve = [0], []
        real_jacobian, real_solve = solver._jacobian_at, solver.newton_solve

        def counted_jacobian(*args):
            jacobians[0] += 1
            return real_jacobian(*args)

        def counted_solve(*args):
            before = jacobians[0]
            wave = real_solve(*args)
            per_solve.append(jacobians[0] - before)
            return wave

        monkeypatch.setattr(solver, "_jacobian_at", counted_jacobian)
        monkeypatch.setattr(solver, "newton_solve", counted_solve)
        cfg = SolverConfig(n_modes=16, amplitude_step=2e-3)
        branch = continue_branch(PhysicalParams(h=1.0, D=0.01), model, 0.03, cfg)
        assert len(per_solve) == len(branch.points) == 15  # no failed solve, no mode doubling
        assert max(per_solve[3:]) <= 1
        assert per_solve == [w.newton_steps for w in branch.points]

    @pytest.mark.parametrize("model", [LIN, NL])
    def test_branch_across_mode_doubling_matches_floor_reference(self, model):
        # the points after the doubling are predicted from zero-padded ones
        params = deep(0.01)
        branch = continue_branch(params, model, 0.03, SolverConfig(n_modes=8, max_modes=64, amplitude_step=2e-3))
        sizes = [w.n_modes for w in branch.points]
        assert sizes[0] == 8 and sizes[-1] == 16
        z = np.zeros(8)
        z[0] = bifurcation_speed(params)
        for wave in branch.points:
            z = np.concatenate((z, np.zeros(wave.n_modes - z.size)))
            z = _forward_difference_newton(z, wave.a1, params, model)
            assert abs(z[0] - wave.c) <= 1e-12
            assert np.max(np.abs(z[1:] - wave.coeffs[1:])) <= 1e-12

    @pytest.mark.parametrize("model, a1", [(LIN, 0.018), (NL, 0.016)])
    def test_doubled_point_solves_for_its_new_modes(self, monkeypatch, model, a1):
        # the zero-padded guess already meets the tolerance, so the refined
        # solve must step at least once to give the new modes their values
        steps, real_solve = [], solver.newton_solve

        def recorded_solve(*args, **kwargs):
            wave = real_solve(*args, **kwargs)
            steps.append((wave.a1, wave.n_modes, wave.newton_steps))
            return wave

        monkeypatch.setattr(solver, "newton_solve", recorded_solve)
        branch = continue_branch(deep(0.01), model, 0.02, SolverConfig(n_modes=8, max_modes=64, amplitude_step=2e-3))
        doubled = next(w for w in branch.points if w.n_modes == 16)
        assert doubled.a1 == pytest.approx(a1)
        assert np.all(doubled.coeffs[8:] != 0.0)
        assert doubled.residual_inf <= 1e-14
        at_a1 = [(n, k) for a, n, k in steps if a == doubled.a1]
        assert [n for n, _ in at_a1] == [8, 16] and at_a1[1][1] >= 1
        assert doubled.newton_steps == sum(k for _, k in at_a1)

    @pytest.mark.parametrize("model", [LIN, NL])
    def test_default_start_matches_32_modes(self, branch_cache, model):
        # the branch-climb inputs: the default N = 16 doubles only where the
        # tail test asks, and agrees with a branch started at N = 32
        params = PhysicalParams(h=1.0, D=0.01)
        branch = continue_branch(params, model, 0.06)
        reference = branch_cache(0.01, model, 0.06, h=1.0, n_modes=32, step=SolverConfig.amplitude_step)
        assert branch.points[0].n_modes == SolverConfig.n_modes == 16
        assert [w.a1 for w in branch.points] == [w.a1 for w in reference.points]
        for wave, ref in zip(branch.points, reference.points):
            assert abs(wave.c - ref.c) <= 1e-12
            assert np.max(np.abs(wave.coeffs[:16] - ref.coeffs[:16])) <= 1e-13

    @pytest.mark.parametrize(
        "model, offset",
        [
            (LIN, -1e-5),
            (NL, -1e-5),
            (LIN, 1e-5),
            pytest.param(NL, 1e-5, marks=pytest.mark.xfail(
                strict=True, reason="silent branch switch near a resonant rigidity: ROADMAP direction 11")),
        ],
    )
    def test_no_branch_switch_next_to_the_k3_resonance(self, model, offset):
        # at D = D_3 (1 + offset), N = 16 and the default step, the sign of
        # a3/a1 marks the Wilton-ripple branch.  On the Toland branch at
        # offset 1e-5 it goes from -0.467 at a1 = 0.003 to +0.297 at 0.0035,
        # after 19 Newton steps, with every residual at the rounding floor
        params = deep(resonant_rigidity(3, deep(0.0)) * (1.0 + offset))
        branch = continue_branch(params, model, 0.006)
        signs = np.sign([w.coeffs[2] / w.a1 for w in branch.points])
        assert np.all(signs == signs[0])

    @pytest.mark.parametrize("a1_max", [0.0, -1.0, math.inf, math.nan])
    def test_a1_max_must_be_positive_and_finite(self, a1_max):
        with pytest.raises(ValueError, match="a1_max must be positive and finite"):
            continue_branch(deep(0.01), LIN, a1_max)

    def test_resume_from_converged_point(self, branch_cache):
        base = branch_cache(0.01, LIN, 0.006)
        extended = continue_branch(
            base.params, base.model, 0.01, SolverConfig(n_modes=16, amplitude_step=2e-3),
            start=base.points[-1],
        )
        assert extended.points[0].a1 > base.points[-1].a1
        assert extended.points[-1].a1 == pytest.approx(0.01)


class TestBranchDirection:
    TABLE = {
        0.01: (Direction.RIGHT, Direction.RIGHT),
        0.05: (Direction.RIGHT, Direction.RIGHT),
        0.1: (Direction.LEFT, Direction.LEFT),
        0.3: (Direction.RIGHT, Direction.RIGHT),
        25.0: (Direction.RIGHT, Direction.LEFT),
    }

    @pytest.mark.parametrize("d", sorted(TABLE))
    def test_table_rows(self, d, branch_cache):
        expected_lin, expected_nl = self.TABLE[d]
        assert branch_direction(branch_cache(d, LIN, 0.005, step=1e-3)) is expected_lin
        assert branch_direction(branch_cache(d, NL, 0.005, step=1e-3)) is expected_nl

    def test_needs_three_points(self, branch_cache):
        branch = branch_cache(0.01, LIN, 0.01)
        short = type(branch)(params=branch.params, model=branch.model, points=branch.points[:2])
        with pytest.raises(ValueError):
            branch_direction(short)
