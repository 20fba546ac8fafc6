"""Closed-form layer: dispersion, envelope coefficients, resonance, collisions."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flexwave.core import INFINITE_DEPTH, IceModel, PhysicalParams
from flexwave.theory import (
    CollisionRecord,
    FiniteDepthUnsupported,
    WiltonPole,
    c_nls,
    curvature_sign_change_rigidity,
    dispersion,
    find_collisions,
    flat_eigenvalues,
    growth_rate,
    nls_coefficients,
    resonant_rigidity,
    second_harmonic,
)
from flexwave.solver import RESIDUAL_TOL, bifurcation_speed

LIN = IceModel.LINEAR_BIHARMONIC
NL = IceModel.NONLINEAR_COSSERAT

DEEP = PhysicalParams(g=1.0, h=INFINITE_DEPTH, D=0.0)


def deep(d):
    return PhysicalParams(g=1.0, h=INFINITE_DEPTH, D=d)


class TestDispersion:
    def test_unit_gravity_wave(self):
        assert dispersion(1.0, DEEP) == pytest.approx(1.0, abs=1e-15)

    def test_unit_rigidity(self):
        assert dispersion(1.0, deep(1.0)) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_tanh_saturation(self):
        deep_value = dispersion(2.0, DEEP)
        assert deep_value**2 == pytest.approx(2.0, abs=1e-14)
        finite = dispersion(2.0, PhysicalParams(h=10.0))
        assert finite == pytest.approx(deep_value, rel=1e-14)

    def test_zero_wavenumber_rejected(self):
        with pytest.raises(ValueError):
            dispersion(0.0, DEEP)

    @pytest.mark.parametrize("k", [0.3, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 0.05, 2.0])
    def test_even_in_k(self, k, h):
        p = PhysicalParams(h=h, D=0.2)
        assert dispersion(-k, p) == pytest.approx(dispersion(k, p), rel=1e-15)


class TestNlsCoefficients:
    def test_gravity_limit_values(self):
        for model in (LIN, NL):
            co = nls_coefficients(model, 1, DEEP)
            assert co.omega == pytest.approx(1.0)
            assert co.omega_p == pytest.approx(0.5)
            assert co.omega_pp == pytest.approx(-0.25)
            assert co.M == pytest.approx(-2.0)

    def test_wilton_pole_blowup(self):
        for d in (1.0 / 14.0 - 1e-6, 1.0 / 14.0 + 1e-6):
            for model in (LIN, NL):
                assert abs(nls_coefficients(model, 1, deep(d)).M) > 1e4

    def test_wilton_pole_raises_inside_strip(self):
        with pytest.raises(WiltonPole):
            nls_coefficients(LIN, 1, deep((1.0 + 1e-9) / 14.0))

    def test_finite_depth_rejected(self):
        with pytest.raises(FiniteDepthUnsupported):
            nls_coefficients(LIN, 1, PhysicalParams(h=1.0))

    def test_curvature_sign_change(self):
        d_star = curvature_sign_change_rigidity()
        assert d_star == pytest.approx(0.03280, abs=1e-4)
        below = nls_coefficients(LIN, 1, deep(d_star - 1e-3)).omega_pp
        above = nls_coefficients(LIN, 1, deep(d_star + 1e-3)).omega_pp
        assert below < 0 < above

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [0.0, 0.02, 0.2, 5.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sign_locks(self, g, d, k):
        if abs(g - 14 * k**4 * d) < 1e-6 * g:
            pytest.skip("on the resonance pole")
        co = nls_coefficients(LIN, k, PhysicalParams(g=g, D=d))
        numer = g**2 - 30 * g * k**4 * d - 15 * (k**4 * d) ** 2
        assert co.omega_p > 0
        assert co.omega_pp * numer < 0


class TestClassification:
    # focusing <=> modulationally unstable; formula-derived assignments
    TABLE = {
        0.01: (True, True),
        0.05: (False, False),
        0.1: (True, True),
        0.3: (False, False),
        25.0: (False, True),
    }

    @pytest.mark.parametrize("d", sorted(TABLE))
    def test_regimes(self, d):
        expected_lin, expected_nl = self.TABLE[d]
        assert nls_coefficients(LIN, 1, deep(d)).focusing is expected_lin
        assert nls_coefficients(NL, 1, deep(d)).focusing is expected_nl

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [0.01, 0.05, 0.1, 0.3, 25.0])
    def test_invariant_under_joint_rescaling(self, scale, d):
        base = nls_coefficients(LIN, 1, deep(d)).focusing
        scaled = nls_coefficients(LIN, 1, PhysicalParams(g=scale, D=scale * d)).focusing
        assert scaled is base


class TestGrowthRate:
    def coeffs(self):
        return nls_coefficients(LIN, 1, DEEP)

    def test_zero_sideband(self):
        assert growth_rate(0.0, 0.1, self.coeffs()) == 0.0

    def test_maximum(self):
        co = self.coeffs()
        a = 0.05
        mu_max = co.mu_max(a)
        assert mu_max == pytest.approx(a * math.sqrt(2 * co.M / co.omega_pp), rel=1e-14)
        assert growth_rate(mu_max, a, co) == pytest.approx(abs(co.M) * a**2, rel=1e-12)

    def test_band_edge_and_beyond(self):
        co = self.coeffs()
        a = 0.05
        edge = co.band_edge(a)
        assert growth_rate(edge, a, co) == pytest.approx(0.0, abs=1e-12)
        assert growth_rate(edge * 1.01, a, co) == 0.0

    def test_dispersion_identity_inside_band(self):
        co = self.coeffs()
        a, mu = 0.05, 0.04
        om = growth_rate(mu, a, co)
        residual = om**2 + (co.omega_pp / 2) ** 2 * mu**4 - co.omega_pp * co.M * a**2 * mu**2
        assert residual == pytest.approx(0.0, abs=1e-16)


class TestBranchSpeed:
    def test_zero_amplitude(self):
        for d in (0.0, 0.01, 0.3):
            co = nls_coefficients(LIN, 1, deep(d))
            assert c_nls(0.0, co, deep(d)) == pytest.approx(math.sqrt(1 + d), rel=1e-14)

    def test_gravity_wave_value(self):
        co = nls_coefficients(LIN, 1, DEEP)
        assert c_nls(0.1, co, DEEP) == pytest.approx(1.02, abs=1e-14)

    def test_requires_unit_carrier(self):
        co = nls_coefficients(LIN, 2, DEEP)
        with pytest.raises(ValueError):
            c_nls(0.1, co, DEEP)

    @pytest.mark.parametrize("d,expect_right", [(0.01, True), (0.1, False)])
    def test_branch_direction_sign(self, d, expect_right):
        co = nls_coefficients(LIN, 1, deep(d))
        bends_right = c_nls(0.1, co, deep(d)) > c_nls(0.0, co, deep(d))
        assert bends_right is expect_right


class TestSecondHarmonic:
    def test_zero(self):
        assert second_harmonic(0.0, 1, DEEP) == 0.0

    def test_classical_stokes_value(self):
        eps = 0.01
        assert second_harmonic(eps, 1, DEEP) == pytest.approx(eps**2, rel=1e-14)

    def test_blowup_near_pole(self):
        val = second_harmonic(1.0, 1, deep(1.0 / 14.0 - 1e-8))
        assert abs(val) > 1e6

    @pytest.mark.parametrize("model", [LIN, NL])
    @pytest.mark.parametrize("d", [0.01, 0.1, 25.0])
    def test_stokes_expansion_of_converged_branches(self, branch_cache, d, model):
        # a_2 = 2 * second_harmonic(a_1 / 2) + O(a_1^4) on both sides of the
        # Wilton pole at D = 1/14; the second term is Newton's residual floor
        for wave in branch_cache(d, model, 0.02).points:
            a1, a2 = wave.profile.coeffs[:2]
            pred = 2.0 * second_harmonic(a1 / 2.0, 1, wave.params)
            assert abs(a2 - pred) <= 10.0 * a1**2 * abs(pred) + RESIDUAL_TOL


class TestResonantRigidity:
    def test_deep_water_wilton(self):
        assert resonant_rigidity(2, DEEP) == pytest.approx(1.0 / 14.0, rel=1e-15)

    def test_shallow_values(self):
        shallow = PhysicalParams(h=0.05)
        assert resonant_rigidity(7, shallow) == pytest.approx(1.65e-5, rel=0.01)
        assert resonant_rigidity(10, shallow) == pytest.approx(8.11e-6, rel=0.01)

    @pytest.mark.parametrize("big_k", [2, 3, 7, 10])
    @pytest.mark.parametrize("h", [0.05, 1.0, INFINITE_DEPTH])
    def test_condition_residual(self, big_k, h):
        p = PhysicalParams(h=h)
        d = resonant_rigidity(big_k, p)
        th = 1.0 if p.infinite_depth else math.tanh(h)
        tkh = 1.0 if p.infinite_depth else math.tanh(big_k * h)
        residual = (p.g + d) * big_k * th - (p.g + big_k**4 * d) * tkh
        assert abs(residual) < 1e-12

    def test_mode_must_exceed_one(self):
        with pytest.raises(ValueError):
            resonant_rigidity(1, DEEP)


class TestFlatEigenvalues:
    def test_zero_mode(self):
        lam_p, lam_m = flat_eigenvalues(0.0, 0, 1.3, deep(0.2))
        assert lam_p == 0 and lam_m == 0

    def test_rest_frame_symmetry(self):
        for mu, m in ((0.1, 0), (0.3, 2), (-0.4, -3)):
            lam_p, lam_m = flat_eigenvalues(mu, m, 0.0, deep(0.2))
            assert lam_p == -lam_m

    def test_bifurcation_collision(self):
        p = deep(0.2)
        c = math.sqrt(p.g + p.D)
        _, lam_m = flat_eigenvalues(0.0, 1, c, p)
        assert lam_m == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("mu", [-0.5, -0.2, 0.0, 0.3, 0.49])
    @pytest.mark.parametrize("m", [-5, -1, 0, 2, 7])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 0.05])
    def test_purely_imaginary(self, mu, m, h):
        for lam in flat_eigenvalues(mu, m, 1.7, PhysicalParams(h=h, D=0.4)):
            assert lam.real == 0.0


class TestCollisions:
    def test_resonant_mode_collides_at_origin(self):
        shallow = PhysicalParams(h=0.05)
        p = PhysicalParams(h=0.05, D=resonant_rigidity(7, shallow))
        records = find_collisions(p, bifurcation_speed(p), mu_grid=801, m_range=10)
        at_origin = [r for r in records if abs(r.mu) < 1e-9 and abs(r.lam) < 1e-9]
        assert any(abs(r.m1 - r.m2) == 6 for r in at_origin)

    def test_more_near_origin_collisions_at_large_rigidity(self):
        counts = {}
        for d in (0.1, 25.0):
            p = deep(d)
            records = find_collisions(p, bifurcation_speed(p), mu_grid=2001, m_range=10)
            counts[d] = sum(1 for r in records if math.hypot(r.mu, r.lam.imag) < 0.1)
        assert counts[25.0] > counts[0.1]

    def test_rest_frame_trivial_pair(self):
        records = find_collisions(deep(0.2), 0.0, mu_grid=401, m_range=2)
        trivial = [
            r for r in records if r.m1 == 0 and r.m2 == 0 and r.s1 != r.s2 and abs(r.mu) < 1e-9
        ]
        assert trivial and all(abs(r.lam) < 1e-12 for r in trivial)

    def test_records_are_actual_collisions(self):
        p = deep(0.3)
        records = find_collisions(p, bifurcation_speed(p), mu_grid=801, m_range=4)
        assert records
        for r in records:
            lam1 = flat_eigenvalues(r.mu, r.m1, bifurcation_speed(p), p)
            lam2 = flat_eigenvalues(r.mu, r.m2, bifurcation_speed(p), p)
            pick1 = lam1[0] if r.s1 > 0 else lam1[1]
            pick2 = lam2[0] if r.s2 > 0 else lam2[1]
            assert abs(pick1 - pick2) < 1e-8
