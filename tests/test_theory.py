"""Closed-form layer: dispersion, envelope coefficients, resonance, collisions."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flexwave.core import INFINITE_DEPTH, IceModel, PhysicalParams
from flexwave.theory import (
    MAX_RESONANT_MODE,
    CollisionRecord,
    FiniteDepthUnsupported,
    WiltonPole,
    c_nls,
    dispersion_derivatives,
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

DEEP = PhysicalParams(h=INFINITE_DEPTH, D=0.0)


def deep(d):
    return PhysicalParams(h=INFINITE_DEPTH, D=d)


class TestDispersion:
    def test_unit_gravity_wave(self):
        assert dispersion_derivatives(1.0, DEEP)[0] == pytest.approx(1.0, abs=1e-15)

    def test_unit_rigidity(self):
        assert dispersion_derivatives(1.0, deep(1.0))[0] == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_tanh_saturation(self):
        deep_value = dispersion_derivatives(2.0, DEEP)[0]
        assert deep_value**2 == pytest.approx(2.0, abs=1e-14)
        finite = dispersion_derivatives(2.0, PhysicalParams(h=10.0))[0]
        assert finite == pytest.approx(deep_value, rel=1e-14)

    def test_zero_wavenumber_rejected(self):
        with pytest.raises(ValueError):
            dispersion_derivatives(0.0, DEEP)

    # the units fix the carrier at k = 1: wavenumber K at rigidity d and depth h
    # is the unit carrier at D = d K^4 and depth K h, with omega, omega' and
    # omega'' times K^(1/2), K^(-1/2) and K^(-3/2)
    @pytest.mark.parametrize("big_k", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [0.0, 0.01, 0.05, 0.3, 25.0])
    def test_carrier_rescaling(self, big_k, d):
        for h in (INFINITE_DEPTH, 0.7):
            got = dispersion_derivatives(big_k, PhysicalParams(h=h, D=d))
            unit = dispersion_derivatives(1.0, PhysicalParams(h=big_k * h, D=d * big_k**4))
            assert_allclose(got, np.multiply(unit, [big_k**0.5, big_k**-0.5, big_k**-1.5]), rtol=1e-13)

    @pytest.mark.parametrize("k", [0.3, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 0.05, 2.0])
    def test_even_in_k(self, k, h):
        p = PhysicalParams(h=h, D=0.2)
        assert dispersion_derivatives(-k, p)[0] == pytest.approx(dispersion_derivatives(k, p)[0], rel=1e-15)


class TestNlsCoefficients:
    def test_gravity_limit_values(self):
        for model in (LIN, NL):
            co = nls_coefficients(model, DEEP)
            assert co.omega == pytest.approx(1.0)
            assert co.omega_p == pytest.approx(0.5)
            assert co.omega_pp == pytest.approx(-0.25)
            assert co.M == pytest.approx(-2.0)

    def test_wilton_pole_blowup(self):
        for d in (1.0 / 14.0 - 1e-6, 1.0 / 14.0 + 1e-6):
            for model in (LIN, NL):
                assert abs(nls_coefficients(model, deep(d)).M) > 1e4

    def test_wilton_pole_raises_inside_strip(self):
        with pytest.raises(WiltonPole):
            nls_coefficients(LIN, deep((1.0 + 1e-9) / 14.0))

    def test_finite_depth_rejected(self):
        with pytest.raises(FiniteDepthUnsupported):
            nls_coefficients(LIN, PhysicalParams(h=1.0))

    def test_curvature_sign_change(self):
        # positive root of 15 D^2 + 30 D - 1 = 0
        d_star = (-30.0 + math.sqrt(960.0)) / 30.0
        assert d_star == pytest.approx(0.03280, abs=1e-4)
        below = nls_coefficients(LIN, deep(d_star - 1e-3)).omega_pp
        above = nls_coefficients(LIN, deep(d_star + 1e-3)).omega_pp
        assert below < 0 < above

    # a carrier k under gravity g at rigidity d is the k = 1 carrier at
    # D = d k^4/g in units where g = k = 1, with the same omega' and omega'' signs
    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [0.0, 0.02, 0.2, 5.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sign_locks(self, g, d, k):
        co = nls_coefficients(LIN, deep(d * k**4 / g))
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
        assert nls_coefficients(LIN, deep(d)).focusing is expected_lin
        assert nls_coefficients(NL, deep(d)).focusing is expected_nl


class TestGrowthRate:
    def coeffs(self):
        return nls_coefficients(LIN, DEEP)

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
            co = nls_coefficients(LIN, deep(d))
            assert c_nls(0.0, co) == pytest.approx(math.sqrt(1 + d), rel=1e-14)

    def test_gravity_wave_value(self):
        co = nls_coefficients(LIN, DEEP)
        assert c_nls(0.1, co) == pytest.approx(1.02, abs=1e-14)

    @pytest.mark.parametrize("d,expect_right", [(0.01, True), (0.1, False)])
    def test_branch_direction_sign(self, d, expect_right):
        co = nls_coefficients(LIN, deep(d))
        bends_right = c_nls(0.1, co) > c_nls(0.0, co)
        assert bends_right is expect_right


class TestSecondHarmonic:
    def test_zero(self):
        assert second_harmonic(0.0, DEEP) == 0.0

    def test_classical_stokes_value(self):
        eps = 0.01
        assert second_harmonic(eps, DEEP) == pytest.approx(eps**2, rel=1e-14)

    def test_blowup_near_pole(self):
        val = second_harmonic(1.0, deep(1.0 / 14.0 - 1e-8))
        assert abs(val) > 1e6

    @pytest.mark.parametrize("model", [LIN, NL])
    @pytest.mark.parametrize("d", [0.01, 0.1, 25.0])
    def test_stokes_expansion_of_converged_branches(self, branch_cache, d, model):
        # a_2 = 2 * second_harmonic(a_1 / 2) + O(a_1^4) on both sides of the
        # Wilton pole at D = 1/14; the second term is Newton's residual floor
        for wave in branch_cache(d, model, 0.02).points:
            a1, a2 = wave.profile.coeffs[:2]
            pred = 2.0 * second_harmonic(a1 / 2.0, wave.params)
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
        residual = (1.0 + d) * big_k * th - (1.0 + big_k**4 * d) * tkh
        assert abs(residual) < 1e-12

    def test_mode_must_exceed_one(self):
        with pytest.raises(ValueError):
            resonant_rigidity(1, DEEP)

    @pytest.mark.parametrize("h", [0.05, 1.0, INFINITE_DEPTH])
    def test_largest_mode_is_in_float_range(self, h):
        # D = (K tanh(h) - tanh(K h)) / (K^4 tanh(K h) - K tanh(h)) -> tanh(h)/K^3;
        # K^4 leaves the float range above about 1.2e77
        p = PhysicalParams(h=h)
        th = 1.0 if p.infinite_depth else math.tanh(h)
        assert resonant_rigidity(MAX_RESONANT_MODE, p) == pytest.approx(th / 1e228, rel=1e-14)
        with pytest.raises(ValueError, match="must lie in"):
            resonant_rigidity(10**80, p)


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
        c = math.sqrt(1.0 + p.D)
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
        records = find_collisions(p, bifurcation_speed(p), m_range=10)
        at_origin = [r for r in records if abs(r.mu) < 1e-9 and abs(r.lam) < 1e-9]
        assert any(abs(r.m1 - r.m2) == 6 for r in at_origin)

    def test_more_near_origin_collisions_at_large_rigidity(self):
        counts = {}
        for d in (0.1, 25.0):
            p = deep(d)
            records = find_collisions(p, bifurcation_speed(p), m_range=10)
            counts[d] = sum(1 for r in records if math.hypot(r.mu, r.lam.imag) < 0.1)
        assert counts[25.0] > counts[0.1]

    def test_tangential_collisions_at_the_origin(self):
        # at the bifurcation speed (-1, +), (0, +), (0, -) and (1, -) all pass
        # through lambda = 0 at mu = 0, where the gaps of their six pairs
        # touch zero without changing sign; mu = 0 is a scan point
        p = deep(0.01)
        at_origin = {(r.m1, r.s1, r.m2, r.s2) for r in find_collisions(p, bifurcation_speed(p), m_range=10)
                     if r.mu == 0.0 and r.lam == 0.0}
        assert at_origin == {(-1, 1, 0, 1), (-1, 1, 0, -1), (-1, 1, 1, -1),
                             (0, 1, 0, -1), (0, 1, 1, -1), (0, -1, 1, -1)}

    def test_rest_frame_trivial_pair(self):
        records = find_collisions(deep(0.2), 0.0, m_range=2)
        trivial = [
            r for r in records if r.m1 == 0 and r.m2 == 0 and r.s1 != r.s2 and abs(r.mu) < 1e-9
        ]
        assert trivial and all(abs(r.lam) < 1e-12 for r in trivial)

    def test_each_collision_once_on_the_half_open_interval(self):
        # mu and mu + 1 are one exponent: at rest every collision at +1/2 is
        # one at -1/2 with both modes raised by one, and is listed there only
        records = find_collisions(deep(0.01), 0.0, m_range=2)
        keys = [(r.mu, r.m1, r.s1, r.m2, r.s2) for r in records]
        assert len(keys) == 9 and all(-0.5 <= r.mu < 0.5 for r in records)
        assert (-0.5, -1, 1, 2, 1) in keys and (-0.5, 0, -1, 1, -1) in keys

    def test_collision_at_half_is_kept_when_its_copy_is_out_of_range(self):
        # at this c the (0, +) and (2, -) branches meet at mu = 1/2; its copy,
        # (1, +) x (3, -) at -1/2, is scanned only when m_range reaches 3.
        # (-2, +) x (0, -) meets at -1/2 too, and is listed there either way
        p = deep(0.01)
        c = (dispersion_derivatives(0.5, p)[0] + dispersion_derivatives(2.5, p)[0]) / 2
        at_half = {
            m_range: [(r.mu, r.m1, r.s1, r.m2, r.s2) for r in find_collisions(p, c, m_range) if abs(r.mu) == 0.5]
            for m_range in (2, 3)
        }
        assert at_half == {2: [(-0.5, -2, 1, 0, -1), (0.5, 0, 1, 2, -1)],
                           3: [(-0.5, -2, 1, 0, -1), (-0.5, 1, 1, 3, -1)]}

    def test_records_are_actual_collisions(self):
        p = deep(0.3)
        records = find_collisions(p, bifurcation_speed(p), m_range=4)
        assert records
        for r in records:
            lam1 = flat_eigenvalues(r.mu, r.m1, bifurcation_speed(p), p)
            lam2 = flat_eigenvalues(r.mu, r.m2, bifurcation_speed(p), p)
            pick1 = lam1[0] if r.s1 > 0 else lam1[1]
            pick2 = lam2[0] if r.s2 > 0 else lam2[1]
            assert abs(pick1 - pick2) < 1e-8

    def test_memory_grows_with_the_branch_count_not_the_pair_count(self):
        # m_range 30 gives 122 branches and 7,381 pairs on 2001 exponents.
        # Differencing every pair at once peaked at 243.2 MiB of traced
        # memory; one first branch at a time peaks at 13.2 MiB
        p = deep(0.01)
        tracemalloc.start()
        try:
            find_collisions(p, bifurcation_speed(p), m_range=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
