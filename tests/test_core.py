"""Spectral representation, ice-pressure operators and the Bernoulli closure."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flexwave.core import (
    INFINITE_DEPTH,
    IceModel,
    NonpositiveRadicand,
    PhysicalParams,
    SpectralProfile,
    depth_kernels,
    eval_profile,
    grid_derivative,
    grid_points,
    p_flex_grid,
    qx_on_grid,
)

LIN = IceModel.LINEAR_BIHARMONIC
NL = IceModel.NONLINEAR_COSSERAT


def cosine(*coeffs):
    return SpectralProfile(np.array(coeffs, dtype=float))


class TestParams:
    def test_defaults(self):
        p = PhysicalParams()
        assert p.D == 0.0 and p.infinite_depth

    @pytest.mark.parametrize("kwargs", [dict(h=0.0), dict(h=-2.0), dict(D=-0.1), dict(h=math.nan),
                                        dict(D=math.inf), dict(D=math.nan),
                                        dict(h=-math.inf), dict(h=-0.0), dict(D=-math.inf), dict(D=-5e-324)])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PhysicalParams(**kwargs)

    def test_infinite_depth_is_distinguished(self):
        assert PhysicalParams(h=INFINITE_DEPTH).infinite_depth
        assert not PhysicalParams(h=1e6).infinite_depth


class TestEvalProfile:
    def test_zero_profile(self):
        vals = eval_profile(cosine(0.0, 0.0), 8)[0]
        assert_allclose(vals, np.zeros(8), atol=0)

    def test_single_cosine_on_four_points(self):
        vals = eval_profile(cosine(1.0), 4)[0]
        assert_allclose(vals, [1.0, 0.0, -1.0, 0.0], atol=1e-15)

    def test_two_modes_at_pi(self):
        vals = eval_profile(cosine(0.1, 0.01), 16)[0]
        assert vals[8] == pytest.approx(-0.09, abs=1e-15)

    def test_grid_too_small_raises(self):
        with pytest.raises(ValueError, match="alias"):
            eval_profile(cosine(*np.ones(4)), 8)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=12) * 10.0 ** (-np.arange(12))
        prof = SpectralProfile(coeffs)
        x = grid_points(64)
        direct = sum(a * np.cos((j + 1) * x) for j, a in enumerate(coeffs))
        assert_allclose(eval_profile(prof, 64)[0], direct, atol=1e-12)


class TestSpectralDerivative:
    def test_first_derivative_of_cos(self):
        m = 32
        x = grid_points(m)
        assert_allclose(eval_profile(cosine(1.0), m)[1], -np.sin(x), atol=1e-13)
        assert_allclose(grid_derivative(np.cos(x), 1), -np.sin(x), atol=1e-13)

    # the fourth derivative multiplies the round-off of np.cos samples by up
    # to (M/2)^4, past these bounds, so grid_derivative gets the band-limited
    # samples of eval_profile's row 0
    def test_fourth_derivative_of_cos2x(self):
        m = 32
        surface = eval_profile(cosine(0.0, 1.0), m)
        assert_allclose(surface[4], 16.0 * np.cos(2 * grid_points(m)), atol=1e-12)
        assert_allclose(grid_derivative(surface[0], 4), 16.0 * np.cos(2 * grid_points(m)), atol=1e-12)

    def test_cos_is_biharmonic_eigenfunction(self):
        m = 32
        surface = eval_profile(cosine(1.0), m)
        assert_allclose(surface[4], np.cos(grid_points(m)), atol=1e-12)
        assert_allclose(grid_derivative(surface[0], 4), np.cos(grid_points(m)), atol=1e-12)

    def test_rows_are_the_analytic_derivatives(self):
        # d^k/dx^k cos(j x) = j^k cos(j x + k pi/2)
        coeffs = np.array([0.3, -0.05, 0.01, 0.002])
        x = grid_points(64)
        surface = eval_profile(SpectralProfile(coeffs), 64)
        assert surface.shape == (5, 64)
        k = np.arange(5)[:, None]
        exact = sum(a * j**k * np.cos(j * x + k * np.pi / 2) for j, a in enumerate(coeffs, 1))
        assert_allclose(surface, exact, rtol=0, atol=1e-14)


def fd_toland(eta):
    """Centered finite-difference evaluation of both Toland terms on the grid."""
    m = eta.size
    h = 2 * np.pi / m

    def d1(f):
        return (np.roll(f, -1) - np.roll(f, 1)) / (2 * h)

    def d2(f):
        return (np.roll(f, -1) - 2 * f + np.roll(f, 1)) / h**2

    ex, exx = d1(eta), d2(eta)
    r = 1.0 + ex**2
    return d2(exx * r**-2.5) + 2.5 * d1(exx**2 * ex * r**-3.5)


class TestPFlex:
    @pytest.mark.parametrize("model", [LIN, NL])
    def test_flat_profile(self, model):
        assert_allclose(p_flex_grid(eval_profile(cosine(0.0), 64), model), np.zeros(64), atol=1e-15)

    def test_linear_model_on_cosine(self):
        m = 64
        vals = p_flex_grid(eval_profile(cosine(0.3), m), LIN)
        assert_allclose(vals, 0.3 * np.cos(grid_points(m)), atol=1e-11)

    def test_models_agree_to_cubic_order(self):
        # NL - LIN = (5 a^3/4)(3 cos 3x - cos x) + O(a^5) for eta = a cos x
        a = 0.01
        diff = p_flex_grid(eval_profile(cosine(a), 64), NL) - p_flex_grid(eval_profile(cosine(a), 64), LIN)
        assert np.max(np.abs(diff)) < 6e-6

    def test_model_difference_scales_quadratically(self):
        ratios = []
        for a in (1e-2, 1e-3, 1e-4):
            lin = p_flex_grid(eval_profile(cosine(a), 64), LIN)
            nl = p_flex_grid(eval_profile(cosine(a), 64), NL)
            rel = np.max(np.abs(nl - lin)) / np.max(np.abs(lin))
            ratios.append(rel / a**2)
        assert max(ratios) / min(ratios) < 1.5

    def test_toland_against_finite_differences(self):
        prof = cosine(0.1, 0.05, 0.02)
        m = 4096
        surface = eval_profile(prof, m)
        spectral = p_flex_grid(surface, NL)
        fd = fd_toland(surface[0])
        scale = np.max(np.abs(spectral))
        assert np.max(np.abs(spectral - fd)) / scale < 1e-3

    @pytest.mark.parametrize("model", [LIN, NL])
    @pytest.mark.parametrize("coeffs", [(0.1, 0.05, 0.02), (0.3, -0.05, 0.01), 0.2 * 0.4 ** np.arange(12)])
    def test_grid_independent_at_shared_nodes(self, model, coeffs):
        # pointwise in eta's exact derivatives, so refining the grid 16-fold
        # changes nothing but round-off
        coarse = p_flex_grid(eval_profile(cosine(*coeffs), 64), model)
        fine = p_flex_grid(eval_profile(cosine(*coeffs), 1024), model)
        assert np.max(np.abs(fine[::16] - coarse)) <= 1e-13 * np.max(np.abs(coarse))

    @pytest.mark.parametrize("model", [LIN, NL])
    def test_even_profile_gives_even_pressure(self, model):
        m = 128
        vals = p_flex_grid(eval_profile(cosine(0.1, -0.03, 0.02), m), model)
        assert_allclose(vals[1:], vals[1:][::-1], atol=1e-12)


class TestDepthKernels:
    eta = eval_profile(cosine(0.3, -0.05, 0.01), 64)[0]

    def test_deep_water_is_exponential(self):
        s = np.array([-3.5, -1.0, -0.25, 0.0, 0.25, 1.0, 7.0])
        kernel, slope = depth_kernels(s, self.eta, INFINITE_DEPTH)
        assert kernel.shape == slope.shape == (s.size, self.eta.size)
        assert np.array_equal(slope, np.exp(np.abs(s)[:, None] * self.eta))
        assert np.array_equal(kernel, np.sign(s)[:, None] * slope)
        assert np.array_equal(kernel[3], np.zeros_like(self.eta))
        assert np.array_equal(slope[3], np.ones_like(self.eta))

    def test_finite_depth_matches_unbounded_form(self):
        # K_s = sinh(s (eta + h)) / cosh(s h), K'_s = cosh(s (eta + h)) / cosh(s h)
        h = 1.0
        s = np.array([-2.75, -1.0, 0.0, 0.4, 3.0])
        kernel, slope = depth_kernels(s, self.eta, h)
        arg = s[:, None] * (self.eta + h)
        scale = np.cosh(s * h)[:, None]
        assert_allclose(kernel, np.sinh(arg) / scale, rtol=1e-13, atol=1e-15)
        assert_allclose(slope, np.cosh(arg) / scale, rtol=1e-13)

    def test_scalar_wavenumber(self):
        kernel, slope = depth_kernels(-2.0, self.eta, INFINITE_DEPTH)
        assert kernel.shape == slope.shape == self.eta.shape
        assert_allclose(kernel, -np.exp(2.0 * self.eta), rtol=1e-15)

    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 1.0, 0.3])
    def test_integer_wavenumbers_are_the_steady_kernels_bitwise(self, h):
        # the steady solver's kernels for m = 1..N in their direct form:
        # exp(m eta) in deep water, sinh + tanh(m h) cosh and cosh + tanh(m h) sinh
        n = 16
        marg = np.outer(np.arange(1, n + 1), self.eta)
        if math.isinf(h):
            expected = np.exp(marg), np.exp(marg)
        else:
            th = np.tanh(np.arange(1, n + 1) * h)[:, None]
            expected = np.sinh(marg) + np.cosh(marg) * th, np.cosh(marg) + np.sinh(marg) * th
        for got, want in zip(depth_kernels(np.arange(1, n + 1), self.eta, h), expected):
            assert np.array_equal(got, want)


class TestQx:
    def qx(self, coeffs, c, m, h=INFINITE_DEPTH, d=0.0, model=LIN):
        return qx_on_grid(eval_profile(cosine(*coeffs), m), c, PhysicalParams(h=h, D=d), model)

    def test_flat_water_any_speed(self):
        for c in (0.5, 1.0, 3.0):
            assert_allclose(self.qx([0.0], c, 64), np.zeros(64), atol=1e-15)

    def test_leading_order_deep_water(self):
        a = 1e-3
        m = 64
        qx = self.qx([a], 1.0, m)
        assert np.max(np.abs(qx - a * np.cos(grid_points(m)))) < 1e-5

    def test_nonpositive_radicand(self):
        with pytest.raises(NonpositiveRadicand):
            self.qx([0.5], 0.1, 64)

    def test_even_profile_gives_even_qx(self):
        qx = self.qx([0.05, 0.01, -0.002], 1.2, 128, d=0.02, model=NL)
        assert_allclose(qx[1:], qx[1:][::-1], atol=1e-13)


def test_grid_derivative_nyquist_handling():
    # odd derivative of a signal with Nyquist content stays real and bounded
    vals = np.cos(8 * grid_points(16))
    out = grid_derivative(vals, 1)
    assert np.all(np.isfinite(out))


def test_grid_derivative_acts_along_last_axis():
    x = grid_points(32)
    rows = np.array([np.cos(x), np.sin(3 * x) + np.cos(2 * x)])
    for order in (1, 2, 4):
        stacked = grid_derivative(rows, order)
        for row, out in zip(rows, stacked):
            assert_allclose(out, grid_derivative(row, order), rtol=0, atol=1e-12)


@pytest.mark.parametrize("coeffs", [np.array([]), np.zeros((2, 3))], ids=["empty", "2-d"])
def test_profile_rejects_coefficients_that_are_not_a_nonempty_vector(coeffs):
    with pytest.raises(ValueError, match="nonempty 1-d"):
        SpectralProfile(coeffs)


def test_profile_is_immutable():
    prof = cosine(0.1, 0.2)
    with pytest.raises(ValueError):
        prof.coeffs[0] = 1.0
