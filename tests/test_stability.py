"""Floquet-Hill assembly, eigensolves, sweeps and instability classification."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from flexwave.core import (
    INFINITE_DEPTH,
    IceModel,
    PhysicalParams,
    TravelingWave,
    depth_kernels,
    eval_profile,
    grid_points,
    p_flex_derivative_grid,
    p_flex_grid,
)
from flexwave import stability
from flexwave.cli import main
from flexwave.solver import SolverConfig, bifurcation_speed, continue_branch
from flexwave.stability import (
    FloquetSpectrum,
    InstabilityKind,
    assemble_matrices,
    classify,
    linearized_flex,
    nls_overlay,
    solve_spectrum,
    sweep_floquet,
)
from flexwave.theory import dispersion_derivatives, flat_eigenvalues, nls_coefficients

LIN = IceModel.LINEAR_BIHARMONIC
NL = IceModel.NONLINEAR_COSSERAT


def uniform_mu(count):
    """The CLI's sweep grid: ``count`` uniform exponents in [-1/2, 1/2)."""
    return np.linspace(-0.5, 0.5, count, endpoint=False)


def flat_wave(params, c, model=LIN, n=4):
    return TravelingWave(coeffs=np.zeros(n), c=c, params=params, model=model)


def cosine_wave(coeffs, c, params, model=NL):
    return TravelingWave(coeffs=coeffs, c=c, params=params, model=model)


def modes(n):
    return np.arange(-n, n + 1)


def qz_eigenvalues(base, mu, n_modes):
    """lambda = -i nu from QZ on the real pencil of ``assemble_matrices``."""
    return -1j * solve_spectrum(*assemble_matrices(base, mu, n_modes))


class TestLinearizedFlex:
    def test_flat_linear_is_biharmonic_symbol(self):
        base = flat_wave(PhysicalParams(D=1.0), 1.0)
        mu = 0.3
        g = linearized_flex(base, LIN, mu, 6)
        assert g.dtype == np.float64
        assert_allclose(g, np.diag((mu + modes(6)) ** 4), atol=1e-14)

    def test_flat_nonlinear_reduces_to_linear(self):
        base = flat_wave(PhysicalParams(D=1.0), 1.0)
        mu = 0.21
        g_lin = linearized_flex(base, LIN, mu, 8)
        g_nl = linearized_flex(base, NL, mu, 8)
        assert_allclose(g_nl, g_lin, atol=1e-12)

    def test_model_difference_vanishes_with_amplitude(self):
        p = PhysicalParams(D=0.5)
        mu = 0.17
        norms = {}
        for a in (1e-3, 1e-4):
            base = cosine_wave([a], 1.0, p)
            diff = linearized_flex(base, NL, mu, 8) - linearized_flex(base, LIN, mu, 8)
            norms[a] = np.linalg.norm(diff, ord=2)
        bound = norms[1e-3] / 1e-3  # fitted C at the larger amplitude
        assert norms[1e-4] <= bound * 1e-4 * 1.1

    def test_frechet_derivative_against_finite_differences(self):
        # directional derivative of the Toland pressure at a non-flat profile
        base = TravelingWave(coeffs=[0.08, 0.02, -0.01], c=1.0, params=PhysicalParams(D=0.3), model=NL)
        n_modes = 12
        m_grid = 128
        surface = eval_profile(base.coeffs, m_grid)
        g_mat = linearized_flex(base, NL, 0.0, n_modes)
        rng = np.random.default_rng(3)
        delta = 1e-6
        x = grid_points(m_grid)
        k = np.arange(5)[:, None]
        for _ in range(5):
            amp_c = rng.normal(size=5) / (1 + np.arange(5)) ** 2
            amp_s = rng.normal(size=5) / (1 + np.arange(5)) ** 2
            # v and its first four derivatives, (d/dx)^k of cos and sin
            v_stack = sum(a * j**k * np.cos(j * x + k * np.pi / 2) for j, a in enumerate(amp_c, 1))
            v_stack += sum(b * j**k * np.sin(j * x + k * np.pi / 2) for j, b in enumerate(amp_s, 1))
            v = v_stack[0]
            fd = (p_flex_grid(surface + delta * v_stack, NL) - p_flex_grid(surface - delta * v_stack, NL)) / (2 * delta)
            v_hat = np.fft.fft(v) / m_grid
            v_modes = np.concatenate([v_hat[-n_modes:], v_hat[: n_modes + 1]])
            w_modes = g_mat @ np.fft.fftshift(np.fft.fft(v) / m_grid)[
                m_grid // 2 - n_modes : m_grid // 2 + n_modes + 1
            ]
            fd_hat = np.fft.fftshift(np.fft.fft(fd) / m_grid)[
                m_grid // 2 - n_modes : m_grid // 2 + n_modes + 1
            ]
            scale = np.max(np.abs(fd_hat))
            assert np.max(np.abs(w_modes - fd_hat)) / scale < 1e-5


    @pytest.mark.parametrize("j", [1, 3, 7])
    def test_grid_derivative_matches_floquet_operator(self, j):
        # the Newton Jacobian applies P'(eta) on the grid to the derivative
        # stack of cos(j x); at mu = 0 the Floquet operator must act the same way
        base = TravelingWave(coeffs=[0.1, 0.03, -0.01, 0.002], c=1.0, params=PhysicalParams(D=0.3), model=NL)
        n_modes = 16
        g_mat = linearized_flex(base, NL, 0.0, n_modes)
        m_grid = 64  # the grid linearized_flex uses for this profile
        directions = eval_profile(np.eye(j)[-1], m_grid)
        on_grid = p_flex_derivative_grid(eval_profile(base.coeffs, m_grid), directions, NL)
        grid_modes = (np.fft.fft(on_grid) / m_grid)[modes(n_modes) % m_grid]
        cos_modes = 0.5 * (np.abs(modes(n_modes)) == j)
        floquet_modes = g_mat @ cos_modes
        assert np.max(np.abs(grid_modes - floquet_modes)) <= 1e-10 * np.max(np.abs(floquet_modes))


@pytest.mark.parametrize("model", [LIN, NL])
@pytest.mark.parametrize("h", [INFINITE_DEPTH, 1.0])
def test_thick_ice_surface_velocity_is_even(branch_cache, model, h):
    # q_x of an even wave is even; at D = 25 the ice pressure is the largest
    # term of its radicand, so its round-off would show first
    qx = stability._FloquetOperator(branch_cache(25.0, model, 0.02, h=h).points[-1], 16).qx
    assert np.max(np.abs(qx[1:] - qx[1:][::-1])) <= 1e-13 * np.max(np.abs(qx))


class TestFlatOracle:
    @pytest.mark.parametrize("d", [0.1, 25.0])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 0.05])
    def test_matches_closed_form(self, d, h):
        p = PhysicalParams(D=d, h=h)
        c = bifurcation_speed(p)
        base = flat_wave(p, c)
        for mu in (0.0, 0.25):
            lams = qz_eigenvalues(base, mu, 8)
            for m in range(-6, 7):
                for lam in flat_eigenvalues(mu, m, c, p):
                    assert np.min(np.abs(lams - lam)) < 1e-8

    @pytest.mark.parametrize("d", [0.1, 25.0])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 0.05])
    def test_sweep_matches_closed_form(self, d, h):
        # the same oracle through the sweep's reduced standard eigenproblem
        p = PhysicalParams(D=d, h=h)
        c = bifurcation_speed(p)
        spec = sweep_floquet(flat_wave(p, c), [0.0, 0.25], n_modes=8)
        assert spec.max_cond_c == pytest.approx(1.0)  # C = i I on flat water
        for mu, lams in zip(spec.mu_values, spec.eigenvalues):
            assert lams.size == 34
            for m in range(-6, 7):
                for lam in flat_eigenvalues(mu, m, c, p):
                    assert np.min(np.abs(lams - lam)) < 1e-8

    def test_rest_frame_has_no_doppler_shift(self):
        p = PhysicalParams(D=0.1)
        base = flat_wave(p, 0.0)
        lams = qz_eigenvalues(base, 0.3, 6)
        for m in range(-4, 5):
            lam_p, lam_m = flat_eigenvalues(0.3, m, 0.0, p)
            assert np.min(np.abs(lams - lam_p)) < 1e-9
            assert np.min(np.abs(lams - lam_m)) < 1e-9

    def test_flat_blocks_are_diagonal(self):
        p = PhysicalParams(D=0.2, h=0.7)
        base = flat_wave(p, 1.1)
        n = 5
        l1, l2 = assemble_matrices(base, 0.2, n_modes=n)
        dim = 2 * n + 1
        a_blk = l1[:dim, :dim]
        c_blk = l1[dim:, :dim]
        assert np.max(np.abs(a_blk)) == 0.0  # f vanishes on flat water
        off_diag = c_blk - np.diag(np.diag(c_blk))
        assert np.max(np.abs(off_diag)) < 1e-15


class TestSolveSpectrum:
    def test_identity_pencil_reduces_to_plain_eigenvalues(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        lams = solve_spectrum(np.eye(8, dtype=complex), m)
        expected = np.linalg.eigvals(m)
        for lam in expected:
            assert np.min(np.abs(lams - lam)) < 1e-10

    @pytest.mark.parametrize("l1", [np.full((3, 3), np.nan), np.eye(2)], ids=["nan", "shape"])
    def test_scipy_failure_is_an_eig_solver_failure(self, l1):
        with pytest.raises(stability.EigSolverFailure):
            solve_spectrum(l1, np.eye(3))

    @pytest.mark.parametrize("d", [0.01, 0.1, 25.0])
    def test_reference_is_invariant_under_power_of_two_scalings(self, branch_cache, d):
        # scaling the rows and columns of the pencil by powers of two is exact
        # and keeps its eigenvalues; raw QZ moved them by 1.7e-13, 4.4e-12 and
        # 2.1e-10 at D = 0.01, 0.1 and 25, the refined reference by <= 7.4e-16
        wave = branch_cache(d, LIN, 0.02).points[-1]
        l1, l2 = assemble_matrices(wave, -0.13, 32)
        ref = solve_spectrum(l1, l2)
        size = np.abs(l1) + np.abs(l2)
        rows = 2.0 ** -np.round(np.log2(size.max(axis=1)))[:, None]
        equilibrated = (rows, 2.0 ** -np.round(np.log2((rows * size).max(axis=0))))
        rng = np.random.default_rng(0)
        shuffled = [(2.0 ** rng.integers(-1, 2, l1.shape[0])[:, None], 2.0 ** rng.integers(-1, 2, l1.shape[0]))
                    for _ in range(3)]
        for r, c in (equilibrated, *shuffled):
            assert normwise_hausdorff(ref, solve_spectrum(r * l1 * c, r * l2 * c)) <= 1e-13

    def test_infinite_eigenvalues_are_filtered(self):
        l1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        l2 = np.diag([2.0, 3.0, 1.0]).astype(complex)
        lams = solve_spectrum(l1, l2)
        assert sorted(lams.real) == pytest.approx([2.0, 3.0])


class TestSweep:
    def test_flat_water_is_spectrally_stable(self):
        p = PhysicalParams(D=0.1)
        base = flat_wave(p, bifurcation_speed(p))
        spec = sweep_floquet(base, uniform_mu(21), n_modes=8)
        assert classify(spec).max_growth < 1e-8

    def test_results_keyed_by_mu_not_completion_order(self, small_wave_d001):
        # slot i of an unsorted sweep holds exactly the spectrum at mu_values[i]
        mus = np.array([0.3, -0.1, 0.02])
        spec = sweep_floquet(small_wave_d001, mus, n_modes=12)
        assert_array_equal(spec.mu_values, mus)
        for mu, lams in zip(mus, spec.eigenvalues):
            single = sweep_floquet(small_wave_d001, [mu], n_modes=12)
            assert lams.size > 0
            assert_array_equal(np.sort_complex(lams), np.sort_complex(single.eigenvalues[0]))

    def test_quadruple_symmetry_for_converged_wave(self, small_wave_d001):
        mus = np.array([-0.25, -0.1, 0.0, 0.1, 0.25])
        spec = sweep_floquet(small_wave_d001, mus, n_modes=16)
        lams = np.concatenate(spec.eigenvalues)
        for target in (-lams.conj(), lams.conj()):
            dist = np.abs(lams[None, :] - target[:, None]).min(axis=1)
            assert dist.max() < 1e-8

    def test_truncation_robustness(self, small_wave_d001):
        mus = np.linspace(0.0, 0.05, 11)  # covers the unstable band
        growth = {}
        for n in (16, 32):
            spec = sweep_floquet(small_wave_d001, mus, n_modes=n)
            growth[n] = classify(spec).max_growth
        assert abs(growth[32] - growth[16]) < 1e-6

    def test_sweep_with_no_mu_is_empty(self, small_wave_d001):
        spec = sweep_floquet(small_wave_d001, [])
        mus, lams = spec.flattened()
        assert mus.size == lams.size == 0
        assert classify(spec).clusters == ()


def normwise_hausdorff(a, b):
    dist = np.abs(a[:, None] - b[None, :])
    return max(dist.min(axis=0).max(), dist.min(axis=1).max()) / max(1.0, np.abs(a).max())


class TestReducedSolve:
    # mu = 0 is left out: there the zero eigenvalue is defective (a Jordan
    # block from the wave's symmetries), so every solver scatters it by
    # about sqrt(machine epsilon) and the paths differ at the 1e-9 level
    MUS = np.array([-0.4, -0.13, 0.07, 0.31, 0.5])

    # The distances are the sweep's own error: QZ's raw alpha/beta were up to
    # 8.9e-13 off 40-digit eigenvalues at D = 0.1 (linear, h = inf, n = 32,
    # mu = -0.13), which left the bound almost no headroom, and the Rayleigh
    # quotient of `solve_spectrum` brings them to 3.6e-16.  The worst case of
    # each D reads 1.1e-14 (D = 0.01), 1.2e-14 (D = 0.1) and 8.3e-15 (D = 25),
    # against 1.3e-13, 8.9e-13 and 2.1e-10 with raw QZ (2-vCPU x86_64, OpenBLAS)
    @pytest.mark.parametrize("d, tol", [(0.01, 1e-12), (0.1, 1e-12), (25.0, 1e-9)])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 1.0])
    @pytest.mark.parametrize("model", [LIN, NL])
    def test_matches_qz_on_converged_waves(self, branch_cache, model, h, d, tol):
        wave = branch_cache(d, model, 0.02, h=h).points[-1]
        for n in (12, 16, 32):
            spec = sweep_floquet(wave, self.MUS, n_modes=n)
            assert spec.failures == []
            assert 1.0 <= spec.max_cond_c < 1e6
            for mu, lams in zip(self.MUS, spec.eigenvalues):
                assert all(m.dtype == np.float64 for m in assemble_matrices(wave, mu, n))
                qz = qz_eigenvalues(wave, mu, n)
                assert lams.size == qz.size == 2 * (2 * n + 1)
                assert normwise_hausdorff(lams, qz) <= tol

    # at D = 25 the round-off of D P_flex(eta0), a fourth derivative, makes
    # q_x even only to about 5e-11 relative, and the blocks inherit it
    @pytest.mark.parametrize("d, tol", [(0.01, 1e-15), (25.0, 1e-13)])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 1.0])
    @pytest.mark.parametrize("model", [LIN, NL])
    def test_blocks_have_the_phases_of_a_reversible_wave(self, branch_cache, monkeypatch, model, h, d, tol):
        # eta0 is even, so the convolutions keep only the real coefficients
        # of even grid functions and the imaginary ones of odd grid
        # functions.  Flipping that choice assembles the discarded parts
        # with the pencil's own multipliers (up to the signs of the terms);
        # less the parts that use no convolution, they must be round-off
        # relative to the largest entry of L1 or L2
        wave = branch_cache(d, model, 0.02, h=h).points[-1]
        keep = stability._row_coeffs
        for mu in self.MUS:
            pencil = assemble_matrices(wave, mu, 16)
            monkeypatch.setattr(stability, "_row_coeffs", lambda rows, n, odd: keep(rows, n, np.logical_not(odd)))
            discarded = assemble_matrices(wave, mu, 16)
            monkeypatch.setattr(stability, "_row_coeffs", lambda rows, n, odd: 0.0 * keep(rows, n, odd))
            no_convolution = assemble_matrices(wave, mu, 16)
            monkeypatch.setattr(stability, "_row_coeffs", keep)
            for full, part, fixed in zip(pencil, discarded, no_convolution):
                assert np.abs(part - fixed).max() <= tol * np.abs(full).max()

    @pytest.mark.parametrize("d", [0.01, 25.0])
    @pytest.mark.parametrize("h", [INFINITE_DEPTH, 1.0])
    @pytest.mark.parametrize("model", [LIN, NL])
    def test_row_coeffs_match_the_full_fft(self, branch_cache, model, h, d):
        # the one rfft with its conjugate-sign gather against the full
        # complex FFT gathered at (m - n) mod M, real or imaginary part by parity
        def full_fft(rows, n, odd):
            coeffs = np.fft.fft(rows, axis=1) / rows.shape[1]
            idx = (modes(n)[:, None] - modes(n)[None, :]) % rows.shape[1]
            return np.take_along_axis(coeffs.imag if odd else coeffs.real, idx, axis=1)

        def assert_close(got, want):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

        wave = branch_cache(d, model, 0.02, h=h).points[-1]
        n = 16
        surface = eval_profile(wave.coeffs, stability._grid_for(wave, n))
        k_s, dk_s = depth_kernels(0.31 + modes(n), surface[0], h)
        stack = np.stack([dk_s, surface[1] * k_s, k_s])  # row-dependent: even, odd, even
        singles = surface[:3]  # eta, eta_x, eta_xx: even, odd, even
        parities = np.array([False, True, False])
        for rows in (stack, singles[:, None]):
            for got, row, odd in zip(stability._row_coeffs(rows, n, parities), rows, parities):
                assert_close(got, full_fft(row, n, odd))
        for row, odd in zip(singles, parities):
            assert_close(stability._row_coeffs(row[None, :], n, bool(odd)), full_fft(row[None, :], n, odd))

    @pytest.fixture(params=["reduced", "qz"])
    def solver_path(self, request):
        """Runs a test on the sweep's reduced solve and on real QZ at the
        same mu."""
        if request.param == "reduced":
            return sweep_floquet
        return lambda wave, mus, n_modes: FloquetSpectrum(mus, [qz_eigenvalues(wave, mu, n_modes) for mu in mus])

    def test_stable_wave_has_purely_imaginary_spectrum(self, branch_cache, solver_path):
        # the real pencil puts every stable eigenvalue exactly on the axis,
        # with either solver
        wave = branch_cache(25.0, LIN, 0.05).points[-1]
        spec = solver_path(wave, uniform_mu(21), 16)
        assert spec.failures == []
        for lams in spec.eigenvalues:
            assert lams.size == 66
            assert_array_equal(lams.real, 0.0)

    def test_unstable_eigenvalues_pair_with_their_mirror(self, branch_cache, solver_path):
        # reversibility: lambda and -conj(lambda) at the same mu
        wave = branch_cache(0.01, NL, 0.02).points[-1]
        spec = solver_path(wave, np.linspace(-0.1, 0.1, 9), 16)
        assert spec.failures == []
        assert classify(spec).max_growth > 1e-5
        for lams in spec.eigenvalues:
            off_axis = lams[lams.real != 0]
            for lam in off_axis:
                assert np.abs(off_axis + lam.conj()).min() <= 1e-13

    def test_reduced_path_uses_no_scipy(self, fresh_python, tmp_path):
        # whole stability and compare runs in a new interpreter: no module
        # imports scipy, and every mu is solved
        code = (
            "import sys\n"
            "from flexwave import cli\n"
            "common = ['--model', 'linear', '--modes', '12', '--mu-count', '5', '--out', sys.argv[1]]\n"
            "assert cli.main(['stability', '--D', '0.05', '--a1-max', '0.002', *common]) == 0\n"
            "assert cli.main(['compare', '--D', '0.01', '--a1-max', '0.004', *common]) == 0\n"
            "print('scipy' in sys.modules)"
        )
        assert fresh_python(code, str(tmp_path)).strip() == "False"
        for name in ("stability_linear.meta.json", "compare_linear.meta.json"):
            report = json.loads((tmp_path / name).read_text())["reports"][0]
            assert report["failed_mu"] == []

    def test_stability_run_leaves_numpy_ma_unloaded(self, fresh_python, tmp_path):
        # numpy 2.4's np.unique imports numpy.ma, about 18 ms on first use;
        # classify sorts and de-duplicates without it, cluster path included
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from flexwave import cli\n"
            "from flexwave.stability import FloquetSpectrum, classify\n"
            "args = ['--model', 'linear', '--modes', '12', '--mu-count', '5', '--out', sys.argv[1]]\n"
            "assert cli.main(['stability', '--D', '0.05', '--a1-max', '0.002', *args]) == 0\n"
            "lams = [np.array([1e-3 + 0.2j]), np.array([1e-3 - 0.2j])]\n"
            "assert classify(FloquetSpectrum(np.array([-0.1, 0.1]), lams)).clusters\n"
            "print('numpy.ma' in sys.modules)"
        )
        assert fresh_python(code, str(tmp_path)).strip() == "False"

    def test_only_the_qz_reference_loads_scipy(self, fresh_python):
        # the import of scipy sits inside solve_spectrum, which no sweep
        # calls, however ill-conditioned c^ is
        code = (
            "import json, sys\n"
            "from flexwave import stability\n"
            "from flexwave.core import IceModel, PhysicalParams\n"
            "from flexwave.solver import SolverConfig, continue_branch\n"
            "wave = continue_branch(PhysicalParams(D=25.0), IceModel.NONLINEAR_COSSERAT, 0.3,"
            " SolverConfig(n_modes=16, amplitude_step=0.01)).points[-1]\n"
            "spec = stability.sweep_floquet(wave, [-0.25, 0.0, 0.13], n_modes=32)\n"
            "swept = 'scipy' in sys.modules\n"
            "stability.solve_spectrum(*stability.assemble_matrices(wave, 0.13, 8))\n"
            "print(json.dumps([spec.max_cond_c, len(spec.failures), swept, 'scipy' in sys.modules]))"
        )
        max_cond_c, failures, swept, after = json.loads(fresh_python(code))
        assert max_cond_c > 1e6 and failures == 0
        assert (swept, after) == (False, True)

    # cond(c^) grows like exp(n H): on these waves it passes 1e6 and the
    # reduced solve must still match QZ and the resolved growth rate.  The
    # reference truncation is the default max(N, 16): 16 at D = 25, and the
    # wave's own 32 at D = 0.01, where n = 16 is off by 5e-10 relative
    @pytest.mark.parametrize("d, a1, n", [(25.0, 0.3, 32), (0.01, 0.2, 48)])
    def test_ill_conditioned_waves_match_qz(self, branch_cache, d, a1, n):
        wave = branch_cache(d, NL, a1).points[-1]
        mus = np.array([-0.3, 0.07, 0.13, 0.31])
        spec = sweep_floquet(wave, mus, n_modes=n)
        assert spec.failures == [] and spec.max_cond_c > 1e6
        for mu, lams in zip(mus, spec.eigenvalues):
            assert normwise_hausdorff(lams, qz_eigenvalues(wave, mu, n)) <= 1e-9
        resolved = classify(sweep_floquet(wave, mus)).max_growth
        assert resolved > 1e-3
        assert abs(classify(spec).max_growth - resolved) <= 1e-10 * resolved

    # cond(c^) peaks at the grid's largest |mu|, so the sweep takes it there
    # alone; the per-mu loop is the reference
    @pytest.mark.parametrize("mus, largest", [(uniform_mu(21), -0.5), (np.linspace(0.1, 0.3, 21), 0.3)])
    @pytest.mark.parametrize(
        "d, model, a1, h",
        [(0.01, LIN, 0.02, INFINITE_DEPTH), (0.05, NL, 0.02, 1.0), (25.0, NL, 0.05, INFINITE_DEPTH),
         (25.0, NL, 0.3, INFINITE_DEPTH)],
    )
    def test_cond_c_is_taken_once_at_the_largest_mu(self, branch_cache, monkeypatch, d, model, a1, h, mus, largest):
        wave = branch_cache(d, model, a1, h=h).points[-1]
        cond, calls = np.linalg.cond, []
        monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(m) or cond(m))
        spec = sweep_floquet(wave, mus)
        assert len(calls) == 1 and spec.failures == []
        assert spec.cond_c_mu == largest
        operator, k = stability._FloquetOperator(wave), 2 * max(wave.n_modes, 16) + 1
        reference = max(cond(operator.pencil(mu)[0][k:, :k]) for mu in mus)
        assert spec.max_cond_c == pytest.approx(reference, rel=1e-12, abs=0)

    def test_failed_mu_is_recorded_and_the_sweep_goes_on(self, small_wave_d001, monkeypatch, tmp_path):
        # a non-finite pencil at mu = 0 makes the eigensolve fail there
        pencil = stability._FloquetOperator.pencil

        def broken_at_zero(operator, mu):
            return tuple(np.full_like(m, np.nan) if mu == 0.0 else m for m in pencil(operator, mu))

        monkeypatch.setattr(stability._FloquetOperator, "pencil", broken_at_zero)
        with pytest.raises(stability.EigSolverFailure, match="Array must not contain infs or NaNs"):
            stability._FloquetOperator(small_wave_d001, 12).solve(0.0)
        spec = sweep_floquet(small_wave_d001, uniform_mu(4), n_modes=12)
        assert spec.failures == [(0.0, "Array must not contain infs or NaNs")]
        assert [lams.size for lams in spec.eigenvalues] == [50, 50, 0, 50]
        argv = ["stability", "--D", "0.01", "--model", "linear", "--a1-max", "0.002", "--modes", "12",
                "--mu-count", "4", "--out", str(tmp_path)]
        assert main(argv) == 0
        (report,) = json.loads((tmp_path / "stability_linear.meta.json").read_text())["reports"]
        assert report["failed_mu"] == [0.0]
        rows = np.loadtxt(tmp_path / "spectrum_linear_0.csv", delimiter=",", skiprows=1)
        assert sorted(set(rows[:, 0])) == [-0.5, -0.25, 0.25]


class TestClassify:
    def synthetic(self, points):
        """points: list of (mu, [lambda, ...]) pairs."""
        mus = np.array([mu for mu, _ in points])
        eigs = [np.array(lams, dtype=complex) for _, lams in points]
        return FloquetSpectrum(mu_values=mus, eigenvalues=eigs)

    def test_flat_spectrum_has_empty_classification(self):
        p = PhysicalParams(D=0.1)
        base = flat_wave(p, bifurcation_speed(p))
        spec = sweep_floquet(base, uniform_mu(11), n_modes=8)
        report = classify(spec)
        assert report.clusters == ()
        assert report.max_growth == 0.0

    def test_modulational_cluster_touches_origin(self):
        step = 0.01
        pts = []
        for i in range(-5, 6):
            mu = step * i
            growth = max(0.0, 4e-4 * (1 - (mu / 0.04) ** 2)) if mu else 0.0
            lams = [complex(growth, 0.5 * mu)] if growth else []
            pts.append((mu, lams))
        report = classify(self.synthetic(pts))
        assert {c.kind for c in report.clusters} == {InstabilityKind.MODULATIONAL}

    def test_bubble_away_from_origin_is_high_frequency(self):
        pts = [(0.01 * i, []) for i in range(-5, 6)]
        pts[8] = (0.03, [complex(1e-4, 0.8)])
        pts[9] = (0.04, [complex(2e-4, 0.81)])
        report = classify(self.synthetic(pts))
        assert {c.kind for c in report.clusters} == {InstabilityKind.HIGH_FREQUENCY}

    def test_thick_ice_toland_band_is_modulational(self, branch_cache):
        # D = 25, the survey's grid of 21 mu: the Toland wave's only
        # instability is the modulational band at mu = +-1/42, which sits
        # near Im(lambda) = mu (c - omega') = -+0.17, far from the origin;
        # its two halves are one cluster.  The linear model is
        # modulationally stable there
        toland = branch_cache(25.0, NL, 0.05).points[-1]
        spec = sweep_floquet(toland, uniform_mu(21), n_modes=16)
        assert spec.c_minus_vg == toland.c - dispersion_derivatives(1.0, toland.params)[1]
        assert spec.c_minus_vg == pytest.approx(-7.26, abs=0.01)
        report = classify(spec)
        (band,) = report.clusters
        assert band.kind is InstabilityKind.MODULATIONAL
        assert_allclose(band.mu_interval, (-1 / 42, 1 / 42), rtol=1e-12)
        assert band.max_growth == report.max_growth
        assert abs(band.centroid.imag) < 1e-10  # mean of the mirror halves
        linear = branch_cache(25.0, LIN, 0.05).points[-1]
        assert classify(sweep_floquet(linear, uniform_mu(21), n_modes=16)).clusters == ()

    @pytest.mark.parametrize("count", [21, 100, 101, 401])
    @pytest.mark.parametrize("a1", [0.1, 0.3])
    def test_thick_ice_band_is_one_cluster_at_any_step(self, branch_cache, a1, count):
        # at D = 25 adjacent slices of the modulational band lie about
        # 7.3 dmu apart along the Doppler line, farther than CLUSTER_RADIUS
        # once dmu > 0.0068: the link distance takes that drift out.  At
        # a1 = 0.3 Re(lambda) falls like a square root at the band's edge,
        # by 0.0635 from mu = 0.183 to 0.193 on 101 mu, so a link distance
        # that counted it would cut the edge slices off the band
        wave = branch_cache(25.0, NL, a1).points[-1]
        report = classify(sweep_floquet(wave, uniform_mu(count), n_modes=16))
        (band,) = report.clusters
        assert band.kind is InstabilityKind.MODULATIONAL
        assert band.max_growth == report.max_growth > 1e-3
        assert -0.5 < band.mu_interval[0] < 0
        assert_allclose(band.mu_interval[0], -band.mu_interval[1], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("model", [LIN, NL])
    def test_origin_quadruplet_at_mu_zero_is_not_growth(self, branch_cache, model):
        # at mu = 0 the eigenvalue 0 is four-fold; round-off splits it into a
        # pair with Re(lambda) near 1e-6, which must not read as a cluster
        wave = branch_cache(0.05, model, 0.02, h=1.0).points[-1]
        spec = sweep_floquet(wave, [-0.01, 0.0, 0.01], n_modes=16)
        dist = np.sort(np.abs(spec.eigenvalues[1]))
        assert dist[3] < 1e-5 and dist[4] > 0.05
        assert classify(spec).clusters == ()
        assert classify(spec).max_growth == 0.0

    def test_mu_zero_keeps_growth_away_from_origin(self):
        # only the four eigenvalues nearest the origin are set aside
        near = [complex(1e-6, 0.0), complex(-1e-6, 0.0), 0.0, 0.0]
        pts = [(-0.01, []), (0.0, near + [complex(1e-3, 0.9)]), (0.01, [])]
        report = classify(self.synthetic(pts))
        (bubble,) = report.clusters
        assert bubble.kind is InstabilityKind.HIGH_FREQUENCY
        assert report.max_growth == 1e-3

    @pytest.mark.parametrize("d", [0.01, 0.05, 0.1, 0.2, 0.3, 1.0])
    @pytest.mark.parametrize("model", [LIN, NL])
    def test_modulational_exactly_where_nls_focuses(self, branch_cache, model, d):
        # the paper's claim (ii), one rigidity per NLS window, clear of the
        # Wilton pole at D = 1/14; the grid holds mu = 0
        wave = branch_cache(d, model, 0.02).points[-1]
        report = classify(sweep_floquet(wave, np.linspace(-0.05, 0.05, 41), n_modes=16))
        modulational = any(c.kind is InstabilityKind.MODULATIONAL for c in report.clusters)
        assert modulational == nls_coefficients(model, wave.params).focusing

    @pytest.mark.parametrize("model", [LIN, NL])
    def test_peak_growth_approaches_the_nls_prediction(self, branch_cache, model):
        # the paper's claim (i): at D = 0.01 the FFH peak growth rate falls
        # short of the NLS peak |M| a^2 by a relative gap of order a1 (2.3,
        # 4.5 and 8.7 %), near the NLS sideband mu_max
        branch = branch_cache(0.01, model, 0.04)
        coeffs = nls_coefficients(model, branch.params)
        a1s, gaps, offsets = [], [], []
        for target in (0.01, 0.02, 0.04):
            wave = min(branch.points, key=lambda w: abs(w.a1 - target))
            a = wave.a1 / 2.0
            mus = np.linspace(0.5, 1.5, 41) * coeffs.mu_max(a)
            growth = np.array([lams.real.max() for lams in sweep_floquet(wave, mus, n_modes=16).eigenvalues])
            # the vertex of the parabola through the largest rate and its neighbours
            k = int(np.argmax(growth))
            c2, c1, c0 = np.polyfit(mus[k - 1 : k + 2], growth[k - 1 : k + 2], 2)
            a1s.append(wave.a1)
            gaps.append((c0 - c1**2 / (4 * c2)) / coeffs.max_growth(a) - 1.0)
            offsets.append(-c1 / (2 * c2) / coeffs.mu_max(a) - 1.0)
        assert all(-0.1 < gap < 0 for gap in gaps)
        slope = np.polyfit(np.log(a1s), np.log(-np.array(gaps)), 1)[0]
        assert 0.85 <= slope <= 1.1
        assert abs(offsets[0]) < 0.02

    @pytest.mark.parametrize("model", [LIN, NL])
    def test_argmax_mu_grows_with_amplitude_like_mu_max(self, branch_cache, model):
        # claim (i) across amplitudes: on a grid of step 1e-4 below the NLS
        # sideband mu_max(a1/2), the slope of argmax_mu in a1 over
        # a1 = 0.01..0.04 falls short of mu_max's by 7.2 % (linear) and
        # 7.4 % (Toland); a 2e-5 grid moves these by under 0.15 %, and over
        # a1 = 0.004..0.016 the gap is 3.0 %, so it is of order a1
        branch = branch_cache(0.01, model, 0.04)
        coeffs = nls_coefficients(model, branch.params)
        a1s, argmax, nls = [], [], []
        for target in (0.01, 0.02, 0.03, 0.04):
            wave = min(branch.points, key=lambda w: abs(w.a1 - target))
            mu_max = coeffs.mu_max(wave.a1 / 2.0)
            mus = np.arange(0.9 * mu_max, mu_max, 1e-4)
            report = classify(sweep_floquet(wave, mus, n_modes=16))
            assert mus[0] < report.argmax_mu < mus[-1]
            a1s.append(wave.a1)
            argmax.append(report.argmax_mu)
            nls.append(mu_max)
        gap = np.polyfit(a1s, argmax, 1)[0] / np.polyfit(a1s, nls, 1)[0] - 1.0
        assert -0.1 < gap < 0

    @pytest.mark.parametrize("d", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("model", [LIN, NL])
    def test_doppler_frame_is_the_nls_group_velocity(self, branch_cache, model, d):
        # classify's Doppler frame and the NLS overlay's Im(lambda) = mu (c - omega')
        # read one omega'
        wave = branch_cache(d, model, 0.02).points[-1]
        spec = sweep_floquet(wave, [0.1], n_modes=4)
        assert spec.c_minus_vg == wave.c - nls_coefficients(model, wave.params).omega_p

    @pytest.mark.parametrize("n", [16, 32])
    def test_truncation_edge_adds_no_growth(self, branch_cache, n):
        # classify counts every eigenvalue, however stiff: on the thin-ice
        # Toland wave of the sweep benchmark, every growing eigenvalue lies
        # near the origin while the spectrum reaches far beyond 100
        wave = branch_cache(0.01, NL, 0.05).points[-1]
        spec = sweep_floquet(wave, uniform_mu(21), n_modes=n)
        lams = np.concatenate(spec.eigenvalues)
        assert np.abs(lams[lams.real > stability.GROWTH_THRESHOLD]).max() < 1.0
        assert np.abs(lams).max() > 100.0


    @pytest.mark.parametrize("mirror", [(-0.1, 0.1), (-0.1, np.nextafter(0.1, 1.0)), (np.nextafter(-0.1, -1.0), 0.1)])
    @pytest.mark.parametrize("minus_wins", [False, True])
    def test_argmax_mu_ignores_round_off_ties(self, minus_wins, mirror):
        # growth is even in mu: neither a one-ulp difference between the
        # rates at -mu and +mu nor one between their magnitudes, as on
        # np.linspace(-0.5, 0.5, 21, endpoint=False), may decide argmax_mu
        low, high = 1e-3, np.nextafter(1e-3, 1.0)
        rates = (high, low) if minus_wins else (low, high)
        spec = self.synthetic([(mirror[0], [complex(rates[0], 0.2)]), (mirror[1], [complex(rates[1], -0.2)])])
        report = classify(spec)
        assert report.argmax_mu == 0.1
        # nor the order of the two mirror clusters: it follows mu
        assert [c.mu_interval for c in report.clusters] == [(mirror[0],) * 2, (mirror[1],) * 2]

    @pytest.mark.parametrize("mirror_lams", [[], [complex(-1e-3, 0.2)]])
    def test_argmax_mu_ignores_a_stable_mirror(self, mirror_lams):
        # only an unstable slice may lend argmax_mu its magnitude: a failed
        # or stable slice at -mu saw no growth
        mu = np.nextafter(0.1, 1.0)
        spec = self.synthetic([(-0.1, mirror_lams), (mu, [complex(1e-3, -0.2)])])
        assert classify(spec).argmax_mu == mu

    def test_band_across_half_is_one_cluster(self):
        # mu and mu + 1 give the same spectrum, so on a sweep of [-1/2, 1/2)
        # a band on the last and the first slices is one cluster
        pts = [(mu, []) for mu in uniform_mu(10)]
        for i, growth in ((8, 1e-3), (9, 2e-3), (0, 2e-3), (1, 1e-3)):
            pts[i] = (pts[i][0], [complex(growth, 0.5)])
        (band,) = classify(self.synthetic(pts)).clusters
        assert band.kind is InstabilityKind.HIGH_FREQUENCY
        assert_allclose(band.mu_interval, (0.3, 0.6), rtol=0, atol=1e-15)
        # a sweep of [-0.45, 0.45] does not close around the circle
        pts = [(mu, []) for mu in np.linspace(-0.45, 0.45, 19)]
        for i in (0, 1, 17, 18):
            pts[i] = (pts[i][0], [complex(1e-3, 0.5)])
        clusters = classify(self.synthetic(pts)).clusters
        assert_allclose(sorted(c.mu_interval for c in clusters), [(-0.45, -0.4), (0.4, 0.45)], rtol=0, atol=1e-15)


class TestOverlay:
    def coeffs(self, d, model=LIN):
        return nls_coefficients(model, PhysicalParams(D=d))

    def test_endpoints_reach_origin(self):
        curve = nls_overlay(self.coeffs(0.01), 0.005, 1.005, mu_grid=31)
        assert abs(curve[0, 1]) < 1e-10 and abs(curve[-1, 1]) < 1e-10  # band edges
        center = curve[len(curve) // 2]  # mu = 0 maps to the spectral origin
        assert np.max(np.abs(center)) < 1e-12

    def test_max_extent_is_peak_growth(self):
        co = self.coeffs(0.01)
        a = 0.005
        curve = nls_overlay(co, a, 1.005, mu_grid=4001)
        assert curve[:, 1].max() == pytest.approx(abs(co.M) * a**2, rel=1e-4)

    def test_containment_order_follows_rigidity(self):
        # linear-model curve encloses the nonlinear one at D=0.01 and the
        # containment flips at D=0.1
        for d, lin_outside in ((0.01, True), (0.1, False)):
            ext = {}
            for model in (LIN, NL):
                co = nls_coefficients(model, PhysicalParams(D=d))
                curve = nls_overlay(co, 0.005, 1.0, mu_grid=801)
                ext[model] = (curve[:, 1].max(), np.abs(curve[:, 2]).max())
            lin_bigger = all(ext[LIN][i] > ext[NL][i] for i in range(2))
            assert lin_bigger is lin_outside

    def test_defocusing_curve_is_empty(self):
        assert nls_overlay(self.coeffs(0.05), 0.01, 1.0, mu_grid=201).size == 0

    def test_imaginary_part_is_the_doppler_shift(self):
        co = self.coeffs(0.01)
        a, c = 0.005, 1.005
        curve = nls_overlay(co, a, c, mu_grid=51)
        assert_allclose(curve[:, 0], np.linspace(-co.band_edge(a), co.band_edge(a), 51), rtol=0, atol=0)
        assert_allclose(curve[:, 2], curve[:, 0] * (c - co.omega_p), rtol=0, atol=0)
        assert curve[-1, 2] > 0  # c > omega' at D = 0.01: Im(lambda) has the sign of mu
