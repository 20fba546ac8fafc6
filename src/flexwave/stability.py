"""Floquet spectral stability of computed traveling waves.

Perturbations q^(1), eta^(1) proportional to e^{lambda t} e^{i mu x} times a
2*pi-periodic part are inserted into the time-dependent local and nonlocal
equations and linearized about a traveling wave (eta0, qx0).  Truncating the
periodic parts to Fourier modes -N..N yields, for each Floquet exponent mu,
a generalized eigenvalue problem

    lambda * L1 @ U = L2 @ U,       U = [N_-N..N_N, Q_-N..Q_N],

whose blocks are convolution (Toeplitz-type) matrices built from FFT
coefficients of the variable-coefficient grid functions.  With D_x = i*mu +
d/dx acting on column mode n as i*(mu+n), the linearized local equation reads

    lambda (f eta1 - q1) = (qx0-c) D_x q1 + g eta1
                           - f [ (qx0-c) D_x eta1 + eta0_x D_x q1 ]
                           + f^2 eta0_x D_x eta1 + D G(eta0; eta1),

with f = eta0_x (qx0-c)/(1+eta0_x^2) and G the directional derivative of the
ice-pressure operator.  The nonlocal equation at row wavenumber -(mu+m),
divided through by cosh((mu+m) h) so only bounded depth factors remain, reads

    lambda i Ct_m eta1 = i c Ct_m D_x eta1 + i c (mu+m) eta0_x St_m eta1
                         + (mu+m) qx0 Ct_m eta1 + i St_m D_x q1,

where St_m = K_{mu+m}(eta0) and Ct_m = K'_{mu+m}(eta0) are the depth kernels of
`core.depth_kernels`, with T_m = tanh((mu+m) h) (sign(mu+m) in infinite depth).
At zero amplitude the eigenvalues reduce to

    lambda_pm = i c (mu+m) +/- i sqrt[(g (mu+m) + D (mu+m)^5) tanh((mu+m) h)],

which pins every sign and index convention used below.

Every wave is reversible: eta0 is a cosine series, so eta0, qx0, Ct_m, St_m
and the Toland coefficients b2, s1 are even, eta0_x, f and s2 are odd,
and an even (odd) real grid function has real (imaginary) Fourier
coefficients.  With D_x = i(mu+n), the blocks of L1 = [[A, -I], [C, 0]] and
L2 = [[S, T], [U, V]] are A = i a, C = i c^, T = i t and V = i v, with a, c^,
t, v, S and U real.  With q1 = i q' and nu = i lambda the problem is real,

    nu [[a, -I], [c^, 0]] x = [[S, -t], [U, -v]] x,

and only this pencil is built and solved; lambda = -i nu is applied at the
end, so the spectrum at each mu is exactly symmetric under
lambda -> -conj(lambda).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    IceModel,
    TravelingWave,
    default_grid_size,
    depth_kernels,
    eval_profile,
    grid_derivative,
    qx_on_grid,
    toland_frechet_coeffs,
)
from .theory import NlsCoefficients, dispersion_derivatives, growth_rate

__all__ = [
    "EigSolverFailure",
    "FloquetSpectrum",
    "InstabilityKind",
    "SpectralCluster",
    "InstabilityReport",
    "linearized_flex",
    "assemble_matrices",
    "solve_spectrum",
    "sweep_floquet",
    "classify",
    "nls_overlay",
]

#: Re(lambda) above this counts as growth; an order above the flat-water
#: assembly/eigensolver error.  Both eigensolver paths solve a real pencil
#: and put stable eigenvalues exactly on the imaginary axis, so Re(lambda)
#: carries no round-off.
GROWTH_THRESHOLD = 1e-8

#: Unstable eigenvalues at adjacent exponents of the sweep join one cluster
#: when they lie within this distance in the complex plane.
CLUSTER_RADIUS = 0.05

#: A cluster is modulational when it reaches the Doppler line through the
#: origin, Im(lambda) = mu (c - omega'(1)), within this distance.
DOPPLER_TOL = 0.05

#: Largest cond(c^) at which the sweep eliminates c^ and solves the reduced
#: real standard eigenproblem; above it, real QZ on the same pencil.
#: Converged small-amplitude waves at 12 to 32 Floquet modes stay below 1e2.
REDUCED_COND_LIMIT = 1e6


class EigSolverFailure(RuntimeError):
    """The eigensolver (reduced or QZ) did not converge."""


@dataclass
class FloquetSpectrum:
    """Eigenvalues of the linearized problem over a sweep of Floquet exponents."""

    mu_values: np.ndarray
    eigenvalues: list[np.ndarray]
    failures: list[tuple[float, str]] = field(default_factory=list)
    #: Exponents solved by QZ because cond(c^) exceeded REDUCED_COND_LIMIT.
    qz_mu: list[float] = field(default_factory=list)
    #: Largest 2-norm condition number of c^ over the solved exponents.
    max_cond_c: float = 0.0
    #: c - omega'(1): near mu = 0 the modulational eigenvalues leave the
    #: origin along the Doppler line Im(lambda) = mu (c - omega'(1)).
    c_minus_vg: float = 0.0

    def flattened(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, lambda) pairs for all eigenvalues of the sweep."""
        mus = np.concatenate(
            [np.full(len(lams), mu) for mu, lams in zip(self.mu_values, self.eigenvalues)]
        )
        lams = np.concatenate(self.eigenvalues) if self.eigenvalues else np.array([])
        return mus, lams


class InstabilityKind(Enum):
    MODULATIONAL = "modulational"
    HIGH_FREQUENCY = "high_frequency"


@dataclass(frozen=True)
class SpectralCluster:
    """Connected group of unstable eigenvalues in the (mu, lambda) data."""

    kind: InstabilityKind
    mu_interval: tuple[float, float]
    centroid: complex
    max_growth: float


@dataclass(frozen=True)
class InstabilityReport:
    max_growth: float
    argmax_mu: float
    clusters: tuple[SpectralCluster, ...]


def _mode_numbers(n_modes: int) -> np.ndarray:
    return np.arange(-n_modes, n_modes + 1)


def _floquet_modes(base: TravelingWave, n_modes: int | None) -> int:
    """``n_modes``, or by default the wave's own mode count but at least 16."""
    return max(base.profile.n_modes, 16) if n_modes is None else n_modes


def _grid_for(base: TravelingWave, n_modes: int) -> int:
    return default_grid_size(max(base.profile.n_modes, n_modes))


def _row_coeffs(rows: np.ndarray, n_modes: int, odd: bool) -> np.ndarray:
    """Row-dependent convolution: entry (m, n) = rows_hat[m, m-n], divided
    by i for odd rows.  A single row a(x), of shape (1, M), gives
    multiplication by a.  The other part of the coefficients is round-off
    for a reversible wave; this is the one place it is dropped."""
    m_grid = rows.shape[1]
    coeffs = np.fft.fft(rows, axis=1) / m_grid
    coeffs = coeffs.imag if odd else coeffs.real
    modes = _mode_numbers(n_modes)
    idx = (modes[:, None] - modes[None, :]) % m_grid
    return np.take_along_axis(coeffs, idx, axis=1)


def _flex_blocks(eta: np.ndarray, model: IceModel, n_modes: int) -> tuple[np.ndarray, ...] | None:
    """Real convolution blocks (b2, s2 / i, s1) of the Toland operator at
    eta, or None for the constant-coefficient linear model."""
    if model is IceModel.LINEAR_BIHARMONIC:
        return None
    parities = (False, True, False)
    return tuple(_row_coeffs(b[None, :], n_modes, odd) for b, odd in zip(toland_frechet_coeffs(eta), parities))


def _flex_matrix(blocks: tuple[np.ndarray, ...] | None, s: np.ndarray) -> np.ndarray:
    """Real G(eta0; .) on modes of wavenumbers ``s``: with D_x = i s and the
    block s2 divided by i, G = s_m^2 (b2 s_n^2 - s2 s_n) + s_m (s2 s_n^2 - s1 s_n)."""
    sq = s * s
    if blocks is None:
        return np.diag(sq * sq)
    b2, s2, s1 = blocks
    return sq[:, None] * (b2 * sq - s2 * s) + s[:, None] * (s2 * sq - s1 * s)


def linearized_flex(base: TravelingWave, model: IceModel, mu: float, n_modes: int) -> np.ndarray:
    """Real matrix of the linearized ice-pressure operator G(eta0; .) on
    Floquet modes e^{i(mu+n)x}, n = -N..N.

    For the linear model G is the constant-coefficient operator D_x^4.  For
    the Toland model it is

        D_x^2 [ b2 v_xx - s2 v_x ] + D_x [ s2 v_xx + s1 v_x ],

    with the three coefficients of :func:`core.toland_frechet_coeffs`,
    assembled from their FFT coefficients on the grid.
    """
    eta = eval_profile(base.profile, _grid_for(base, n_modes))
    return _flex_matrix(_flex_blocks(eta, model, n_modes), mu + _mode_numbers(n_modes))


class _FloquetOperator:
    """The linearized problem about one wave on Floquet modes -N..N.

    Everything that does not depend on mu -- the wave's grid functions and
    the mu-independent convolution blocks -- is built once, here; each mu
    adds only the depth kernels' row coefficients and the wavenumber
    scalings.
    """

    def __init__(self, base: TravelingWave, n_modes: int):
        params = base.params
        self.c, self.params, self.n_modes = base.c, params, n_modes
        self.eta = eval_profile(base.profile, _grid_for(base, n_modes))
        self.ex = grid_derivative(self.eta, 1)
        self.qx = qx_on_grid(self.eta, base.c, params, base.model)
        f = self.ex * (self.qx - base.c) / (1.0 + self.ex**2)
        self.a_blk = _row_coeffs(f[None, :], n_modes, odd=True)
        self.s_conv = _row_coeffs((f**2 * self.ex - f * (self.qx - base.c))[None, :], n_modes, odd=True)
        self.t_conv = _row_coeffs(((self.qx - base.c) - f * self.ex)[None, :], n_modes, odd=False)
        self.flex = _flex_blocks(self.eta, base.model, n_modes)

    def blocks(self, mu: float) -> tuple[np.ndarray, ...]:
        """The real blocks (a, c^, S, t, U, v) at Floquet exponent mu (see the
        module docstring)."""
        params, c, n_modes = self.params, self.c, self.n_modes
        s = mu + _mode_numbers(n_modes)  # D_x = i s on column mode n

        # local equation
        s_blk = params.g * np.eye(s.size) - self.s_conv * s[None, :] + params.D * _flex_matrix(self.flex, s)
        t_blk = self.t_conv * s[None, :]

        # nonlocal equation at row m, bounded depth kernels
        s_til, c_til = depth_kernels(s, self.eta, params.h)

        c_hat = _row_coeffs(c_til, n_modes, odd=False)
        u_blk = (
            -c * c_hat * s[None, :]
            - (c * s)[:, None] * _row_coeffs(self.ex[None, :] * s_til, n_modes, odd=True)
            + s[:, None] * _row_coeffs(self.qx[None, :] * c_til, n_modes, odd=False)
        )
        v_blk = _row_coeffs(s_til, n_modes, odd=False) * s[None, :]
        return self.a_blk, c_hat, s_blk, t_blk, u_blk, v_blk

    def solve(self, mu: float) -> tuple[np.ndarray, float, bool]:
        """(eigenvalues, cond(c^), whether QZ ran) at mu.

        Both paths solve the one real pencil nu L1 x = L2 x.  L1 has the
        inverse [[0, c^-1], [-I, a c^-1]], so while c^ is well conditioned nu
        are the eigenvalues of B = L1^-1 L2 = [[c^-1 L2_bottom],
        [a c^-1 L2_bottom - L2_top]], from one real solve and one real
        eigensolve.  Above ``REDUCED_COND_LIMIT`` (or for a NaN estimate) real
        QZ solves the pencil, through :func:`solve_spectrum`, the only place
        scipy is loaded: alternating numpy's LAPACK with scipy's within the
        sweep makes the two libraries' BLAS thread pools compete.  Either way
        a real nu gives lambda = -i nu exactly on the imaginary axis, and a
        conjugate pair gives an exact pair lambda, -conj(lambda).
        """
        l1, l2 = _pencil(*self.blocks(mu))
        k = l1.shape[0] // 2
        try:
            cond_c = float(np.linalg.cond(l1[k:, :k]))
            reduced = cond_c <= REDUCED_COND_LIMIT
            if reduced:
                top = np.linalg.solve(l1[k:, :k], l2[k:])
                nu = np.linalg.eigvals(np.vstack([top, l1[:k, :k] @ top - l2[:k]]))
            else:
                nu = solve_spectrum(l1, l2)
        except np.linalg.LinAlgError as exc:
            raise EigSolverFailure(str(exc)) from exc
        return nu.imag - 1j * nu.real, cond_c, not reduced


def _pencil(a_blk, c_hat, s_blk, t_blk, u_blk, v_blk) -> tuple[np.ndarray, np.ndarray]:
    """The real pencil (L1, L2) = ([[a, -I], [c^, 0]], [[S, -t], [U, -v]])."""
    dim = a_blk.shape[0]
    l1 = np.block([[a_blk, -np.eye(dim)], [c_hat, np.zeros((dim, dim))]])
    l2 = np.block([[s_blk, -t_blk], [u_blk, -v_blk]])
    return l1, l2


def assemble_matrices(base: TravelingWave, mu: float, n_modes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Build the real pencil (L1, L2) of the linearized problem at Floquet
    exponent mu.  Its finite generalized eigenvalues nu give the Floquet
    eigenvalues lambda = -i nu."""
    n_modes = _floquet_modes(base, n_modes)
    return _pencil(*_FloquetOperator(base, n_modes).blocks(mu))


def solve_spectrum(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """All finite generalized eigenvalues w of w L1 x = L2 x via QZ.

    Pairs with |beta| below 1e-12 (relative to sqrt(|alpha|^2+|beta|^2))
    are eigenvalues at infinity and are excluded from growth statistics.

    scipy is imported here, not at module load: the sweep's reduced path
    needs numpy alone, and scipy.linalg adds about 0.4 s and 25 MB to every
    process that imports it.
    """
    import scipy.linalg

    try:
        alpha, beta = scipy.linalg.eig(l2, l1, right=False, homogeneous_eigvals=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigSolverFailure(str(exc)) from exc
    scale = np.hypot(np.abs(alpha), np.abs(beta))
    scale[scale == 0] = 1.0
    finite = np.abs(beta) / scale > 1e-12
    return alpha[finite] / beta[finite]


def sweep_floquet(base: TravelingWave, mu_values, n_modes: int | None = None) -> FloquetSpectrum:
    """Solve the eigenvalue problem at each Floquet exponent of ``mu_values``.

    The grid is the caller's: uniform over [-1/2, 1/2) for a survey, or
    refined near eigenvalue collisions.  Slot i holds the eigenvalues at
    ``mu_values[i]``; a failed mu is recorded, with an empty slot, without
    aborting the sweep.
    The wave's mu-independent blocks are built once; each mu's real pencil
    is solved as a reduced standard eigenproblem, or by QZ where cond(c^)
    exceeds ``REDUCED_COND_LIMIT`` (recorded in ``qz_mu``).
    """
    mu_values = np.asarray(mu_values, dtype=float)
    operator = _FloquetOperator(base, _floquet_modes(base, n_modes))
    spectrum = FloquetSpectrum(
        mu_values=mu_values,
        eigenvalues=[],
        c_minus_vg=base.c - dispersion_derivatives(1.0, base.params)[1],
    )
    for mu in mu_values:
        try:
            lams, cond_c, used_qz = operator.solve(mu)
        except EigSolverFailure as exc:
            spectrum.eigenvalues.append(np.array([]))
            spectrum.failures.append((float(mu), str(exc)))
            continue
        spectrum.eigenvalues.append(lams)
        spectrum.max_cond_c = max(spectrum.max_cond_c, cond_c)
        if used_qz:
            spectrum.qz_mu.append(float(mu))
    return spectrum


def classify(spectrum: FloquetSpectrum) -> InstabilityReport:
    """Cluster unstable eigenvalues and label each cluster.

    Points with Re(lambda) > ``GROWTH_THRESHOLD`` join a cluster when they
    are within ``CLUSTER_RADIUS`` in the complex plane and adjacent in the
    mu sweep.  A cluster is modulational when it reaches the smallest
    nonzero sweep exponents with eigenvalues on the Doppler line through the
    origin (min |lambda - i mu (c - omega')| below ``DOPPLER_TOL``, with the
    spectrum's ``c_minus_vg``); all other clusters are high-frequency
    (bubble) instabilities born from nonzero collisions.  The distance is
    taken from the line, not from the origin, because |c - omega'| grows
    with the rigidity: at D = 25, c - omega' is about -7.3, so the
    modulational band at mu = 0.024 sits at Im(lambda) = -0.17.  For the
    same reason the band's halves at +mu and -mu can lie farther apart than
    ``CLUSTER_RADIUS``; all modulational clusters of the spectrum are
    therefore reported as one, over the hull of their mu intervals.

    Every eigenvalue counts, however large: the real pencil puts stable
    eigenvalues exactly on the imaginary axis on either eigensolver path, so
    the stiff modes at the Fourier truncation edge add no noise to
    Re(lambda).  The one exception is mu = 0, where the four eigenvalues
    nearest the origin, the split four-fold eigenvalue 0, count as stable.
    """
    order = np.argsort(spectrum.mu_values)
    pts_mu: list[float] = []
    pts_slice: list[int] = []
    pts_lam: list[complex] = []
    for slice_idx, i in enumerate(order):
        lams = spectrum.eigenvalues[i]
        growing = lams.real > GROWTH_THRESHOLD
        if spectrum.mu_values[i] == 0.0:
            # lambda = 0 is four-fold here (translation and the potential's
            # additive constant, each with a generalized eigenvector), and
            # round-off splits it with Re(lambda) up to about 1e-6
            growing[np.argsort(np.abs(lams))[:4]] = False
        for lam in lams[growing]:
            pts_mu.append(float(spectrum.mu_values[i]))
            pts_slice.append(slice_idx)
            pts_lam.append(complex(lam))

    n_pts = len(pts_lam)
    parent = list(range(n_pts))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            if abs(pts_slice[i] - pts_slice[j]) <= 1 and abs(pts_lam[i] - pts_lam[j]) < CLUSTER_RADIUS:
                union(i, j)

    sorted_mu = np.sort(np.unique(spectrum.mu_values))
    nonzero = np.abs(sorted_mu[np.abs(sorted_mu) > 0])
    mu_step = float(np.diff(sorted_mu).min()) if sorted_mu.size > 1 else 0.0
    touch_mu = (nonzero.min() if nonzero.size else 0.0) + 0.5 * mu_step

    groups: dict[int, list[int]] = {}
    for i in range(n_pts):
        groups.setdefault(find(i), []).append(i)

    def cluster(kind: InstabilityKind, members: list[int]) -> SpectralCluster:
        mus = [pts_mu[i] for i in members]
        lams = [pts_lam[i] for i in members]
        return SpectralCluster(
            kind=kind,
            mu_interval=(min(mus), max(mus)),
            centroid=complex(np.mean(lams)),
            max_growth=max(l.real for l in lams),
        )

    clusters = []
    modulational: list[int] = []
    for members in groups.values():
        touches_axis = min(abs(pts_mu[i]) for i in members) <= touch_mu
        on_doppler_line = (
            min(abs(pts_lam[i] - 1j * pts_mu[i] * spectrum.c_minus_vg) for i in members) <= DOPPLER_TOL
        )
        if touches_axis and on_doppler_line:
            modulational += members
        else:
            clusters.append(cluster(InstabilityKind.HIGH_FREQUENCY, members))
    if modulational:
        clusters.append(cluster(InstabilityKind.MODULATIONAL, modulational))
    clusters.sort(key=lambda c: -c.max_growth)

    if n_pts:
        best = int(np.argmax([l.real for l in pts_lam]))
        max_growth, argmax_mu = pts_lam[best].real, pts_mu[best]
    else:
        max_growth, argmax_mu = 0.0, 0.0
    return InstabilityReport(max_growth=max_growth, argmax_mu=argmax_mu, clusters=tuple(clusters))


def nls_overlay(coeffs: NlsCoefficients, a: float, c: float, mu_grid: int) -> np.ndarray:
    """Asymptotic eigenvalue curve predicted by the envelope equation.

    Returns rows (mu, Re, Im) = (mu, Omega(mu), mu (c - omega')) at
    ``mu_grid`` sidebands spanning the unstable band, the columns of a Floquet
    spectrum.  The FFH data fix the sign: at D = 0.01, a1 = 0.02, mu = 0.0504
    the most unstable eigenvalue has Im(lambda) = +0.024285 against +0.024334
    here.  Empty in the defocusing regime.
    """
    if not coeffs.focusing:
        return np.empty((0, 3))
    edge = coeffs.band_edge(a)
    mus = np.linspace(-edge, edge, mu_grid)
    omega = np.array([growth_rate(mu, a, coeffs) for mu in mus])
    return np.column_stack([mus, omega, mus * (c - coeffs.omega_p)])
