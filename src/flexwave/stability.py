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

where Ct_m = cosh((mu+m) eta0) + T_m sinh((mu+m) eta0), St_m the same with
sinh and cosh swapped, and T_m = tanh((mu+m) h) (sign(mu+m) in infinite
depth).  At zero amplitude the eigenvalues reduce to

    lambda_pm = i c (mu+m) +/- i sqrt[(g (mu+m) + D (mu+m)^5) tanh((mu+m) h)],

which pins every sign and index convention used below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from .core import (
    IceModel,
    TravelingWave,
    default_grid_size,
    depth_factor,
    eval_profile,
    grid_derivative,
    qx_on_grid,
    toland_frechet_coeffs,
)
from .theory import NlsCoefficients, growth_rate

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
#: assembly/eigensolver error.
GROWTH_THRESHOLD = 1e-8


class EigSolverFailure(RuntimeError):
    """The generalized (QZ) eigensolver did not converge."""


@dataclass
class FloquetSpectrum:
    """Eigenvalues of the linearized problem over a sweep of Floquet exponents."""

    mu_values: np.ndarray
    eigenvalues: list[np.ndarray]
    n_modes: int
    failures: list[tuple[float, str]] = field(default_factory=list)

    def flattened(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, lambda) pairs for all eigenvalues of the sweep."""
        mus = np.concatenate(
            [np.full(len(lams), mu) for mu, lams in zip(self.mu_values, self.eigenvalues)]
        )
        lams = np.concatenate(self.eigenvalues) if self.eigenvalues else np.array([])
        return mus, lams

    def max_growth(self) -> float:
        mx = 0.0
        for lams in self.eigenvalues:
            if lams.size:
                mx = max(mx, float(lams.real.max()))
        return mx


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

    @property
    def kinds(self) -> set[InstabilityKind]:
        return {c.kind for c in self.clusters}


def _mode_numbers(n_modes: int) -> np.ndarray:
    return np.arange(-n_modes, n_modes + 1)


def _floquet_modes(base: TravelingWave, n_modes: int | None) -> int:
    """``n_modes``, or by default the wave's own mode count but at least 16."""
    return max(base.profile.n_modes, 16) if n_modes is None else n_modes


def _grid_for(base: TravelingWave, n_modes: int) -> int:
    return default_grid_size(max(base.profile.n_modes, n_modes))


def _toeplitz(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Multiplication by a(x) on modes -N..N: entry (m, n) = a_hat[m-n]."""
    m_grid = values.size
    coeffs = np.fft.fft(values) / m_grid
    modes = _mode_numbers(n_modes)
    idx = (modes[:, None] - modes[None, :]) % m_grid
    return coeffs[idx]


def _row_coeffs(rows: np.ndarray, n_modes: int) -> np.ndarray:
    """Row-dependent convolution: entry (m, n) = rows_hat[m, m-n]."""
    m_grid = rows.shape[1]
    coeffs = np.fft.fft(rows, axis=1) / m_grid
    modes = _mode_numbers(n_modes)
    idx = (modes[:, None] - modes[None, :]) % m_grid
    return np.take_along_axis(coeffs, idx, axis=1)


def linearized_flex(base: TravelingWave, model: IceModel, mu: float, n_modes: int) -> np.ndarray:
    """Matrix of the linearized ice-pressure operator G(eta0; .) on Floquet
    modes e^{i(mu+n)x}, n = -N..N.

    For the linear model G is the constant-coefficient operator D_x^4.  For
    the Toland model it is

        D_x^2 [ b2 v_xx + b1 v_x ] + D_x [ s2 v_xx + s1 v_x ],

    with the coefficients of :func:`core.toland_frechet_coeffs`, assembled
    from their FFT coefficients on the grid.
    """
    s = mu + _mode_numbers(n_modes)
    d1 = np.diag(1j * s)
    if model is IceModel.LINEAR_BIHARMONIC:
        return np.diag((1j * s) ** 4)
    m_grid = _grid_for(base, n_modes)
    eta = eval_profile(base.profile, m_grid)
    b2, b1, s2, s1 = (_toeplitz(coeff, n_modes) for coeff in toland_frechet_coeffs(eta))
    d2 = d1 @ d1
    return d2 @ (b2 @ d2 + b1 @ d1) + d1 @ (s2 @ d2 + s1 @ d1)


def assemble_matrices(base: TravelingWave, mu: float, n_modes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Build the pencil (L1, L2) of the linearized problem at Floquet exponent mu."""
    n_modes = _floquet_modes(base, n_modes)
    params = base.params
    m_grid = _grid_for(base, n_modes)
    eta = eval_profile(base.profile, m_grid)
    ex = grid_derivative(eta, 1)
    qx = qx_on_grid(eta, base.c, params, base.model)
    f = ex * (qx - base.c) / (1.0 + ex**2)

    modes = _mode_numbers(n_modes)
    s = mu + modes
    dxm = 1j * s  # D_x multiplier of column mode n
    dim = modes.size

    # local equation: lambda (A eta1 - q1) = S eta1 + T q1
    a_blk = _toeplitz(f, n_modes)
    g_mat = linearized_flex(base, base.model, mu, n_modes)
    s_blk = (
        params.g * np.eye(dim)
        + _toeplitz(f**2 * ex - f * (qx - base.c), n_modes) * dxm[None, :]
        + params.D * g_mat
    )
    t_blk = _toeplitz((qx - base.c) - f * ex, n_modes) * dxm[None, :]

    # nonlocal equation at row m, bounded depth factors
    t_depth = np.asarray(depth_factor(s, params.h), dtype=float)
    se = s[:, None] * eta[None, :]
    ch, sh = np.cosh(se), np.sinh(se)
    c_til = ch + t_depth[:, None] * sh
    s_til = sh + t_depth[:, None] * ch

    c_blk = 1j * _row_coeffs(c_til, n_modes)
    u_blk = (
        _row_coeffs(c_til, n_modes) * (1j * base.c) * dxm[None, :]
        + (1j * base.c * s)[:, None] * _row_coeffs(ex[None, :] * s_til, n_modes)
        + s[:, None] * _row_coeffs(qx[None, :] * c_til, n_modes)
    )
    v_blk = _row_coeffs(s_til, n_modes) * dxm[None, :]

    zero = np.zeros((dim, dim), dtype=complex)
    l1 = np.block([[a_blk, -np.eye(dim)], [c_blk, zero]])
    l2 = np.block([[s_blk, t_blk], [u_blk, v_blk]])
    return l1, l2


def solve_spectrum(l1: np.ndarray, l2: np.ndarray, beta_tol: float = 1e-12) -> np.ndarray:
    """All finite generalized eigenvalues of lambda L1 U = L2 U via QZ.

    Pairs with |beta| below ``beta_tol`` (relative to sqrt(|alpha|^2+|beta|^2))
    are eigenvalues at infinity and are excluded from growth statistics.
    """
    try:
        alpha, beta = scipy.linalg.eig(l2, l1, right=False, homogeneous_eigvals=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigSolverFailure(str(exc)) from exc
    scale = np.hypot(np.abs(alpha), np.abs(beta))
    scale[scale == 0] = 1.0
    finite = np.abs(beta) / scale > beta_tol
    return alpha[finite] / beta[finite]


def sweep_floquet(
    base: TravelingWave,
    mu_count: int,
    n_modes: int | None = None,
    mu_values: np.ndarray | None = None,
) -> FloquetSpectrum:
    """Solve the eigenvalue problem over a sweep of Floquet exponents.

    Defaults to ``mu_count`` uniform exponents in [-1/2, 1/2); an explicit
    ``mu_values`` array overrides the uniform grid (e.g. for refinement near
    eigenvalue collisions).  Slot i holds the eigenvalues at ``mu_values[i]``;
    a failed mu is recorded, with an empty slot, without aborting the sweep.
    """
    if mu_values is None:
        if mu_count < 2:
            raise ValueError("mu_count must be at least 2")
        mu_values = np.linspace(-0.5, 0.5, mu_count, endpoint=False)
    else:
        mu_values = np.asarray(mu_values, dtype=float)
    n_modes = _floquet_modes(base, n_modes)
    eigenvalues: list[np.ndarray] = []
    failures: list[tuple[float, str]] = []
    for mu in mu_values:
        try:
            eigenvalues.append(solve_spectrum(*assemble_matrices(base, mu, n_modes)))
        except EigSolverFailure as exc:
            eigenvalues.append(np.array([]))
            failures.append((float(mu), str(exc)))
    return FloquetSpectrum(mu_values=mu_values, eigenvalues=eigenvalues, n_modes=n_modes, failures=failures)


def classify(
    spectrum: FloquetSpectrum,
    threshold: float = GROWTH_THRESHOLD,
    cluster_radius: float = 0.05,
    origin_tol: float = 0.05,
    lambda_cutoff: float | None = None,
) -> InstabilityReport:
    """Cluster unstable eigenvalues and label each cluster.

    Points with Re(lambda) > threshold join a cluster when they are within
    ``cluster_radius`` in the complex plane and adjacent in the mu sweep.  A
    cluster is modulational when it reaches the smallest nonzero sweep
    exponents with eigenvalues approaching the origin (min |lambda| below
    ``origin_tol``); all other clusters are high-frequency (bubble)
    instabilities born from nonzero collisions.

    ``lambda_cutoff`` excludes eigenvalues with |lambda| above it: near the
    Fourier truncation edge the largest (stiffest) eigenvalues carry
    truncation noise in their real parts, which would otherwise show up as
    spurious clusters at very high frequency.
    """
    order = np.argsort(spectrum.mu_values)
    pts_mu: list[float] = []
    pts_slice: list[int] = []
    pts_lam: list[complex] = []
    for slice_idx, i in enumerate(order):
        lams = spectrum.eigenvalues[i]
        if lams.size == 0:
            continue
        unstable = lams[lams.real > threshold]
        if lambda_cutoff is not None:
            unstable = unstable[np.abs(unstable) <= lambda_cutoff]
        for lam in unstable:
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
            if abs(pts_slice[i] - pts_slice[j]) <= 1 and abs(pts_lam[i] - pts_lam[j]) < cluster_radius:
                union(i, j)

    sorted_mu = np.sort(np.unique(spectrum.mu_values))
    nonzero = np.abs(sorted_mu[np.abs(sorted_mu) > 0])
    mu_step = float(np.diff(sorted_mu).min()) if sorted_mu.size > 1 else 0.0
    touch_mu = (nonzero.min() if nonzero.size else 0.0) + 0.5 * mu_step

    groups: dict[int, list[int]] = {}
    for i in range(n_pts):
        groups.setdefault(find(i), []).append(i)

    clusters = []
    for members in groups.values():
        mus = [pts_mu[i] for i in members]
        lams = [pts_lam[i] for i in members]
        touches_axis = min(abs(m) for m in mus) <= touch_mu
        at_origin = min(abs(l) for l in lams) <= origin_tol
        kind = (
            InstabilityKind.MODULATIONAL
            if touches_axis and at_origin
            else InstabilityKind.HIGH_FREQUENCY
        )
        clusters.append(
            SpectralCluster(
                kind=kind,
                mu_interval=(min(mus), max(mus)),
                centroid=complex(np.mean(lams)),
                max_growth=max(l.real for l in lams),
            )
        )
    clusters.sort(key=lambda c: -c.max_growth)

    if n_pts:
        best = int(np.argmax([l.real for l in pts_lam]))
        max_growth, argmax_mu = pts_lam[best].real, pts_mu[best]
    else:
        max_growth, argmax_mu = 0.0, 0.0
    return InstabilityReport(max_growth=max_growth, argmax_mu=argmax_mu, clusters=tuple(clusters))


def nls_overlay(
    coeffs: NlsCoefficients,
    a: float,
    c: float,
    mu_grid: int = 201,
    convention: str = "vg_minus_c",
) -> np.ndarray:
    """Asymptotic (Re, Im) eigenvalue curve predicted by the envelope equation.

    Returns points (Omega(mu), mu*(v_g - c)) over the unstable sideband;
    ``convention="c_minus_vg"`` flips the vertical sign (the two conventions
    trace the same symmetric curve; both are exposed rather than guessing the
    plotting orientation).  Empty in the defocusing regime.
    """
    if convention not in ("vg_minus_c", "c_minus_vg"):
        raise ValueError(f"unknown sign convention {convention!r}")
    if not coeffs.focusing:
        return np.empty((0, 2))
    edge = coeffs.band_edge(a)
    mus = np.linspace(-edge, edge, mu_grid)
    omega = np.array([growth_rate(mu, a, coeffs) for mu in mus])
    vert = mus * (coeffs.omega_p - c)
    if convention == "c_minus_vg":
        vert = -vert
    return np.column_stack([omega, vert])
