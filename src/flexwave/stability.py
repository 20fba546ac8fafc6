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

    lambda (f eta1 - q1) = (qx0-c) D_x q1 + eta1
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

    lambda_pm = i c (mu+m) +/- i sqrt[((mu+m) + D (mu+m)^5) tanh((mu+m) h)],

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

`_FloquetOperator.pencil` is the one place this pencil is built, with the
mu-independent blocks built once per wave: each mu costs the depth kernels
and one rfft of the stack [Ct, eta0_x St, qx0 Ct, St] giving c^, U and v.
A sweep reduces it by one real solve with c^ and one real standard
eigensolve and takes cond(c^) from it; QZ on it (`assemble_matrices`,
`solve_spectrum`) is the reference, never called by a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    IceModel,
    NumericalFailure,
    TravelingWave,
    default_grid_size,
    depth_kernels,
    eval_profile,
    grid_derivative,  # not called here; perfbench/test_bench.py probes this binding
    qx_on_grid,
    toland_frechet_coeffs,
)
from .theory import NlsCoefficients, dispersion_derivatives, growth_rate

#: Re(lambda) above this counts as growth; an order above the flat-water
#: assembly/eigensolver error.  The sweep solves a real problem and puts
#: stable eigenvalues exactly on the imaginary axis, so Re(lambda) carries
#: no round-off.
GROWTH_THRESHOLD = 1e-8

#: Unstable eigenvalues in the same or adjacent slices of the sweep join one
#: cluster when their imaginary parts lie within this distance, once the
#: Doppler drift between the two exponents is taken out (see `classify`).
CLUSTER_RADIUS = 0.05


class EigSolverFailure(RuntimeError, NumericalFailure):
    """The eigensolve, or the solve with c^ before it, failed."""


@dataclass
class FloquetSpectrum:
    """Eigenvalues of the linearized problem over a sweep of Floquet exponents."""

    mu_values: np.ndarray
    eigenvalues: list[np.ndarray]
    failures: list[tuple[float, str]] = field(default_factory=list)
    #: 2-norm condition number of c^ at ``cond_c_mu``, the solved exponent of
    #: largest |mu| (the first, if two tie; None if none was solved), where it
    #: peaked on 26 measured waves and grids.  A record only: the sweep solves
    #: with c^ at any value.  It grows like exp(n H) with n Floquet modes and
    #: wave height H: below 1e2 on converged small waves; 1e7 to 4.6e12 on the
    #: Toland waves at D = 0.01, a1 = 0.2 and D = 25, a1 = 0.3 (n = 32 to 64),
    #: whose growth rates still match the resolved ones to 1e-10; 3.7e14 at
    #: D = 25, n = 64, where the solve and QZ alike show spurious growth.
    max_cond_c: float = 0.0
    cond_c_mu: float | None = None
    #: c - omega'(1): near mu = 0 the modulational eigenvalues leave the
    #: origin along the Doppler line Im(lambda) = mu (c - omega'(1)).
    c_minus_vg: float = 0.0

    def flattened(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, lambda) pairs for all eigenvalues of the sweep; two empty
        arrays for a sweep with no mu."""
        mus = np.repeat(self.mu_values, [len(lams) for lams in self.eigenvalues])
        return mus, np.concatenate([np.empty(0, dtype=complex), *self.eigenvalues])


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
    """The largest growth rate of a spectrum, the |mu| where it occurs (growth
    is even in mu, since lambda(-mu) = conj(lambda(mu))), and the clusters."""

    max_growth: float
    argmax_mu: float
    clusters: tuple[SpectralCluster, ...]


def _mode_numbers(n_modes: int) -> np.ndarray:
    return np.arange(-n_modes, n_modes + 1)


def _grid_for(base: TravelingWave, n_modes: int) -> int:
    return default_grid_size(max(base.profile.n_modes, n_modes))


def _row_coeffs(rows: np.ndarray, n_modes: int, odd: bool | np.ndarray) -> np.ndarray:
    """Row-dependent convolutions of a stack of grid functions of shape
    (..., r, M), r = 1 or 2N+1, with one parity per leading index (a bool or
    bool array): entry (m, n) is rows_hat[m, m-n], divided by i for odd rows;
    r = 1 gives multiplication by the row.  One rfft holds every lag, as
    M >= 4N, and rows_hat[-k] = conj(rows_hat[k]) gives odd rows the sign of
    m-n.  The other part is round-off for a reversible wave; this is the one
    place it is dropped."""
    modes = _mode_numbers(n_modes)
    lag = modes[:, None] - modes[None, :]
    coeffs = np.fft.rfft(rows, axis=-1) / rows.shape[-1]
    gathered = coeffs[..., np.arange(rows.shape[-2])[:, None], np.abs(lag)]
    return np.where(np.asarray(odd)[..., None, None], np.sign(lag) * gathered.imag, gathered.real)


def _flex_blocks(surface: np.ndarray, model: IceModel, n_modes: int) -> np.ndarray | None:
    """Real convolution blocks (b2, s2 / i, s1) of the Toland operator at
    ``surface``, stacked, or None for the constant-coefficient linear model."""
    if model is IceModel.LINEAR_BIHARMONIC:
        return None
    return _row_coeffs(np.stack(toland_frechet_coeffs(surface))[:, None], n_modes, np.array([False, True, False]))


def _flex_matrix(blocks: np.ndarray | None, s: np.ndarray) -> np.ndarray:
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
    surface = eval_profile(base.profile, _grid_for(base, n_modes))
    return _flex_matrix(_flex_blocks(surface, model, n_modes), mu + _mode_numbers(n_modes))


class _FloquetOperator:
    """The linearized problem about one wave on Floquet modes -n..n, with
    n = ``n_modes`` or by default the wave's own mode count but at least 16.

    Everything that does not depend on mu -- the wave's grid functions, the
    mu-independent convolution blocks and the top half [a, -I] of L1 -- is
    built once, here; each mu adds only the depth kernels' row coefficients
    and the wavenumber scalings.
    """

    def __init__(self, base: TravelingWave, n_modes: int | None = None):
        n_modes = max(base.profile.n_modes, 16) if n_modes is None else n_modes
        self.c, self.params, self.n_modes, self.dim = base.c, base.params, n_modes, 2 * n_modes + 1
        surface = eval_profile(base.profile, _grid_for(base, n_modes))
        self.eta, self.ex = surface[0], surface[1]
        self.qx = qx_on_grid(surface, base.c, base.params, base.model)
        f = self.ex * (self.qx - base.c) / (1.0 + self.ex**2)
        local = np.stack([f, f**2 * self.ex - f * (self.qx - base.c), (self.qx - base.c) - f * self.ex])
        a_blk, self.s_conv, self.t_conv = _row_coeffs(local[:, None], n_modes, np.array([True, True, False]))
        self.flex = _flex_blocks(surface, base.model, n_modes)
        self.l1 = np.block([[a_blk, -np.eye(self.dim)], [np.zeros((self.dim, 2 * self.dim))]])

    def pencil(self, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """The real pencil (L1, L2) = ([[a, -I], [c^, 0]], [[S, -t], [U, -v]])
        at Floquet exponent mu (see the module docstring).  Its finite
        generalized eigenvalues nu give the Floquet eigenvalues lambda = -i nu."""
        s = mu + _mode_numbers(self.n_modes)  # D_x = i s on column mode n

        # nonlocal equation at row m, bounded depth kernels: one rfft of the
        # stack [K'_s, eta_x K_s, q_x K'_s, K_s]
        s_til, c_til = depth_kernels(s, self.eta, self.params.h)
        rows = np.stack([c_til, self.ex * s_til, self.qx * c_til, s_til])
        c_hat, ex_s, qx_c, v_conv = _row_coeffs(rows, self.n_modes, np.array([False, True, False, False]))
        k = self.dim
        l1, l2 = self.l1.copy(), np.empty_like(self.l1)  # filled in place: np.block is several times slower
        l1[k:, :k] = c_hat
        l2[:k, :k] = np.eye(k) - self.s_conv * s + self.params.D * _flex_matrix(self.flex, s)
        l2[:k, k:] = -self.t_conv * s
        l2[k:, :k] = -self.c * c_hat * s - (self.c * s)[:, None] * ex_s + s[:, None] * qx_c
        l2[k:, k:] = -v_conv * s
        return l1, l2

    def solve(self, mu: float) -> np.ndarray:
        """The eigenvalues at mu.  L1 has the inverse [[0, c^-1], [-I, a c^-1]],
        so the eigenvalues nu of the real pencil nu L1 x = L2 x are those of
        B = L1^-1 L2, with top half c^-1 [U, -v] and bottom half a top - [S, -t]:
        one real solve and one product, then one real eigensolve.  A real nu
        gives lambda = -i nu exactly on the imaginary axis, and a conjugate
        pair gives an exact pair lambda, -conj(lambda).
        """
        l1, l2 = self.pencil(mu)
        k = self.dim
        try:
            top = np.linalg.solve(l1[k:, :k], l2[k:])
            nu = np.linalg.eigvals(np.vstack([top, l1[:k, :k] @ top - l2[:k]]))
        except np.linalg.LinAlgError as exc:
            raise EigSolverFailure(str(exc)) from exc
        return nu.imag - 1j * nu.real


def assemble_matrices(base: TravelingWave, mu: float, n_modes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The real pencil (L1, L2) of `_FloquetOperator.pencil` at Floquet exponent mu."""
    return _FloquetOperator(base, n_modes).pencil(mu)


def solve_spectrum(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """All finite generalized eigenvalues w of w L1 x = L2 x via QZ.

    Pairs with |beta| below 1e-12 (relative to sqrt(|alpha|^2+|beta|^2))
    are eigenvalues at infinity and are dropped.

    No sweep calls this: on the pencil of `assemble_matrices` it is the
    reference that the sweep's reduced solve is checked against.  Its scipy
    comes with the ``test`` extra only, and is imported here, not at module
    load: scipy.linalg costs about 0.4 s and 25 MB a process.
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
    ``n_modes`` Floquet modes default to max(N, 16) for a wave of N modes.
    The wave's mu-independent blocks are built once; each mu's real pencil
    is solved as a reduced standard eigenproblem, one solve with c^ and one
    eigensolve; cond(c^) is taken once, from the pencil (see ``max_cond_c``).
    """
    mu_values = np.asarray(mu_values, dtype=float)
    operator = _FloquetOperator(base, n_modes)
    spectrum = FloquetSpectrum(
        mu_values=mu_values,
        eigenvalues=[],
        c_minus_vg=base.c - dispersion_derivatives(1.0, base.params)[1],
    )
    for mu in mu_values:
        try:
            lams = operator.solve(mu)
        except EigSolverFailure as exc:
            spectrum.eigenvalues.append(np.array([]))
            spectrum.failures.append((float(mu), str(exc)))
            continue
        spectrum.eigenvalues.append(lams)
        if spectrum.cond_c_mu is None or abs(mu) > abs(spectrum.cond_c_mu):
            spectrum.cond_c_mu = float(mu)
    if spectrum.cond_c_mu is not None:
        l1 = operator.pencil(spectrum.cond_c_mu)[0]
        spectrum.max_cond_c = float(np.linalg.cond(l1[operator.dim :, : operator.dim]))
    return spectrum


def classify(spectrum: FloquetSpectrum) -> InstabilityReport:
    """Cluster unstable eigenvalues by one link rule and label each cluster.

    The nodes are the unstable points, Re(lambda) > ``GROWTH_THRESHOLD``, and
    the origin, lambda = 0 at mu = 0.  Two nodes are linked when they lie in
    the same or in adjacent slices of the sweep and

        |Im lambda_i - Im lambda_j - (c - omega') (dmu - round(dmu))| < CLUSTER_RADIUS,

    with dmu = mu_i - mu_j and c - omega' the spectrum's ``c_minus_vg``.  The
    cluster that holds the origin is modulational; every other cluster is a
    high-frequency (bubble) instability, born from a nonzero collision.

    - The distance is taken in the Doppler frame: near mu = 0 a band drifts
      along the line Im(lambda) = mu (c - omega'), and at D = 25 (c - omega'
      about -7.3) adjacent slices of the modulational band lie farther apart
      than ``CLUSTER_RADIUS`` once the step exceeds 0.0068.
    - Re(lambda) is left out: near a band edge it falls like a square root.
      On the D = 25 Toland wave at a1 = 0.3 it drops by 0.0635 from
      mu = 0.183 to 0.193, while the Doppler-frame Im(lambda) moves 0.0044.
    - Since mu and mu + 1 give the same spectrum, the last and first slices
      are adjacent too when the sweep closes around the circle: when the gap
      across mu = +-1/2 is no larger than the largest gap between consecutive
      slices.  A band across +-1/2 is written with its members below the gap
      shifted by +1, so its interval may end above 1/2.
    - The origin is adjacent to the slices with |mu| up to the smallest
      nonzero |mu| plus half the smallest step.  Both halves of the
      modulational band reach it, so they are one cluster even where the grid
      holds mu = 0, at which no growth counts.

    Every eigenvalue counts, however large: the real solve puts stable
    eigenvalues exactly on the imaginary axis, so the stiff modes at the
    Fourier truncation edge add no noise to Re(lambda).  The one exception
    is mu = 0, where the four eigenvalues nearest the origin, the split
    four-fold eigenvalue 0, count as stable.  Clusters are listed by mu
    interval, then by the imaginary part of their centroid.
    """
    order = np.argsort(spectrum.mu_values)
    # node 0 is the origin; nodes[k] are the unstable points of slice k
    node_mu: list[float] = [0.0]
    node_lam: list[complex] = [0j]
    nodes: list[list[int]] = []
    for i in order:
        lams = spectrum.eigenvalues[i]
        growing = lams.real > GROWTH_THRESHOLD
        if spectrum.mu_values[i] == 0.0:
            # lambda = 0 is four-fold here (translation and the potential's
            # additive constant, each with a generalized eigenvector), and
            # round-off splits it with Re(lambda) up to about 1e-6
            growing[np.argsort(np.abs(lams))[:4]] = False
        grown = lams[growing].tolist()
        nodes.append(list(range(len(node_lam), len(node_lam) + len(grown))))
        node_lam += grown
        node_mu += [float(spectrum.mu_values[i])] * len(grown)

    parent = list(range(len(node_lam)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def link(these: list[int], those: list[int]):
        for i in these:
            for j in those:
                d_mu = node_mu[i] - node_mu[j]
                drift = spectrum.c_minus_vg * (d_mu - round(d_mu))
                if abs(node_lam[i].imag - node_lam[j].imag - drift) < CLUSTER_RADIUS:
                    parent[find(j)] = find(i)

    # sorted(set(...)), not np.unique: numpy 2.4's unique imports numpy.ma
    sorted_mu = np.array(sorted(set(spectrum.mu_values.tolist())))
    # the wrap gap is a sum of values up to 1/2, so it is exact only to spacing(1)
    wraps = sorted_mu.size > 2 and sorted_mu[0] + 1.0 - sorted_mu[-1] <= np.diff(sorted_mu).max() + np.spacing(1.0)
    nonzero = np.abs(sorted_mu[np.abs(sorted_mu) > 0])
    mu_step = float(np.diff(sorted_mu).min()) if sorted_mu.size > 1 else 0.0
    touch_mu = (nonzero.min() if nonzero.size else 0.0) + 0.5 * mu_step

    for k, here in enumerate(nodes):
        link(here, here + (nodes[k + 1] if k + 1 < len(nodes) else []))
    if wraps:
        link(nodes[-1], nodes[0])
    link([0], [i for i, mu in enumerate(node_mu) if abs(mu) <= touch_mu])

    groups: dict[int, list[int]] = {}
    for i in range(1, len(node_lam)):
        groups.setdefault(find(i), []).append(i)

    def cluster(kind: InstabilityKind, members: list[int]) -> SpectralCluster:
        mus = np.array(sorted({node_mu[i] for i in members}))
        lams = [node_lam[i] for i in members]
        # the interval is the complement of the largest gap between members
        # on the circle; a gap inside the sweep wider than the one across
        # +-1/2 marks a band that wraps
        gaps = np.diff(mus)
        if gaps.size and gaps.max() > mus[0] + 1.0 - mus[-1]:
            k = int(np.argmax(gaps))
            interval = (float(mus[k + 1]), float(mus[k] + 1.0))
        else:
            interval = (float(mus[0]), float(mus[-1]))
        return SpectralCluster(
            kind=kind,
            mu_interval=interval,
            centroid=complex(np.mean(lams)),
            max_growth=max(l.real for l in lams),
        )

    origin = find(0)
    clusters = sorted(
        (
            cluster(InstabilityKind.MODULATIONAL if root == origin else InstabilityKind.HIGH_FREQUENCY, members)
            for root, members in groups.items()
        ),
        key=lambda c: (c.mu_interval, c.centroid.imag),
    )

    pts_mu, pts_lam = node_mu[1:], node_lam[1:]
    if pts_lam:
        best = int(np.argmax([l.real for l in pts_lam]))
        max_growth, argmax_mu = pts_lam[best].real, abs(pts_mu[best])
        # -mu has the same growth: of two mirror slices report the smaller |mu|
        mirror = [abs(m) for m in pts_mu if abs(m + pts_mu[best]) <= 0.5 * mu_step]
        argmax_mu = min([argmax_mu, *mirror])
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
