"""Closed-form linear and weakly nonlinear theory.

Dispersion relation and its derivatives, the envelope-equation (NLS)
coefficients for both ice models in deep water, modulational growth rates,
the resonance condition, flat-water Floquet eigenvalues and their collisions
on mu in [-1/2, 1/2); every omega comes from `_omega`.  These expressions are
the oracle layer for the numerical solver and the Floquet stability code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IceModel, NumericalFailure, PhysicalParams, depth_factor

#: Half-width of the excluded strip around the vanishing NLS denominator
#: 1 - 14 D.  Inside it the coefficients are meaningless and we raise
#: instead of returning a huge M.
WILTON_POLE_RTOL = 1e-8

#: Width in mu to which `find_collisions` bisects each collision; nearer
#: roots of one branch pair count as one.
COLLISION_MU_TOL = 1e-10

#: Uniform exponents on [-1/2, 1/2] that `find_collisions` scans.  The count
#: is odd, so mu = 0 and +-1/2 are grid points and the tangential collisions
#: at mu = 0 are found; a finer grid found the same collisions.
COLLISION_SCAN_POINTS = 2001

#: Largest mode K that `resonant_rigidity` takes: K^4 stays a finite float.
MAX_RESONANT_MODE = 10**76


class WiltonPole(ValueError, NumericalFailure):
    """Parameters sit on the vanishing denominator 1 - 14 D = 0."""


class FiniteDepthUnsupported(ValueError, NumericalFailure):
    """The envelope-equation coefficients are derived for infinite depth only."""


class NoPositiveRoot(ValueError, NumericalFailure):
    """The resonance condition has no positive rigidity for these parameters."""


@dataclass(frozen=True)
class NlsCoefficients:
    """Frequency, group velocity, dispersion curvature and nonlinear
    coefficient of the k = 1 carrier's envelope equation (deep water).

    The amplitude argument of :func:`growth_rate` and :func:`c_nls` is the
    envelope amplitude ``a``; a physical profile ``a1*cos(x)`` corresponds
    to ``a = a1/2`` (the carrier enters as ``a e^{i theta} + c.c.``).
    """

    omega: float
    omega_p: float
    omega_pp: float
    M: float

    @property
    def focusing(self) -> bool:
        """Modulationally unstable: omega'' M > 0."""
        return self.omega_pp * self.M > 0

    def mu_max(self, a: float) -> float:
        """Most unstable sideband, a*sqrt(2M/omega''); nan when defocusing."""
        ratio = 2.0 * self.M / self.omega_pp
        return abs(a) * math.sqrt(ratio) if ratio > 0 else math.nan

    def band_edge(self, a: float) -> float:
        """Sideband at which the growth rate returns to zero."""
        ratio = self.M / self.omega_pp
        return 2.0 * abs(a) * math.sqrt(ratio) if ratio > 0 else 0.0

    def max_growth(self, a: float) -> float:
        """Peak growth rate |M| a^2 (attained at mu_max when focusing)."""
        return abs(self.M) * a**2 if self.focusing else 0.0


def _omega(k, params: PhysicalParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, P, T) of omega^2 = P T, P = k + D k^5, T = tanh(k h) (sign(k) in
    deep water), elementwise in k; omega >= 0 is even in k and 0 at k = 0."""
    k = np.asarray(k, dtype=float)
    p, t = k + params.D * k**5, depth_factor(k, params.h)
    return np.sqrt(p * t), p, t


def dispersion_derivatives(k: float, params: PhysicalParams) -> tuple[float, float, float]:
    """omega, omega' and omega'' at wavenumber k != 0, at any depth, in closed form.

    With Omega = omega^2 = P T from `_omega`: omega' = Omega'/(2 omega) and
    omega'' = (Omega'' - 2 omega'^2)/(2 omega), using P' = 1 + 5 D k^4,
    P'' = 20 D k^3, T' = h sech^2(k h) and T'' = -2 h^2 sech^2(k h) tanh(k h).
    """
    if k == 0:
        raise ValueError("dispersion is undefined at k = 0")
    omega, p, t = map(float, _omega(k, params))
    d, h = params.D, params.h
    p1, p2, t1, t2 = 1.0 + 5.0 * d * k**4, 20.0 * d * k**3, 0.0, 0.0
    if not params.infinite_depth:
        e = math.exp(-2.0 * abs(k * h))
        sech_sq = 4.0 * e / (1.0 + e) ** 2  # no overflow at large k h
        t1, t2 = h * sech_sq, -2.0 * h**2 * sech_sq * t
    omega_p = (p1 * t + p * t1) / (2.0 * omega)
    omega_pp = (p2 * t + 2.0 * p1 * t1 + p * t2 - 2.0 * omega_p**2) / (2.0 * omega)
    return omega, omega_p, omega_pp


def _check_wilton(d: float):
    if abs(1.0 - 14.0 * d) < WILTON_POLE_RTOL:
        raise WiltonPole(f"1 - 14 D = {1.0 - 14.0 * d:.3e} is inside the excluded strip")


def nls_coefficients(model: IceModel, params: PhysicalParams) -> NlsCoefficients:
    """Envelope-equation coefficients of the k = 1 carrier, deep water.

    omega, omega' and omega'' come from `dispersion_derivatives`; M differs
    between the linear (biharmonic) and nonlinear (Toland/Cosserat) ice models.
    Raises :class:`WiltonPole` near the vanishing denominator 1 - 14 D and
    :class:`FiniteDepthUnsupported` for finite depth.
    """
    if not params.infinite_depth:
        raise FiniteDepthUnsupported("NLS coefficients are derived for h = infinity")
    d = params.D
    _check_wilton(d)
    omega, omega_p, omega_pp = dispersion_derivatives(1, params)
    if model is IceModel.NONLINEAR_COSSERAT:
        m = -omega * (4.0 - 27.0 * d + 44.0 * d**2) / (2.0 * (1.0 + d) * (1.0 - 14.0 * d))
    else:
        m = -omega * (2.0 - 11.0 * d - 13.0 * d**2) / ((1.0 + d) * (1.0 - 14.0 * d))
    return NlsCoefficients(omega=omega, omega_p=omega_p, omega_pp=omega_pp, M=m)


def growth_rate(mu: float, a: float, coeffs: NlsCoefficients) -> float:
    """Sideband growth rate Omega(mu) of the plane-wave envelope of amplitude a.

    Omega^2 = omega'' M a^2 mu^2 - (omega''/2)^2 mu^4; zero is returned
    outside the unstable band (no growth).
    """
    omega_sq = coeffs.omega_pp * coeffs.M * a**2 * mu**2 - (0.5 * coeffs.omega_pp) ** 2 * mu**4
    return math.sqrt(omega_sq) if omega_sq > 0 else 0.0


def c_nls(a: float, coeffs: NlsCoefficients) -> float:
    """Speed of the weakly nonlinear k=1 branch, omega - M a^2.

    ``a`` is the envelope amplitude; to predict the speed of a computed wave
    with first cosine coefficient a1, pass a = a1/2.
    """
    return coeffs.omega - coeffs.M * a**2


def second_harmonic(eta1: complex, params: PhysicalParams) -> complex:
    """Leading-order second-harmonic amplitude (1 + D)/(1 - 14 D) eta1^2 of the k = 1 carrier."""
    _check_wilton(params.D)
    return (1.0 + params.D) / (1.0 - 14.0 * params.D) * eta1**2


def _tanh_excess(big_k: int, h: float) -> float:
    """K - tanh(K h)/tanh(h) for an integer K >= 0, with no cancellation.

    In shallow water it is (K^3 - K) h^2 / 3 + O(h^4), the difference of two
    terms near K; its product with tanh(h) would underflow like h^3.  By the
    addition rule of tanh, e_k = k - T_k/t, with t = tanh(h) and
    T_k = tanh(k h), obeys

        e_(j+k) = (e_j + e_k + (j + k) T_j T_k) / (1 + T_j T_k),

    a sum of nonnegative terms; K is summed from its binary digits.
    """
    t = math.tanh(h)

    def add(a, b):
        (j, t_j, e_j), (k, t_k, e_k) = a, b
        den = 1.0 + t_j * t_k
        return j + k, (t_j + t_k) / den, (e_j + e_k + (j + k) * t_j * t_k) / den

    total, power = (0, 0.0, 0.0), (1, t, 0.0)
    while big_k:
        if big_k & 1:
            total = add(total, power)
        power, big_k = add(power, power), big_k >> 1
    return total[2]


def resonant_rigidity(big_k: int, params: PhysicalParams) -> float:
    """Rigidity D at which mode K is resonant with the fundamental.

    Solves (1 + D) K tanh(h) = (1 + K^4 D) tanh(K h) for D; in infinite
    depth this is (K - 1)/(K^4 - K) = 1/(K^3 + K^2 + K), and in shallow
    water h^2 (K^2 - 1) / (3 (K^4 - 1)) + O(h^4).  K is at most
    ``MAX_RESONANT_MODE``.
    """
    if not 2 <= big_k <= MAX_RESONANT_MODE:
        raise ValueError(f"resonant mode K must lie in [2, {MAX_RESONANT_MODE:.0e}], got {big_k}")
    if params.infinite_depth:
        d = 1.0 / (big_k**3 + big_k**2 + big_k)
    else:
        # both sides of D = (K t - T_K) / (K^4 T_K - K t) divided by K t, with
        # t = tanh(h): T_K >= t makes the denominator at least K^3 - 1, and
        # no factor leaves the float range at any K and h
        ratio = math.tanh(big_k * params.h) / math.tanh(params.h)
        d = _tanh_excess(big_k, params.h) / big_k / (big_k**3 * ratio - 1.0)
    if d <= 0:
        raise NoPositiveRoot(f"resonance condition gives D = {d:.3e} <= 0 for K = {big_k}")
    return d


def flat_eigenvalues(mu, m: int, c: float, params: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """Purely imaginary spectrum of the flat state in the frame moving at c,
    at one Floquet exponent or an array of them:

        lambda_pm = i c (mu+m) +/- i sqrt[((mu+m) + D (mu+m)^5) tanh((mu+m) h)].
    """
    s = np.asarray(mu, dtype=float) + m
    root = _omega(s, params)[0]
    return 1j * (c * s + root), 1j * (c * s - root)


@dataclass(frozen=True)
class CollisionRecord:
    """Two flat-water eigenvalue branches meeting at Floquet exponent mu."""

    mu: float
    m1: int
    m2: int
    s1: int
    s2: int
    lam: complex


def find_collisions(params: PhysicalParams, c: float, m_range: int) -> list[CollisionRecord]:
    """Locate collisions lambda^{s1}_{mu+m1} = lambda^{s2}_{mu+m2} of the
    flat-water eigenvalue branches.

    All branch pairs with |m| <= m_range and either different mode offsets or
    different signs are scanned on the ``COLLISION_SCAN_POINTS`` uniform
    exponents of [-1/2, 1/2], whose gaps are bisected together down to
    ``COLLISION_MU_TOL`` wherever they change sign.  A tangential collision,
    whose gap touches zero without changing sign, is found only at a grid
    point; mu = 0 and +-1/2 are grid points.  Each collision is reported
    once, on [-1/2, 1/2): a root at +1/2 is dropped when the scan found its
    copy at -1/2, modes (m1 + 1, m2 + 1), as it does when those lie within
    m_range.
    """
    mu = np.linspace(-0.5, 0.5, COLLISION_SCAN_POINTS)
    m, s = np.repeat(np.arange(-m_range, m_range + 1), 2), np.tile([1, -1], 2 * m_range + 1)

    def imag(x, b):  # Im lambda of branches b at exponents x
        plus, minus = flat_eigenvalues(x, m[b], c, params)
        return np.where(s[b] > 0, plus, minus).imag

    values = imag(mu, np.arange(m.size)[:, None])
    zero, change = [], []  # (p, q, grid index) where the gap of branches p < q vanishes or changes sign
    for p in range(m.size - 1):  # one first branch at a time: memory grows like m_range, not its square
        gap = values[p] - values[p + 1 :]
        q, at = np.nonzero(gap == 0.0)
        zero.append(np.stack([np.full_like(q, p), q + p + 1, at]))
        q, at = np.nonzero(gap[:, :-1] * gap[:, 1:] < 0.0)
        change.append(np.stack([np.full_like(q, p), q + p + 1, at]))
    (zero_p, zero_q, zero_at), (p, q, at) = np.hstack(zero), np.hstack(change)
    sign, lo, hi = np.sign(values[p, at] - values[q, at]), mu[at], mu[at + 1]
    for _ in range(math.ceil(math.log2((mu[1] - mu[0]) / COLLISION_MU_TOL))):
        mid = 0.5 * (lo + hi)
        g = sign * (imag(mid, p) - imag(mid, q))
        lo, hi = np.where(g >= 0.0, mid, lo), np.where(g <= 0.0, mid, hi)
    roots = np.concatenate([mu[zero_at], 0.5 * (lo + hi)])
    i, j = np.concatenate([zero_p, p]), np.concatenate([zero_q, q])
    order = np.lexsort((roots, j, i))
    roots, i, j = roots[order], i[order], j[order]
    keep = np.r_[True, (np.diff(i) != 0) | (np.diff(j) != 0) | (np.diff(roots) > COLLISION_MU_TOL)]
    roots, i, j = roots[keep], i[keep], j[keep]
    records = [
        CollisionRecord(mu=float(x), m1=int(m[p]), m2=int(m[q]), s1=int(s[p]), s2=int(s[q]), lam=1j * float(v))
        for x, p, q, v in zip(roots, i, j, imag(roots, i))
    ]
    low = {(r.m1, r.s1, r.m2, r.s2) for r in records if r.mu - mu[0] <= COLLISION_MU_TOL}
    records = [r for r in records if mu[-1] - r.mu > COLLISION_MU_TOL or (r.m1 + 1, r.s1, r.m2 + 1, r.s2) not in low]
    records.sort(key=lambda r: (r.mu, r.m1, r.m2))
    return records
