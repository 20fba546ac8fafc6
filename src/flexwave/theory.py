"""Closed-form linear and weakly nonlinear theory.

Dispersion relation and its derivatives, the envelope-equation (NLS)
coefficients for both ice models in deep water, modulational growth rates,
the resonance condition, flat-water Floquet eigenvalues and their collisions.
These expressions are the oracle layer for the numerical solver and the
Floquet stability code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IceModel, PhysicalParams, depth_factor

__all__ = [
    "WiltonPole",
    "FiniteDepthUnsupported",
    "NoPositiveRoot",
    "WILTON_POLE_RTOL",
    "NlsCoefficients",
    "CollisionRecord",
    "dispersion",
    "dispersion_derivatives",
    "nls_coefficients",
    "growth_rate",
    "c_nls",
    "second_harmonic",
    "resonant_rigidity",
    "curvature_sign_change_rigidity",
    "flat_eigenvalues",
    "find_collisions",
]

#: Relative half-width (in units of g) of the excluded strip around the
#: vanishing NLS denominator g - 14 k^4 D.  Inside it the coefficients are
#: meaningless and we raise instead of returning a huge M.
WILTON_POLE_RTOL = 1e-8

#: Width in mu to which `find_collisions` bisects each collision; nearer
#: roots of one branch pair count as one.
COLLISION_MU_TOL = 1e-10


class WiltonPole(ValueError):
    """Parameters sit on the vanishing denominator g - 14 k^4 D = 0."""


class FiniteDepthUnsupported(ValueError):
    """The envelope-equation coefficients are derived for infinite depth only."""


class NoPositiveRoot(ValueError):
    """The resonance condition has no positive rigidity for these parameters."""


@dataclass(frozen=True)
class NlsCoefficients:
    """Carrier frequency, group velocity, dispersion curvature and the
    nonlinear coefficient of the envelope equation (deep water).

    The amplitude argument of :func:`growth_rate` and :func:`c_nls` is the
    envelope amplitude ``a``; a physical profile ``a1*cos(x)`` corresponds
    to ``a = a1/2`` (the carrier enters as ``a e^{i theta} + c.c.``).
    """

    omega: float
    omega_p: float
    omega_pp: float
    M: float
    k: int = 1

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


def dispersion(k: float, params: PhysicalParams) -> float:
    """Positive branch of omega^2 = (g k + D k^5) tanh(k h).

    In infinite depth this reduces to omega^2 = |k| (g + k^4 D).
    """
    if k == 0:
        raise ValueError("dispersion is undefined at k = 0")
    g, d = params.g, params.D
    omega_sq = (g * k + d * k**5) * float(depth_factor(k, params.h))
    return math.sqrt(omega_sq)


def dispersion_derivatives(k: float, params: PhysicalParams) -> tuple[float, float, float]:
    """omega, omega' and omega'' at wavenumber k, at any depth, in closed form.

    With Omega = omega^2 = (g k + D k^5) T(k), T = tanh(k h) (sign(k) in deep
    water): omega' = Omega'/(2 omega) and omega'' = (Omega'' - 2 omega'^2)/(2 omega),
    using T' = h sech^2(k h) and T'' = -2 h^2 sech^2(k h) tanh(k h).
    """
    omega = dispersion(k, params)
    g, d, h = params.g, params.D, params.h
    p, p1, p2 = g * k + d * k**5, g + 5.0 * d * k**4, 20.0 * d * k**3
    t, t1, t2 = float(depth_factor(k, h)), 0.0, 0.0
    if not params.infinite_depth:
        e = math.exp(-2.0 * abs(k * h))
        sech_sq = 4.0 * e / (1.0 + e) ** 2  # no overflow at large k h
        t1, t2 = h * sech_sq, -2.0 * h**2 * sech_sq * t
    omega_p = (p1 * t + p * t1) / (2.0 * omega)
    omega_pp = (p2 * t + 2.0 * p1 * t1 + p * t2 - 2.0 * omega_p**2) / (2.0 * omega)
    return omega, omega_p, omega_pp


def _check_wilton(g: float, k4d: float):
    if abs(g - 14.0 * k4d) < WILTON_POLE_RTOL * g:
        raise WiltonPole(f"g - 14 k^4 D = {g - 14.0 * k4d:.3e} is inside the excluded strip")


def nls_coefficients(model: IceModel, k: int, params: PhysicalParams) -> NlsCoefficients:
    """Envelope-equation coefficients for carrier wavenumber k, deep water.

    omega'' is model independent; the nonlinear coefficient M differs between
    the linear (biharmonic) and nonlinear (Toland/Cosserat) ice models.
    Raises :class:`WiltonPole` near the vanishing denominator g - 14 k^4 D
    (at D = 1/14 for g = 1, k = 1) and :class:`FiniteDepthUnsupported` for
    finite depth.
    """
    if not params.infinite_depth:
        raise FiniteDepthUnsupported("NLS coefficients are derived for h = infinity")
    if k == 0:
        raise ValueError("carrier wavenumber must be nonzero")
    g, d = params.g, params.D
    k4d = k**4 * d
    _check_wilton(g, k4d)

    omega = math.sqrt(abs(k) * (g + k4d))
    omega_p = math.copysign(1.0, k) * (g + 5.0 * k4d) / (2.0 * omega)
    omega_pp = -omega * (g**2 - 30.0 * g * k4d - 15.0 * k4d**2) / (4.0 * k**2 * (g + k4d) ** 2)
    if model is IceModel.NONLINEAR_COSSERAT:
        m = -omega * k**2 * (4.0 * g**2 - 27.0 * g * k4d + 44.0 * k4d**2) / (
            2.0 * (g + k4d) * (g - 14.0 * k4d)
        )
    else:
        m = -omega * k**2 * (2.0 * g**2 - 11.0 * g * k4d - 13.0 * k4d**2) / (
            (g + k4d) * (g - 14.0 * k4d)
        )
    return NlsCoefficients(omega=omega, omega_p=omega_p, omega_pp=omega_pp, M=m, k=k)


def growth_rate(mu: float, a: float, coeffs: NlsCoefficients) -> float:
    """Sideband growth rate Omega(mu) of the plane-wave envelope of amplitude a.

    Omega^2 = omega'' M a^2 mu^2 - (omega''/2)^2 mu^4; zero is returned
    outside the unstable band (no growth).
    """
    omega_sq = coeffs.omega_pp * coeffs.M * a**2 * mu**2 - (0.5 * coeffs.omega_pp) ** 2 * mu**4
    return math.sqrt(omega_sq) if omega_sq > 0 else 0.0


def c_nls(a: float, coeffs: NlsCoefficients, params: PhysicalParams) -> float:
    """Speed of the weakly nonlinear k=1 branch, omega - M a^2.

    ``a`` is the envelope amplitude; to predict the speed of a computed wave
    with first cosine coefficient a1, pass a = a1/2.
    """
    if coeffs.k != 1:
        raise ValueError("the branch-speed formula is for the k = 1 carrier")
    return coeffs.omega - coeffs.M * a**2


def second_harmonic(eta1: complex, k: int, params: PhysicalParams) -> complex:
    """Leading-order second-harmonic amplitude (g + k^4 D)/(g - 14 k^4 D) |k| eta1^2."""
    g, d = params.g, params.D
    k4d = k**4 * d
    _check_wilton(g, k4d)
    return (g + k4d) / (g - 14.0 * k4d) * abs(k) * eta1**2


def resonant_rigidity(big_k: int, params: PhysicalParams) -> float:
    """Rigidity D at which mode K is resonant with the fundamental.

    Solves (g + D) K tanh(h) = (g + K^4 D) tanh(K h) for D; in infinite
    depth this is g (K - 1)/(K^4 - K) = g/(K^3 + K^2 + K).
    """
    if big_k < 2:
        raise ValueError("resonant mode K must be >= 2")
    g = params.g
    if params.infinite_depth:
        d = g / (big_k**3 + big_k**2 + big_k)
    else:
        th, tkh = math.tanh(params.h), math.tanh(big_k * params.h)
        denom = big_k**4 * tkh - big_k * th
        if denom == 0:
            raise NoPositiveRoot("degenerate resonance denominator")
        d = g * (big_k * th - tkh) / denom
    if d <= 0:
        raise NoPositiveRoot(f"resonance condition gives D = {d:.3e} <= 0 for K = {big_k}")
    return d


def curvature_sign_change_rigidity(k: int = 1, g: float = 1.0) -> float:
    """Rigidity where omega'' changes sign: positive root of 15 u^2 + 30 g u - g^2 = 0
    with u = k^4 D."""
    u = g * (-30.0 + math.sqrt(960.0)) / 30.0
    return u / k**4


def flat_eigenvalues(mu, m: int, c: float, params: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """Purely imaginary spectrum of the flat state in the frame moving at c,
    at one Floquet exponent or an array of them:

        lambda_pm = i c (mu+m) +/- i sqrt[(g (mu+m) + D (mu+m)^5) tanh((mu+m) h)].
    """
    s = np.asarray(mu, dtype=float) + m
    root = np.sqrt((params.g * s + params.D * s**5) * depth_factor(s, params.h))
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


def find_collisions(params: PhysicalParams, c: float, mu_grid: int, m_range: int) -> list[CollisionRecord]:
    """Locate collisions lambda^{s1}_{mu+m1} = lambda^{s2}_{mu+m2} of the
    flat-water eigenvalue branches.

    All branch pairs with |m| <= m_range and either different mode offsets or
    different signs are scanned on ``mu_grid`` uniform exponents over
    [-1/2, 1/2]; sign-crossing roots are bisected down to
    ``COLLISION_MU_TOL``.  Tangential near-collisions are reported only when
    the scanned gap itself vanishes on the grid.
    """
    if mu_grid < 2:
        raise ValueError("mu_grid must be at least 2")
    mu = np.linspace(-0.5, 0.5, mu_grid)
    branches = [(m, s) for m in range(-m_range, m_range + 1) for s in (+1, -1)]
    values = {b: _branch_imag(mu, b, c, params) for b in branches}

    records: list[CollisionRecord] = []
    for i, b1 in enumerate(branches):
        for b2 in branches[i + 1 :]:
            diff = values[b1] - values[b2]
            roots = _scan_roots(mu, diff, b1, b2, c, params)
            for mu_star in roots:
                lam = _branch_imag(np.array([mu_star]), b1, c, params)[0]
                records.append(
                    CollisionRecord(mu=float(mu_star), m1=b1[0], m2=b2[0], s1=b1[1], s2=b2[1], lam=1j * lam)
                )
    records.sort(key=lambda r: (r.mu, r.m1, r.m2))
    return records


def _branch_imag(mu: np.ndarray, branch: tuple[int, int], c: float, params: PhysicalParams) -> np.ndarray:
    """Im lambda on the flat-water branch (m, sign) at exponents mu, from :func:`flat_eigenvalues`."""
    return flat_eigenvalues(mu, branch[0], c, params)[0 if branch[1] > 0 else 1].imag


def _scan_roots(mu, diff, b1, b2, c, params) -> list[float]:
    def gap(x: float) -> float:
        arr = np.array([x])
        return float(_branch_imag(arr, b1, c, params)[0] - _branch_imag(arr, b2, c, params)[0])

    roots: list[float] = []
    exact = np.flatnonzero(diff == 0.0)
    for idx in exact:
        if not roots or abs(mu[idx] - roots[-1]) > COLLISION_MU_TOL:
            roots.append(float(mu[idx]))
    sign_change = np.flatnonzero(diff[:-1] * diff[1:] < 0.0)
    for idx in sign_change:
        lo, hi = float(mu[idx]), float(mu[idx + 1])
        flo = gap(lo)
        while hi - lo > COLLISION_MU_TOL:
            mid = 0.5 * (lo + hi)
            fmid = gap(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        root = 0.5 * (lo + hi)
        if all(abs(root - r) > COLLISION_MU_TOL for r in roots):
            roots.append(root)
    return sorted(roots)
