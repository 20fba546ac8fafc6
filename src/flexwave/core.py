"""Domain types and pseudospectral machinery for periodic wave profiles.

Profiles are even, zero-mean and 2*pi-periodic, represented by their cosine
coefficients ``a_1..a_N``.  `eval_profile` forms eta's derivatives, once,
from the coefficients: the (5, M) stack ``surface`` = eta, eta_x, ...,
eta_xxxx on the grid ``x_i = 2*pi*i/M``.  The pointwise operators take that
stack, so no sample of eta is differentiated spectrally; only the ice
pressure's Frechet derivative differentiates grid samples, of its directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

#: Distinguished depth value; tanh(k*h) factors become sign(k) exactly.
INFINITE_DEPTH = math.inf

#: Grid values of a 2*pi-periodic function sampled at x_i = 2*pi*i/M.
GridFunction = np.ndarray


class NumericalFailure(Exception):
    """Base of the typed errors of a computation that gives no result; each also keeps its builtin base."""


class NonpositiveRadicand(ArithmeticError, NumericalFailure):
    """The Bernoulli radicand c^2 - 2*eta - 2*D*P_flex is not positive.

    Signals that a wave (or Newton iterate) lies outside the admissible set,
    e.g. near breaking or after an overly large continuation step.
    """


@dataclass(frozen=True)
class PhysicalParams:
    """Depth h and flexural rigidity D in units where gravity g and the
    carrier wavenumber k are 1: h is k h, and D is rigidity/density times k^4/g.
    The problem with gravity g is the one at rigidity D/g, with c, q and lambda
    times sqrt(g) and eta the same.  Against a solver that kept g (g = 2.5,
    D = 0.025 against D = 0.01; both models, h = inf and 1) the coefficients
    agreed to 1.7e-16, and c, the peak Floquet growth rate and the NLS M and
    omega'' over sqrt(g) to 1.8e-14, 6.8e-13 and 6.5e-16 relative.  Infinite
    depth is ``h = INFINITE_DEPTH`` (``math.inf``), never a large number.
    """

    h: float = INFINITE_DEPTH
    D: float = 0.0

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"h must be positive or infinite, got {self.h}")
        if not 0 <= self.D < math.inf:
            raise ValueError(f"D must be nonnegative and finite, got {self.D}")

    @property
    def infinite_depth(self) -> bool:
        return math.isinf(self.h)


class IceModel(Enum):
    """Surface-pressure model for the ice sheet."""

    LINEAR_BIHARMONIC = "linear"
    NONLINEAR_COSSERAT = "nonlinear"


@dataclass(frozen=True)
class SpectralProfile:
    """Even zero-mean profile eta(x) = sum_{j=1..N} a_j cos(j x)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        object.__setattr__(self, "coeffs", c)
        self.coeffs.flags.writeable = False

    @property
    def n_modes(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class TravelingWave:
    """One point on a bifurcation branch: profile plus frame speed c.

    A wave computed by Newton's method carries its record: ``residual_inf``,
    |F|_inf at the wave, and ``newton_steps``, the Newton steps (one Jacobian
    each) taken to compute it.  Both are None for a wave built any other way.
    """

    profile: SpectralProfile
    c: float
    params: PhysicalParams
    model: IceModel
    residual_inf: float | None = None
    newton_steps: int | None = None

    @property
    def a1(self) -> float:
        return float(self.profile.coeffs[0])


def grid_points(m: int) -> np.ndarray:
    """Collocation nodes x_i = 2*pi*i/M, i = 0..M-1."""
    return 2.0 * np.pi * np.arange(m) / m


def default_grid_size(n_modes: int) -> int:
    """Next power of two >= 4N, at least 64.

    The Toland operator is a rational nonlinearity, so exact dealiasing is
    impossible; 4x oversampling keeps aliasing below truncation error for
    the smooth profiles handled here.
    """
    target = max(4 * n_modes, 64)
    return 1 << (target - 1).bit_length()


def depth_factor(k, h: float):
    """tanh(k*h), evaluated as sign(k) when the depth is infinite."""
    k = np.asarray(k, dtype=float)
    if math.isinf(h):
        return np.sign(k)
    return np.tanh(k * h)


def depth_kernels(s, eta: GridFunction, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Depth kernels K_s = sinh(s eta) + T_s cosh(s eta) and K'_s = cosh(s eta)
    + T_s sinh(s eta), T_s = tanh(s h), for real s of any shape, as arrays of
    shape s.shape + eta.shape.  The bounded tanh form never overflows at large
    s*h; in infinite depth T_s = sign(s), so K'_s = exp(|s| eta) and K_s = sign(s) K'_s.
    """
    s = np.asarray(s, dtype=float)
    if math.isinf(h):
        slope = np.exp(np.multiply.outer(np.abs(s), eta))
        return np.sign(s)[..., None] * slope, slope
    arg = np.multiply.outer(s, eta)
    sh, ch = np.sinh(arg), np.cosh(arg)
    t = depth_factor(s, h)[..., None]
    return sh + t * ch, ch + t * sh


def eval_profile(profile: SpectralProfile, m: int) -> np.ndarray:
    """The (5, M) stack eta, eta_x, ..., eta_xxxx of eta(x) = sum a_j cos(j x)
    on the M-point grid, from one inverse FFT of the coefficients scaled by
    (i j)^k.  Requires M >= 2N+2 so that no mode aliases.
    """
    n = profile.n_modes
    if m < 2 * n + 2:
        raise ValueError(f"grid size {m} aliases a profile with {n} modes; need M >= {2 * n + 2}")
    spec = np.zeros((5, m // 2 + 1), dtype=complex)
    spec[:, 1 : n + 1] = 0.5 * m * profile.coeffs * (1j * np.arange(1, n + 1)) ** np.arange(5)[:, None]
    return np.fft.irfft(spec, n=m)


def grid_derivative(values: GridFunction, order: int) -> GridFunction:
    """Spectral derivative of grid samples: mode j multiplied by (i*j)^order.

    Acts along the last axis, so a stack of grid functions is differentiated
    row by row.
    """
    m = values.shape[-1]
    spec = np.fft.rfft(values)
    j = np.arange(m // 2 + 1)
    spec *= (1j * j) ** order
    if order % 2 == 1 and m % 2 == 0:
        spec[..., -1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(spec, n=m)


def p_flex_grid(surface: np.ndarray, model: IceModel) -> GridFunction:
    """Ice pressure on the grid, pointwise in the stack ``surface``.

    Linear model: eta_4x.  Nonlinear (Toland/Cosserat) model:

        d^2/dx^2 [ eta_xx R^(-5/2) ] + (5/2) d/dx [ eta_xx^2 eta_x R^(-7/2) ]
        = eta_4x R^(-5/2) - 10 eta_x eta_xx eta_xxx R^(-7/2)
          + (15 eta_x^2 - 5/2) eta_xx^3 R^(-9/2),

    with R = 1 + eta_x^2: the chain rule leaves no product to differentiate.
    """
    if model is IceModel.LINEAR_BIHARMONIC:
        return surface[4]
    _, ex, exx, exxx, e4x = surface
    r = 1.0 + ex**2
    return e4x * r ** (-2.5) - 10.0 * ex * exx * exxx * r ** (-3.5) + (15.0 * ex**2 - 2.5) * exx**3 * r ** (-4.5)


def toland_frechet_coeffs(surface: np.ndarray) -> tuple[GridFunction, GridFunction, GridFunction]:
    """Grid coefficients (b2, s2, s1) of the Toland pressure's Frechet
    derivative at ``surface`` (Toland 2008, ARMA 189):

        P'(eta)[v] = d^2/dx^2 [ b2 v_xx - s2 v_x ] + d/dx [ s2 v_xx + s1 v_x ],

        b2 = R^(-5/2),    s2 = 5 eta_xx eta_x R^(-7/2),
        s1 = (5/2) (eta_xx^2 R^(-7/2) - 7 eta_xx^2 eta_x^2 R^(-9/2)),

    with R = 1 + eta_x^2.  The v_x coefficient inside d^2/dx^2, b1 = -5 eta_xx
    eta_x R^(-7/2), is -s2 exactly.  The single definition shared by the
    Newton Jacobian and the Floquet operator.
    """
    ex, exx = surface[1], surface[2]
    r = 1.0 + ex**2
    b2 = r ** (-2.5)
    s2 = 5.0 * exx * ex * r ** (-3.5)
    s1 = 2.5 * (exx**2 * r ** (-3.5) - 7.0 * exx**2 * ex**2 * r ** (-4.5))
    return b2, s2, s1


def p_flex_derivative_grid(surface: np.ndarray, v: np.ndarray, model: IceModel) -> np.ndarray:
    """Directional derivative P_flex'(eta)[v] of the ice pressure on the grid.

    ``v`` holds the grid samples of one direction, or a stack of directions
    along its leading axes; the result has the shape of ``v``.
    """
    if model is IceModel.LINEAR_BIHARMONIC:
        return grid_derivative(v, 4)
    b2, s2, s1 = toland_frechet_coeffs(surface)
    vx = grid_derivative(v, 1)
    vxx = grid_derivative(v, 2)
    return grid_derivative(b2 * vxx - s2 * vx, 2) + grid_derivative(s2 * vxx + s1 * vx, 1)


def bernoulli_radicand(surface: np.ndarray, c: float, params: PhysicalParams, model: IceModel) -> GridFunction:
    """Bernoulli radicand c^2 - 2 eta - 2 D P_flex on the grid, checked.

    A vanishing radicand is tolerated only where it is identically zero
    (flat water at rest); a negative value anywhere, or a zero somewhere but
    not everywhere, puts the wave outside the admissible set and raises
    :class:`NonpositiveRadicand`.
    """
    radicand = c**2 - 2.0 * surface[0] - 2.0 * params.D * p_flex_grid(surface, model)
    low = radicand.min()
    if low < 0.0 or (low == 0.0 and radicand.max() > 0.0):
        raise NonpositiveRadicand(f"c^2 - 2 eta - 2 D P_flex reaches {low:.3e} (c={c:.6g})")
    return radicand


def qx_on_grid(surface: np.ndarray, c: float, params: PhysicalParams, model: IceModel) -> GridFunction:
    """q_x = c - sqrt((1+eta_x^2)(c^2 - 2 eta - 2 D P_flex)) on the grid."""
    return c - np.sqrt((1.0 + surface[1] ** 2) * bernoulli_radicand(surface, c, params, model))
