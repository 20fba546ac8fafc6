"""Steady traveling-wave solver: nonlocal residual, Newton iteration and
amplitude continuation of bifurcation branches.

The unknown vector is z = [c, a_2, ..., a_N] with the first cosine
coefficient a_1 held fixed as the continuation parameter.  The m-th residual
is the cos(m x) projection of

    sqrt((1+eta_x^2)(c^2 - 2 g eta - 2 D P_flex)) * (sinh(m eta) + cosh(m eta) tanh(m h)),

computed by trapezoidal quadrature on the oversampled collocation grid; in
infinite depth the kernel is exp(m eta).  The depth dependence is kept in the
bounded tanh form so large m*h never overflows.

Newton's method uses the exact Jacobian of this discrete residual: the
derivatives of the weight and of the kernel are evaluated on the grid for all
unknowns at once and projected with two matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import (
    IceModel,
    NonpositiveRadicand,
    PhysicalParams,
    SpectralProfile,
    TravelingWave,
    bernoulli_radicand,
    default_grid_size,
    eval_profile,
    grid_derivative,
    grid_points,
    p_flex_derivative_grid,
)
from .theory import dispersion

__all__ = [
    "NoConvergence",
    "SingularJacobian",
    "StepUnderflow",
    "SolverConfig",
    "BifurcationBranch",
    "Direction",
    "bifurcation_speed",
    "residual",
    "jacobian",
    "newton_solve",
    "continue_branch",
    "branch_direction",
]


class NoConvergence(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


class SingularJacobian(RuntimeError):
    """The Newton Jacobian is singular or undefined at the iterate."""


class StepUnderflow(RuntimeError):
    """Continuation step shrank below 1e-9 without convergence.

    Signals a fold or breakdown (e.g. approaching limiting waves).  The
    ``branch`` attribute carries the points computed so far.
    """

    def __init__(self, message: str, branch: "BifurcationBranch"):
        super().__init__(message)
        self.branch = branch


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and discretization knobs for the steady solver."""

    residual_tol: float = 1e-10
    max_newton_iters: int = 50
    tail_threshold: float = 1e-12
    amplitude_step: float = 1e-3
    grid_oversample: int = 4
    n_modes: int = 32
    max_modes: int = 512

    def __post_init__(self):
        for name in ("residual_tol", "tail_threshold", "amplitude_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.grid_oversample < 4:
            raise ValueError("grid_oversample must be at least 4")
        if self.n_modes < 1 or self.max_modes < self.n_modes:
            raise ValueError("mode counts must satisfy 1 <= n_modes <= max_modes")


class Direction(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass
class BifurcationBranch:
    """Ordered family of converged waves with strictly increasing a_1."""

    params: PhysicalParams
    model: IceModel
    points: list[TravelingWave]

    def amplitudes(self) -> np.ndarray:
        return np.array([w.a1 for w in self.points])


def bifurcation_speed(params: PhysicalParams) -> float:
    """Speed omega(1) = sqrt(tanh(h)(g + D)) at which the k=1 branch leaves flat water."""
    return dispersion(1.0, params)


@lru_cache(maxsize=32)
def _cos_table(n: int, m: int) -> np.ndarray:
    x = grid_points(m)
    return np.cos(np.outer(np.arange(1, n + 1), x))


@lru_cache(maxsize=32)
def _sin_table(n: int, m: int) -> np.ndarray:
    x = grid_points(m)
    return np.sin(np.outer(np.arange(1, n + 1), x))


def _surface(z, a1, params, model, config):
    """Grid size M and the samples of eta, eta_x, the radicand R and the
    weight W = sqrt((1+eta_x^2) R) at the unknowns z."""
    coeffs = np.concatenate(([a1], z[1:]))
    m_grid = default_grid_size(z.size, config.grid_oversample)
    eta = eval_profile(SpectralProfile(coeffs), m_grid)
    ex = grid_derivative(eta, 1)
    radicand = bernoulli_radicand(eta, z[0], params, model)
    return m_grid, eta, ex, radicand, np.sqrt((1.0 + ex**2) * radicand)


def _kernels(eta, n, h):
    """K_m(eta) and K'_m = dK_m/d(m eta) for m = 1..n, as (n, M) arrays.

    K'_m = cosh(m eta) + sinh(m eta) tanh(m h); in deep water both are exp(m eta).
    """
    marg = np.outer(np.arange(1, n + 1), eta)
    if math.isinf(h):
        kernel = np.exp(marg)
        return kernel, kernel
    sh, ch = np.sinh(marg), np.cosh(marg)
    th = np.tanh(np.arange(1, n + 1) * h)[:, None]
    return sh + ch * th, ch + sh * th


def residual(z: np.ndarray, a1: float, params: PhysicalParams, model: IceModel,
             config: SolverConfig) -> np.ndarray:
    """Cosine projections F_m, m = 1..N, of the steady nonlocal equation.

    Flat water gives an identically zero residual at any speed; the residual
    vanishes to O(a1^2) at the bifurcation point seed.
    """
    z = np.asarray(z, dtype=float)
    m_grid, eta, _, _, weight = _surface(z, a1, params, model, config)
    wk = weight[None, :] * _kernels(eta, z.size, params.h)[0]
    cos_mx = _cos_table(z.size, m_grid)
    return (2.0 * np.pi / m_grid) * np.einsum("ni,ni->n", cos_mx, wk)


def jacobian(z: np.ndarray, a1: float, params: PhysicalParams, model: IceModel,
             config: SolverConfig) -> np.ndarray:
    """Exact Jacobian dF_m/dz_j of :func:`residual`, as an (N, N) array.

    With S = 1+eta_x^2, R the radicand and W = sqrt(S R), column 0 (the
    speed) uses dW/dc = S c / W.  Column j >= 1 perturbs eta by v = cos((j+1) x):

        dR = -2 g v - 2 D P_flex'(eta)[v],
        dW = (2 eta_x v_x R + S dR) / (2 W),
        dF_m = (2 pi/M) sum_x cos(m x) [dW K_m + W m v K'_m].

    Raises :class:`SingularJacobian` where W vanishes (flat water at rest),
    since W is not differentiable there.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    m_grid, eta, ex, radicand, weight = _surface(z, a1, params, model, config)
    if weight.min() <= 0.0:
        raise SingularJacobian(f"the weight W vanishes at a1={a1:.3e}, c={z[0]:.6g}")
    s = 1.0 + ex**2
    cos_mx = _cos_table(n, m_grid)
    v = cos_mx[1:]
    v_x = -np.arange(2, n + 1)[:, None] * _sin_table(n, m_grid)[1:]
    d_rad = -2.0 * params.g * v - 2.0 * params.D * p_flex_derivative_grid(eta, v, model)
    d_weight = np.empty((n, m_grid))
    d_weight[0] = s * z[0] / weight
    d_weight[1:] = (2.0 * ex * v_x * radicand + s * d_rad) / (2.0 * weight)
    kernel, kernel_slope = _kernels(eta, n, params.h)
    jac = (cos_mx * kernel) @ d_weight.T
    jac[:, 1:] += (np.arange(1, n + 1)[:, None] * cos_mx * weight * kernel_slope) @ v.T
    return (2.0 * np.pi / m_grid) * jac


def newton_solve(z0: np.ndarray, a1: float, params: PhysicalParams, model: IceModel,
                 config: SolverConfig | None = None) -> TravelingWave:
    """Solve F(z) = 0 by Newton's method with the exact :func:`jacobian`.

    Returns the converged wave; raises :class:`NoConvergence` after
    ``max_newton_iters``, :class:`SingularJacobian` if the Jacobian is
    undefined or the linear solve fails, or propagates
    :class:`NonpositiveRadicand` from a bad iterate.
    """
    config = config or SolverConfig()
    z = np.asarray(z0, dtype=float).copy()
    f = residual(z, a1, params, model, config)
    for _ in range(config.max_newton_iters):
        if np.max(np.abs(f)) <= config.residual_tol:
            break
        jac = jacobian(z, a1, params, model, config)
        try:
            dz = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        z = z - dz
        f = residual(z, a1, params, model, config)
    if np.max(np.abs(f)) > config.residual_tol:
        raise NoConvergence(
            f"|F|_inf = {np.max(np.abs(f)):.3e} after {config.max_newton_iters} iterations"
        )
    coeffs = np.concatenate(([a1], z[1:]))
    return TravelingWave(profile=SpectralProfile(coeffs), c=float(z[0]), params=params, model=model)


def _tail_ratio(wave: TravelingWave) -> float:
    coeffs = np.abs(wave.profile.coeffs)
    peak = coeffs.max()
    return coeffs[-1] / peak if peak > 0 else 0.0


def continue_branch(params: PhysicalParams, model: IceModel, a1_max: float,
                    config: SolverConfig | None = None,
                    start: TravelingWave | None = None) -> BifurcationBranch:
    """Continue the branch from the flat-water bifurcation point up to a1_max.

    Each converged point seeds the next guess with a larger a_1; the step
    halves on Newton failure and the mode count doubles whenever the last
    Fourier coefficient fails the relative tail test.  Passing a converged
    ``start`` wave resumes continuation from there instead of the
    bifurcation point.
    """
    if a1_max <= 0:
        raise ValueError("a1_max must be positive")
    config = config or SolverConfig()
    if start is not None:
        z = np.concatenate(([start.c], start.profile.coeffs[1:]))
        a1 = start.a1
    else:
        z = np.zeros(config.n_modes)
        z[0] = bifurcation_speed(params)
        a1 = 0.0
    branch = BifurcationBranch(params=params, model=model, points=[])

    step = min(config.amplitude_step, max(a1_max - a1, config.amplitude_step * 1e-6))
    while a1 < a1_max - 1e-15:
        a1_try = min(a1 + step, a1_max)
        guess = z
        try:
            wave = newton_solve(guess, a1_try, params, model, config)
            while _tail_ratio(wave) > config.tail_threshold and 2 * wave.profile.n_modes <= config.max_modes:
                n = 2 * wave.profile.n_modes
                guess = np.concatenate(([wave.c], wave.profile.coeffs[1:], np.zeros(n - wave.profile.n_modes)))
                wave = newton_solve(guess, a1_try, params, model, config)
        except (NoConvergence, SingularJacobian, NonpositiveRadicand):
            step *= 0.5
            if step < 1e-9:
                raise StepUnderflow(f"continuation stalled at a1 = {a1:.6g}", branch) from None
            continue
        branch.points.append(wave)
        a1 = a1_try
        z = np.concatenate(([wave.c], wave.profile.coeffs[1:]))
        step = min(step * 2.0, config.amplitude_step, max(a1_max - a1, 1e-15))
    return branch


def branch_direction(branch: BifurcationBranch) -> Direction:
    """Sign of the least-squares slope of c against a_1^2 over the five smallest a_1."""
    if len(branch.points) < 3:
        raise ValueError("need at least 3 small-amplitude points to orient a branch")
    pts = sorted(branch.points, key=lambda w: w.a1)[:5]
    a_sq = np.array([w.a1**2 for w in pts])
    c = np.array([w.c for w in pts])
    slope = np.polyfit(a_sq, c, 1)[0]
    return Direction.RIGHT if slope > 0 else Direction.LEFT
