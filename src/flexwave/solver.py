"""Steady traveling-wave solver: nonlocal residual, Newton iteration and
amplitude continuation of bifurcation branches.

The unknown vector is z = [c, a_2, ..., a_N] with the first cosine
coefficient a_1 held fixed as the continuation parameter.  The m-th residual
is the cos(m x) projection of

    sqrt((1+eta_x^2)(c^2 - 2 g eta - 2 D P_flex)) * (sinh(m eta) + cosh(m eta) tanh(m h)),

computed by trapezoidal quadrature on the 4x oversampled collocation grid.
The kernel K_m and its slope K'_m come from `core.depth_kernels`, the one
definition the Floquet operator shares; in infinite depth both are exp(m eta).

Newton's method uses the exact Jacobian of this discrete residual: the
derivatives of the weight and of the kernel are evaluated on the grid for all
unknowns at once and projected with two matrix products.  Newton evaluates
the surface (eta, the radicand, the weight and the kernels) once per iterate,
for both F and J.  Its stop test, its step limit and the tail test of mode
doubling are the constants RESIDUAL_TOL, MAX_NEWTON_ITERS and TAIL_THRESHOLD;
continuation stops at a fold once its step falls below MIN_STEP_FRACTION of
the configured step.
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
    depth_kernels,
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
    """Continuation step shrank below ``MIN_STEP_FRACTION`` of the
    configured a_1 step without convergence.

    Signals a fold or breakdown (e.g. approaching limiting waves).  The
    ``branch`` attribute carries the points computed so far.
    """

    def __init__(self, message: str, branch: "BifurcationBranch"):
        super().__init__(message)
        self.branch = branch


#: Newton stops when |F|_inf reaches this absolute tolerance.
RESIDUAL_TOL = 1e-10
#: Newton steps before :class:`NoConvergence`.
MAX_NEWTON_ITERS = 50
#: Relative size of the last Fourier coefficient that triggers mode doubling.
TAIL_THRESHOLD = 1e-12
#: Continuation gives up (:class:`StepUnderflow`) once repeated halving has
#: cut the a_1 step below this fraction of ``SolverConfig.amplitude_step``.
MIN_STEP_FRACTION = 2**-10


@dataclass(frozen=True)
class SolverConfig:
    """Continuation settings: initial mode count N, cap for mode doubling and
    a_1 step.  Newton's tolerances, the tail test and the 4x grid oversampling
    are fixed: see the module constants and `core.default_grid_size`."""

    n_modes: int = 32
    max_modes: int = 512
    amplitude_step: float = 1e-3

    def __post_init__(self):
        if not 0 < self.amplitude_step < math.inf:
            raise ValueError(f"amplitude_step must be positive and finite, got {self.amplitude_step}")
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
def _trig_tables(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(j x) and sin(j x) for j = 1..n on the M-point grid, as (n, M) arrays."""
    jx = np.outer(np.arange(1, n + 1), grid_points(m))
    return np.cos(jx), np.sin(jx)


def _evaluate(z, a1, params, model):
    """F at the unknowns z, and the surface its Jacobian needs: grid size M,
    the samples of eta, eta_x, the radicand R and the weight
    W = sqrt((1+eta_x^2) R), and the kernels K_m, K'_m."""
    n = z.size
    m_grid = default_grid_size(n)
    eta = eval_profile(SpectralProfile(np.concatenate(([a1], z[1:]))), m_grid)
    ex = grid_derivative(eta, 1)
    radicand = bernoulli_radicand(eta, z[0], params, model)
    weight = np.sqrt((1.0 + ex**2) * radicand)
    kernel, kernel_slope = depth_kernels(np.arange(1, n + 1), eta, params.h)
    f = (2.0 * np.pi / m_grid) * np.einsum("ni,ni->n", _trig_tables(n, m_grid)[0], weight[None, :] * kernel)
    return f, (m_grid, eta, ex, radicand, weight, kernel, kernel_slope)


def _jacobian_at(surface, z, a1, params, model):
    """:func:`jacobian` from the surface that :func:`_evaluate` returned at z."""
    m_grid, eta, ex, radicand, weight, kernel, kernel_slope = surface
    if weight.min() <= 0.0:
        raise SingularJacobian(f"the weight W vanishes at a1={a1:.3e}, c={z[0]:.6g}")
    n = z.size
    s = 1.0 + ex**2
    cos_mx, sin_mx = _trig_tables(n, m_grid)
    v = cos_mx[1:]
    v_x = -np.arange(2, n + 1)[:, None] * sin_mx[1:]
    d_rad = -2.0 * params.g * v - 2.0 * params.D * p_flex_derivative_grid(eta, v, model)
    d_weight = np.empty((n, m_grid))
    d_weight[0] = s * z[0] / weight
    d_weight[1:] = (2.0 * ex * v_x * radicand + s * d_rad) / (2.0 * weight)
    jac = (cos_mx * kernel) @ d_weight.T
    jac[:, 1:] += (np.arange(1, n + 1)[:, None] * cos_mx * weight * kernel_slope) @ v.T
    return (2.0 * np.pi / m_grid) * jac


def residual(z: np.ndarray, a1: float, params: PhysicalParams, model: IceModel) -> np.ndarray:
    """Cosine projections F_m, m = 1..N, of the steady nonlocal equation.

    Flat water gives an identically zero residual at any speed; the residual
    vanishes to O(a1^2) at the bifurcation point seed.
    """
    return _evaluate(np.asarray(z, dtype=float), a1, params, model)[0]


def jacobian(z: np.ndarray, a1: float, params: PhysicalParams, model: IceModel) -> np.ndarray:
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
    return _jacobian_at(_evaluate(z, a1, params, model)[1], z, a1, params, model)


def newton_solve(z0: np.ndarray, a1: float, params: PhysicalParams, model: IceModel) -> TravelingWave:
    """Solve F(z) = 0 by Newton's method with the exact :func:`jacobian`.

    Returns the converged wave; raises :class:`NoConvergence` after
    ``MAX_NEWTON_ITERS`` steps or once F is not finite, :class:`SingularJacobian`
    if the Jacobian is undefined or the linear solve fails, or propagates
    :class:`NonpositiveRadicand` from a bad iterate.
    """
    z = np.asarray(z0, dtype=float).copy()
    for iteration in range(MAX_NEWTON_ITERS + 1):
        f, surface = _evaluate(z, a1, params, model)
        f_inf = np.max(np.abs(f))
        if f_inf <= RESIDUAL_TOL:
            break
        if not np.isfinite(f_inf) or iteration == MAX_NEWTON_ITERS:
            raise NoConvergence(f"|F|_inf = {f_inf:.3e} after {iteration} iterations")
        try:
            dz = np.linalg.solve(_jacobian_at(surface, z, a1, params, model), f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        z = z - dz
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
    if not 0 < a1_max < math.inf:
        raise ValueError(f"a1_max must be positive and finite, got {a1_max}")
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
            wave = newton_solve(guess, a1_try, params, model)
            while _tail_ratio(wave) > TAIL_THRESHOLD and 2 * wave.profile.n_modes <= config.max_modes:
                n = 2 * wave.profile.n_modes
                guess = np.concatenate(([wave.c], wave.profile.coeffs[1:], np.zeros(n - wave.profile.n_modes)))
                wave = newton_solve(guess, a1_try, params, model)
        except (NoConvergence, SingularJacobian, NonpositiveRadicand):
            step *= 0.5
            if step < config.amplitude_step * MIN_STEP_FRACTION:
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
