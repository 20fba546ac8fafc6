"""Steady traveling-wave solver: nonlocal residual, Newton iteration and
amplitude continuation of bifurcation branches.

The unknown vector is z = [c, a_2, ..., a_N] with the first cosine
coefficient a_1 held fixed as the continuation parameter.  The m-th residual
is the cos(m x) projection of

    sqrt((1+eta_x^2)(c^2 - 2 eta - 2 D P_flex)) * (sinh(m eta) + cosh(m eta) tanh(m h)),

computed by trapezoidal quadrature on the 4x oversampled collocation grid.
The kernel K_m and its slope K'_m come from `core.depth_kernels`, the one
definition the Floquet operator shares; in infinite depth both are exp(m eta).

Newton's Jacobian is exact for the linear ice model; for the Toland model
it differs from dF only by the aliasing in `core.p_flex_derivative_grid`.
It is evaluated on the grid for all unknowns at once and projected with two
matrix products.  Newton evaluates the surface (eta and its derivatives, the
radicand, the weight and the kernels) once per iterate, for both F and J.  Once |F|_inf meets RESIDUAL_TOL, one chord step with the
last Jacobian follows, and the iterate with the smaller |F|_inf is kept, so
every returned point sits at the rounding floor of the residual rather than
just under the tolerance.  Newton's step limit and the tail test of mode
doubling are the constants MAX_NEWTON_ITERS and TAIL_THRESHOLD.

Continuation predicts each point from the quadratic in a_1 through the last
three accepted points (fewer at the start of a branch or after a resume),
so that one Newton step usually suffices; it stops at a fold once its step
falls below MIN_STEP_FRACTION of the configured step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import (
    IceModel,
    NonpositiveRadicand,
    NumericalFailure,
    PhysicalParams,
    SpectralProfile,
    TravelingWave,
    bernoulli_radicand,
    default_grid_size,
    depth_kernels,
    eval_profile,
    grid_derivative,  # not called here; perfbench/test_bench.py probes this binding
    grid_points,
    p_flex_derivative_grid,
)
from .theory import dispersion_derivatives


class NoConvergence(RuntimeError, NumericalFailure):
    """Newton iteration failed to reach the residual tolerance."""


class SingularJacobian(RuntimeError, NumericalFailure):
    """The Newton Jacobian is singular or undefined at the iterate."""


class StepUnderflow(RuntimeError, NumericalFailure):
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
    are fixed: see the module constants and `core.default_grid_size`.

    The default N = 16 is the largest mode count that the 64-point floor of
    `core.default_grid_size` already pays for; `continue_branch` doubles it
    at each point whose last coefficient fails the tail test, up to
    ``max_modes``."""

    n_modes: int = 16
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


def bifurcation_speed(params: PhysicalParams) -> float:
    """Speed omega(1) = sqrt(tanh(h)(1 + D)) at which the k=1 branch leaves flat water."""
    return dispersion_derivatives(1.0, params)[0]


@lru_cache(maxsize=32)
def _trig_tables(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(j x) and sin(j x) for j = 1..n on the M-point grid, as (n, M) arrays."""
    jx = np.outer(np.arange(1, n + 1), grid_points(m))
    return np.cos(jx), np.sin(jx)


def _evaluate(z, a1, params, model):
    """F at the unknowns z, and the surface its Jacobian needs: grid size M,
    the stack eta, eta_x, ..., eta_xxxx of `core.eval_profile`, the radicand
    R and the weight W = sqrt((1+eta_x^2) R), and the kernels K_m, K'_m."""
    n = z.size
    m_grid = default_grid_size(n)
    eta = eval_profile(SpectralProfile(np.concatenate(([a1], z[1:]))), m_grid)
    radicand = bernoulli_radicand(eta, z[0], params, model)
    weight = np.sqrt((1.0 + eta[1] ** 2) * radicand)
    kernel, kernel_slope = depth_kernels(np.arange(1, n + 1), eta[0], params.h)
    f = (2.0 * np.pi / m_grid) * np.einsum("ni,ni->n", _trig_tables(n, m_grid)[0], weight[None, :] * kernel)
    return f, (m_grid, eta, radicand, weight, kernel, kernel_slope)


def _jacobian_at(surface, z, a1, params, model):
    """Jacobian dF_m/dz_j of :func:`residual`, (N, N), from the surface that
    :func:`_evaluate` returned at z.

    With S = 1+eta_x^2, R the radicand and W = sqrt(S R), column 0 (the
    speed) uses dW/dc = S c / W.  Column j >= 1 perturbs eta by v = cos((j+1) x):

        dR = -2 v - 2 D P_flex'(eta)[v],
        dW = (2 eta_x v_x R + S dR) / (2 W),
        dF_m = (2 pi/M) sum_x cos(m x) [dW K_m + W m v K'_m].

    Raises :class:`SingularJacobian` where W vanishes (flat water at rest),
    since W is not differentiable there.
    """
    m_grid, eta, radicand, weight, kernel, kernel_slope = surface
    if weight.min() <= 0.0:
        raise SingularJacobian(f"the weight W vanishes at a1={a1:.3e}, c={z[0]:.6g}")
    n = z.size
    s = 1.0 + eta[1] ** 2
    cos_mx, sin_mx = _trig_tables(n, m_grid)
    v = cos_mx[1:]
    v_x = -np.arange(2, n + 1)[:, None] * sin_mx[1:]
    d_rad = -2.0 * v - 2.0 * params.D * p_flex_derivative_grid(eta, v, model)
    d_weight = np.empty((n, m_grid))
    d_weight[0] = s * z[0] / weight
    d_weight[1:] = (2.0 * eta[1] * v_x * radicand + s * d_rad) / (2.0 * weight)
    jac = (cos_mx * kernel) @ d_weight.T
    jac[:, 1:] += (np.arange(1, n + 1)[:, None] * cos_mx * weight * kernel_slope) @ v.T
    return (2.0 * np.pi / m_grid) * jac


def residual(z: np.ndarray, a1: float, params: PhysicalParams, model: IceModel) -> np.ndarray:
    """Cosine projections F_m, m = 1..N, of the steady nonlocal equation.

    Flat water gives an identically zero residual at any speed; the residual
    vanishes to O(a1^2) at the bifurcation point seed.
    """
    return _evaluate(np.asarray(z, dtype=float), a1, params, model)[0]


def newton_solve(z0: np.ndarray, a1: float, params: PhysicalParams, model: IceModel,
                 *, min_steps: int = 0) -> TravelingWave:
    """Solve F(z) = 0 by Newton's method with :func:`_jacobian_at`,
    finished by one chord step.

    Newton steps until |F|_inf <= ``RESIDUAL_TOL``, and at least
    ``min_steps`` times.  After at least one step, one chord step with the
    last Jacobian follows, and of the last Newton iterate and the chord
    iterate the one with the smaller |F|_inf is returned: the chord step
    costs one residual and no Jacobian and takes a point that has just met
    the tolerance to the rounding floor, and keeping the smaller means that
    rounding noise in the chord step never makes the result worse.  With
    ``min_steps`` 0, a guess that already meets the tolerance is returned
    unchanged.  The wave records |F|_inf at the returned iterate and the
    number of Newton steps taken (``residual_inf``, ``newton_steps``).

    Raises :class:`NoConvergence` after ``MAX_NEWTON_ITERS`` steps or once F
    is not finite, :class:`SingularJacobian` if the Jacobian is undefined or
    the linear solve fails, or propagates :class:`NonpositiveRadicand` from a
    bad iterate.
    """
    z = np.asarray(z0, dtype=float).copy()
    f, surface = _evaluate(z, a1, params, model)
    f_inf = np.max(np.abs(f))
    for steps in range(MAX_NEWTON_ITERS + 1):
        if f_inf <= RESIDUAL_TOL and steps >= min_steps:
            break
        if not np.isfinite(f_inf) or steps == MAX_NEWTON_ITERS:
            raise NoConvergence(f"|F|_inf = {f_inf:.3e} after {steps} iterations")
        jac = _jacobian_at(surface, z, a1, params, model)
        try:
            z = z - np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        f, surface = _evaluate(z, a1, params, model)
        f_inf = np.max(np.abs(f))
    if steps:
        # the same matrix was solved without error one step ago
        z_chord = z - np.linalg.solve(jac, f)
        f_chord = np.max(np.abs(_evaluate(z_chord, a1, params, model)[0]))
        if f_chord < f_inf:
            z, f_inf = z_chord, f_chord
    coeffs = np.concatenate(([a1], z[1:]))
    return TravelingWave(profile=SpectralProfile(coeffs), c=float(z[0]), params=params, model=model,
                         residual_inf=float(f_inf), newton_steps=steps)


def _tail_ratio(wave: TravelingWave) -> float:
    coeffs = np.abs(wave.profile.coeffs)
    peak = coeffs.max()
    return coeffs[-1] / peak if peak > 0 else 0.0


def _unknowns(wave: TravelingWave) -> np.ndarray:
    return np.concatenate(([wave.c], wave.profile.coeffs[1:]))


def _predict(history: list[tuple[float, np.ndarray]], a1: float) -> np.ndarray:
    """The polynomial in a_1 through the accepted points (a_1, z) of
    ``history``, evaluated at ``a1``; shorter z are padded with zeros, the
    coefficients of the modes they lack."""
    guess = np.zeros(max(z.size for _, z in history))
    for i, (a_i, z_i) in enumerate(history):
        weight = math.prod((a1 - a_j) / (a_i - a_j) for j, (a_j, _) in enumerate(history) if j != i)
        guess[: z_i.size] += weight * z_i
    return guess


def continue_branch(params: PhysicalParams, model: IceModel, a1_max: float,
                    config: SolverConfig | None = None,
                    start: TravelingWave | None = None) -> BifurcationBranch:
    """Continue the branch from the flat-water bifurcation point up to a1_max.

    Each guess is the quadratic in a_1 through the last three accepted
    points, the bifurcation point included; at the start, and after a
    resume from a converged ``start`` wave, fewer points give a constant or
    linear guess.  A point accepted after a mode doubling enters the
    predictor as it is, and the earlier points are padded with zeros.  The
    step halves on Newton failure and the mode count doubles whenever the
    last Fourier coefficient fails the relative tail test.  The zero-padded
    guess of a doubling already meets the tolerance, so its solve takes at
    least one Newton step, which gives the new modes their values.  Every
    point is returned by :func:`newton_solve`, so it sits at the rounding
    floor of the residual and carries its Newton record; its
    ``newton_steps`` counts the steps of every solve at its a_1, those
    after a mode doubling included.  The branch stops once a_1 is within 1e-15 of a1_max, but it
    holds at least one point, at a1_max, whenever a1_max exceeds the start.
    """
    if not 0 < a1_max < math.inf:
        raise ValueError(f"a1_max must be positive and finite, got {a1_max}")
    config = config or SolverConfig()
    if start is not None:
        history = [(start.a1, _unknowns(start))]
    else:
        z = np.zeros(config.n_modes)
        z[0] = bifurcation_speed(params)
        history = [(0.0, z)]
    a1 = history[-1][0]
    branch = BifurcationBranch(params=params, model=model, points=[])

    step = min(config.amplitude_step, max(a1_max - a1, config.amplitude_step * 1e-6))
    while a1 < a1_max - 1e-15 or (not branch.points and a1 < a1_max):
        a1_try = min(a1 + step, a1_max)
        try:
            wave = newton_solve(_predict(history, a1_try), a1_try, params, model)
            while _tail_ratio(wave) > TAIL_THRESHOLD and 2 * wave.profile.n_modes <= config.max_modes:
                n = 2 * wave.profile.n_modes
                guess = np.concatenate((_unknowns(wave), np.zeros(n - wave.profile.n_modes)))
                refined = newton_solve(guess, a1_try, params, model, min_steps=1)
                wave = replace(refined, newton_steps=wave.newton_steps + refined.newton_steps)
        except (NoConvergence, SingularJacobian, NonpositiveRadicand):
            step *= 0.5
            if step < config.amplitude_step * MIN_STEP_FRACTION:
                raise StepUnderflow(f"continuation stalled at a1 = {a1:.6g}", branch) from None
            continue
        branch.points.append(wave)
        a1 = a1_try
        history = [*history[-2:], (a1, _unknowns(wave))]
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
