"""Periodic flexural-gravity water waves: traveling-wave solver, Floquet
spectral stability and the matching weakly nonlinear asymptotics."""

from .core import (
    INFINITE_DEPTH,
    GridFunction,
    IceModel,
    NonpositiveRadicand,
    NumericalFailure,
    PhysicalParams,
    SpectralProfile,
    TravelingWave,
    eval_profile,
)
from .solver import (
    BifurcationBranch,
    Direction,
    NoConvergence,
    SingularJacobian,
    SolverConfig,
    StepUnderflow,
    bifurcation_speed,
    branch_direction,
    continue_branch,
    newton_solve,
    residual,
)
from .theory import (
    CollisionRecord,
    FiniteDepthUnsupported,
    NlsCoefficients,
    NoPositiveRoot,
    WiltonPole,
    c_nls,
    dispersion,
    find_collisions,
    flat_eigenvalues,
    growth_rate,
    nls_coefficients,
    resonant_rigidity,
    second_harmonic,
)

__version__ = "0.1.0"
