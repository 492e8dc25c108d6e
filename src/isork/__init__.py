"""Isospectral symplectic SDIRK integrators on quadratic matrix Lie algebras.

The steppers advance matrix flows mu_dot = [B(mu), mu] through Cayley
similarity transforms, so eigenvalues and trace Casimirs are conserved
to roundoff while the underlying Runge-Kutta scheme keeps its
symplectic energy behavior.  Ships with three benchmark systems (free
rigid body, periodic Toda in extended form, Zeitlin's sphere
truncation), drift diagnostics with deterministic CSV output, and an
experiment CLI (`isork`).
"""

from .diagnostics import (
    ConvergenceReport,
    Recorder,
    TrajectoryRecord,
    convergence_study,
    read_csv,
    run_recorded,
    write_csv,
)
from .integrator import (
    CotangentStage,
    CotangentState,
    NonConvergenceError,
    StageLinAlgError,
    StageState,
    StepperConfig,
    classical_rk4_step,
    cotangent_lift,
    cotangent_sdirk_step,
    gawlik_step,
    isospectral_sdirk_step,
    momentum_map,
    run_trajectory,
    solve_stage,
)
from .quadlie import (
    QuadraticStructure,
    SplitMix64,
    cayley,
    cayley_conjugate,
    commutator,
    dcay,
    dcay_inv,
    frobenius_pairing,
    membership_residuals,
    orthogonal_structure,
    random_algebra_element,
    special_unitary_structure,
    spectrum,
)
from .systems import (
    IsospectralSystem,
    RigidBody,
    TodaExtended,
    ZeitlinSphere,
    casimirs,
    toda_extended_B,
    toda_extended_H,
    toda_lax_matrices,
    zeitlin_laplacian,
    zeitlin_laplacian_inv,
    zeitlin_spin_generators,
)
from .tableau import (
    BUILTIN_TABLEAUS,
    SdirkTableau,
    builtin,
    order_conditions,
    parse_custom,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_TABLEAUS",
    "ConvergenceReport",
    "CotangentStage",
    "CotangentState",
    "IsospectralSystem",
    "NonConvergenceError",
    "QuadraticStructure",
    "Recorder",
    "RigidBody",
    "SdirkTableau",
    "SplitMix64",
    "StageLinAlgError",
    "StageState",
    "StepperConfig",
    "TodaExtended",
    "TrajectoryRecord",
    "ZeitlinSphere",
    "builtin",
    "casimirs",
    "cayley",
    "cayley_conjugate",
    "classical_rk4_step",
    "commutator",
    "convergence_study",
    "cotangent_lift",
    "cotangent_sdirk_step",
    "dcay",
    "dcay_inv",
    "frobenius_pairing",
    "gawlik_step",
    "isospectral_sdirk_step",
    "membership_residuals",
    "momentum_map",
    "orthogonal_structure",
    "order_conditions",
    "parse_custom",
    "random_algebra_element",
    "read_csv",
    "run_recorded",
    "run_trajectory",
    "solve_stage",
    "special_unitary_structure",
    "spectrum",
    "toda_extended_B",
    "toda_extended_H",
    "toda_lax_matrices",
    "write_csv",
    "zeitlin_laplacian",
    "zeitlin_laplacian_inv",
    "zeitlin_spin_generators",
    "__version__",
]
