"""Driven correlated two-particle trap model.

Static spectral structure of the pair's one-matrix, exact time evolution
under a finite confinement pulse via the Ermakov width equation, the
resulting sign-dependent energy shifts, overlaps and Berry connection, and
a classical collision-time mapping from projectile velocity to pulse rate.
"""

__version__ = "0.1.0"

from .model import (
    GridSpec,
    ModelParams,
    ModeSet,
    OccupationSpectrum,
    derive_modes,
    density,
    entropies,
    gamma1_static,
    model_wavefunction,
    natural_orbital,
    occupation_spectrum,
)
from .dynamics import (
    IonizationRegimeError,
    OneMatrixSnapshot,
    Pulse,
    ReflectionResult,
    Trajectory,
    analytic_reflection,
    check_admissible,
    extract_reflection,
    gamma1_time,
    integrate_mode,
    omega_squared,
    onematrix_snapshot,
    snapshot_series,
)
from .observables import (
    EnergyShiftReport,
    TransitionWeights,
    abrupt_reflection,
    berry_connection,
    born_shift,
    energy_shift,
    energy_shift_report,
    overlap,
    statistical_shift,
    sudden_shift,
    total_shift,
    transition_weights,
)
from .collision import (
    CollisionParams,
    collision_time_avg,
    collision_time_exact,
    sign_effect_ratio,
)

__all__ = [
    "__version__",
    "GridSpec",
    "ModelParams",
    "ModeSet",
    "OccupationSpectrum",
    "derive_modes",
    "density",
    "entropies",
    "gamma1_static",
    "model_wavefunction",
    "natural_orbital",
    "occupation_spectrum",
    "IonizationRegimeError",
    "OneMatrixSnapshot",
    "Pulse",
    "ReflectionResult",
    "Trajectory",
    "analytic_reflection",
    "check_admissible",
    "extract_reflection",
    "gamma1_time",
    "integrate_mode",
    "omega_squared",
    "onematrix_snapshot",
    "snapshot_series",
    "EnergyShiftReport",
    "TransitionWeights",
    "abrupt_reflection",
    "berry_connection",
    "born_shift",
    "energy_shift",
    "energy_shift_report",
    "overlap",
    "statistical_shift",
    "sudden_shift",
    "total_shift",
    "transition_weights",
    "CollisionParams",
    "collision_time_avg",
    "collision_time_exact",
    "sign_effect_ratio",
]
