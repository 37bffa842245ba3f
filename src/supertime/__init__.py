"""Minimum discrimination times for macroscopic quantum superpositions.

Cross-verified toolkit covering Planck-scale lower bounds, Loschmidt-echo
which-path detection, the causality chain fixing the sharp 2/27 constant,
photon emission from moving charges, vacuum-fluctuation measurement noise,
momentum-space interferometric discrimination, and a brute-force grid
propagation oracle.
"""

# The single source of the version: packaging metadata (pyproject.toml)
# and the CLI's .meta.json sidecar both read it from here.
__version__ = "1.0.0"

from .bounds import (
    SHARP_BOUND_CONSTANT,
    Kind,
    SuperpositionSpec,
    charge_radius,
    min_localization_mass,
    min_time,
    sharp_min_time,
)
from .causality import Scenario, TimelineReport, audit_timeline, optimize_eta
from .constants import CODATA, PhysicalConstants, PlanckScales, planck_scales
from .echo import (
    EchoResult,
    ForcePair,
    GaussianState,
    echo_displacements,
    echo_overlap,
    entanglement_time,
    force_difference_coulomb,
    force_difference_gravity,
)
from .errors import (
    DipoleApproximationError,
    DivergentIntegralError,
    GridError,
    NoEntanglementError,
    RelativisticMotionError,
    SupertimeError,
    ValidationError,
)
from .interference import (
    Hypothesis,
    SuperposedWavepacket,
    discriminate,
    momentum_density_coherent,
    momentum_density_mixed,
    power_curve,
    required_precision,
    sample_momenta,
    spin_protocol_visibility,
)
from .radiation import (
    SIN2_EXPONENT_CONSTANT,
    DisplacementFunction,
    ModeGrid,
    Shape,
    TrajectoryProfile,
    coherent_overlap,
    displacement_from_trajectory,
    min_radiationless_time,
    mode_integral,
    vacuum_overlap,
    velocity_fourier,
)
from .vacuum import (
    MIN_TIME_PREFACTOR,
    WindowFunction,
    WindowShape,
    averaged_variance,
    instantaneous_variance,
    min_measurement_time,
    momentum_error,
    window_fourier,
)

__all__ = [name for name in dir() if not name.startswith("_")]
