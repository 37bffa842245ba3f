"""Closed-form minimum discrimination times and localization limits.

All bounds are returned exactly as written, without hidden order-unity
factors; the sharp 2/27 constant coming from the causality optimization is
exposed only through :func:`sharp_min_time`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .constants import CODATA, PhysicalConstants, planck_scales
from .errors import ValidationError, require_positive

__all__ = [
    "Kind",
    "SuperpositionSpec",
    "SHARP_BOUND_CONSTANT",
    "min_time",
    "sharp_min_time",
    "min_localization_mass",
    "charge_radius",
]

# Exact constant from optimizing eta^2 - eta^3 over [0, 1].
SHARP_BOUND_CONSTANT = 2.0 / 27.0


class Kind(enum.Enum):
    MASS = "mass"
    CHARGE = "charge"


@dataclass(frozen=True)
class SuperpositionSpec:
    """A macroscopic superposition: what is superposed and how far apart.

    ``magnitude`` is a mass in kg for kind=MASS, a charge in C for
    kind=CHARGE.  ``separation_d`` is the spatial separation in m.  Either
    may be an array of sweep values; every function of this module then
    returns the array of its values at each point.
    """

    kind: Kind
    magnitude: float
    separation_d: float

    def __post_init__(self):
        if not isinstance(self.kind, Kind):
            raise ValidationError(f"kind must be a Kind, got {self.kind!r}")
        require_positive(magnitude=self.magnitude, separation_d=self.separation_d)

    def planck_ratio(self, constants: PhysicalConstants = CODATA) -> float:
        """magnitude / (Planck mass or Planck charge)."""
        scales = planck_scales(constants)
        ref = scales.m_P if self.kind is Kind.MASS else scales.q_P
        return self.magnitude / ref


def min_time(spec: SuperpositionSpec,
             constants: PhysicalConstants = CODATA) -> float:
    """Minimum discrimination time ratio * (d / c), ratio = m / m_P or q / q_P."""
    return spec.planck_ratio(constants) * spec.separation_d / constants.c


def sharp_min_time(spec: SuperpositionSpec,
                   constants: PhysicalConstants = CODATA) -> float:
    """Sharp causality bound (2/27) * ratio * d / c."""
    return SHARP_BOUND_CONSTANT * spec.planck_ratio(constants) * spec.separation_d / constants.c


def min_localization_mass(constants: PhysicalConstants = CODATA) -> float:
    """Minimum localization of any mass: the Planck length."""
    return planck_scales(constants).l_P


def charge_radius(q: float, m: float,
                  constants: PhysicalConstants = CODATA) -> float:
    """Charge radius (q / q_P) * hbar / (m c): minimum localization of a charge.

    This is a scaling limit; the paper-level order-unity constant is not fixed.
    """
    require_positive(q=q, m=m)
    ratio = q / planck_scales(constants).q_P
    return ratio * constants.hbar / (m * constants.c)

