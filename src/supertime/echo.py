"""Dynamics of the distant test particle under the two branch forces.

Force differences, Loschmidt-echo displacements, the Gaussian overlap of the
echoed state, and the position-vs-momentum discrimination comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, PhysicalConstants
from .errors import (
    DipoleApproximationError,
    NoEntanglementError,
    ValidationError,
    require,
    require_finite,
    require_nonnegative,
    require_positive,
)

__all__ = [
    "ForcePair",
    "GaussianState",
    "EchoResult",
    "force_difference_gravity",
    "force_difference_coulomb",
    "echo_displacements",
    "echo_overlap",
    "entanglement_time",
    "momentum_route_time",
    "trap_max_width",
]

# Validity gate for the dipole formula Delta F ~ d / R^3.
DIPOLE_GATE_RATIO = 0.1


@dataclass(frozen=True)
class ForcePair:
    """Branch forces on the test particle.

    ``F_L`` and ``F_R`` are the exact monopole forces for the two branch
    positions (diagnostics).  ``delta_F`` is the dipole-approximation force
    difference used by all bound derivations; note the exact monopole
    difference F_L - F_R equals 2 * delta_F to leading order in d/R.
    """

    F_L: float
    F_R: float
    delta_F: float


@dataclass(frozen=True)
class GaussianState:
    """Minimum-uncertainty Gaussian wavepacket.

    ``sigma`` is the position spread Delta X; the momentum spread is
    hbar / (2 sigma).
    """

    x0: float = 0.0
    p0: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        require_finite(x0=self.x0, p0=self.p0)
        require_positive(sigma=self.sigma)

    def momentum_spread(self, hbar: float = 1.0) -> float:
        return hbar / (2.0 * self.sigma)


@dataclass(frozen=True)
class EchoResult:
    """Phase-space content of the Loschmidt echo operator at time t."""

    delta_x: float
    delta_p: float
    cubic_phase: float
    time: float


def _dipole_pair(prefactor: float, d: float, R: float) -> ForcePair:
    """Branch forces prefactor / (R -+ d/2)^2 and the dipole difference prefactor d / R^3.

    Powers are written as products, not ``**``: numpy's SIMD ``**`` on
    arrays rounds some cubes and squares one ulp differently from a scalar
    power, but each IEEE multiplication is correctly rounded, in numpy's
    loops as in Python's floats, so a swept array gives exactly the values
    of its points one by one.
    """
    require_positive(d=d, R=R)
    require(d < DIPOLE_GATE_RATIO * R, DipoleApproximationError,
            "dipole approximation requires d < R/10, got d={d}, R={R}", d=d, R=R)
    near, far = R - d / 2.0, R + d / 2.0
    return ForcePair(
        F_L=prefactor / (near * near),
        F_R=prefactor / (far * far),
        delta_F=prefactor * d / (R * R * R),
    )


def force_difference_gravity(mA: float, mB: float, d: float, R: float,
                             constants: PhysicalConstants = CODATA) -> ForcePair:
    """Gravitational dipole force difference G mA mB d / R^3.

    Any argument may be an array of sweep values.
    """
    require_positive(mA=mA, mB=mB)
    return _dipole_pair(constants.G * mA * mB, d, R)


def force_difference_coulomb(qA: float, qB: float, d: float, R: float,
                             constants: PhysicalConstants = CODATA) -> ForcePair:
    """Coulomb dipole force difference qA qB d / (4 pi eps0 R^3).

    Charges may carry either sign; delta_F flips sign with them.  Any
    argument may be an array of sweep values.
    """
    require_finite(qA=qA, qB=qB)
    require((qA != 0.0) & (qB != 0.0), ValidationError, "charges must be nonzero")
    k = 1.0 / (4.0 * math.pi * constants.epsilon0)
    return _dipole_pair(k * qA * qB, d, R)


def echo_displacements(delta_F: float, mB: float, F_sum: float, t: float,
                       constants: PhysicalConstants = CODATA) -> EchoResult:
    """Displacements and cubic phase of the echo operator at time t.

    delta_x = dF t^2 / (2 mB), delta_p = -dF t, and the scalar phase
    dF (F_L + F_R) t^3 / (12 mB hbar).  Any argument may be an array, such
    as the times of an echo table; powers are products, as in ``_dipole_pair``.
    """
    require_positive(mB=mB)
    require_nonnegative(t=t)
    return EchoResult(
        delta_x=delta_F * (t * t) / (2.0 * mB),
        delta_p=-delta_F * t,
        cubic_phase=delta_F * F_sum * (t * t * t) / (12.0 * mB * constants.hbar),
        time=t,
    )


def echo_overlap(state: GaussianState, echo: EchoResult,
                 constants: PhysicalConstants = CODATA) -> float:
    """Modulus of the echoed-state overlap for a minimum-uncertainty Gaussian.

    |<phi| exp(i (dx P - dp X) / hbar) |phi>|
        = exp(-dx^2 / (8 sigma^2) - dp^2 sigma^2 / (2 hbar^2)).

    The cubic phase is a pure c-number and cannot change the modulus.
    For an ``echo`` over an array of times, the overlap is an array over them.
    """
    hbar = constants.hbar
    sigma = state.sigma
    dx, dp = echo.delta_x, echo.delta_p
    exponent = dx * dx / (8.0 * sigma**2) + dp * dp * sigma**2 / (2.0 * hbar**2)
    return np.exp(-exponent)


def entanglement_time(delta_F: float, mB: float, sigma: float, *,
                      convention: str = "trap") -> float:
    """Time for the position shift of the test particle to reach Delta X.

    ``convention="trap"`` gives sqrt(mB sigma / |dF|), under which the trap
    condition sigma^3 <= hbar^2/(mB dF) makes the position route exactly no
    slower than the momentum route.  ``convention="main_text"`` solves the
    main-text criterion dF T^2 / (2 mB sigma) = 1, sqrt(2) longer.
    Any argument but ``convention`` may be an array of sweep values.
    """
    factors = {"trap": 1.0, "main_text": 2.0}  # k in sqrt(k mB sigma / |dF|)
    if convention not in factors:
        raise ValidationError(f"convention must be 'trap' or 'main_text', got {convention!r}")
    require_positive(mB=mB, sigma=sigma)
    require_finite(delta_F=delta_F)
    require(delta_F != 0.0, NoEntanglementError, "delta_F = 0: entanglement is never generated")
    return np.sqrt(factors[convention] * mB * sigma / abs(delta_F))


def momentum_route_time(delta_F: float, sigma: float,
                        constants: PhysicalConstants = CODATA) -> float:
    """Time hbar / (|dF| sigma) to resolve the momentum kick."""
    require_positive(sigma=sigma)
    require_finite(delta_F=delta_F)
    require(delta_F != 0.0, NoEntanglementError, "delta_F = 0: momentum kick never resolvable")
    return constants.hbar / (abs(delta_F) * sigma)


def trap_max_width(mB: float, delta_F: float,
                   constants: PhysicalConstants = CODATA) -> float:
    """Largest trap width (hbar^2 / (mB |dF|))^(1/3) insensitive to dF."""
    require_positive(mB=mB)
    require_finite(delta_F=delta_F)
    require(delta_F != 0.0, NoEntanglementError, "delta_F = 0: any trap width is insensitive")
    return (constants.hbar**2 / (mB * abs(delta_F))) ** (1.0 / 3.0)
