"""No-signaling audit: entanglement times, the eta optimization, timelines.

The chain is the main-text one: dipole force difference, test particle
localized at its fundamental limit, entanglement criterion
dF T_B^2 / (2 mB DX) = 1 taken as exact equality, causality inequality
T_A + T_B >= R / c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds, echo
from .bounds import Kind, SuperpositionSpec
from .constants import CODATA, PhysicalConstants
from .errors import ValidationError, require, require_finite, require_nonnegative, require_positive

__all__ = [
    "Scenario",
    "TimelineReport",
    "force_pair",
    "tb_at_localization_limit",
    "optimize_eta",
    "audit_timeline",
]

_AUDIT_REL_TOL = 1e-12  # rounding slack of the audit's T_A + T_B >= R/c


@dataclass(frozen=True)
class Scenario:
    """Full parameter set of the thought experiment.

    ``sigma`` is the localization of the test particle; when omitted it
    defaults to the relevant fundamental limit (Planck length for the mass
    case, the charge radius for the charge case).  ``bob_charge``, the test
    particle's charge, is given in a charge scenario and only there.  Any
    number here, the ``alice`` fields included, may be an array of sweep
    values, and every function of this module then returns arrays over the
    sweep.
    """

    alice: SuperpositionSpec
    bob_mass: float
    R: float
    bob_charge: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        require_positive(bob_mass=self.bob_mass, R=self.R)
        if self.alice.kind is Kind.MASS:
            if self.bob_charge is not None:
                raise ValidationError("bob_charge: a mass scenario reads no charge; remove it")
        elif self.bob_charge is None:
            raise ValidationError("charge scenario requires a nonzero bob_charge")
        else:
            require_finite(bob_charge=self.bob_charge)
            require(self.bob_charge != 0.0, ValidationError,
                    "charge scenario requires a nonzero bob_charge")

    def min_localization(self, constants: PhysicalConstants = CODATA) -> float:
        if self.alice.kind is Kind.MASS:
            return bounds.min_localization_mass(constants)
        return bounds.charge_radius(abs(self.bob_charge), self.bob_mass, constants)

    def effective_sigma(self, constants: PhysicalConstants = CODATA) -> float:
        limit = self.min_localization(constants)
        if self.sigma is None:
            return limit
        require_positive(sigma=self.sigma)
        require(self.sigma >= limit, ValidationError,
                "sigma={sigma} below the localization limit {limit}",
                sigma=self.sigma, limit=limit)
        return self.sigma


@dataclass(frozen=True)
class TimelineReport:
    """Outcome of the causality audit for one scenario."""

    T_B: float
    T_A_bound: float
    eta: float
    satisfied: bool


def force_pair(scenario: Scenario,
               constants: PhysicalConstants = CODATA) -> echo.ForcePair:
    """Branch forces on the test particle: gravitational or Coulomb by kind."""
    a = scenario.alice
    if a.kind is Kind.MASS:
        return echo.force_difference_gravity(
            a.magnitude, scenario.bob_mass, a.separation_d, scenario.R, constants)
    return echo.force_difference_coulomb(
        a.magnitude, scenario.bob_charge, a.separation_d, scenario.R, constants)


def tb_at_localization_limit(scenario: Scenario,
                             constants: PhysicalConstants = CODATA) -> float:
    """Entanglement time with the test particle at its localization limit.

    Solves dF T_B^2 / (2 mB sigma) = 1 with the dipole dF; independent of the
    test particle's own mass (and charge) after the cancellations.
    """
    return _at_localization_limit(scenario, constants)[2]


def _at_localization_limit(scenario: Scenario, constants: PhysicalConstants
                           ) -> tuple[echo.ForcePair, float, float]:
    """The force pair, the test particle's sigma and ``tb_at_localization_limit``,
    each evaluated once."""
    pair = force_pair(scenario, constants)
    sigma = scenario.effective_sigma(constants)
    return pair, sigma, echo.entanglement_time(pair.delta_F, scenario.bob_mass, sigma,
                                               convention="main_text")


def optimize_eta(alice: SuperpositionSpec,
                 constants: PhysicalConstants = CODATA) -> tuple[float, float]:
    """Maximize f(eta) = eta^2 - eta^3 on [0, 1] numerically.

    Returns (eta_star, T_A bound) with the bound
    (1/2) * ratio * (d/c) * f(eta_star).  The analytic answer eta_star = 2/3,
    f = 4/27 serves as the test oracle.
    """
    # The stationary points are the roots of f'(eta) = 2 eta - 3 eta^2, both
    # real, the eigenvalues of its companion matrix; the ends of [0, 1] are
    # candidates too.
    eta = np.append(np.roots([-3.0, 2.0, 0.0]), [0.0, 1.0])
    eta = eta[(eta >= 0.0) & (eta <= 1.0)]
    eta_star = float(eta[np.argmax(eta**2 - eta**3)])
    f_star = eta_star**2 - eta_star**3
    bound = 0.5 * alice.planck_ratio(constants) * alice.separation_d / constants.c * f_star
    return eta_star, bound


def audit_timeline(scenario: Scenario, T_A: float,
                   constants: PhysicalConstants = CODATA) -> TimelineReport:
    """Check T_A + T_B >= R/c for the given scenario and measurement time."""
    require_nonnegative(T_A=T_A)
    T_B = tb_at_localization_limit(scenario, constants)
    light_time = scenario.R / constants.c
    satisfied = T_A + T_B >= light_time * (1.0 - _AUDIT_REL_TOL)
    return TimelineReport(
        T_B=T_B,
        T_A_bound=T_A,
        eta=constants.c * T_B / scenario.R,
        satisfied=satisfied,
    )
