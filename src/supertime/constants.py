"""Fundamental constants and Planck scales.

Values are in SI units.  Modules that work in natural units (hbar = c =
epsilon_0 = 1) convert at their own boundary; in those units the Planck
charge squared equals 4*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import require_positive

__all__ = [
    "PhysicalConstants",
    "PlanckScales",
    "CODATA",
    "planck_scales",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """SI values of the fundamental constants entering the bounds.

    Defaults are the CODATA recommended values (exact where the SI fixes
    them).  All fields must be strictly positive.
    """

    hbar: float = 1.054571817e-34       # J s
    c: float = 2.99792458e8             # m / s
    G: float = 6.67430e-11              # m^3 / (kg s^2)
    epsilon0: float = 8.8541878128e-12  # F / m

    def __post_init__(self):
        require_positive(hbar=self.hbar, c=self.c, G=self.G, epsilon0=self.epsilon0)


CODATA = PhysicalConstants()


@dataclass(frozen=True)
class PlanckScales:
    """Planck mass, charge and length in SI units."""

    m_P: float  # kg
    q_P: float  # C
    l_P: float  # m


def planck_scales(constants: PhysicalConstants = CODATA) -> PlanckScales:
    """Planck scales from their defining formulas.

    m_P = sqrt(hbar c / G), q_P = sqrt(4 pi epsilon0 hbar c),
    l_P = sqrt(hbar G / c^3).
    """
    hbar, c, G, eps0 = constants.hbar, constants.c, constants.G, constants.epsilon0
    return PlanckScales(
        m_P=math.sqrt(hbar * c / G),
        q_P=math.sqrt(4.0 * math.pi * eps0 * hbar * c),
        l_P=math.sqrt(hbar * G / c**3),
    )

