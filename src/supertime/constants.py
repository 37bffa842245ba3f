"""Fundamental constants, Planck scales, and SI <-> natural-unit conversion.

The natural-unit system sets hbar = c = epsilon_0 = 1 with one free scale,
the reference length ``length_unit`` (1 m by default).  In this system the
Planck charge squared equals 4*pi, which is the convention all field-theory
modules rely on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ValidationError, require_positive

__all__ = [
    "PhysicalConstants",
    "PlanckScales",
    "Dimension",
    "CODATA",
    "planck_scales",
    "to_natural",
    "from_natural",
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


class Dimension(enum.Enum):
    """Dimension tags recognized by the unit converter."""

    MASS = "mass"
    CHARGE = "charge"
    LENGTH = "length"
    TIME = "time"
    MOMENTUM = "momentum"


def _si_per_natural(dimension: Dimension, constants: PhysicalConstants,
                    length_unit: float) -> float:
    """SI value of one natural unit of the given dimension."""
    hbar, c, eps0 = constants.hbar, constants.c, constants.epsilon0
    if dimension is Dimension.LENGTH:
        return length_unit
    if dimension is Dimension.TIME:
        return length_unit / c
    if dimension is Dimension.MOMENTUM:
        return hbar / length_unit
    if dimension is Dimension.MASS:
        return hbar / (c * length_unit)
    if dimension is Dimension.CHARGE:
        # q_natural = q / sqrt(eps0 hbar c), so q_P -> sqrt(4 pi).
        return math.sqrt(eps0 * hbar * c)
    raise ValidationError(f"unknown dimension tag: {dimension!r}")


def to_natural(value: float, dimension: Dimension,
               constants: PhysicalConstants = CODATA,
               length_unit: float = 1.0) -> float:
    """Convert an SI quantity to the natural-unit system (hbar=c=eps0=1)."""
    if not isinstance(dimension, Dimension):
        raise ValidationError(f"unknown dimension tag: {dimension!r}")
    return value / _si_per_natural(dimension, constants, length_unit)


def from_natural(value: float, dimension: Dimension,
                 constants: PhysicalConstants = CODATA,
                 length_unit: float = 1.0) -> float:
    """Inverse of :func:`to_natural`."""
    if not isinstance(dimension, Dimension):
        raise ValidationError(f"unknown dimension tag: {dimension!r}")
    return value * _si_per_natural(dimension, constants, length_unit)
