"""Constants and Planck scales."""

import math

import pytest

from supertime.constants import CODATA, PhysicalConstants, planck_scales
from supertime.errors import ValidationError

REL = 1e-12
E_CHARGE = 1.602176634e-19  # C, the elementary charge


def test_planck_scales_match_defining_formulas():
    s = planck_scales(CODATA)
    hbar, c, G, eps0 = CODATA.hbar, CODATA.c, CODATA.G, CODATA.epsilon0
    assert s.m_P == pytest.approx(math.sqrt(hbar * c / G), rel=REL)
    assert s.q_P == pytest.approx(math.sqrt(4.0 * math.pi * eps0 * hbar * c), rel=REL)
    assert s.l_P == pytest.approx(math.sqrt(hbar * G / c**3), rel=REL)


def test_planck_scale_reference_values():
    s = planck_scales(CODATA)
    assert s.m_P == pytest.approx(2.18e-8, rel=5e-3)
    assert s.q_P == pytest.approx(11.7 * E_CHARGE, rel=5e-3)
    assert s.l_P == pytest.approx(1.616e-35, rel=5e-3)


def test_dimensionless_identity_mp_lp():
    s = planck_scales(CODATA)
    assert s.m_P * s.l_P * CODATA.c / CODATA.hbar == pytest.approx(1.0, rel=REL)


def test_planck_mass_scales_as_inverse_sqrt_g():
    # m_P ~ 1/sqrt(G): quadrupling G halves the Planck mass.
    scaled = PhysicalConstants(G=4.0 * CODATA.G)
    assert planck_scales(scaled).m_P == pytest.approx(
        planck_scales(CODATA).m_P / 2.0, rel=REL)


def test_planck_charge_in_natural_units_is_sqrt_4pi():
    # A charge in natural units (hbar = c = epsilon_0 = 1) is q / sqrt(eps0 hbar c).
    q_P = planck_scales(CODATA).q_P
    natural = q_P / math.sqrt(CODATA.epsilon0 * CODATA.hbar * CODATA.c)
    assert natural == pytest.approx(math.sqrt(4.0 * math.pi), rel=REL)


def test_constants_must_be_positive():
    with pytest.raises(ValidationError):
        PhysicalConstants(G=-1.0)
    with pytest.raises(ValidationError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValidationError):
        PhysicalConstants(c=float("nan"))

