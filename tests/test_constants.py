"""Constants, Planck scales, and unit-conversion round trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertime.constants import (
    CODATA,
    Dimension,
    PhysicalConstants,
    from_natural,
    planck_scales,
    to_natural,
)
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
    q_P = planck_scales(CODATA).q_P
    assert to_natural(q_P, Dimension.CHARGE) == pytest.approx(
        math.sqrt(4.0 * math.pi), rel=REL)


@settings(deadline=None, max_examples=200)
@given(
    value=st.floats(min_value=1e-30, max_value=1e30),
    dimension=st.sampled_from(list(Dimension)),
    length_unit=st.floats(min_value=1e-10, max_value=1e10),
)
def test_round_trip_conversion(value, dimension, length_unit):
    back = from_natural(
        to_natural(value, dimension, CODATA, length_unit),
        dimension, CODATA, length_unit)
    assert back == pytest.approx(value, rel=REL)


def test_time_and_length_conversions_are_consistent():
    # 1 m of light travel converts to 1 natural time unit.
    t = 1.0 / CODATA.c
    assert to_natural(t, Dimension.TIME) == pytest.approx(1.0, rel=REL)
    assert to_natural(1.0, Dimension.LENGTH) == 1.0


def test_momentum_mass_conversions():
    assert to_natural(CODATA.hbar, Dimension.MOMENTUM) == pytest.approx(1.0, rel=REL)
    m_one = CODATA.hbar / CODATA.c
    assert to_natural(m_one, Dimension.MASS) == pytest.approx(1.0, rel=REL)


def test_constants_must_be_positive():
    with pytest.raises(ValidationError):
        PhysicalConstants(G=-1.0)
    with pytest.raises(ValidationError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValidationError):
        PhysicalConstants(c=float("nan"))


def test_conversion_rejects_non_dimension_tags():
    with pytest.raises(ValidationError):
        to_natural(1.0, "mass")
    with pytest.raises(ValidationError):
        from_natural(1.0, None)
