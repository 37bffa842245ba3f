"""Closed-form bounds: formulas, monotonicity, sharp-constant consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertime.bounds import (
    SHARP_BOUND_CONSTANT,
    Kind,
    SuperpositionSpec,
    charge_radius,
    min_localization_mass,
    min_time,
    sharp_min_time,
)
from supertime.causality import optimize_eta
from supertime.constants import CODATA, planck_scales
from supertime.errors import ValidationError

EARTH_MASS = 5.972e24  # kg
E_CHARGE = 1.602176634e-19  # C, the elementary charge


def _mass(m, d):
    return SuperpositionSpec(Kind.MASS, m, d)


def _charge(q, d):
    return SuperpositionSpec(Kind.CHARGE, q, d)


def test_sharp_constant_value():
    assert SHARP_BOUND_CONSTANT == 2.0 / 27.0


def test_min_time_mass_formula():
    t = min_time(_mass(1.0, 1.0))
    assert t == pytest.approx(1.0 / (planck_scales(CODATA).m_P * CODATA.c), rel=1e-12)


def test_min_time_charge_formula():
    q = E_CHARGE
    t = min_time(_charge(q, 1.0))
    assert t == pytest.approx(q / (planck_scales(CODATA).q_P * CODATA.c), rel=1e-12)


def test_earth_micron_example_magnitude():
    # Earth mass over a micron: ~9e17 s, about the age of the universe.
    t = min_time(_mass(EARTH_MASS, 1e-6))
    assert t == pytest.approx(9e17, rel=0.3)
    assert 0.1 < t / 4.3e17 < 10.0


@pytest.mark.parametrize("kind", list(Kind), ids=lambda kind: kind.value)
def test_min_time_of_a_sweep_is_the_min_time_of_each_point(kind):
    # One expression for either kind, with the Planck scale picked by the spec.
    magnitudes = np.logspace(-20.0, 5.0, 7)
    separations = np.logspace(-9.0, 3.0, 7)
    swept = min_time(SuperpositionSpec(kind, magnitudes, separations))
    assert swept.tolist() == [min_time(SuperpositionSpec(kind, float(m), float(d)))
                              for m, d in zip(magnitudes, separations)]


@settings(deadline=None, max_examples=100)
@given(
    m=st.floats(min_value=1e-20, max_value=1e20),
    d=st.floats(min_value=1e-10, max_value=1e6),
    factor=st.floats(min_value=1.001, max_value=100.0),
)
def test_strict_monotonicity_in_magnitude_and_separation(m, d, factor):
    base = min_time(_mass(m, d))
    assert min_time(_mass(m * factor, d)) > base
    assert min_time(_mass(m, d * factor)) > base
    base_q = min_time(_charge(m * 1e-30, d))
    assert min_time(_charge(m * 1e-30 * factor, d)) > base_q


@settings(deadline=None, max_examples=100)
@given(
    q=st.floats(min_value=1e-25, max_value=1e-10),
    m=st.floats(min_value=1e-30, max_value=1.0),
    factor=st.floats(min_value=1.001, max_value=100.0),
)
def test_localization_length_increases_in_charge(q, m, factor):
    assert charge_radius(q * factor, m) > charge_radius(q, m)


def test_sharp_equals_two_twentysevenths_of_min_time():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        kind = Kind.MASS if rng.random() < 0.5 else Kind.CHARGE
        magnitude = 10.0 ** rng.uniform(-25, 5)
        d = 10.0 ** rng.uniform(-9, 3)
        spec = SuperpositionSpec(kind=kind, magnitude=magnitude, separation_d=d)
        assert sharp_min_time(spec) == pytest.approx(
            SHARP_BOUND_CONSTANT * min_time(spec), rel=1e-12)


def test_sharp_consistent_with_eta_optimizer():
    rng = np.random.default_rng(11)
    for _ in range(50):
        kind = Kind.MASS if rng.random() < 0.5 else Kind.CHARGE
        spec = SuperpositionSpec(
            kind=kind,
            magnitude=10.0 ** rng.uniform(-20, 2),
            separation_d=10.0 ** rng.uniform(-8, 2),
        )
        _, bound = optimize_eta(spec)
        assert bound == pytest.approx(sharp_min_time(spec), rel=1e-9)


@settings(deadline=None, max_examples=200)
@given(fraction=st.floats(min_value=1e-12, max_value=0.999),
       d=st.floats(min_value=1e-9, max_value=1e3))
def test_sub_planck_bounds_are_below_light_time(fraction, d):
    # m < m_P and q < q_P give bounds below d/c.
    scales = planck_scales(CODATA)
    light = d / CODATA.c
    assert min_time(_mass(fraction * scales.m_P, d)) < light
    assert min_time(_charge(fraction * scales.q_P, d)) < light


def test_min_localization_mass_is_planck_length():
    assert min_localization_mass() == planck_scales(CODATA).l_P


def test_charge_radius_formula():
    q, m = E_CHARGE, 9.1093837015e-31
    expected = (q / planck_scales(CODATA).q_P) * CODATA.hbar / (m * CODATA.c)
    assert charge_radius(q, m) == pytest.approx(expected, rel=1e-12)
    # Electron: ~0.085 Compton wavelengths, a few 1e-14 m.
    assert 1e-14 < charge_radius(q, m) < 1e-13


def test_validation_rejects_nonpositive_inputs():
    with pytest.raises(ValidationError):
        min_time(_mass(-1.0, 1.0))
    with pytest.raises(ValidationError):
        min_time(_charge(1e-19, 0.0))
    with pytest.raises(ValidationError):
        SuperpositionSpec(kind=Kind.MASS, magnitude=0.0, separation_d=1.0)
    with pytest.raises(ValidationError):
        SuperpositionSpec(kind="mass", magnitude=1.0, separation_d=1.0)
