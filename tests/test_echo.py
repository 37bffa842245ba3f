"""Loschmidt-echo displacements, overlaps, and discrimination-time routes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertime.constants import CODATA, PhysicalConstants
from supertime.echo import (
    GaussianState,
    echo_displacements,
    echo_overlap,
    entanglement_time,
    force_difference_coulomb,
    force_difference_gravity,
    momentum_route_time,
    trap_max_width,
)
from supertime.errors import (
    DipoleApproximationError,
    NoEntanglementError,
    ValidationError,
)

NATURAL = PhysicalConstants(hbar=1.0, c=1.0, G=1.0, epsilon0=1.0)


def test_gravity_dipole_formula():
    pair = force_difference_gravity(2.0, 3.0, 0.01, 1.0, NATURAL)
    assert pair.delta_F == pytest.approx(2.0 * 3.0 * 0.01, rel=1e-12)


def test_coulomb_dipole_formula_and_signs():
    k = 1.0 / (4.0 * math.pi * CODATA.epsilon0)
    pair = force_difference_coulomb(1e-19, 2e-19, 1e-3, 1.0)
    assert pair.delta_F == pytest.approx(k * 1e-19 * 2e-19 * 1e-3, rel=1e-12)
    flipped = force_difference_coulomb(1e-19, -2e-19, 1e-3, 1.0)
    assert flipped.delta_F == pytest.approx(-pair.delta_F, rel=1e-12)


def test_dipole_gate_rejects_wide_superpositions():
    with pytest.raises(DipoleApproximationError):
        force_difference_gravity(1.0, 1.0, 0.2, 1.0)
    with pytest.raises(DipoleApproximationError):
        force_difference_coulomb(1e-19, 1e-19, 0.1, 1.0)
    # d exactly at R/10 is still rejected (strict gate).
    with pytest.raises(DipoleApproximationError):
        force_difference_gravity(1.0, 1.0, 0.1, 1.0)


def test_exact_monopole_difference_is_twice_the_dipole_value():
    # At d = R/20 the Taylor error of (F_L - F_R)/2 vs delta_F is ~2 (d/R)^2.
    pair = force_difference_gravity(1.0, 1.0, 0.05, 1.0, NATURAL)
    ratio = (pair.F_L - pair.F_R) / (2.0 * pair.delta_F)
    assert ratio == pytest.approx(1.0, abs=0.02)


def test_echo_displacement_formulas():
    res = echo_displacements(0.5, 2.0, 0.9, 3.0, NATURAL)
    assert res.delta_x == pytest.approx(0.5 * 9.0 / 4.0, rel=1e-12)
    assert res.delta_p == pytest.approx(-1.5, rel=1e-12)
    assert res.cubic_phase == pytest.approx(0.5 * 0.9 * 27.0 / 24.0, rel=1e-12)


def test_overlap_modulus_ignores_cubic_phase():
    state = GaussianState(sigma=1.3)
    res = echo_displacements(0.4, 1.0, 5.0, 1.7, NATURAL)
    no_phase = replace(res, cubic_phase=0.0)
    assert echo_overlap(state, res, NATURAL) == echo_overlap(state, no_phase, NATURAL)


def test_overlap_closed_form():
    state = GaussianState(sigma=2.0)
    res = echo_displacements(0.3, 1.0, 0.0, 1.0, NATURAL)
    expected = math.exp(-res.delta_x**2 / (8.0 * 4.0) - res.delta_p**2 * 4.0 / 2.0)
    assert echo_overlap(state, res, NATURAL) == pytest.approx(expected, rel=1e-12)


@settings(deadline=None, max_examples=100)
@given(
    delta_F=st.floats(min_value=1e-3, max_value=10.0),
    mB=st.floats(min_value=0.1, max_value=10.0),
    sigma=st.floats(min_value=0.1, max_value=10.0),
)
def test_overlap_non_increasing_in_time(delta_F, mB, sigma):
    state = GaussianState(sigma=sigma)
    times = np.linspace(0.0, 5.0, 40)
    overlaps = [
        echo_overlap(state, echo_displacements(delta_F, mB, 0.0, float(t), NATURAL),
                     NATURAL)
        for t in times
    ]
    assert all(b <= a + 1e-15 for a, b in zip(overlaps, overlaps[1:]))
    assert overlaps[0] == 1.0


def test_route_times_cross_exactly_at_trap_width():
    # sigma^3 = hbar^2/(mB dF) makes both routes take the same time.
    mB, dF = 2.0, 0.7
    sigma_star = trap_max_width(mB, dF, NATURAL)
    t_pos = entanglement_time(dF, mB, sigma_star)
    t_mom = momentum_route_time(dF, sigma_star, NATURAL)
    assert t_pos == pytest.approx(t_mom, rel=1e-12)


def test_position_route_wins_inside_the_trap_condition():
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        mB = 10.0 ** rng.uniform(-3, 3)
        dF = 10.0 ** rng.uniform(-6, 3)
        limit = trap_max_width(mB, dF, NATURAL)
        sigma = limit * rng.uniform(1e-3, 1.0)
        assert entanglement_time(dF, mB, sigma) <= \
            momentum_route_time(dF, sigma, NATURAL)


def test_entanglement_time_conventions_differ_by_sqrt2():
    # Main text: dF T^2 / (2 mB sigma) = 1; trap convention: dF T^2 = mB sigma.
    dF, mB, sigma = 0.3, 2.0, 0.5
    trap = entanglement_time(dF, mB, sigma)
    main_text = entanglement_time(-dF, mB, sigma, convention="main_text")
    assert trap == math.sqrt(mB * sigma / dF)
    assert main_text == math.sqrt(2.0 * mB * sigma / dF)
    assert dF * main_text**2 / (2.0 * mB * sigma) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValidationError, match="convention"):
        entanglement_time(dF, mB, sigma, convention="paper")


def test_zero_force_raises_no_entanglement():
    with pytest.raises(NoEntanglementError):
        entanglement_time(0.0, 1.0, 1.0)
    with pytest.raises(NoEntanglementError):
        momentum_route_time(0.0, 1.0, NATURAL)
    with pytest.raises(NoEntanglementError):
        trap_max_width(1.0, 0.0, NATURAL)


def test_momentum_spread_convention():
    assert GaussianState(sigma=2.0).momentum_spread(hbar=1.0) == 0.25


def test_validation_errors():
    with pytest.raises(ValidationError):
        GaussianState(sigma=0.0)
    with pytest.raises(ValidationError):
        echo_displacements(1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        echo_displacements(1.0, 1.0, 0.0, -1.0)
    with pytest.raises(ValidationError):
        force_difference_gravity(-1.0, 1.0, 0.01, 1.0)
    with pytest.raises(ValidationError):
        force_difference_coulomb(0.0, 1e-19, 1e-3, 1.0)


def test_swept_forces_equal_their_points_bitwise():
    # Arrays of sweep values give exactly the floats of each point alone,
    # because the powers are products and each IEEE product is correctly
    # rounded in numpy's loops as in Python's floats; numpy's own ** on
    # arrays rounds about one cube in twenty differently.
    R = np.logspace(-1.5, 1.0, 2000)
    q = np.linspace(-3e-19, 3e-19, 2000)
    q = q[q != 0.0]
    gravity = force_difference_gravity(1e-6, 1e-9, 1e-3, R)
    coulomb = force_difference_coulomb(q, 1.6e-19, 1e-6, 0.5)
    for swept, points in ((gravity, [force_difference_gravity(1e-6, 1e-9, 1e-3, r)
                                     for r in R.tolist()]),
                          (coulomb, [force_difference_coulomb(v, 1.6e-19, 1e-6, 0.5)
                                     for v in q.tolist()])):
        for name in ("F_L", "F_R", "delta_F"):
            assert getattr(swept, name).tolist() == [getattr(p, name) for p in points]
    times = entanglement_time(gravity.delta_F, 1e-9, 1e-30, convention="main_text")
    assert times.tolist() == [entanglement_time(dF, 1e-9, 1e-30, convention="main_text")
                              for dF in gravity.delta_F.tolist()]


def test_swept_echo_equals_its_points_bitwise():
    # The displacements' t^2 and t^3 and the overlap's dx^2 and dp^2 are
    # products too, so a table over swept forces and times gives the floats
    # of each point run alone on Python floats.
    rng = np.random.default_rng(33)
    n = 2000
    delta_F = 10.0 ** rng.uniform(-2.0, 0.5, n) * rng.choice([-1.0, 1.0], n)
    F_sum = 10.0 ** rng.uniform(-2.0, 2.0, n)
    t = 10.0 ** rng.uniform(-1.0, 0.7, n)
    swept = echo_displacements(delta_F, 1.5, F_sum, t, NATURAL)
    points = [echo_displacements(dF, 1.5, s, ti, NATURAL)
              for dF, s, ti in zip(delta_F.tolist(), F_sum.tolist(), t.tolist())]
    for name in ("delta_x", "delta_p", "cubic_phase"):
        assert getattr(swept, name).tolist() == [getattr(p, name) for p in points]
    state = GaussianState(sigma=0.7)
    overlap = echo_overlap(state, swept, NATURAL)
    assert overlap.tolist() == [float(echo_overlap(state, p, NATURAL)) for p in points]
    assert np.count_nonzero((0.01 < overlap) & (overlap < 0.99)) > n // 4


def test_swept_check_names_the_first_offending_point():
    R = np.array([1.0, 0.5, 0.02, 0.005, 0.001])
    with pytest.raises(DipoleApproximationError) as swept:
        force_difference_gravity(1e-6, 1e-9, 1e-3, R)
    with pytest.raises(DipoleApproximationError) as alone:
        force_difference_gravity(1e-6, 1e-9, 1e-3, 0.005)
    assert str(swept.value) == str(alone.value) == (
        "dipole approximation requires d < R/10, got d=0.001, R=0.005")
    with pytest.raises(NoEntanglementError):
        entanglement_time(np.array([1.0, 0.0]), 1.0, 1.0)
