"""Radiated-field overlap: spectra, quadrature, displacement algebra."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from supertime.constants import CODATA, planck_scales
from supertime.errors import RelativisticMotionError, ValidationError
from supertime.radiation import (
    SIN2_EXPONENT_CONSTANT,
    Shape,
    TrajectoryProfile,
    closed_form_exponent,
    coherent_overlap,
    coherent_overlap_amplitude,
    composition_phase,
    displacement_from_trajectory,
    gauss_legendre_grid,
    min_radiationless_time,
    mode_integral,
    vacuum_overlap,
    velocity_fourier,
)
from supertime.radiation import DisplacementFunction, ModeGrid

Q = CODATA.e_charge


def _sin2_profile(d=1e-9, t0=1e-12):
    return TrajectoryProfile(d=d, t0=t0)


def _tabulated_sin2(d=1e-9, t0=1e-12, n=400):
    t = np.linspace(0.0, t0, n)
    x = d * np.sin(math.pi * t / (2.0 * t0)) ** 2
    return TrajectoryProfile(d=d, t0=t0, shape=Shape.TABULATED,
                             samples=np.column_stack([t, x]))


def test_sine_integral_value():
    direct, _ = quad(lambda y: math.sin(y) / y, 0.0, math.pi)
    assert float(sici(math.pi)[0]) == pytest.approx(direct, abs=1e-9)
    assert float(sici(math.pi)[0]) == pytest.approx(1.851937052, abs=1e-9)


def test_exponent_constant_closed_form_and_paper_value():
    expected = math.pi * (math.pi * float(sici(math.pi)[0]) - 2.0) / 6.0
    assert SIN2_EXPONENT_CONSTANT == pytest.approx(expected, rel=1e-12)
    # Rounds to the quoted "about 2" within 0.05%.
    assert abs(SIN2_EXPONENT_CONSTANT - 2.0) / 2.0 < 5e-4


def test_mode_integral_matches_closed_form():
    profile = _sin2_profile()
    by_quadrature = mode_integral(profile, Q)
    closed = closed_form_exponent(profile, Q)
    assert by_quadrature == pytest.approx(closed, rel=1e-6)


def test_velocity_fourier_at_zero_and_resonance():
    profile = _sin2_profile()
    # omega = 0: integral of v over the motion is the total displacement d.
    assert velocity_fourier(profile, 0.0) == pytest.approx(profile.d, rel=1e-12)
    # Removable singularity at omega t0 = pi: |v| = pi d / 4.
    w_res = math.pi / profile.t0
    assert abs(velocity_fourier(profile, w_res)) == pytest.approx(
        math.pi * profile.d / 4.0, rel=1e-12)
    # Continuity across the singular point.
    for eps in (1e-6, 1e-9):
        assert abs(velocity_fourier(profile, w_res * (1 + eps))) == pytest.approx(
            math.pi * profile.d / 4.0, rel=1e-4)


def test_parseval_identity_for_sin2_profile():
    profile = _sin2_profile(d=1.0, t0=1.0)
    time_side, _ = quad(lambda t: profile.velocity(t) ** 2, 0.0, profile.t0)
    assert time_side == pytest.approx(math.pi**2 / 8.0, rel=1e-10)
    u_split = 2000.0
    head, _ = quad(lambda w: abs(velocity_fourier(profile, w)) ** 2 / math.pi,
                   0.0, u_split, limit=2000)
    # |v|^2 <= pi^4 / u^4 beyond the split; tail below pi^3/(3 u^3).
    tail_bound = math.pi**3 / (3.0 * u_split**3)
    assert head == pytest.approx(time_side, rel=1e-6)
    assert tail_bound < 1e-6 * time_side


def test_vacuum_overlap_in_unit_interval():
    profile = _sin2_profile()
    value = vacuum_overlap(profile, Q)
    assert 0.0 < value <= 1.0
    assert vacuum_overlap(profile, 0.0) == 1.0
    zero_d = TrajectoryProfile(d=0.0, t0=1e-12)
    assert vacuum_overlap(zero_d, Q) == 1.0
    assert mode_integral(profile, Q) > 0.0


def test_relativistic_gate():
    fast = TrajectoryProfile(d=1.0, t0=1e-9)  # d = c t0 / 0.3
    with pytest.raises(RelativisticMotionError):
        mode_integral(fast, Q)
    with pytest.raises(RelativisticMotionError):
        closed_form_exponent(fast, Q)


def test_min_radiationless_time_prefactor():
    d = 1e-6
    t = min_radiationless_time(Q, d)
    ratio = Q / planck_scales(CODATA).q_P
    assert t == pytest.approx(math.sqrt(2.0) * ratio * d / CODATA.c, rel=1e-12)


def test_exponent_is_order_one_at_the_radiationless_time():
    # t0 = sqrt(2) (q/q_P) d / c makes the exponent the pure constant
    # SIN2_EXPONENT_CONSTANT / 2, independent of q and d.
    q = 1e-10
    d = 1e-6
    t0 = min_radiationless_time(q, d)
    profile = TrajectoryProfile(d=d, t0=t0)
    assert closed_form_exponent(profile, q) == pytest.approx(
        SIN2_EXPONENT_CONSTANT / 2.0, rel=1e-12)


def test_tabulated_profile_reproduces_sin2_exponent():
    exact = _sin2_profile()
    tab = _tabulated_sin2()
    e_exact = mode_integral(exact, Q)
    e_tab = mode_integral(tab, Q)
    assert e_tab == pytest.approx(e_exact, rel=1e-6)


def test_tabulated_velocity_fourier_matches_closed_form():
    exact = _sin2_profile()
    tab = _tabulated_sin2()
    omega = np.linspace(0.0, 40.0 / exact.t0, 200)
    error = np.abs(velocity_fourier(tab, omega) - velocity_fourier(exact, omega))
    assert np.max(error) <= 1e-10 * exact.d
    assert isinstance(velocity_fourier(tab, 1e12), complex)


def test_tabulated_profile_validation():
    t0, d = 1e-12, 1e-9
    t = np.linspace(0.0, t0, 100)
    good_x = d * np.sin(math.pi * t / (2.0 * t0)) ** 2
    with pytest.raises(ValidationError):  # too few samples
        TrajectoryProfile(d=d, t0=t0, shape=Shape.TABULATED,
                          samples=np.column_stack([t[:8], good_x[:8]]))
    with pytest.raises(ValidationError):  # endpoint displacement mismatch
        TrajectoryProfile(d=d, t0=t0, shape=Shape.TABULATED,
                          samples=np.column_stack([t, 0.5 * good_x]))
    with pytest.raises(ValidationError):  # nonvanishing endpoint velocity
        TrajectoryProfile(d=d, t0=t0, shape=Shape.TABULATED,
                          samples=np.column_stack([t, d * t / t0]))
    with pytest.raises(ValidationError):  # samples on a non-tabulated shape
        TrajectoryProfile(d=d, t0=t0, samples=np.column_stack([t, good_x]))


def test_velocity_vanishes_outside_motion_window():
    profile = _sin2_profile()
    t = np.array([-1e-13, 0.5e-12, 2e-12])
    v = profile.velocity(t)
    assert v[0] == 0.0 and v[2] == 0.0 and v[1] > 0.0


# --- discretized displacement functions -----------------------------------


def _grid_for(profile, n=4096, u_max=400.0):
    return gauss_legendre_grid(u_max / profile.t0, n)


def test_displacement_norm_reproduces_exponent():
    profile = _sin2_profile(d=5e-7, t0=1e-9)
    grid = _grid_for(profile)
    f = displacement_from_trajectory(profile, Q, grid)
    norm = float(np.sum(grid.weights / CODATA.c * np.abs(f.values) ** 2))
    # Finite u_max truncates the u^-3 tail: ~pi^4/(4 u_max^2) of the
    # integrand scale, a few 1e-5 relative here.
    assert norm == pytest.approx(closed_form_exponent(profile, Q), rel=1e-4)


def test_coherent_overlap_against_vacuum_overlap():
    profile = _sin2_profile(d=5e-7, t0=1e-9)
    grid = _grid_for(profile)
    f = displacement_from_trajectory(profile, Q, grid)
    zero = DisplacementFunction(values=np.zeros(len(grid), dtype=complex))
    discrete = coherent_overlap(f, zero, grid)
    assert discrete == pytest.approx(vacuum_overlap(profile, Q), rel=1e-4)


def test_overlap_amplitude_modulus_squared_matches_overlap():
    rng = np.random.default_rng(5)
    grid = ModeGrid(omega_nodes=np.sort(rng.uniform(1e8, 1e10, 32)),
                    weights=rng.uniform(1e7, 1e8, 32))
    f = DisplacementFunction(rng.normal(size=32) + 1j * rng.normal(size=32))
    g = DisplacementFunction(rng.normal(size=32) + 1j * rng.normal(size=32))
    amp = coherent_overlap_amplitude(f, g, grid)
    assert abs(amp) ** 2 == pytest.approx(coherent_overlap(f, g, grid), rel=1e-9)


def test_composition_rule_preserves_overlap_modulus():
    # D[f] D[g] = exp(phase) D[f+g] with a purely imaginary phase: the
    # composed overlap |<h| exp(phase) |f+g>| equals the direct |<h|f+g>|.
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(4, 24))
        grid = ModeGrid(omega_nodes=np.sort(rng.uniform(1e8, 1e10, n)),
                        weights=rng.uniform(1e6, 1e8, n))
        def rand():
            return DisplacementFunction(
                rng.normal(size=n) + 1j * rng.normal(size=n))
        f, g, h = rand(), rand(), rand()
        phase = composition_phase(f, g, grid)
        assert abs(phase) == pytest.approx(1.0, rel=1e-12)
        fg = DisplacementFunction(f.values + g.values)
        composed = phase * coherent_overlap_amplitude(h, fg, grid)
        assert abs(composed) == pytest.approx(
            abs(coherent_overlap_amplitude(h, fg, grid)), rel=1e-9)


def test_composition_phase_antisymmetry():
    rng = np.random.default_rng(8)
    n = 16
    grid = ModeGrid(omega_nodes=np.sort(rng.uniform(1e8, 1e10, n)),
                    weights=rng.uniform(1e6, 1e8, n))
    f = DisplacementFunction(rng.normal(size=n) + 1j * rng.normal(size=n))
    g = DisplacementFunction(rng.normal(size=n) + 1j * rng.normal(size=n))
    forward = composition_phase(f, g, grid)
    backward = composition_phase(g, f, grid)
    assert forward * backward == pytest.approx(1.0 + 0.0j, rel=1e-12)


def test_long_wavelength_gate_warns():
    profile = _sin2_profile(d=1e-3, t0=1e-9)
    grid = gauss_legendre_grid(CODATA.c / profile.d, 64)  # past c/(3 d)
    f = displacement_from_trajectory(profile, Q, grid)
    assert f.warnings and "long-wavelength" in f.warnings[0]
    safe = gauss_legendre_grid(0.1 * CODATA.c / profile.d, 64)
    assert displacement_from_trajectory(profile, Q, safe).warnings == ()


def test_grid_validation():
    with pytest.raises(ValidationError):
        ModeGrid(omega_nodes=np.array([2.0, 1.0]), weights=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        ModeGrid(omega_nodes=np.array([1.0, 2.0]), weights=np.array([1.0, -1.0]))
    with pytest.raises(ValidationError):
        gauss_legendre_grid(-1.0, 16)
    with pytest.raises(ValidationError):
        coherent_overlap(
            DisplacementFunction(np.zeros(3, dtype=complex)),
            DisplacementFunction(np.zeros(3, dtype=complex)),
            ModeGrid(omega_nodes=np.array([1.0, 2.0]),
                     weights=np.array([1.0, 1.0])))
