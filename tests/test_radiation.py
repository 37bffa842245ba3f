"""Radiated-field overlap: spectra, quadrature, and the discretized mode sum."""

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
    coherent_overlap,
    displacement_from_trajectory,
    gauss_legendre_grid,
    min_radiationless_time,
    mode_integral,
    vacuum_overlap,
    velocity_fourier,
)
from supertime.radiation import DisplacementFunction, ModeGrid

Q = 1.602176634e-19  # C, the elementary charge


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
    # Si(pi) is written out in the module so that importing it loads no
    # scipy; the constant must be exactly the one computed through sici.
    assert SIN2_EXPONENT_CONSTANT == math.pi * (math.pi * float(sici(math.pi)[0]) - 2.0) / 6.0
    # Rounds to the quoted "about 2" within 0.05%.
    assert abs(SIN2_EXPONENT_CONSTANT - 2.0) / 2.0 < 5e-4


def _exponent_prefactor(q, d, t0):
    """(2 / 3 pi) (q/q_P)^2 (d / c t0)^2: E divided by its spectral integral."""
    return (2.0 / (3.0 * math.pi) * (q / planck_scales(CODATA).q_P) ** 2
            * (d / (CODATA.c * t0)) ** 2)


def test_mode_integral_matches_closed_form(sin2_spectral_integral):
    profile = _sin2_profile()
    closed = mode_integral(profile, Q)
    # Independent routes: QUADPACK on the closed-form velocity transform, and
    # the spline's spectral moment of 1600 samples of the same path.
    by_quadrature = _exponent_prefactor(Q, profile.d, profile.t0) * sin2_spectral_integral
    assert closed == pytest.approx(by_quadrature, rel=1e-12)
    assert closed == pytest.approx(mode_integral(_tabulated_sin2(n=1600), Q), rel=1e-10)


def test_sin2_exponent_is_the_closed_form_for_scalars_and_sweeps():
    rng = np.random.default_rng(11)
    n = 2000
    q = 10.0 ** rng.uniform(-22.0, -10.0, n)
    t0 = 10.0 ** rng.uniform(-15.0, -6.0, n)
    d = CODATA.c * t0 * 10.0 ** rng.uniform(-12.0, -0.6, n)
    swept = mode_integral(TrajectoryProfile(d=d, t0=t0), q)
    closed = (SIN2_EXPONENT_CONSTANT * (q / planck_scales(CODATA).q_P) ** 2
              * (d / (CODATA.c * t0)) ** 2)
    assert np.max(np.abs(swept - closed) / closed) <= 5e-16
    points = [mode_integral(TrajectoryProfile(d=di, t0=ti), qi)
              for di, ti, qi in zip(d.tolist(), t0.tolist(), q.tolist())]
    assert np.array_equal(points, swept)


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
    at_rest = TrajectoryProfile(d=0.0, t0=1e-12, shape=Shape.TABULATED, samples=np.column_stack(
        [np.linspace(0.0, 1e-12, 16), np.zeros(16)]))
    assert vacuum_overlap(at_rest, Q) == 1.0
    assert mode_integral(profile, Q) > 0.0


def test_relativistic_gate():
    fast = TrajectoryProfile(d=1.0, t0=1e-9)  # d = c t0 / 0.3
    with pytest.raises(RelativisticMotionError):
        mode_integral(fast, Q)


def _tabulated(t0, x_of_t, samples=401):
    t = np.linspace(0.0, t0, samples)
    x = x_of_t(t)
    return TrajectoryProfile(d=float(x[-1]), t0=t0, shape=Shape.TABULATED,
                             samples=np.column_stack([t, x]))


@pytest.mark.parametrize("wobble", [0.0, 1e-3], ids=["sin2", "sin2-plus-sin4"])
def test_peak_speed_is_the_spline_derivatives_maximum(wobble):
    # The derivative is quadratic on each piece: its maximum, from the
    # knots and the parabolas' vertices, bounds every dense sample and is
    # reached by the densest.
    t0, d = 1e-12, 1e-6
    profile = _tabulated(t0, lambda t: d * np.sin(math.pi * t / (2.0 * t0)) ** 2
                         + wobble * np.sin(math.pi * t / t0) ** 4)
    dense = np.max(np.abs(profile.velocity(np.linspace(0.0, t0, 400001))))
    assert dense <= profile._peak_speed <= dense * (1.0 + 1e-9)
    if wobble == 0.0:
        assert profile._peak_speed == pytest.approx(math.pi * d / (2.0 * t0), rel=1e-5)


def test_relativistic_gate_reads_a_tabulated_paths_peak_speed():
    # Both ends satisfy d < c t0 / 3, but the path between them does not.
    t0, d = 1e-12, 1e-6
    fast = _tabulated(t0, lambda t: d * np.sin(math.pi * t / (2.0 * t0)) ** 2
                      + 1e-3 * np.sin(math.pi * t / t0) ** 4)
    assert d < CODATA.c * t0 / 3.0
    with pytest.raises(RelativisticMotionError, match=r"max\|v\|/c < pi/6, got 13\.6"):
        mode_integral(fast, Q)
    # The sin^2 samples at the same d pass: their peak is pi d / (2 c t0) = 5.2e-3 c.
    slow = _tabulated(t0, lambda t: d * np.sin(math.pi * t / (2.0 * t0)) ** 2)
    assert mode_integral(slow, Q) > 0.0


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
    assert mode_integral(profile, q) == pytest.approx(
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
    # The grid ends at u_max = 400 and so misses the u^-3 tail, whose
    # non-oscillatory half adds pi^4 / (4 u_max^2) to the spectral integral
    # (1.6e-5 relative); what remains is below 1e-7.
    tail = _exponent_prefactor(Q, profile.d, profile.t0) * math.pi**4 / (4.0 * 400.0**2)
    assert norm + tail == pytest.approx(mode_integral(profile, Q), rel=1e-6)


def test_coherent_overlap_against_vacuum_overlap():
    profile = _sin2_profile(d=5e-7, t0=1e-9)
    grid = _grid_for(profile)
    f = displacement_from_trajectory(profile, Q, grid)
    zero = DisplacementFunction(values=np.zeros(len(grid), dtype=complex))
    discrete = coherent_overlap(f, zero, grid)
    assert discrete == pytest.approx(vacuum_overlap(profile, Q), rel=1e-4)


def test_coherent_overlap_is_the_mode_sum_of_the_difference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 64))
        grid = ModeGrid(omega_nodes=np.sort(rng.uniform(1e8, 1e10, n)),
                        weights=rng.uniform(1e6, 1e8, n))
        f, g = (DisplacementFunction(rng.normal(size=n) + 1j * rng.normal(size=n))
                for _ in range(2))
        zero = DisplacementFunction(values=np.zeros(n, dtype=complex))
        overlap = coherent_overlap(f, g, grid)
        assert overlap == coherent_overlap(DisplacementFunction(f.values - g.values), zero, grid)
        assert overlap == coherent_overlap(g, f, grid)
        exponent = math.fsum(grid.weights * np.abs(f.values - g.values) ** 2 / CODATA.c)
        assert overlap == pytest.approx(math.exp(-exponent), rel=1e-12)


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
