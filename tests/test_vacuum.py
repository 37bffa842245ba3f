"""Time-averaged vacuum variance, divergences, and the measurement time."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from supertime.constants import CODATA, planck_scales
from supertime.errors import DivergentIntegralError, ValidationError
from supertime.vacuum import (
    MIN_TIME_PREFACTOR,
    WindowFunction,
    WindowShape,
    averaged_variance,
    instantaneous_variance,
    min_measurement_time,
    momentum_error,
    window_fourier,
)


def _hann_window(T, n=401, scale=1.0):
    """Smooth compact window (1 - cos(2 pi t / T)) / T, dilated by scale."""
    t = np.linspace(0.0, T * scale, n)
    phi = (1.0 - np.cos(2.0 * math.pi * t / (T * scale))) / (T * scale)
    return WindowFunction(shape=WindowShape.TABULATED, width_T=T * scale,
                          samples=np.column_stack([t, phi]))


def test_gaussian_closed_form_vs_quadrature_over_six_decades():
    for T in np.logspace(-3, 3, 7):
        window = WindowFunction(width_T=float(T))
        direct, _ = quad(
            lambda u: math.exp(-(u**2)) * u / (2.0 * math.pi**2 * T**2),
            0.0, np.inf)
        closed = 1.0 / (4.0 * math.pi**2 * T**2)
        assert averaged_variance(window) == pytest.approx(closed, rel=1e-12)
        assert direct == pytest.approx(closed, rel=1e-8)


def test_gaussian_variance_is_the_closed_form_bits_or_an_error_naming_the_width():
    # Out of range, T**2 overflows or underflows to 0.0, or the variance is
    # infinite or 0.0; in range, the variance is the plain expression.
    for T in (1.2e-155, 1e-100, 1.0, 1e100, 2.1e153):
        assert averaged_variance(WindowFunction(width_T=T)) == 1.0 / (4.0 * math.pi**2 * T**2)
    for T in (1e-200, 1e-162, 1.1e-155, 2.2e153, 1.4e154, 1e200, 1e308):
        with pytest.raises(ValidationError, match=re.escape(f"width_T={T!r} is out of range")):
            averaged_variance(WindowFunction(width_T=T))


def test_gaussian_fourier_closed_form():
    window = WindowFunction(width_T=2.0)
    assert window_fourier(window, 0.0) == pytest.approx(1.0)
    assert window_fourier(window, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_tabulated_gaussian_matches_closed_form():
    T = 1.0
    t = np.linspace(-8.0 * T, 8.0 * T, 1601)
    phi = np.exp(-0.5 * (t / T) ** 2) / (math.sqrt(2.0 * math.pi) * T)
    window = WindowFunction(shape=WindowShape.TABULATED, width_T=T,
                            samples=np.column_stack([t, phi]))
    closed = 1.0 / (4.0 * math.pi**2 * T**2)
    assert averaged_variance(window) == pytest.approx(closed, rel=1e-8)


def test_variance_positive_and_dilation_scaling():
    # phi(t) -> phi(t/s)/s multiplies the variance by 1/s^2.
    base = averaged_variance(_hann_window(1.0))
    assert base > 0.0
    for s in (0.5, 2.0, 10.0):
        scaled = averaged_variance(_hann_window(1.0, scale=s))
        assert scaled == pytest.approx(base / s**2, rel=1e-8)


def test_box_window_divergence_detected():
    T = 1.0
    n = 512
    t = np.linspace(0.0, T, n)
    phi = np.full(n, 1.0 / T)
    phi[0] = phi[-1] = 0.5 / T  # sharp box with half-height ends
    norm = CubicSpline(t, phi).integrate(t[0], t[-1])
    window = WindowFunction(shape=WindowShape.TABULATED, width_T=T,
                            samples=np.column_stack([t, phi / norm]))
    with pytest.raises(DivergentIntegralError):
        averaged_variance(window)


def test_window_norm_is_the_spline_integral():
    # 16 samples of sin^2(pi t) on [0, 1] have trapezoid integral 1 after
    # normalizing, but the cubic spline every transform uses integrates to
    # 1 - 5.6e-5: the window is rejected as not normalized.
    t = np.linspace(0.0, 1.0, 16)
    phi = np.sin(math.pi * t) ** 2
    samples = np.column_stack([t, phi / np.trapezoid(phi, t)])
    with pytest.raises(ValidationError, match="integrate to 1"):
        WindowFunction(shape=WindowShape.TABULATED, width_T=1.0, samples=samples)
    spline_norm = CubicSpline(t, phi).integrate(0.0, 1.0)
    window = WindowFunction(shape=WindowShape.TABULATED, width_T=1.0,
                            samples=np.column_stack([t, phi / spline_norm]))
    assert window_fourier(window, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_instantaneous_variance_is_quadratic_in_cutoff():
    assert instantaneous_variance(0.0) == 0.0
    assert instantaneous_variance(2.0) == pytest.approx(1.0 / math.pi**2, rel=1e-12)
    lam = np.logspace(0, 3, 20)
    values = np.array([instantaneous_variance(x) for x in lam])
    slope = np.polyfit(np.log(lam), np.log(values), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.01)


def test_momentum_error_consistent_with_averaged_variance():
    # Delta P = q sqrt(variance / 3) with the Gaussian-window variance,
    # converted to SI: the two code paths must agree to 1e-10.
    q, T = 1e-18, 1e-12
    T_nat = T * CODATA.c
    var_nat = averaged_variance(WindowFunction(width_T=T_nat))
    q_nat = q / math.sqrt(CODATA.epsilon0 * CODATA.hbar * CODATA.c)
    dp_nat = q_nat * math.sqrt(var_nat / 3.0)
    dp_si = dp_nat * CODATA.hbar  # momentum: hbar / (1 m reference length)
    assert momentum_error(q, T) == pytest.approx(dp_si, rel=1e-10)


def test_min_time_prefactor_value():
    assert MIN_TIME_PREFACTOR == pytest.approx(1.0 / math.sqrt(3.0 * math.pi**3),
                                               rel=1e-15)
    assert MIN_TIME_PREFACTOR == pytest.approx(0.1037, abs=1e-4)


def test_min_measurement_time_ratio_law():
    q = 3.2e-19
    rng = np.random.default_rng(9)
    ratios = [
        min_measurement_time(q, d) * CODATA.c / d
        for d in 10.0 ** rng.uniform(-9, 2, size=30)
    ]
    assert max(ratios) - min(ratios) < 1e-12 * ratios[0]
    assert ratios[0] == pytest.approx(
        MIN_TIME_PREFACTOR * q / planck_scales(CODATA).q_P, rel=1e-12)


def test_min_measurement_time_solves_precision_condition():
    # momentum_error at T = min_measurement_time equals pi hbar / d.
    q, d = 5e-19, 1e-6
    T = min_measurement_time(q, d)
    assert momentum_error(q, T) == pytest.approx(
        math.pi * CODATA.hbar / d, rel=1e-12)


def test_window_validation():
    with pytest.raises(ValidationError):
        WindowFunction(width_T=0.0)
    with pytest.raises(ValidationError):
        WindowFunction(shape=WindowShape.TABULATED)
    t = np.linspace(0.0, 1.0, 16)
    with pytest.raises(ValidationError):  # not normalized
        WindowFunction(shape=WindowShape.TABULATED, width_T=1.0,
                       samples=np.column_stack([t, 2.0 * np.ones(16)]))
    with pytest.raises(ValidationError):  # samples on a Gaussian shape
        WindowFunction(width_T=1.0, samples=np.column_stack([t, np.ones(16)]))
    with pytest.raises(ValidationError):
        momentum_error(-1.0, 1.0)
    with pytest.raises(ValidationError):
        min_measurement_time(1e-19, 0.0)
    with pytest.raises(ValidationError):
        instantaneous_variance(-1.0)


def test_tabulated_variance_memory_does_not_grow_with_the_phase_tables():
    # A 20 001-sample Gaussian window: the spline prepared for the moment
    # holds 30 vectors over the pieces (4.8 MB), the offset table 24 (3.8 MB),
    # and a block of panels at most _BLOCK_ELEMENTS phases or one panel's.
    # Its traced peak was 19.9 MB with a full 24-offset complex table and
    # blocks of 2^18 phases, and reads 10.8 MB.
    T = 1.0
    t = np.linspace(-8.0 * T, 8.0 * T, 20_001)
    phi = np.exp(-0.5 * (t / T) ** 2) / (math.sqrt(2.0 * math.pi) * T)
    window = WindowFunction(shape=WindowShape.TABULATED, width_T=T,
                            samples=np.column_stack([t, phi]))
    tracemalloc.start()
    try:
        variance = averaged_variance(window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert variance == pytest.approx(1.0 / (4.0 * math.pi**2 * T**2), rel=1e-9)
    assert peak < 12e6
