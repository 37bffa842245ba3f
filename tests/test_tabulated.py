"""Spline Fourier kernel, spectral moments, Gauss-Legendre nodes, validation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PPoly

from supertime.errors import DivergentIntegralError, ValidationError
from supertime.tabulated import (
    gauss_legendre,
    sample_columns,
    spectral_moment,
    spline_fourier,
)
from supertime.vacuum import WindowFunction, WindowShape, averaged_variance

# The kernel switches from the power series to the closed form at |omega h| = 1/2.
SWITCH = 0.5


def _quad_fourier(pp, omega):
    """int pp(t) e^{i omega t} dt piece by piece with QUADPACK's Fourier weights."""
    total = 0.0j
    for lo, hi in zip(pp.x[:-1], pp.x[1:]):
        if omega == 0.0:
            total += quad(pp, lo, hi, epsabs=0.0, epsrel=1e-13)[0]
            continue
        re = quad(pp, lo, hi, weight="cos", wvar=omega, epsabs=0.0, epsrel=1e-13)[0]
        im = quad(pp, lo, hi, weight="sin", wvar=omega, epsabs=0.0, epsrel=1e-13)[0]
        total += re + 1j * im
    return total


def _random_spline(rng, pieces):
    x = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, pieces - 1)]))
    return CubicSpline(3.0 * x - 1.0, rng.normal(size=pieces + 1))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spline_fourier_matches_quadrature_across_the_switch(seed):
    rng = np.random.default_rng(seed)
    spline = _random_spline(rng, 12)
    for pp in (spline, spline.derivative(), spline.derivative(2)):
        scale = sum(quad(lambda t: abs(pp(t)), lo, hi)[0]
                    for lo, hi in zip(pp.x[:-1], pp.x[1:]))
        h = np.diff(pp.x)
        omegas = [0.0, 1e-6, 0.7, 40.0, 900.0, -3.0]
        # Just below and just above the switch of the widest and the
        # narrowest piece: all-series, mixed and all-closed rows.
        for width in (h.max(), h.min()):
            omegas += [SWITCH / width * (1.0 - 1e-9), SWITCH / width * (1.0 + 1e-9)]
        got = spline_fourier(pp, np.array(omegas))
        for w, value in zip(omegas, got):
            assert abs(value - _quad_fourier(pp, w)) <= 1e-12 * scale, w


def test_spline_fourier_scalar_and_shape():
    pp = CubicSpline(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9) ** 2)
    value = spline_fourier(pp, 0.0)
    assert isinstance(value, complex)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-14)
    grid = np.linspace(0.0, 30.0, 6).reshape(2, 3)
    assert spline_fourier(pp, grid).shape == (2, 3)


def test_spline_fourier_rejects_high_degree():
    quartic = PPoly(np.ones((5, 1)), np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        spline_fourier(quartic, 1.0)


def test_spectral_moment_of_a_hat_is_four_ln_two():
    # p = 1 - |t| on [-1, 1]: p_hat = 2 (1 - cos w) / w^2 and
    # int_0^inf |p_hat|^2 w dw = 4 int_0^inf sin^4(u) / u^3 du = 4 ln 2.
    # The kink at t = 0 is an interior knot of the expansion.
    hat = PPoly(np.array([[1.0, -1.0], [0.0, 1.0]]), np.array([-1.0, 0.0, 1.0]))
    assert spectral_moment(hat, 1e-12) == pytest.approx(4.0 * math.log(2.0), rel=1e-11)


def test_spectral_moment_dilation_and_zero():
    t = np.linspace(0.0, 1.0, 101)
    base = spectral_moment(CubicSpline(t, np.sin(math.pi * t) ** 2), 1e-10)
    # p(t) -> p(t / s) multiplies the moment by s^0: |p_hat|^2 gains s^2
    # and w dw loses it.
    stretched = spectral_moment(CubicSpline(5.0 * t, np.sin(math.pi * t) ** 2), 1e-10)
    assert stretched == pytest.approx(base, rel=1e-12)
    assert spectral_moment(CubicSpline(t, np.zeros_like(t)), 1e-10) == 0.0
    with pytest.raises(ValidationError):
        spectral_moment(CubicSpline(t, t * (1.0 - t)), 0.0)


@pytest.mark.parametrize("n", [2, 3, 17, 200])
def test_gauss_legendre_matches_leggauss(n):
    nodes, weights = gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
    # leggauss's own weights drift from the exact ones as n grows (2e-11
    # relative at n = 200), so they are a reference only to that level.
    assert np.max(np.abs(weights / ref_weights - 1.0)) <= (1e-13 if n < 200 else 1e-10)


def test_gauss_legendre_4096_is_exact_for_even_monomials():
    # leggauss is off by 4.6e-7 in its end weight here, so exactness is the
    # reference: the rule integrates x^(2k) exactly for 2k < 2n.
    nodes, weights = gauss_legendre(4096)
    assert nodes.shape == weights.shape == (4096,)
    assert np.all(np.diff(nodes) > 0.0) and -1.0 < nodes[0] and nodes[-1] < 1.0
    assert np.array_equal(nodes, -nodes[::-1])
    assert abs(np.sum(weights) - 2.0) <= 1e-14
    for k in range(101):
        exact = 2.0 / (2 * k + 1)
        assert abs(np.sum(weights * nodes ** (2 * k)) - exact) <= 3e-14 * exact, k


def test_gauss_legendre_rejects_bad_order():
    for n in (0, -3, 2.5):
        with pytest.raises(ValidationError):
            gauss_legendre(n)


def _window(phi_of_t, t):
    phi = phi_of_t(t)
    return WindowFunction(shape=WindowShape.TABULATED, width_T=1.0,
                          samples=np.column_stack([t, phi / np.trapezoid(phi, t)]))


def _gaussian_cut(cut):
    return _window(lambda t: np.exp(-0.5 * t**2), np.linspace(-cut, cut, 801))


@pytest.mark.parametrize("cut", [3.0, 4.0])
def test_gaussian_cut_short_diverges(cut):
    # phi(+-cut)^2 / (2 pi^2) per e-fold of cutoff exceeds 1e-10 of the
    # finite part 1 / (4 pi^2): at 4T, 1.8e-9 against 2.5e-12.
    with pytest.raises(DivergentIntegralError, match="per e-fold"):
        averaged_variance(_gaussian_cut(cut))


def test_box_window_diverges():
    with pytest.raises(DivergentIntegralError, match="per e-fold"):
        averaged_variance(_window(np.ones_like, np.linspace(0.0, 1.0, 801)))


@pytest.mark.parametrize("cut", [5.0, 6.0, 8.0])
def test_gaussian_cut_long_converges(cut):
    variance = averaged_variance(_gaussian_cut(cut))
    closed = 1.0 / (4.0 * math.pi**2)
    # Cutting at 5T (and renormalizing) shifts the variance by ~1e-6; the
    # growth there, 2e-13 per e-fold, is below rel_tol of the finite part.
    assert variance == pytest.approx(closed, rel=2e-6 if cut == 5.0 else 1e-8)


def _hann_variance_by_quad():
    """Variance of phi = 1 - cos(2 pi t) on [0, 1] from its closed-form transform.

    |phi_hat(u)|^2 u = 64 pi^4 sin^2(u/2) / (u (u^2 - 4 pi^2)^2), written
    with e = u - 2 pi so the removable 0/0 at u = 2 pi is a sinc.
    """
    def integrand(u):
        half_sinc = 0.5 * np.sinc((u - 2.0 * math.pi) / (2.0 * math.pi))
        return 64.0 * math.pi**4 * half_sinc**2 / (u * (u + 2.0 * math.pi) ** 2)

    split = 200.0
    head = quad(integrand, 0.0, split, limit=500, epsabs=0.0, epsrel=1e-13)[0]
    # Beyond the split the integrand is 32 pi^4 (1 - cos u) / u^5 to 1e-3.
    smooth = 32.0 * math.pi**4 / (4.0 * split**4)
    wave = quad(lambda u: 32.0 * math.pi**4 / u**5, split, np.inf, weight="cos", wvar=1.0)[0]
    return (head + smooth - wave) / (2.0 * math.pi**2)


def test_hann_window_converges_to_its_transform():
    hann = _window(lambda t: 1.0 - np.cos(2.0 * math.pi * t), np.linspace(0.0, 1.0, 801))
    assert averaged_variance(hann) == pytest.approx(_hann_variance_by_quad(), rel=1e-8)


def test_sample_columns_validation():
    t = np.linspace(0.0, 1.0, 10)
    good = np.column_stack([t, t**2])
    got_t, got_v = sample_columns(good, 8, "x")
    assert np.array_equal(got_t, t) and np.array_equal(got_v, t**2)
    with pytest.raises(ValidationError, match=r"\(n, 2\) array of \(t, x\)"):
        sample_columns(t, 8, "x")
    with pytest.raises(ValidationError, match="at least 16"):
        sample_columns(good, 16, "x")
    with pytest.raises(ValidationError, match="strictly increasing"):
        sample_columns(good[::-1], 8, "x")
    bad = good.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        sample_columns(bad, 8, "x")
