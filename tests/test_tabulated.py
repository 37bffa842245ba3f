"""Spline Fourier kernel, spectral moments, Gauss-Legendre nodes, validation."""

import math
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PPoly

from supertime import tabulated
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


def _l1_scale(pp):
    """int |pp(t)| dt, to the few digits a tolerance scale needs."""
    t = np.linspace(pp.x[0], pp.x[-1], 64 * len(pp.x))
    return float(np.trapezoid(np.abs(pp(t)), t))


def _factored_transform(pp, centers, width):
    """The factored route of spectral_moment: nodes and transform at its panels."""
    ref_nodes, _ = gauss_legendre(24)
    spline = tabulated._prepare(*tabulated._pieces(pp))
    return tabulated._panel_fourier(spline, 0.5 * width * ref_nodes)(centers)


def _rounding_scale(pp, nodes):
    """Per node, the larger of the L1 scale and the magnitude of the terms its transform sums.

    Each piece adds its power-series terms below the switch and its
    closed-form end terms, divided by powers of omega, above it.  Near the
    switch those terms are far larger than the transform they cancel to,
    and rounding the phases by an ulp moves the sum by an ulp of them.
    """
    x, h, a = tabulated._pieces(pp)
    spline = tabulated._prepare(x, h, a)
    w = np.abs(nodes)[:, None]
    small = w * h < SWITCH                                          # (nodes, pieces)
    j = np.arange(spline.series.shape[1])
    series = (w * spline.unit) ** j @ np.abs(spline.series).T
    k = np.arange(1.0, 5.0)
    ends = np.abs(spline.closed_right) + np.abs(spline.closed_left)
    with np.errstate(divide="ignore"):
        closed = w ** -k @ ends.T
    terms = np.where(small, series, closed).sum(axis=1)
    return np.maximum(_l1_scale(pp), terms), small


def _check_panel_phases(pp, centers, width):
    """The factored route agrees with spline_fourier at every node of the panels.

    To 1e-14 of the rounding scale, or 4 eps sqrt(n) of it for n > 128
    pieces: both routes round their n-term knot sums, and that rounding
    grows as sqrt(n) (1.1 eps sqrt(n) seen on 3200 pieces near the switch).
    """
    nodes, got = _factored_transform(pp, centers, width)
    assert np.array_equal(nodes, (centers[:, None] + 0.5 * width * gauss_legendre(24)[0]).ravel())
    scale, small = _rounding_scale(pp, nodes)
    tol = max(1e-14, 4.0 * np.finfo(float).eps * math.sqrt(len(pp.x) - 1))
    assert np.all(np.abs(got - spline_fourier(pp, nodes)) <= tol * scale)
    return small


def test_factored_panel_phases_match_spline_fourier_on_uniform_knots():
    # 3201 knots: 24 x 3201 phases per panel, so each run of 8 panels takes
    # three blocks (3 + 3 + 2).  The second run straddles the switch, so its
    # rows take the series on every piece or the closed form on every piece.
    t = np.linspace(-8.0, 8.0, 3201)
    pp = CubicSpline(t, np.exp(-0.5 * t**2))
    width = 2.0 * 18.0 / (t[-1] - t[0])
    switch_panel = int(SWITCH / np.diff(t).max() / width)
    for first in (0, switch_panel - 4):
        small = _check_panel_phases(pp, width * (np.arange(first, first + 8) + 0.5), width)
    assert small.all(axis=1).any() and (~small).all(axis=1).any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factored_panel_phases_match_spline_fourier_on_random_knots(seed):
    # The splines of test_spline_fourier_matches_quadrature_across_the_switch,
    # on the panels of spectral_moment up to past the switch of the
    # narrowest piece: series, closed-form and mixed rows all occur.
    spline = _random_spline(np.random.default_rng(seed), 12)
    for pp in (spline, spline.derivative(), spline.derivative(2)):
        width = 2.0 * 18.0 / (pp.x[-1] - pp.x[0])
        last = int(SWITCH / np.diff(pp.x).min() / width) + 2
        small = _check_panel_phases(pp, width * (np.arange(last) + 0.5), width)
        mixed = small.any(axis=1) & ~small.all(axis=1)
        assert small.all(axis=1).any() and (~small).all(axis=1).any() and mixed.any()


def _gaussian_spline(samples):
    t = np.linspace(-8.0, 8.0, samples)
    phi = np.exp(-0.5 * t**2)
    return CubicSpline(t, phi / CubicSpline(t, phi).integrate(t[0], t[-1]))


def _sin2_velocity(samples):
    t = np.linspace(0.0, 1.0, samples)
    return CubicSpline(t, np.sin(0.5 * math.pi * t) ** 2, bc_type="clamped").derivative()


@pytest.mark.parametrize("pp", [_gaussian_spline(801), _gaussian_spline(3201),
                                _sin2_velocity(400)],
                         ids=["gaussian-801", "gaussian-3201", "sin2-400"])
def test_spectral_moment_matches_the_direct_panel_body(pp, monkeypatch):
    # The same moment with every panel transformed by spline_fourier, a cos
    # and a sin per phase, instead of the factored phases.
    panels = {"factored": [], "direct": []}
    factored = tabulated._panel_fourier

    def recorded(route, panel_fourier):
        def prepare(spline, offsets):
            at = panel_fourier(spline, offsets)

            def record(centers):
                panels[route].append(centers.copy())
                return at(centers)
            return record
        return prepare

    def direct(spline, offsets):
        def at(centers):
            nodes = (centers[:, None] + offsets).ravel()
            return nodes, spline_fourier(pp, nodes)
        return at

    monkeypatch.setattr(tabulated, "_panel_fourier", recorded("factored", factored))
    got = spectral_moment(pp, 1e-10)
    monkeypatch.setattr(tabulated, "_panel_fourier", recorded("direct", direct))
    expected = spectral_moment(pp, 1e-10)
    assert len(panels["factored"]) == len(panels["direct"]) >= 1
    for mine, theirs in zip(panels["factored"], panels["direct"]):
        assert np.array_equal(mine, theirs)
    assert abs(got - expected) <= 1e-14 * expected


def _old_rule(spline, w):
    """The knot-sum rows of the row rule before it reached below the switch:
    those where every piece has |w h| >= 1/2."""
    return np.abs(w) * spline.unit * spline.rel_h.min() >= SWITCH


def _drawn_piecewise(seed, pieces, uniform, variant):
    """A spline on ``pieces`` uniform or random pieces of [-1, 2], a derivative
    of one, or a piecewise cubic that jumps at every knot.

    Random widths lie within a factor 4 of each other.  The panels up to
    the narrowest switch then reach omega (x - middle) of a few hundred,
    where the rounding of the phase arguments, which every route carries,
    stays inside the tolerance of ``_check_panel_phases``.
    """
    rng = np.random.default_rng(seed)
    widths = np.ones(pieces) if uniform else rng.uniform(0.25, 1.0, pieces)
    x = 3.0 * np.concatenate([[0.0], np.cumsum(widths)]) / np.sum(widths) - 1.0
    x[-1] = 2.0
    if variant == "discontinuous":
        return PPoly(rng.normal(size=(4, pieces)), x)
    spline = CubicSpline(x, rng.normal(size=pieces + 1))
    return spline.derivative(variant) if variant else spline


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(deadline=None, max_examples=40, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), pieces=st.integers(2, 400), uniform=st.booleans(),
       variant=st.sampled_from([0, 1, 2, "discontinuous"]))
@example(seed=0, pieces=12, uniform=False, variant=0)
@example(seed=1, pieces=12, uniform=False, variant=1)
@example(seed=2, pieces=12, uniform=False, variant=2)
@example(seed=3, pieces=12, uniform=True, variant="discontinuous")
@example(seed=4, pieces=1, uniform=True, variant="discontinuous")  # no interior knot
def test_knot_sum_rows_are_a_suffix_and_match_the_old_rule(seed, pieces, uniform, variant):
    # On the panels of spectral_moment up to past the switch of the
    # narrowest piece, the factored route with the knot sum wherever its
    # terms are no larger than the series' agrees with the route that
    # takes it only where every piece is past the switch, to the rounding
    # of the terms the old rule sums; on 12 pieces, with quadrature too.
    pp = _drawn_piecewise(seed, pieces, uniform, variant)
    width = 2.0 * 18.0 / (pp.x[-1] - pp.x[0])
    last = int(SWITCH / np.diff(pp.x).min() / width) + 2
    centers = width * (np.arange(last) + 0.5)
    nodes, got = _factored_transform(pp, centers, width)
    with mock.patch.object(tabulated, "_knot_sum_rows", _old_rule):
        _, old = _factored_transform(pp, centers, width)
    scale, _ = _rounding_scale(pp, nodes)
    tol = max(1e-14, 4.0 * np.finfo(float).eps * math.sqrt(pieces))
    assert np.all(np.abs(got - old) <= tol * scale)
    spline = tabulated._prepare(*tabulated._pieces(pp))
    knot_rows = tabulated._knot_sum_rows(spline, nodes)
    first = int(np.argmax(knot_rows))
    assert knot_rows[-1] and knot_rows[first:].all()
    if pieces == 12:
        l1 = _l1_scale(pp)
        for i in {*range(max(first - 2, 0), first + 2), len(nodes) - 1}:
            assert abs(got[i] - _quad_fourier(pp, nodes[i])) <= 1e-12 * l1, nodes[i]


def _hann_spline():
    t = np.linspace(0.0, 1.0, 801)
    return CubicSpline(t, 1.0 - np.cos(2.0 * math.pi * t))


@pytest.mark.parametrize("pp", [_gaussian_spline(801), _gaussian_spline(3201),
                                _sin2_velocity(400), _hann_spline(),
                                PPoly(np.array([[1.0, -1.0], [0.0, 1.0]]),
                                      np.array([-1.0, 0.0, 1.0]))],
                         ids=["gaussian-801", "gaussian-3201", "sin2-400", "hann", "hat"])
def test_spectral_moment_is_the_same_under_the_old_row_rule(pp, monkeypatch):
    got = spectral_moment(pp, 1e-10)
    monkeypatch.setattr(tabulated, "_knot_sum_rows", _old_rule)
    assert abs(got - spectral_moment(pp, 1e-10)) <= 1e-14 * got


def _derivative_jumps(x, h, a):
    """Knot jumps from the end derivatives of each piece, as first written."""
    left, right = tabulated._end_derivatives(a, h)
    jumps = np.zeros((4, len(x)))
    jumps[:, 1:] += right
    jumps[:, :-1] -= left
    _, right_terms = tabulated._end_derivatives(np.abs(a), h)
    rounding = 16.0 * np.finfo(float).eps * np.maximum(right_terms[:, :-1], np.abs(left[:, 1:]))
    inner = jumps[:, 1:-1]
    inner[np.abs(inner) <= rounding] = 0.0
    return jumps


@pytest.mark.parametrize("pp", [_gaussian_spline(801), _sin2_velocity(400),
                                _random_spline(np.random.default_rng(0), 12)],
                         ids=["gaussian-801", "sin2-400", "random-12"])
def test_knot_jumps_are_the_unsigned_closed_form_knot_terms(pp):
    # The jumps come from the prepared spline's closed-form knot terms; they
    # equal the derivative differences, and zeroing the rounding-level ones
    # leaves the terms the transform sums untouched.
    x, h, a = tabulated._pieces(pp)
    spline = tabulated._prepare(x, h, a)
    closed_knots = spline.closed_knots.copy()
    jumps = tabulated._knot_jumps(spline, h, a)
    assert np.array_equal(jumps, _derivative_jumps(x, h, a))
    assert spline.closed_knots.tobytes() == closed_knots.tobytes()
    assert np.any((jumps == 0.0) & (closed_knots.T != 0.0))


def _loop_interior_bound(jumps, x):
    """The bound of ``tabulated._interior_bound`` term by term, as first written."""
    mag = np.abs(jumps)
    ends, inner = mag[:, [0, -1]], mag[:, 1:-1]
    distance = np.abs(x[[0, -1]][:, None] - x[None, 1:-1])
    closest = float(np.min(np.diff(x)))
    spread = np.einsum("ke,le->kl", ends, inner @ (1.0 / distance).T)
    plain = np.outer(ends.sum(axis=1), inner.sum(axis=1))
    sums = inner.sum(axis=1)
    apart = np.outer(sums, sums) - inner @ inner.T

    def bound(cutoff):
        total = 0.0
        for k in range(4):
            for kk in range(4):
                q = k + kk
                oscillating = 2.0 * spread[k, kk] * cutoff ** -(q + 1)
                if q:
                    total += 2.0 * min(oscillating, plain[k, kk] * cutoff ** -q / q)
                    total += apart[k, kk] * cutoff ** -q / q
                else:
                    total += 2.0 * oscillating + 2.0 * apart[k, kk] / (closest * cutoff)
        return total

    return bound


@pytest.mark.parametrize("pp", [_gaussian_spline(801), _sin2_velocity(400),
                                _random_spline(np.random.default_rng(0), 12),
                                PPoly(np.random.default_rng(1).normal(size=(4, 12)),
                                      np.sort(np.random.default_rng(2).uniform(size=13)))],
                         ids=["gaussian-801", "sin2-400", "random-12", "discontinuous-12"])
def test_interior_bound_matches_the_term_by_term_loop(pp):
    # Cutoffs from well below to well above the knot spacing's scale, so that
    # each term takes both sides of its min; only the discontinuous case has
    # interior jumps of the value itself, the q = 0 interior term.
    x, h, a = tabulated._pieces(pp)
    jumps = tabulated._knot_jumps(tabulated._prepare(x, h, a), h, a)
    bound, reference = tabulated._interior_bound(jumps, x), _loop_interior_bound(jumps, x)
    for cutoff in np.geomspace(1e-3, 1e9, 61) / (x[-1] - x[0]):
        assert bound(cutoff) == pytest.approx(reference(cutoff), rel=1e-14, abs=0.0)


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


def _decimal_legendre(n, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence in the current decimal context."""
    prev, cur = Decimal(1), x
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
    return cur, n * (x * cur - prev) / (x * x - 1)


def _reference_node(n, x):
    """The node nearest the double ``x`` and its weight, to 40 digits."""
    with localcontext() as context:
        context.prec = 40
        x = Decimal(float(x))
        # Newton from a double-precision node: two steps reach 40 digits.
        for _ in range(2):
            p, dp = _decimal_legendre(n, x)
            x -= p / dp
        _, dp = _decimal_legendre(n, x)
        return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [24, 400, 4096])
def test_gauss_legendre_matches_a_40_digit_reference(n):
    # The 8 largest nodes, where the recurrence rounding used to cost 6.7e-12
    # of the weight at n = 4096; two either side of the switch from Laplace's
    # integral to Stieltjes' series near (n + 1/2) theta = 30; two interior.
    nodes, weights = gauss_legendre(n)
    for i in sorted({*range(n - 8, n), n - 10, n - 11, (3 * n) // 4, n // 2}):
        node, weight = _reference_node(n, nodes[i])
        assert abs(Decimal(float(nodes[i])) - node) <= Decimal("4e-16"), i
        assert abs(Decimal(float(weights[i])) / weight - 1) <= Decimal("1e-14"), i


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


def test_panel_rule_is_shared_and_read_only():
    nodes, weights = tabulated._panel_rule()
    assert tabulated._panel_rule()[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    expected = gauss_legendre(tabulated._PANEL_NODES)
    assert np.array_equal(nodes, expected[0]) and np.array_equal(weights, expected[1])


class _CountedProducts(np.ndarray):
    """An array that records the operand shapes of every ``@`` it is the left of."""

    shapes: list = []

    def __matmul__(self, other):
        _CountedProducts.shapes.append((self.shape, other.shape))
        return np.asarray(self) @ np.asarray(other)


# (rows, knots): empty, a single row, one block, row blocks, knot blocks too.
@pytest.mark.parametrize("rows, knots", [(0, 40), (1, 3199), (3, 5), (5, 0), (48, 106),
                                         (51, 367), (24, 1154), (24, 3199)])
def test_small_products_are_the_product_in_blocks_under_the_cap(rows, knots):
    rng = np.random.default_rng(rows * 10_000 + knots)
    a = rng.normal(size=(rows, knots)) + 1j * rng.normal(size=(rows, knots))
    # The (knots, offsets) operand is a transposed table, as in _panel_fourier.
    b = (rng.normal(size=(24, knots)) + 1j * rng.normal(size=(24, knots))).T
    _CountedProducts.shapes = []
    got = np.asarray(tabulated._small_products(a.view(_CountedProducts), b))
    want = a @ b
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * (np.abs(a) @ np.abs(b)))
    for (m, k), (_, n) in _CountedProducts.shapes:
        assert m >= 2 and m * k * n <= tabulated._PRODUCT_MACS, (m, k, n)
    if rows == 1:
        assert _CountedProducts.shapes == []


def test_gauss_legendre_rejects_bad_order():
    for n in (0, -3, 2.5):
        with pytest.raises(ValidationError):
            gauss_legendre(n)


def _window(phi_of_t, t):
    # Normalized by the integral of the spline the window is built on.
    phi = phi_of_t(t)
    norm = CubicSpline(t, phi).integrate(t[0], t[-1])
    return WindowFunction(shape=WindowShape.TABULATED, width_T=1.0,
                          samples=np.column_stack([t, phi / norm]))


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
