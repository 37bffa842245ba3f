"""Exact spectral tools for tabulated curves.

Tabulated trajectories and averaging windows are interpolated by cubic
splines (``cubic_spline``, scipy's spline system solved by cyclic
reduction).  The Fourier transform of a piecewise polynomial has a closed
form: integrating each piece by parts until its derivatives vanish leaves
only endpoint terms (Filon-type integration; Iserles & Norsett, Proc. R.
Soc. A 461, 2005).  This module holds the splines, that kernel, the
spectral moment int_0^inf |p_hat|^2 omega domega built on it, the
Gauss-Legendre rule the moment integrates with, and the sample
validation shared by every tabulated input.  None of it loads scipy.

Where every piece is past its series switch, or none is and the knot sum
rounds no worse than the series (``_knot_sum_rows``), the transform is the
knot sum: for each derivative order k, the jumps of p^(k) at the knots x_j
times e^{i omega x_j}.  Other frequencies sum each piece's power series, or
its own end terms.
``spline_fourier`` takes the phase of every (frequency, knot) pair from a
cos and a sin.  The moment only asks for Gauss-Legendre panel nodes
omega = c_p + s_i, whose offsets s_i are the same in every panel, so there
sum_j e^{i omega x_j} K_j = sum_j e^{i s_i x_j} (e^{i c_p x_j} K_j) is a
matrix product over the knots (``_panel_fourier``).  The offsets come in
pairs s, -s, so its offset table holds half of them, and the sums at -s
are real combinations of the same products.  It is made in blocks small
enough to stay on the calling thread; its other rows, few on uniform
knots, take the direct route.  Both routes apply the same row rule.
On either route a block of frequencies, or of panels, holds at most
``_BLOCK_ELEMENTS`` complex phases, unless one frequency's or one panel's
row over the knots alone is more.  Beyond the prepared spline, the
moment's one table over all knots is that of the 12 non-negative offsets.

The Gauss-Legendre rule is built in O(n): Newton's method in theta,
x = cos theta, with P_n(cos theta) evaluated in O(1) per node from
Stieltjes' asymptotic series, or from Laplace's integral near the end nodes
(Hale & Townsend, SIAM J. Sci. Comput. 35, A652, 2013).  The moment's
24-point panel rule is built once per process, on first use.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DivergentIntegralError, ValidationError

__all__ = [
    "sample_columns",
    "PiecewisePolynomial",
    "cubic_spline",
    "gauss_legendre",
    "spline_fourier",
    "spectral_moment",
]

_EPS = float(np.finfo(float).eps)

# Pieces with |omega h| below this use the power series of the piece
# integral; above it, the closed form, whose recurrence divides by omega h
# once per polynomial degree.  _SERIES_TERMS keeps the series truncation
# below 1e-17 at the switch (0.5^16 / 16! ~ 7e-19).
_SERIES_SWITCH = 0.5
_SERIES_TERMS = 16

# Frequency panels: _PANEL_NODES-point Gauss-Legendre on panels of width
# 2 * _PANEL_PHASE / span integrates e^{i span omega} to ~1e-15.
_PANEL_NODES = 24
_PANEL_PHASE = 18.0

# Complex entries of one block of phases: (frequency x knot) phases in
# ``_direct_transform``, a block of panels' centre phases and weighted rows
# in ``_panel_fourier`` (twice as many reals there).  A block holds at least
# one frequency's or one panel's row.
_BLOCK_ELEMENTS = 1 << 15

# Multiply-adds of one block of a knot-sum matrix product
# (``_small_products``).  A threaded BLAS runs a product this small on the
# calling thread.  Split across threads it would gain little, its second
# thread would spin on for milliseconds after it, and waiting for that
# thread while another process holds its CPU costs milliseconds more.
_PRODUCT_MACS = 1 << 16

# Cap on the frequency panels of one spectral moment: a bound that needs
# more than this cannot be met at the requested tolerance in double precision.
_MAX_PANELS = 1 << 16


def sample_columns(samples, min_rows: int, value_name: str):
    """Validate an (n, 2) array of (t, value) samples; return (t, value).

    Requires at least ``min_rows`` finite rows with strictly increasing t.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValidationError(f"samples must be an (n, 2) array of (t, {value_name})")
    if samples.shape[0] < min_rows:
        raise ValidationError(
            f"need at least {min_rows} samples, got {samples.shape[0]}")
    if not np.all(np.isfinite(samples)):
        raise ValidationError("samples must be finite")
    t, value = samples[:, 0], samples[:, 1]
    if not np.all(np.diff(t) > 0.0):
        raise ValidationError("sample times must be strictly increasing")
    return t, value


# --- cubic splines ------------------------------------------------------------


class PiecewisePolynomial(NamedTuple):
    """p(t) = sum_m c[m, i] (t - x_i)^(k - m) on [x_i, x_{i+1}], k = len(c) - 1.

    The layout of ``scipy.interpolate.PPoly``, which ``spline_fourier`` and
    ``spectral_moment`` read.
    """

    x: np.ndarray              # (pieces + 1,): breakpoints, increasing
    c: np.ndarray              # (k + 1, pieces): local coefficients, highest power first

    def derivative(self, nu: int = 1) -> PiecewisePolynomial:
        """The nu-th derivative, 1 <= nu <= k."""
        degree = len(self.c) - 1
        factor = np.array([math.perm(p, nu) for p in range(degree, nu - 1, -1)], dtype=float)
        return PiecewisePolynomial(self.x, self.c[:degree + 1 - nu] * factor[:, None])

    def integral(self) -> float:
        """int p over [x_0, x_last]."""
        power = np.arange(len(self.c), 0, -1)[:, None]
        return float(np.sum(self.c * np.diff(self.x) ** power / power))

    def __call__(self, t, nu: int = 0) -> np.ndarray:
        """p^(nu)(t).  A knot belongs to the piece on its right, the last knot
        to the last piece; the end pieces extend past the breakpoints."""
        pp = self.derivative(nu) if nu else self
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(pp.x, t, side="right") - 1, 0, len(pp.x) - 2)
        s = t - pp.x[i]
        value = pp.c[0, i]
        for row in pp.c[1:]:
            value = value * s + row[i]
        return value


def cubic_spline(x: np.ndarray, y: np.ndarray, end: str) -> PiecewisePolynomial:
    """The C^2 cubic spline through (x, y), built as ``scipy.interpolate.CubicSpline`` builds it.

    ``end`` is "clamped", a zero first derivative at both ends, or
    "not-a-knot", a continuous third derivative at the second and the
    second-to-last knots; ``x`` is finite and strictly increasing, with at
    least 4 knots, and ``y`` is finite and as long.  The knot slopes s solve scipy's tridiagonal system, row by row
    h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1}
    = 3 (h_i m_{i-1} + h_{i-1} m_i), with h_i the widths and m_i the secants
    of the pieces, and its two end rows.  Eliminating the end slopes from
    their neighbours' rows, as the first step of Gaussian elimination does,
    leaves strictly diagonally dominant interior rows, solved by cyclic
    reduction (``_cyclic_reduction``).  Each piece is then the cubic
    Hermite interpolant of its end values and slopes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValidationError(
            f"knots and values must be 1-D and of one length, got shapes {x.shape} and {y.shape}")
    if len(x) < 4:
        raise ValidationError(f"a cubic spline needs at least 4 knots, got {len(x)}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("knots and values must be finite")
    h = np.diff(x)
    if not np.all(h > 0.0):
        raise ValidationError("knots must be strictly increasing")
    secant = np.diff(y) / h
    lower = np.concatenate([[0.0], h[1:], [0.0]])
    diag = np.concatenate([[1.0], 2.0 * (h[:-1] + h[1:]), [1.0]])
    upper = np.concatenate([[0.0], h[:-1], [0.0]])
    rhs = np.concatenate([[0.0], 3.0 * (h[1:] * secant[:-1] + h[:-1] * secant[1:]), [0.0]])
    if end == "not-a-knot":
        first, last = x[2] - x[0], x[-1] - x[-3]
        diag[0], upper[0] = h[1], first
        rhs[0] = ((h[0] + 2.0 * first) * h[1] * secant[0] + h[0] ** 2 * secant[1]) / first
        diag[-1], lower[-1] = h[-2], last
        rhs[-1] = (h[-1] ** 2 * secant[-2] + (2.0 * last + h[-1]) * h[-2] * secant[-1]) / last
    elif end != "clamped":
        raise ValidationError(f"end must be 'clamped' or 'not-a-knot', got {end!r}")
    for row, end_row, coupling, across in ((1, 0, lower, upper), (-2, -1, upper, lower)):
        factor = coupling[row] / diag[end_row]
        diag[row] -= factor * across[end_row]
        rhs[row] -= factor * rhs[end_row]
        coupling[row] = 0.0
    slopes = np.empty_like(x)
    slopes[1:-1] = _cyclic_reduction(lower[1:-1], diag[1:-1], upper[1:-1], rhs[1:-1])
    slopes[0] = (rhs[0] - upper[0] * slopes[1]) / diag[0]
    slopes[-1] = (rhs[-1] - lower[-1] * slopes[-2]) / diag[-1]
    t = (slopes[:-1] + slopes[1:] - 2.0 * secant) / h
    return PiecewisePolynomial(x, np.stack([t / h, (secant - slopes[:-1]) / h - t,
                                            slopes[:-1], y[:-1]]))


def _cyclic_reduction(lower, diag, upper, rhs) -> np.ndarray:
    """s with lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i].

    lower[0] = upper[-1] = 0, and every row is strictly diagonally dominant.
    Level l eliminates the unknowns at odd multiples of 2^l from the rows
    at multiples of 2^(l+1) (1-based), whose system is again tridiagonal
    and dominant; back substitution then recovers them level by level.
    Every level at least squares the largest ratio of a row's couplings to
    its diagonal (Heller, SIAM J. Numer. Anal. 13, 484, 1976), so once that
    bound is below rounding, the rows left are solved as if decoupled.  The
    rows are padded, with decoupled rows s = 0, to a multiple of 2^levels,
    so that every level works on strided views of one array: O(n) work in
    at most log2(n) levels of array operations.
    """
    n = len(diag)
    coupling = float(np.max((np.abs(lower) + np.abs(upper)) / np.abs(diag)))
    levels = 0
    while coupling > 0.5 * _EPS and (2 << levels) <= n:
        coupling *= coupling
        levels += 1
    step = 1 << levels
    size = -(-(n + 1) // step) * step
    # Rows 1..n, between pad rows; the couplings are held negated.
    system = np.zeros((4, size + 1))
    system[1] = 1.0
    np.negative(lower, out=system[0, 1:n + 1])
    system[1, 1:n + 1] = diag
    np.negative(upper, out=system[2, 1:n + 1])
    system[3, 1:n + 1] = rhs
    a, b, c, d = system
    for level in range(levels):
        stride = 1 << level
        keep, drop = slice(2 * stride, size, 2 * stride), slice(stride, size, 2 * stride)
        a_drop, b_drop, c_drop, d_drop = a[drop], b[drop], c[drop], d[drop]
        left = a[keep] / b_drop[:-1]
        right = c[keep] / b_drop[1:]
        b[keep] -= left * c_drop[:-1] + right * a_drop[1:]
        d[keep] += left * d_drop[:-1] + right * d_drop[1:]
        np.multiply(left, a_drop[:-1], out=a[keep])
        np.multiply(right, c_drop[1:], out=c[keep])
    s = np.zeros(size + 1)
    s[step:size:step] = d[step:size:step] / b[step:size:step]
    for level in reversed(range(levels)):
        stride = 1 << level
        solve = slice(stride, size, 2 * stride)
        s[solve] = (d[solve] + a[solve] * s[0:size - stride:2 * stride]
                    + c[solve] * s[2 * stride::2 * stride]) / b[solve]
    return s[1:n + 1]


# --- Gauss-Legendre nodes -----------------------------------------------------


# Nodes with (n + 1/2) theta below _STIELTJES_SWITCH take Laplace's integral,
# the rest Stieltjes' series.  At the switch, the first term the series omits
# is below 2e-19 of the leading one; _LAPLACE_POINTS midpoints alias Laplace's
# integrand at its 128th Fourier coefficient, about J_128(30) = 2e-66, and are
# exact for every n < 128.
_STIELTJES_SWITCH = 30.0
_STIELTJES_TERMS = 20
_LAPLACE_POINTS = 64


def _legendre_stieltjes(n: int, theta: np.ndarray, scale: float):
    """(P_n(cos theta), dP_n/dtheta) by Stieltjes' series.

    P_n(cos theta) = C_n sum_m h_m cos(alpha_m) / (2 sin theta)^(m + 1/2)
    with alpha_m = (n + m + 1/2) theta - (m + 1/2) pi / 2,
    h_{m+1} = h_m (m + 1/2)^2 / ((m + 1) (n + m + 3/2)), h_0 = 1, and
    ``scale`` = C_n; the derivative is taken term by term.  Each alpha_m
    turns the last by theta - pi/2, so only alpha_0 takes a cos and a sin.
    """
    sin, cos = np.sin(theta), np.cos(theta)
    cot, u = cos / sin, 0.5 / sin
    alpha = (n + 0.5) * theta - 0.25 * math.pi
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    term = np.sqrt(u)
    p, dp = np.zeros_like(theta), np.zeros_like(theta)
    for m in range(_STIELTJES_TERMS):
        half = m + 0.5
        p += term * cos_a
        dp -= term * ((n + half) * sin_a + half * cot * cos_a)
        cos_a, sin_a = sin_a * cos + cos_a * sin, sin_a * sin - cos_a * cos
        term *= u * (half * half / ((m + 1) * (n + half + 1.0)))
    return scale * p, scale * dp


def _legendre_laplace(n: int, theta: np.ndarray):
    """(P_n(cos theta), dP_n/dtheta) from Laplace's integral.

    P_n(cos theta) = (1/pi) int_0^pi z^n dphi, z = cos theta + i sin theta cos phi,
    by the midpoint rule, and its theta-derivative n z^(n-1) dz/dtheta
    likewise.  z^n is formed from log|z| = log1p(-sin^2 theta sin^2 phi) / 2
    and arg z: the log of a rounded |z|^2 = cos^2 theta + sin^2 theta cos^2 phi
    would carry an ulp of 1 that the power multiplies by n.
    """
    phi = (np.arange(_LAPLACE_POINTS) + 0.5) * (math.pi / _LAPLACE_POINTS)
    sin, cos = np.sin(theta)[:, None], np.cos(theta)[:, None]
    cos_phi = np.cos(phi)
    log_mod = 0.5 * np.log1p(-(sin * np.sin(phi)) ** 2)
    arg = np.arctan2(sin * cos_phi, cos)
    p = np.exp(n * log_mod) * np.cos(n * arg)
    # Re[n z^(n-1) (-sin theta + i cos theta cos phi)]
    dp = n * np.exp((n - 1) * log_mod) * (
        -sin * np.cos((n - 1) * arg) - cos * cos_phi * np.sin((n - 1) * arg))
    return p.mean(axis=1), dp.mean(axis=1)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule.

    Newton's method in theta, x = cos theta, from Tricomi's initial
    guesses, on the nonnegative half of the nodes (the rule is symmetric).
    P_n(cos theta) and dP_n/dtheta are evaluated vectorized over the nodes
    in O(1) work each: by Stieltjes' asymptotic series where
    (n + 1/2) theta >= 30 and by a 64-point rule on Laplace's integral
    nearer the end nodes (Hale & Townsend, SIAM J. Sci. Comput. 35, A652,
    2013).  O(n) work and memory in all, against the O(n^2) of the three-term
    recurrence and the O(n^3) eigenvalue route of
    ``numpy.polynomial.legendre.leggauss``.  The weight is
    2 / (dP_n/dtheta)^2, from the last Newton step of its node, corrected to
    first order in that step so it belongs to the converged node.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    half = (n + 1) // 2
    k = np.arange(1, half + 1)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2)))
    # C_n = (2 / sqrt(pi)) Gamma(n + 1) / Gamma(n + 3/2) = (4 / pi) prod_j (1 - 1 / (2j + 1)),
    # summed in logs without rounding error: lgamma differences lose 7e-12 at n = 4096.
    scale = 4.0 / math.pi * math.exp(math.fsum(np.log1p(-1.0 / (2.0 * np.arange(1, n + 1) + 1.0))))
    w = np.empty_like(theta)
    active = np.arange(half)
    for _ in range(20):
        ta = theta[active]
        p, dp = np.empty_like(ta), np.empty_like(ta)
        series = (n + 0.5) * ta >= _STIELTJES_SWITCH
        p[series], dp[series] = _legendre_stieltjes(n, ta[series], scale)
        p[~series], dp[~series] = _legendre_laplace(n, ta[~series])
        dt = p / dp
        # d ln w / dtheta = -2 P_n'' / P_n' = 2 cot(theta) at a node, with
        # ' = d/dtheta, by Legendre's equation in theta.
        w[active] = 2.0 / dp**2 * (1.0 - 2.0 * dt / np.tan(ta))
        theta[active] = ta - dt
        active = active[np.abs(dt) > 4.0 * _EPS]
        if active.size == 0:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre Newton iteration stalled for n={n}")
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # P_n is odd: the middle node is exactly zero
    # x holds the nodes in [0, 1), largest first; the first n // 2 of them
    # are mirrored (an odd n adds the middle node 0 once).
    return (np.concatenate([-x[:n // 2], x[::-1]]),
            np.concatenate([w[:n // 2], w[::-1]]))


# --- spline Fourier kernel ----------------------------------------------------


def _pieces(pp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knots x, widths h and local power coefficients a[n, i] of s^n.

    Piece i is sum_n a[n, i] (t - x_i)^n on [x_i, x_{i+1}], padded to
    degree 3.
    """
    x = np.asarray(pp.x, dtype=float)
    c = np.asarray(pp.c, dtype=float)
    if c.ndim != 2:
        raise ValidationError("piecewise polynomial must be scalar-valued")
    degree = c.shape[0] - 1
    if degree > 3:
        raise ValidationError(f"piecewise polynomial degree must be <= 3, got {degree}")
    if not np.all(np.diff(x) > 0.0):
        raise ValidationError("breakpoints must be strictly increasing")
    a = np.zeros((4, c.shape[1]))
    a[:degree + 1] = c[::-1]
    return x, np.diff(x), a


# (-1)^k of the k-th derivative's closed-form term, applied by ``_by_inverse_powers``.
_SIGN = np.array([1.0, -1.0, 1.0, -1.0])


def _end_derivatives(a: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k-th derivatives of every piece at its left and right end, k = 0..3."""
    left = a * np.array([1.0, 1.0, 2.0, 6.0])[:, None]
    right = np.zeros_like(a)
    for k in range(4):
        for n in range(k, 4):
            right[k] += a[n] * (math.factorial(n) // math.factorial(n - k)) * h ** (n - k)
    return left, right


class _Spline(NamedTuple):
    """A piecewise polynomial prepared for ``_transform``.

    The end derivatives and the knot jumps, with p = 0 outside [x_0, x_m],
    are held without the sign (-1)^k of their closed-form terms, which
    ``_by_inverse_powers`` applies.  With the jumps,
    p_hat(w) = sum_k (-1)^k (i w)^-(k+1) sum_j jumps[j, k] e^{i w x_j}
    exactly for w != 0.  Series powers are in units of the widest piece, so
    that high powers of h and omega stay in range.  Knots are taken relative to the middle of
    their range, so that each phase argument w * knot[j] is one product of
    at most half the span: its rounding, which the phase carries, is small.
    """

    middle: float              # middle of the breakpoint range
    unit: float                # width of the widest piece
    knot: np.ndarray           # (knots,): breakpoints less ``middle``
    rel_h: np.ndarray          # (pieces,)
    series: np.ndarray         # (pieces, terms): power series of each piece
    right: np.ndarray          # (pieces, 4): k-th derivatives at right ends
    left: np.ndarray           # (pieces, 4): and at left ends
    jumps: np.ndarray          # (knots, 4): p^(k)(x_j-) - p^(k)(x_j+), rounding-level interior entries zeroed
    knot_scale: np.ndarray     # (4,): sum over knots of |jumps|, zeroed entries included
    series_scale: np.ndarray   # (terms,): sum over pieces of |series|


def _prepare(x: np.ndarray, h: np.ndarray, a: np.ndarray) -> _Spline:
    """Series coefficients, end derivatives and knot jumps of the pieces of ``_pieces``.

    Interior jumps within rounding of the derivative values they difference
    are set to zero: a spline is continuous to working precision in the
    derivatives it claims.

    Every temporary is a vector over the pieces, or four of them, and the
    jumps are settled before the series is built: the (terms, pieces)
    series, the largest table here, is made by one contraction over the
    four coefficients and scaled row by row in place, with the powers of h
    and ``rel_h`` taken as running products.
    """
    left, right = _end_derivatives(a, h)
    # The right end of piece i-1 and the left end of piece i share knot i.
    jumps = np.zeros((len(x), 4))
    jumps[1:] += right.T
    jumps[:-1] -= left.T
    knot_scale = np.abs(jumps).sum(axis=0)
    # Rounding of a derivative value is relative to the terms it sums.
    left_terms, right_terms = _end_derivatives(np.abs(a), h)
    rounding = 16.0 * _EPS * np.maximum(right_terms[:, :-1], left_terms[:, 1:]).T
    del left_terms, right_terms
    inner = jumps[1:-1]
    inner[np.abs(inner) <= rounding] = 0.0
    del rounding
    unit = float(h.max())
    rel_h = h / unit
    j = np.arange(_SERIES_TERMS)
    # int_0^h q(s) e^{i w s} ds = h sum_j (i w h)^j c_j with
    # c_j = (1/j!) sum_n a_n h^n / (n + j + 1); with the left-knot phase
    # attached, (i w unit)^j factors out of a sum over pieces.
    scaled = a.copy()
    power = h.copy()
    for row in scaled[1:]:
        row *= power
        power *= h
    # An einsum without ``optimize`` calls no BLAS, so no BLAS thread wakes
    # however many pieces there are.
    coefficients = np.einsum("nm,jn->jm", scaled, 1.0 / (np.arange(4)[None, :] + j[:, None] + 1.0))
    del scaled
    series_scale = np.empty(_SERIES_TERMS)
    power[:] = 1.0
    for row in range(_SERIES_TERMS):
        series_row = coefficients[row]
        series_row *= 1.0 / math.factorial(row)
        series_row *= h
        series_row *= power
        power *= rel_h
        series_scale[row] = np.abs(series_row).sum()
    series = coefficients.T
    middle = 0.5 * (float(x[0]) + float(x[-1]))
    return _Spline(middle=middle, unit=unit, knot=x - middle, rel_h=rel_h, series=series,
                   right=right.T, left=left.T, jumps=jumps, knot_scale=knot_scale,
                   series_scale=series_scale)


def _rows(mask: np.ndarray):
    """Index of the rows in ``mask``: a slice, which copies nothing, if they are adjacent.

    Each kind of row mostly is, on the ascending nodes of ``spectral_moment``.
    """
    index = np.flatnonzero(mask)
    first, last = int(index[0]), int(index[-1])
    return slice(first, last + 1) if last - first + 1 == len(index) else mask


def _knot_sum_rows(spline: _Spline, w: np.ndarray) -> np.ndarray:
    """The rows that take the knot sum ``spline.jumps`` for the whole transform.

    Row r does where w[r] != 0 and either every piece has |w h| >= 1/2, or
    no piece has and the knot terms are no larger than the series terms of
    the other route:
    C(w) = sum_k |w|^-(k+1) knot_scale[k] <= S(w) = sum_m |w unit|^m series_scale[m].
    Each side is the magnitude of the terms its route adds, which sets its
    rounding; C also covers the rounding-level terms the knot sum leaves
    out.  C falls with |w| and S rises, so on ascending nodes these rows
    are a suffix.  Rows where some pieces are past their switch and others
    are not (mixed rows, on uneven knots) take the per-piece route.
    """
    wu = np.abs(w) * spline.unit
    closed = wu * spline.rel_h.min() >= _SERIES_SWITCH
    # At w = 0, C is infinite (or 0 * inf): never the knot sum.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        knot = np.abs(w)[:, None] ** -np.arange(1.0, 5.0) @ spline.knot_scale
        series = np.vander(wu, _SERIES_TERMS, increasing=True) @ spline.series_scale
    return closed | ((wu < _SERIES_SWITCH) & (knot <= series))


def _transform(spline: _Spline, w: np.ndarray, cos: np.ndarray, sin: np.ndarray):
    """The transform of ``spline`` at the frequencies ``w``.

    Row r of ``cos`` and ``sin`` holds the cosine and sine of
    w[r] * (x_j - middle) at every knot x_j.  Rows of ``_knot_sum_rows`` take
    the knot sum; the others take the series on every piece where
    |w unit| < 1/2, and otherwise the series or the closed form on each
    piece by its own |w h|.
    """
    wu = w * spline.unit
    value = np.empty(len(w), dtype=complex)
    # Rows whose pieces all take one branch need no per-piece mask
    # (every row, when the knots are uniform).
    knot_rows = _knot_sum_rows(spline, w)
    series_rows = ~knot_rows & (np.abs(wu) < _SERIES_SWITCH)
    mixed_rows = ~(knot_rows | series_rows)
    if series_rows.any():
        rows = _rows(series_rows)
        value[rows] = _series_sum(cos[rows, :-1], sin[rows, :-1], spline.series, wu[rows])
    if knot_rows.any():
        rows = _rows(knot_rows)
        value[rows] = _closed_sum(cos[rows], sin[rows], spline.jumps, w[rows])
    if mixed_rows.any():
        rows = _rows(mixed_rows)
        small = np.abs(np.outer(wu[rows], spline.rel_h)) < _SERIES_SWITCH
        big = ~small
        c, s, wm = cos[rows], sin[rows], w[rows]
        value[rows] = (
            _series_sum(c[:, :-1] * small, s[:, :-1] * small, spline.series, wu[rows])
            + _closed_sum(c[:, 1:] * big, s[:, 1:] * big, spline.right, wm)
            - _closed_sum(c[:, :-1] * big, s[:, :-1] * big, spline.left, wm))
    return value * np.exp(1j * w * spline.middle)


def _direct_transform(spline: _Spline, w: np.ndarray) -> np.ndarray:
    """``_transform`` at the 1-D ``w`` from a cos and a sin per (frequency, knot), in blocks."""
    out = np.empty(len(w), dtype=complex)
    step = max(1, _BLOCK_ELEMENTS // len(spline.knot))
    for start in range(0, len(w), step):
        block = w[start:start + step]
        arg = np.outer(block, spline.knot)
        out[start:start + step] = _transform(spline, block, np.cos(arg), np.sin(arg))
    return out


def spline_fourier(pp, omega):
    """Exact int pp(t) e^{i omega t} dt over the breakpoint range of ``pp``.

    ``pp`` is a scalar piecewise polynomial of degree <= 3 with breakpoints
    ``pp.x`` and coefficients ``pp.c`` in the layout of
    ``scipy.interpolate.PPoly``: a ``PiecewisePolynomial`` (a
    ``cubic_spline``, or a derivative of one), or scipy's own.  Each
    frequency takes one of

    - the knot sum of repeated integration by parts, for omega != 0,
      sum_k (-1)^k (i omega)^-(k+1) sum_j [jump of p^(k) at x_j] e^{i omega x_j},
      where every piece has |omega h| >= 1/2, or where none has and its
      terms are no larger than the series' (``_knot_sum_rows``);
    - otherwise, piece by piece, the power series
      e^{i omega x_i} h sum_j (i omega h)^j c_j of [x_i, x_i + h] where
      |omega h| < 1/2, which does not cancel as omega h -> 0, and that
      piece's own closed-form end terms above.

    All are the exact integral and agree to rounding.  Accepts scalar or
    array omega (any sign) and returns complex values of the same shape.
    The knot phases take a cos and a sin per (frequency, knot);
    ``spectral_moment`` contracts its knot sums over the knots instead
    (``_panel_fourier``), and both apply the same row rule.
    """
    spline = _prepare(*_pieces(pp))
    w_all = np.asarray(omega, dtype=float)
    out = _direct_transform(spline, w_all.ravel())
    if w_all.ndim == 0:
        return complex(out[0])
    return out.reshape(w_all.shape)


def _phases(w: np.ndarray, knot: np.ndarray) -> np.ndarray:
    """e^{i w knot} for every (w, knot) pair, from a cos and a sin of each argument."""
    arg = np.outer(w, knot)
    phase = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
    return phase


def _panel_fourier(spline: _Spline, offsets: np.ndarray):
    """The transform at the nodes c + offsets of panels centred at c.

    Returns a function of the panel centres that gives (nodes, transform),
    panel by panel.  With w = c + s, e^{i w x} = e^{i c x} e^{i s x}, so for
    every order k the knot sum is
    sum_j e^{i w x_j} K[j, k] = sum_j e^{i s x_j} W[j, k], W = e^{i c x_j} K[j, k],
    a matrix product over the knots of a (panels x orders) weighted table
    and a (knots, offsets) one.  Only the interior knots and the orders
    with a nonzero interior term enter the product; the two end knots are
    added directly.

    ``offsets`` must be of even length and antisymmetric,
    s_{n-1-i} = -s_i exactly, as ``gauss_legendre`` mirrors its nodes.
    The offset table then holds the non-negative half, as cos and sin
    columns, and with W = A + iB, e^{i s x} = C + iS, a real product gives
    AC, AS, BC and BS at once:
    sum W e^{i s x} = (AC - BS) + i (AS + BC) and
    sum W e^{-i s x} = (AC + BS) + i (BC - AS).  The product is made in
    pieces small enough to stay on the calling thread (``_small_products``).

    The offset table spans the interior knots and is built once.  Blocks of
    panels hold their centre phases and weighted rows in at most
    ``_BLOCK_ELEMENTS`` complex entries, or twice as many reals, unless one
    panel alone is more.  The rows that ``_knot_sum_rows`` leaves out, at
    most about the first panel's on uniform knots, are replaced by
    ``_transform`` on a cos and a sin per phase.
    """
    count = len(offsets) // 2
    terms = spline.jumps
    orders = np.flatnonzero(np.any(terms[1:-1] != 0.0, axis=0))
    interior = spline.knot[1:-1]
    inner = terms[1:-1, orders].T                                # (orders, interior)
    # (interior, 2 count): the cos and the sin of s x_j for the non-negative
    # offsets, the sin taken first from the arguments the cos then replaces.
    table = np.empty((len(interior), 2 * count))
    np.multiply.outer(interior, offsets[count:], out=table[:, :count])
    np.sin(table[:, :count], out=table[:, count:])
    np.cos(table[:, :count], out=table[:, :count])
    step = max(1, _BLOCK_ELEMENTS // (max(1, len(orders)) * max(1, len(interior))))

    def interior_sums(centers: np.ndarray) -> np.ndarray:
        """(panels, offsets, orders): the interior knot sums at every node of the panels."""
        # [A; B] @ [C, S] per (panel, order): AC, AS in products[0], BC, BS in products[1].
        products = np.empty((2, len(centers), len(orders), 2 * count))
        for start in range(0, len(centers), step):
            block = centers[start:start + step]
            arg = np.outer(block, interior)
            phase = np.empty((2,) + arg.shape)
            np.cos(arg, out=phase[0])
            np.sin(arg, out=phase[1])
            weighted = phase[:, :, None, :] * inner
            products[:, start:start + step] = _small_products(
                weighted.reshape(-1, len(interior)), table).reshape(
                    2, len(block), len(orders), 2 * count)
        (cos_cos, cos_sin), (sin_cos, sin_sin) = (np.split(part, 2, axis=-1) for part in products)
        sums = np.empty((len(centers), len(orders), 2 * count), dtype=complex)
        sums.real[..., count:] = cos_cos - sin_sin
        sums.imag[..., count:] = cos_sin + sin_cos
        sums.real[..., :count] = (cos_cos + sin_sin)[..., ::-1]
        sums.imag[..., :count] = (sin_cos - cos_sin)[..., ::-1]
        return sums.transpose(0, 2, 1)

    def at(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nodes = (centers[:, None] + offsets).ravel()
        total = _phases(nodes, spline.knot[[0, -1]]) @ terms[[0, -1]]        # (nodes, 4)
        if len(orders) and len(centers):
            total[:, orders] += interior_sums(centers).reshape(len(nodes), len(orders))
        out = _by_inverse_powers(total, nodes) * np.exp(1j * nodes * spline.middle)
        rest = ~_knot_sum_rows(spline, nodes)
        if rest.any():
            rows = _rows(rest)
            out[rows] = _direct_transform(spline, nodes[rows])
        return nodes, out

    return at


def _small_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, as a sum of block products of at most ``_PRODUCT_MACS`` multiply-adds.

    Rows are split evenly, and the columns of ``a`` only when four rows of
    them would exceed the cap; every block has at least two rows.  A
    one-row product would be a matrix-vector product, which a threaded BLAS
    splits at a far smaller size, so a single row is summed by array
    operations instead.
    """
    out = np.zeros((len(a), b.shape[1]), dtype=np.result_type(a, b))
    if len(a) == 1:
        out[0] = (a[0][:, None] * b).sum(axis=0)
        return out
    span = max(1, min(a.shape[1], _PRODUCT_MACS // (4 * b.shape[1])))
    blocks = -(-len(a) // (_PRODUCT_MACS // (span * b.shape[1])))
    for block in range(blocks):
        first, last = len(a) * block // blocks, len(a) * (block + 1) // blocks
        for start in range(0, a.shape[1], span):
            out[first:last] += a[first:last, start:start + span] @ b[start:start + span]
    return out


def _series_sum(cos, sin, series, wu):
    """sum_j (i wu)^j sum_pieces phase * series[:, j], row by row."""
    terms = (cos @ series) + 1j * (sin @ series)
    powers = np.vander(wu, series.shape[1], increasing=True) * 1j ** np.arange(series.shape[1])
    return np.sum(terms * powers, axis=1)


def _closed_sum(cos, sin, ends, w):
    """sum_k (-1)^k (i w)^-(k+1) sum_points phase * ends[:, k], row by row."""
    return _by_inverse_powers((cos @ ends) + 1j * (sin @ ends), w)


def _by_inverse_powers(terms, w):
    """sum_k (-1)^k (i w)^-(k+1) terms[:, k], row by row: the closed-form terms'
    sign is applied here alone."""
    return np.sum(terms * (_SIGN * (1j * w[:, None]) ** -np.arange(1.0, 5.0)), axis=1)


# --- spectral moment ----------------------------------------------------------


def _exact_tail(jumps: np.ndarray, span: float, panels: int) -> float:
    """int_cutoff^inf of the terms of |p_hat|^2 w that are not bounded.

    The cutoff is ``panels`` panels of width 2 _PANEL_PHASE / span, so
    span cutoff = 2 _PANEL_PHASE panels.  The phases and E_1 take that
    exact value: the rounded product span * cutoff can fall below
    2 _PANEL_PHASE, which ``_exp1`` refuses.

    ``jumps`` is ``_Spline.jumps`` transposed, (4, knots).  Expanding
    |p_hat|^2 w with them gives, for each pair of knots (j, l) and orders
    (k, k'), the term (-1)^(k+k') i^(k'-k)
    jumps[k, j] jumps[k', l] w^-(k+k'+1) e^{i w (x_j - x_l)}.  Integrated
    exactly here: every same-knot term (j = l, non-oscillating) except the
    divergent w^-1 one, which is the growth ``spectral_moment`` tests, and
    the two oscillating terms pairing the endpoints.  Their integrals run up
    from E_1 by integration by parts:
    I_p = (cutoff^(1-p) e^{i span cutoff} + i span I_{p-1}) / (p - 1).
    """
    cutoff = panels * (2.0 * _PANEL_PHASE / span)
    turn = 2.0 * _PANEL_PHASE * panels                        # span cutoff
    ends = jumps[:, [0, -1]]
    same = jumps @ jumps.T
    phase = cmath.exp(1j * turn)
    osc = [_exp1(-1j * turn)]                                 # I_1(span)
    for p in range(2, 8):
        osc.append((cutoff ** (1 - p) * phase + 1j * span * osc[-1]) / (p - 1))
    total = 0.0
    for k in range(4):
        for kk in range(4):
            q = k + kk
            coef = (-1) ** q * 1j ** (kk - k)
            if q:
                total += (coef * same[k, kk]).real * cutoff ** -q / q
            # Last knot with first: delta = +span; the reverse pair conjugates.
            total += (coef * (ends[k, 1] * ends[kk, 0] * osc[q]
                              + ends[k, 0] * ends[kk, 1] * np.conj(osc[q]))).real
    return float(total)


# The tail's E_1 argument is -i span cutoff, and the cutoff is a whole
# number of panels of width 2 _PANEL_PHASE / span: z = -36 i panels.
_EXP1_MIN_MODULUS = 2.0 * _PANEL_PHASE
_EXP1_TERMS = 64


def _exp1(z: complex) -> complex:
    """E_1(z) = int_1^inf e^{-z t} / t dt, for |z| >= 36 and Re z >= 0.

    From its continued fraction
    E_1(z) = e^{-z} / (z + 1 - 1^2 / (z + 3 - 2^2 / (z + 5 - ...))),
    evaluated front to back by the modified Lentz method (Press et al.,
    Numerical Recipes, 3rd ed., sec. 6.3).  ``_exact_tail`` asks for it at
    z = -36 i k, k panels; there it converges in at most 8 terms, within a
    few roundings of the value.  Smaller |z| are refused: the fraction
    converges more slowly nearer 0, and no caller needs them.
    """
    if not (abs(z) >= _EXP1_MIN_MODULUS and z.real >= 0.0):
        raise ValueError(f"_exp1 takes |z| >= {_EXP1_MIN_MODULUS:g} with Re z >= 0, got {z!r}")
    b = z + 1.0
    c = 1.0 / np.finfo(float).tiny
    d = 1.0 / b
    value = d
    for k in range(1, _EXP1_TERMS):
        a = -float(k * k)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        value *= delta
        if abs(delta - 1.0) <= _EPS:
            return value * cmath.exp(-z)
    raise ArithmeticError(f"E_1 continued fraction did not converge at z={z!r}")


def _interior_bound(jumps: np.ndarray, x: np.ndarray):
    """Bound, as a function of the cutoff, on the terms ``_exact_tail`` omits.

    Those pair two different knots, at least one of them interior.  Each is
    jumps[k, j] jumps[k', l] times an integral of w^-(q+1) e^{i w delta},
    q = k + k', bounded by cutoff^-q / q and by 2 cutoff^-(q+1) / |delta|
    (one integration by parts).
    """
    mag = np.abs(jumps)
    ends, inner = mag[:, [0, -1]], mag[:, 1:-1]
    if inner.shape[1] == 0:
        return lambda cutoff: 0.0
    inverse = x[[0, -1]][:, None] - x[None, 1:-1]                # (2, interior)
    np.abs(inverse, out=inverse)
    np.divide(1.0, inverse, out=inverse)
    closest = float(np.min(np.diff(x)))
    # Endpoint-interior pairs, each counted in both orders below.
    spread = np.einsum("ke,le->kl", ends, inner @ inverse.T)
    plain = np.outer(ends.sum(axis=1), inner.sum(axis=1))
    # Interior-interior pairs of different knots.
    sums = inner.sum(axis=1)
    apart = np.outer(sums, sums) - inner @ inner.T
    # Term (k, k'), q = k + k', is 2 min(2 spread cutoff^-(q+1), plain cutoff^-q / q)
    # + apart cutoff^-q / q; at q = 0 the plain bound is absent (inf) and the
    # apart term is 2 apart / (closest cutoff).
    q = np.add.outer(np.arange(4.0), np.arange(4.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        plain_q, apart_q = plain / q, apart / q
    plain_q[0, 0], apart_q[0, 0] = np.inf, 0.0
    apart_same = 2.0 * apart[0, 0] / closest
    oscillating = 2.0 * spread

    def bound(cutoff: float) -> float:
        power = cutoff ** -q
        capped = np.minimum(oscillating * (power / cutoff), plain_q * power)
        return float(np.sum(2.0 * capped + apart_q * power)) + apart_same / cutoff

    return bound


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """The ``_PANEL_NODES``-point rule every panel shares, built on first use, read-only."""
    nodes, weights = gauss_legendre(_PANEL_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def spectral_moment(pp, rel_tol: float) -> float:
    """M = int_0^inf |p_hat(w)|^2 w dw for a piecewise polynomial p.

    ``pp`` (degree <= 3, continuous) is taken as zero outside its
    breakpoint range [a, b].  Its transform is exact (``spline_fourier``);
    at high frequency it is the finite sum of knot terms of the jumps
    ``_Spline.jumps``, so |p_hat|^2 w -> (p(a)^2 + p(b)^2) / w: M grows by
    p(a)^2 + p(b)^2 per factor e of the cutoff and diverges unless both
    endpoint values vanish.  DivergentIntegralError is raised when that
    growth exceeds ``rel_tol`` times the finite part.

    The finite part is a Gauss-Legendre panel body on [0, W] plus the
    terms of the expansion that ``_exact_tail`` integrates exactly over
    [W, inf); the rest pair different knots, one of them interior, and are
    bounded (``_interior_bound``).  The spline is prepared once.  The
    body's transform is the knot sum, contracted over the knots by a
    real matrix product per block of panels (``_panel_fourier``), at
    the nodes ``_knot_sum_rows`` gives it: on uniform knots, every node
    past the first few.  W is the fewest panels that bring the
    bound below ``rel_tol`` times a lower bound on M.  A first pass, with
    the bound at half the first panel's share of M, brackets M: that
    settles a clear divergence early and sharpens the lower bound.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValidationError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    x, h, a = _pieces(pp)
    if not np.any(a):
        return 0.0
    spline = _prepare(x, h, a)
    del h, a                                  # the spline holds what is read from here on
    jumps = spline.jumps.T
    growth = float(np.sum(jumps[0] ** 2))
    span = float(x[-1] - x[0])
    width = 2.0 * _PANEL_PHASE / span
    ref_nodes, ref_weights = _panel_rule()
    bound = _interior_bound(jumps, x)
    transform = _panel_fourier(spline, 0.5 * width * ref_nodes)

    def body(first: int, last: int) -> float:
        if first >= last:
            return 0.0
        nodes, values = transform(width * (np.arange(first, last) + 0.5))
        weights = np.tile(0.5 * width * ref_weights, last - first)
        return float(np.sum(weights * np.abs(values) ** 2 * nodes))

    def panels_for(target: float) -> int:
        """Fewest panels whose cutoff brings the bound to ``target``."""
        high = 1
        while bound(high * width) > target:
            high *= 2
            if high > _MAX_PANELS:
                raise DivergentIntegralError(
                    f"spectral integral cannot reach rel_tol={rel_tol:g}: the bound "
                    f"on its interior-knot terms still exceeds it at {_MAX_PANELS} panels")
        low = high // 2
        while high - low > 1:
            middle = (low + high) // 2
            if bound(middle * width) > target:
                low = middle
            else:
                high = middle
        return high

    first = body(0, 1)
    coarse = panels_for(0.5 * first)
    head = first + body(1, coarse)
    estimate = head + _exact_tail(jumps, span, coarse)
    slack = bound(coarse * width)
    if growth > rel_tol * (estimate + slack):
        raise _divergent(growth, estimate + slack, rel_tol)
    fine = max(coarse, panels_for(rel_tol * max(first, estimate - slack)))
    finite = head + body(coarse, fine) + _exact_tail(jumps, span, fine)
    if growth > rel_tol * finite:
        raise _divergent(growth, finite, rel_tol)
    return finite


def _divergent(growth: float, finite: float, rel_tol: float) -> DivergentIntegralError:
    return DivergentIntegralError(
        "spectral integral diverges logarithmically: the endpoint values add "
        f"{growth:.3e} per e-fold of cutoff, more than rel_tol={rel_tol:g} "
        f"times the finite part (at most {finite:.6g})")
