"""Exact spectral tools for tabulated curves.

Tabulated trajectories and averaging windows are interpolated by cubic
splines.  The Fourier transform of a piecewise polynomial has a closed
form: integrating each piece by parts until its derivatives vanish leaves
only endpoint terms (Filon-type integration; Iserles & Norsett, Proc. R.
Soc. A 461, 2005).  This module holds that kernel, the spectral moment
int_0^inf |p_hat|^2 omega domega built on it, the Gauss-Legendre rule the
moment integrates with, and the sample validation shared by every
tabulated input.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exp1

from .errors import DivergentIntegralError, ValidationError

__all__ = [
    "sample_columns",
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

# Elements of the (frequency x knot) phase matrix evaluated at once.
_BLOCK_ELEMENTS = 1 << 18

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


# --- Gauss-Legendre nodes -----------------------------------------------------


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x.copy()
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
    return cur, prev


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule.

    Newton's method on P_n from Tricomi's initial guesses, evaluated by the
    three-term recurrence and vectorized over the nonnegative half of the
    nodes (the rule is symmetric).  O(n^2) work and O(n) memory, against
    the O(n^3) eigenvalue route of ``numpy.polynomial.legendre.leggauss``
    (Hale & Townsend, SIAM J. Sci. Comput. 35, A652, 2013).  Each weight
    comes from the last Newton step of its node, corrected to first order
    in that step, so it belongs to the converged node.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    half = (n + 1) // 2
    k = np.arange(1, half + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0  # P_n is odd: the middle node is exactly zero
    w = np.empty_like(x)
    active = np.arange(half)
    for _ in range(20):
        xa = x[active]
        one_minus_x2 = (1.0 - xa) * (1.0 + xa)
        p, p_prev = _legendre_pair(n, xa)
        dp = n * (p_prev - xa * p) / one_minus_x2
        dx = p / dp
        # d ln w / dx with w = 2 / ((1 - x^2) P_n'^2), using Legendre's
        # equation for P_n''.
        slope = (2.0 * n * (n + 1) * dx - 2.0 * xa) / one_minus_x2
        w[active] = 2.0 / (one_minus_x2 * dp**2) * (1.0 - slope * dx)
        x[active] = xa - dx
        active = active[np.abs(dx) > 4.0 * _EPS]
        if active.size == 0:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre Newton iteration stalled for n={n}")
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


def _end_derivatives(a: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k-th derivatives of every piece at its left and right end, k = 0..3."""
    left = a * np.array([1.0, 1.0, 2.0, 6.0])[:, None]
    right = np.zeros_like(a)
    for k in range(4):
        for n in range(k, 4):
            right[k] += a[n] * (math.factorial(n) // math.factorial(n - k)) * h ** (n - k)
    return left, right


def spline_fourier(pp, omega):
    """Exact int pp(t) e^{i omega t} dt over the breakpoint range of ``pp``.

    ``pp`` is a scalar ``scipy.interpolate.PPoly`` (a ``CubicSpline``, or a
    derivative of one) of degree <= 3.  Each piece [x_i, x_i + h] contributes

    - for |omega h| >= 1/2, the closed form of repeated integration by parts,
      sum_k (-1)^k [q^(k)(s) e^{i omega (x_i + s)}]_0^h / (i omega)^(k+1);
    - below that, the power series e^{i omega x_i} h sum_j (i omega h)^j c_j
      of the same integral, which does not cancel as omega h -> 0.

    Both are the exact integral and agree to rounding at the switch.
    Accepts scalar or array omega (any sign) and returns complex values of
    the same shape.
    """
    x, h, a = _pieces(pp)
    # Work in the units of the widest piece, relative to the first knot, so
    # that high powers of h and omega stay in range and phases stay small.
    unit = float(h.max())
    rel_x = (x - x[0]) / unit
    rel_h = h / unit
    j = np.arange(_SERIES_TERMS)
    inv_fact = np.array([1.0 / math.factorial(i) for i in j])
    # int_0^h q(s) e^{i w s} ds = h sum_j (i w h)^j c_j with
    # c_j = (1/j!) sum_n a_n h^n / (n + j + 1); with the left-knot phase
    # attached, (i w unit)^j factors out of a sum over pieces.
    c = inv_fact[:, None] * np.einsum(
        "nm,jn->jm", a * h ** np.arange(4)[:, None],
        1.0 / (np.arange(4)[None, :] + j[:, None] + 1.0))
    series = (c * h * rel_h ** j[:, None]).T                    # (pieces, terms)
    left, right = _end_derivatives(a, h)
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    closed_right = sign * right.T                               # (pieces, 4)
    closed_left = sign * left.T
    # Closed forms summed per knot: the right end of piece i-1 and the
    # left end of piece i share the phase of knot i.
    closed_knots = np.zeros((len(x), 4))
    closed_knots[1:] += closed_right
    closed_knots[:-1] -= closed_left
    narrowest = float(rel_h.min())

    w_all = np.asarray(omega, dtype=float)
    w_flat = w_all.ravel()
    out = np.empty(w_flat.shape, dtype=complex)
    step = max(1, _BLOCK_ELEMENTS // len(x))
    for start in range(0, len(w_flat), step):
        w = w_flat[start:start + step]
        wu = w * unit
        arg = np.outer(wu, rel_x)
        cos, sin = np.cos(arg), np.sin(arg)
        value = np.empty(len(w), dtype=complex)
        # Rows whose pieces all take one branch need no per-piece mask
        # (every row, when the knots are uniform).
        series_rows = np.abs(wu) < _SERIES_SWITCH
        closed_rows = np.abs(wu) * narrowest >= _SERIES_SWITCH
        mixed_rows = ~(series_rows | closed_rows)
        if series_rows.any():
            value[series_rows] = _series_sum(
                cos[series_rows, :-1], sin[series_rows, :-1], series, wu[series_rows])
        if closed_rows.any():
            value[closed_rows] = _closed_sum(
                cos[closed_rows], sin[closed_rows], closed_knots, w[closed_rows])
        if mixed_rows.any():
            small = np.abs(np.outer(wu[mixed_rows], rel_h)) < _SERIES_SWITCH
            big = ~small
            c, s = cos[mixed_rows], sin[mixed_rows]
            value[mixed_rows] = (
                _series_sum(c[:, :-1] * small, s[:, :-1] * small, series, wu[mixed_rows])
                + _closed_sum(c[:, 1:] * big, s[:, 1:] * big, closed_right, w[mixed_rows])
                - _closed_sum(c[:, :-1] * big, s[:, :-1] * big, closed_left, w[mixed_rows]))
        out[start:start + step] = value * np.exp(1j * w * x[0])
    if w_all.ndim == 0:
        return complex(out[0])
    return out.reshape(w_all.shape)


def _series_sum(cos, sin, series, wu):
    """sum_j (i wu)^j sum_pieces phase * series[:, j], row by row."""
    terms = (cos @ series) + 1j * (sin @ series)
    powers = np.vander(wu, series.shape[1], increasing=True) * 1j ** np.arange(series.shape[1])
    return np.sum(terms * powers, axis=1)


def _closed_sum(cos, sin, ends, w):
    """sum_k (i w)^-(k+1) sum_points phase * ends[:, k], row by row."""
    terms = (cos @ ends) + 1j * (sin @ ends)
    return np.sum(terms * (1j * w[:, None]) ** -np.arange(1.0, 5.0), axis=1)


# --- spectral moment ----------------------------------------------------------


def _knot_jumps(x: np.ndarray, h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """jumps[k, j] = p^(k)(x_j-) - p^(k)(x_j+), with p = 0 outside [x_0, x_m].

    With these, p_hat(w) = sum_k (-1)^k (i w)^-(k+1) sum_j jumps[k, j]
    e^{i w x_j} exactly for w != 0.  Interior jumps within rounding of the
    derivative values they difference are set to zero: a spline is
    continuous to working precision in the derivatives it claims.
    """
    left, right = _end_derivatives(a, h)
    jumps = np.zeros((4, len(x)))
    jumps[:, 1:] += right
    jumps[:, :-1] -= left
    # Rounding of a derivative value is relative to the terms it sums.
    _, right_terms = _end_derivatives(np.abs(a), h)
    rounding = 16.0 * _EPS * np.maximum(right_terms[:, :-1], np.abs(left[:, 1:]))
    inner = jumps[:, 1:-1]
    inner[np.abs(inner) <= rounding] = 0.0
    return jumps


def _exact_tail(jumps: np.ndarray, span: float, cutoff: float) -> float:
    """int_cutoff^inf of the terms of |p_hat|^2 w that are not bounded.

    Expanding |p_hat|^2 w with ``_knot_jumps`` gives, for each pair of
    knots (j, l) and orders (k, k'), the term (-1)^(k+k') i^(k'-k)
    jumps[k, j] jumps[k', l] w^-(k+k'+1) e^{i w (x_j - x_l)}.  Integrated
    exactly here: every same-knot term (j = l, non-oscillating) except the
    divergent w^-1 one, which is the growth ``spectral_moment`` tests, and
    the two oscillating terms pairing the endpoints.  Their integrals run up
    from E_1 by integration by parts:
    I_p = (cutoff^(1-p) e^{i span cutoff} + i span I_{p-1}) / (p - 1).
    """
    ends = jumps[:, [0, -1]]
    same = jumps @ jumps.T
    phase = np.exp(1j * span * cutoff)
    osc = [complex(exp1(-1j * span * cutoff))]                # I_1(span)
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
    distance = np.abs(x[[0, -1]][:, None] - x[None, 1:-1])       # (2, interior)
    closest = float(np.min(np.diff(x)))
    # Endpoint-interior pairs, each counted in both orders below.
    spread = np.einsum("ke,le->kl", ends, inner @ (1.0 / distance).T)
    plain = np.outer(ends.sum(axis=1), inner.sum(axis=1))
    # Interior-interior pairs of different knots.
    sums = inner.sum(axis=1)
    apart = np.outer(sums, sums) - inner @ inner.T
    q = np.add.outer(np.arange(4), np.arange(4))

    def bound(cutoff: float) -> float:
        total = 0.0
        for k in range(4):
            for kk in range(4):
                qq = q[k, kk]
                oscillating = 2.0 * spread[k, kk] * cutoff ** -(qq + 1)
                if qq:
                    total += 2.0 * min(oscillating, plain[k, kk] * cutoff ** -qq / qq)
                    total += apart[k, kk] * cutoff ** -qq / qq
                else:
                    total += 2.0 * oscillating + 2.0 * apart[k, kk] / (closest * cutoff)
        return total

    return bound


def spectral_moment(pp, rel_tol: float) -> float:
    """M = int_0^inf |p_hat(w)|^2 w dw for a piecewise polynomial p.

    ``pp`` (degree <= 3, continuous) is taken as zero outside its
    breakpoint range [a, b].  Its transform is exact (``spline_fourier``);
    at high frequency it is the finite sum of knot terms of
    ``_knot_jumps``, so |p_hat|^2 w -> (p(a)^2 + p(b)^2) / w: M grows by
    p(a)^2 + p(b)^2 per factor e of the cutoff and diverges unless both
    endpoint values vanish.  DivergentIntegralError is raised when that
    growth exceeds ``rel_tol`` times the finite part.

    The finite part is a Gauss-Legendre panel body on [0, W] plus the
    terms of the expansion that ``_exact_tail`` integrates exactly over
    [W, inf); the rest pair different knots, one of them interior, and are
    bounded (``_interior_bound``).  W is the fewest panels that bring the
    bound below ``rel_tol`` times a lower bound on M.  A first pass, with
    the bound at half the first panel's share of M, brackets M: that
    settles a clear divergence early and sharpens the lower bound.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValidationError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    x, h, a = _pieces(pp)
    if not np.any(a):
        return 0.0
    jumps = _knot_jumps(x, h, a)
    growth = float(np.sum(jumps[0] ** 2))
    span = float(x[-1] - x[0])
    width = 2.0 * _PANEL_PHASE / span
    ref_nodes, ref_weights = gauss_legendre(_PANEL_NODES)
    bound = _interior_bound(jumps, x)

    def body(first: int, last: int) -> float:
        centers = width * (np.arange(first, last) + 0.5)
        nodes = (centers[:, None] + 0.5 * width * ref_nodes).ravel()
        weights = np.tile(0.5 * width * ref_weights, last - first)
        return float(np.sum(weights * np.abs(spline_fourier(pp, nodes)) ** 2 * nodes))

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
    estimate = head + _exact_tail(jumps, span, coarse * width)
    slack = bound(coarse * width)
    if growth > rel_tol * (estimate + slack):
        raise _divergent(growth, estimate + slack, rel_tol)
    fine = max(coarse, panels_for(rel_tol * max(first, estimate - slack)))
    finite = head + body(coarse, fine) + _exact_tail(jumps, span, fine * width)
    if growth > rel_tol * finite:
        raise _divergent(growth, finite, rel_tol)
    return finite


def _divergent(growth: float, finite: float, rel_tol: float) -> DivergentIntegralError:
    return DivergentIntegralError(
        "spectral integral diverges logarithmically: the endpoint values add "
        f"{growth:.3e} per e-fold of cutoff, more than rel_tol={rel_tol:g} "
        f"times the finite part (at most {finite:.6g})")
