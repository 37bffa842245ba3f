"""Closed forms and the output checker, written independently of supertime.

Nothing here imports the package: constants are the CODATA values the
package defaults to, and every reference value is computed from its
closed form.  The checker records the worst error per layer, which feeds
``accuracy_digits`` and the per-layer ``max_rel_err`` metrics.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

HBAR = 1.054571817e-34      # J s
C = 2.99792458e8            # m / s
G = 6.67430e-11             # m^3 / (kg s^2)
EPS0 = 8.8541878128e-12     # F / m
E_CHARGE = 1.602176634e-19  # C

M_P = math.sqrt(HBAR * C / G)
Q_P = math.sqrt(4.0 * math.pi * EPS0 * HBAR * C)
L_P = math.sqrt(HBAR * G / C**3)


def _sine_integral(x: float, terms: int = 30) -> float:
    """Si(x) from its Taylor series sum (-1)^n x^(2n+1) / ((2n+1) (2n+1)!)."""
    return sum((-1) ** n * x ** (2 * n + 1) / ((2 * n + 1) * math.factorial(2 * n + 1))
               for n in range(terms))


SIN2_CONSTANT = math.pi * (math.pi * _sine_integral(math.pi) - 2.0) / 6.0


def min_time(ratio, d):
    """(m/m_P or q/q_P) * d / c."""
    return ratio * d / C


def sharp_min_time(ratio, d):
    return 2.0 / 27.0 * ratio * d / C


def entanglement_time_mass(m_a, d, R):
    """T_B = sqrt(2 l_P R^3 / (G m_A d)) with the test mass at the Planck length."""
    return np.sqrt(2.0 * L_P * R**3 / (G * m_a * d))


def radiation_exponent(q, d, t0):
    """pi (pi Si(pi) - 2)/6 * (q/q_P)^2 * (d/(c t0))^2 for the sin^2 path."""
    return SIN2_CONSTANT * (q / Q_P) ** 2 * (d / (C * t0)) ** 2


def radiationless_time(q, d):
    return math.sqrt(2.0) * (q / Q_P) * d / C


def sin2_velocity_fourier(d, t0, omega):
    """int_0^t0 v(t) e^(i omega t) dt for x(t) = d sin^2(pi t / (2 t0)).

    Equals d pi^2 e^(iu/2) cos(u/2) / (pi^2 - u^2) with u = omega t0; the
    removable singularity at u = pi is rewritten as a sinc.
    """
    u = np.asarray(omega, dtype=float) * t0
    eps = u - math.pi
    return d * math.pi**2 * np.exp(0.5j * u) * 0.5 * np.sinc(eps / (2.0 * math.pi)) \
        / (2.0 * math.pi + eps)


def gaussian_window_variance(T):
    """1 / (4 pi^2 T^2), natural units."""
    return 1.0 / (4.0 * math.pi**2 * T**2)


def echo_overlap(delta_F, m_b, sigma, t):
    """exp(-dx^2/(8 sigma^2) - dp^2 sigma^2/(2 hbar^2)), dx = dF t^2/(2 mB), dp = dF t."""
    dx = delta_F * t**2 / (2.0 * m_b)
    dp = delta_F * t
    return math.exp(-dx**2 / (8.0 * sigma**2) - dp**2 * sigma**2 / (2.0 * HBAR**2))


class Checker:
    """Compares outputs with references and keeps the worst error per layer.

    ``misses`` counts checks that an output failed; an op whose outputs were
    never written is a failure but not a miss.
    """

    def __init__(self):
        self.worst: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.mc_stderr = 0.0
        self.misses = 0

    def close(self, layer: str, what: str, got, want, tol: float,
              absolute: bool = False) -> list[str]:
        """Relative error check (absolute for overlaps, which lie in [0, 1])."""
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            self.misses += 1
            return [f"{layer}: {what} has shape {got.shape}, expected {want.shape}"]
        err = np.abs(got - want)
        if not absolute:
            err = err / np.abs(want)
        worst = float(np.max(err)) if err.size else 0.0
        if not math.isfinite(worst):
            worst = math.inf
        self.worst[layer] = max(self.worst[layer], worst)
        if worst <= tol:
            return []
        self.misses += 1
        return [f"{layer}: {what} error {worst:.3e} exceeds {tol:.0e}"]

    def expect(self, ok: bool, reason: str) -> list[str]:
        """A check on an output that has no error to measure (a count, a flag)."""
        if ok:
            return []
        self.misses += 1
        return [reason]

    def accuracy_digits(self) -> float:
        """-log10 of the worst error, floored at 1e-16 and capped at 1e16."""
        worst = max(self.worst.values(), default=0.0)
        return -math.log10(min(max(worst, 1e-16), 1e16))
