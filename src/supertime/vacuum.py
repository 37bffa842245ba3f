"""Vacuum fluctuations of the time-averaged vector potential.

The instantaneous variance diverges quadratically with the frequency cutoff;
averaging over a window of width T renders it finite and ~ 1/T^2, which sets
the momentum-measurement error and the minimum measurement time.

All variances are in natural units (hbar = c = eps0 = 1, q_P^2 = 4 pi);
window widths and frequencies are natural too.  Only momentum_error and
min_measurement_time convert to SI at the boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .constants import CODATA, PhysicalConstants, planck_scales
from .errors import DivergentIntegralError, ValidationError
from .tabulated import sample_columns, spectral_moment, spline_fourier

__all__ = [
    "WindowShape",
    "WindowFunction",
    "MIN_TIME_PREFACTOR",
    "window_fourier",
    "averaged_variance",
    "instantaneous_variance",
    "momentum_error",
    "min_measurement_time",
]

# 1 / sqrt(3 pi^3) ~ 0.10: prefactor of the minimum measurement time.
MIN_TIME_PREFACTOR = 1.0 / math.sqrt(3.0 * math.pi**3)

_MIN_WINDOW_SAMPLES = 8


class WindowShape(enum.Enum):
    GAUSSIAN = "gaussian"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class WindowFunction:
    """Normalized time-averaging profile phi(t) of characteristic width T.

    For TABULATED windows, ``samples`` is an (n, 2) array of (t, phi)
    pairs with unit trapezoid integral; phi is interpolated with a cubic
    spline, built once here, and taken as zero outside the samples.
    """

    shape: WindowShape = WindowShape.GAUSSIAN
    width_T: float = 1.0
    samples: np.ndarray | None = None
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (self.width_T > 0.0 and math.isfinite(self.width_T)):
            raise ValidationError(f"width_T must be positive, got {self.width_T}")
        if self.shape is WindowShape.TABULATED:
            if self.samples is None:
                raise ValidationError("TABULATED window requires samples")
            t, phi = sample_columns(self.samples, _MIN_WINDOW_SAMPLES, "phi")
            norm = np.trapezoid(phi, t)
            if abs(norm - 1.0) > 1e-8:
                raise ValidationError(
                    f"window must integrate to 1 (got {norm:.10f})"
                )
            object.__setattr__(self, "samples", np.column_stack([t, phi]))
            object.__setattr__(self, "_spline", CubicSpline(t, phi))
        elif self.samples is not None:
            raise ValidationError("samples are only meaningful for TABULATED windows")


def window_fourier(window: WindowFunction, omega):
    """phi_tilde(omega) = int phi(t) exp(i omega t) dt.

    Gaussian closed form exp(-omega^2 T^2 / 2); for tabulated windows, the
    exact transform of the spline (``tabulated.spline_fourier``).
    """
    if window.shape is WindowShape.GAUSSIAN:
        w = np.asarray(omega, dtype=float)
        value = np.exp(-0.5 * (w * window.width_T) ** 2) + 0.0j
        return complex(value) if np.isscalar(omega) else value
    return spline_fourier(window._spline, omega)


def averaged_variance(window: WindowFunction,
                      rel_tol: float = 1e-10) -> float:
    """(1/2 pi^2) int_0^inf |phi_tilde|^2 omega domega (natural units).

    For the Gaussian window the closed form 1/(4 pi^2 T^2) is asserted
    against the quadrature before returning.  For a tabulated window the
    integral is ``tabulated.spectral_moment`` of the spline, accurate to
    ``rel_tol``.  At high frequency |phi_tilde|^2 omega / (2 pi^2) tends
    to (phi(a)^2 + phi(b)^2) / (2 pi^2 omega), with a and b the first and
    last sample times, so the variance grows by (phi(a)^2 + phi(b)^2) /
    (2 pi^2) per factor e of the cutoff.  DivergentIntegralError is raised
    when that growth exceeds ``rel_tol`` times the finite part (a sharp box
    always; a Gaussian cut at +-4T at the default tolerance, but not one
    cut at +-5T).
    """
    T = window.width_T
    if window.shape is WindowShape.GAUSSIAN:
        # Substituting u = omega T makes the integrand dimensionless and
        # O(1), so the quadrature cross-check is scale independent; the
        # 1/T^2 prefactor is applied after integrating.
        dimensionless, _ = quad(
            lambda u: abs(window_fourier(window, u / T)) ** 2 * u, 0.0, np.inf)
        by_quad = dimensionless / (2.0 * math.pi**2 * T**2)
        closed = 1.0 / (4.0 * math.pi**2 * T**2)
        if abs(by_quad - closed) > 1e-8 * closed:
            raise DivergentIntegralError(
                f"Gaussian quadrature {by_quad} disagrees with closed form {closed}"
            )
        return closed
    return spectral_moment(window._spline, rel_tol) / (2.0 * math.pi**2)


def instantaneous_variance(cutoff_Lambda: float) -> float:
    """Regularized unaveraged variance Lambda^2 / (4 pi^2) (natural units)."""
    if not (cutoff_Lambda >= 0.0 and math.isfinite(cutoff_Lambda)):
        raise ValidationError(f"cutoff must be non-negative, got {cutoff_Lambda}")
    return cutoff_Lambda**2 / (4.0 * math.pi**2)


def momentum_error(q: float, T: float,
                   constants: PhysicalConstants = CODATA) -> float:
    """Error q / (2 pi sqrt(3) T) on one momentum component, in SI kg m/s.

    q in C, T in s.  The 1/sqrt(3) singles out one Cartesian component of
    the isotropic averaged variance.
    """
    if not (q > 0.0 and T > 0.0):
        raise ValidationError("q and T must be positive")
    # q_nat / (2 pi sqrt(3) T_nat) converted back: q sqrt(hbar/(eps0 c^3)).
    scale = math.sqrt(constants.hbar / (constants.epsilon0 * constants.c**3))
    return q * scale / (2.0 * math.pi * math.sqrt(3.0) * T)


def min_measurement_time(q: float, d: float,
                         constants: PhysicalConstants = CODATA) -> float:
    """Time T with momentum_error(q, T) = pi hbar / d, i.e.

    T = (1 / sqrt(3 pi^3)) (q / q_P) (d / c).
    """
    if not (q > 0.0 and d > 0.0):
        raise ValidationError("q and d must be positive")
    ratio = q / planck_scales(constants).q_P
    return MIN_TIME_PREFACTOR * ratio * d / constants.c
