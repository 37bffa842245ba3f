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

from .constants import CODATA, PhysicalConstants, planck_scales
from .errors import ValidationError, require, require_nonnegative, require_positive
from .tabulated import (
    PiecewisePolynomial,
    cubic_spline,
    sample_columns,
    spectral_moment,
    spline_fourier,
)

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
    pairs; phi is interpolated with a not-a-knot cubic spline, built once
    here, whose integral must be 1, and taken as zero outside the samples.
    """

    shape: WindowShape = WindowShape.GAUSSIAN
    width_T: float = 1.0
    samples: np.ndarray | None = None
    _spline: PiecewisePolynomial | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        require_positive(width_T=self.width_T)
        if self.shape is WindowShape.TABULATED:
            if self.samples is None:
                raise ValidationError("TABULATED window requires samples")
            t, phi = sample_columns(self.samples, _MIN_WINDOW_SAMPLES, "phi")
            spline = cubic_spline(t, phi, "not-a-knot")
            norm = spline.integral()
            if abs(norm - 1.0) > 1e-8:
                raise ValidationError(
                    f"window spline must integrate to 1 (got {norm:.10f})"
                )
            object.__setattr__(self, "samples", np.column_stack([t, phi]))
            object.__setattr__(self, "_spline", spline)
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


def averaged_variance(window: WindowFunction) -> float:
    """(1/2 pi^2) int_0^inf |phi_tilde|^2 omega domega (natural units).

    For the Gaussian window this is the closed form 1/(4 pi^2 T^2): with
    u = omega T the integral is int_0^inf exp(-u^2) u du / (2 pi^2 T^2),
    and the tests check it by quadrature.  For a tabulated window the
    integral is ``tabulated.spectral_moment`` of the spline, accurate to
    its default rel_tol, 1e-10.  At high frequency |phi_tilde|^2 omega /
    (2 pi^2) tends to (phi(a)^2 + phi(b)^2) / (2 pi^2 omega), with a and b
    the first and last sample times, so the variance grows by
    (phi(a)^2 + phi(b)^2) / (2 pi^2) per factor e of the cutoff.
    DivergentIntegralError is raised when that growth exceeds rel_tol times
    the finite part (a sharp box always; a Gaussian cut at +-4T, but not one
    cut at +-5T).
    A Gaussian width T whose variance is not a finite positive float raises
    ValidationError naming ``width_T``.
    """
    if window.shape is WindowShape.GAUSSIAN:
        try:
            variance = 1.0 / (4.0 * math.pi**2 * window.width_T**2)
        except (OverflowError, ZeroDivisionError):  # T**2 beyond the float range, or 0.0
            variance = math.nan
        require(0.0 < variance < math.inf, ValidationError,
                "width_T={width_T} is out of range: its variance 1/(4 pi^2 T^2) is not a "
                "finite positive float", width_T=window.width_T)
        return variance
    return spectral_moment(window._spline) / (2.0 * math.pi**2)


def instantaneous_variance(cutoff_Lambda: float) -> float:
    """Regularized unaveraged variance Lambda^2 / (4 pi^2) (natural units)."""
    require_nonnegative(cutoff_Lambda=cutoff_Lambda)
    return cutoff_Lambda**2 / (4.0 * math.pi**2)


def momentum_error(q: float, T: float,
                   constants: PhysicalConstants = CODATA) -> float:
    """Error q / (2 pi sqrt(3) T) on one momentum component, in SI kg m/s.

    q in C, T in s.  The 1/sqrt(3) singles out one Cartesian component of
    the isotropic averaged variance.
    """
    require_positive(q=q, T=T)
    # q_nat / (2 pi sqrt(3) T_nat) converted back: q sqrt(hbar/(eps0 c^3)).
    scale = math.sqrt(constants.hbar / (constants.epsilon0 * constants.c**3))
    return q * scale / (2.0 * math.pi * math.sqrt(3.0) * T)


def min_measurement_time(q: float, d: float,
                         constants: PhysicalConstants = CODATA) -> float:
    """Time T with momentum_error(q, T) = pi hbar / d, i.e.

    T = (1 / sqrt(3 pi^3)) (q / q_P) (d / c).
    """
    require_positive(q=q, d=d)
    ratio = q / planck_scales(constants).q_P
    return MIN_TIME_PREFACTOR * ratio * d / constants.c
