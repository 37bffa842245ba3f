"""Radiation emitted by a moving charge: overlap of the field with vacuum.

A classical trajectory imprints a coherent displacement on each field mode;
the norm of that displacement fixes the probability that the radiated field
is indistinguishable from the vacuum.  The 3-D mode integral is reduced
analytically to a 1-D frequency integral (the angular average of the
transverse projector contributes the 2/3 inside the 1/(6 pi^2) prefactor)
before any discretization.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .constants import CODATA, PhysicalConstants, planck_scales
from .errors import (
    RelativisticMotionError,
    ValidationError,
    require,
    require_nonnegative,
    require_positive,
)
from .tabulated import gauss_legendre, sample_columns, spectral_moment, spline_fourier

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

__all__ = [
    "Shape",
    "TrajectoryProfile",
    "ModeGrid",
    "DisplacementFunction",
    "SIN2_EXPONENT_CONSTANT",
    "velocity_fourier",
    "mode_integral",
    "vacuum_overlap",
    "min_radiationless_time",
    "gauss_legendre_grid",
    "displacement_from_trajectory",
    "coherent_overlap",
]

# Si(pi), written out so that importing this module loads no scipy: the
# value is float(scipy.special.sici(math.pi)[0]).
SI_PI = 1.8519370519824658
# pi (pi Si(pi) - 2) / 6: exact constant of the sin^2 trajectory exponent.
SIN2_EXPONENT_CONSTANT = math.pi * (math.pi * SI_PI - 2.0) / 6.0

# Hard gate encoding d << c t0 (nonrelativistic motion).
NONRELATIVISTIC_GATE = 1.0 / 3.0
# And on a tabulated path's own peak speed: max|v| / c below the pi/6 that
# d < c t0 / 3 implies on the sin^2 path, whose peak speed is pi d / (2 t0).
PEAK_SPEED_GATE = math.pi / 6.0
# Soft gate encoding omega << c / d (long-wavelength approximation).
LONG_WAVELENGTH_GATE = 1.0 / 3.0

_MIN_TABULATED_SAMPLES = 16

# Relative accuracy of the tabulated spectral integral (the interpolating
# spline's own integral, not the curve the samples came from).
_TABULATED_REL_TOL = 1e-10


class Shape(enum.Enum):
    SIN_SQUARED = "sin_squared"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class TrajectoryProfile:
    """Particle path x(t) moving from 0 to d over [0, t0].

    For the sin^2 shape, ``d`` and ``t0`` may be arrays of sweep values for
    ``mode_integral``; ``velocity`` and ``velocity_fourier`` need scalars.
    For TABULATED shapes, ``d`` and ``t0`` are scalars and ``samples`` is an
    (n, 2) array of (t, x) pairs covering [0, t0]; the profile is
    interpolated with a cubic spline and the velocity is the spline
    derivative.  Endpoint conditions x(0)=0, x(t0)=d, v(0)=v(t0)=0 are
    checked at construction.
    """

    d: float
    t0: float
    shape: Shape = Shape.SIN_SQUARED
    samples: np.ndarray | None = None
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        require_nonnegative(d=self.d)
        require_positive(t0=self.t0)
        if self.shape is Shape.TABULATED:
            if np.ndim(self.d) or np.ndim(self.t0):
                raise ValidationError("a tabulated profile takes a scalar d and t0")
            object.__setattr__(self, "_spline", self._build_spline())
        elif self.samples is not None:
            raise ValidationError("samples are only meaningful for TABULATED shapes")

    def _build_spline(self) -> CubicSpline:
        if self.samples is None:
            raise ValidationError("TABULATED profile requires samples")
        t, x = sample_columns(self.samples, _MIN_TABULATED_SAMPLES, "x")
        scale = self.d if self.d > 0.0 else 1.0
        if abs(t[0]) > 1e-9 * self.t0 or abs(t[-1] - self.t0) > 1e-9 * self.t0:
            raise ValidationError("samples must cover exactly [0, t0]")
        if abs(x[0]) > 1e-6 * scale or abs(x[-1] - self.d) > 1e-6 * scale:
            raise ValidationError("samples must satisfy x(0)=0 and x(t0)=d")
        # Endpoint velocities must vanish.  The raw-sample finite difference
        # of a vanishing-velocity profile is O(h * acceleration), so the
        # tolerance scales with the local spacing.
        for h, dx, where in ((t[1] - t[0], x[1] - x[0], "start"),
                             (t[-1] - t[-2], x[-1] - x[-2], "end")):
            v_fd = abs(dx) / h
            v_tol = 5.0 * scale * h / self.t0**2
            if v_fd > v_tol:
                raise ValidationError(
                    f"endpoint velocity at {where} must vanish "
                    f"(finite difference {v_fd:.3e}, tol {v_tol:.3e})"
                )
        from scipy.interpolate import CubicSpline

        # Clamped spline: the interpolant's endpoint velocities are exactly
        # zero, preventing spurious high-frequency radiation.
        return CubicSpline(t, x, bc_type="clamped")

    @functools.cached_property
    def _tabulated_spectral_integral(self) -> float:
        """int_0^inf |v(u/t0)|^2 u du / d^2 for a tabulated profile, once per profile.

        With omega = u / t0 this is t0^2 / d^2 times the spectral moment
        int_0^inf |v(omega)|^2 omega domega of the clamped spline's derivative:
        a Gauss-Legendre panel body plus the analytic endpoint tail, whose
        leading term is (v'(0)^2 + v'(t0)^2) t0^4 / (2 d^2 U^2) at cutoff
        u = U (see ``tabulated.spectral_moment``).  Accurate to
        _TABULATED_REL_TOL for the spline; its agreement with the curve the
        samples came from is that of the spline (a few 1e-8 for 64 samples of
        the sin^2 shape, 1e-10 for 400).
        """
        if self.d == 0.0:
            return 0.0
        moment = spectral_moment(self._spline.derivative(), _TABULATED_REL_TOL)
        return moment * (self.t0 / self.d) ** 2

    @functools.cached_property
    def _peak_speed(self) -> float:
        """max |v| of a tabulated profile, exactly, once per profile.

        The clamped spline's derivative is quadratic on each piece, so |v|
        peaks at a knot or at the vertex of a piece's parabola.
        """
        v = self._spline.derivative()
        a, b, c = v.c
        h = np.diff(v.x)
        # Knots: each piece's left end, and the right end of the last.
        speeds = [np.abs(c), [abs(a[-1] * h[-1] ** 2 + b[-1] * h[-1] + c[-1])]]
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = -b / (2.0 * a)
        inside = (a != 0.0) & (vertex > 0.0) & (vertex < h)
        speeds.append(np.abs(c[inside] - b[inside] ** 2 / (4.0 * a[inside])))
        return float(max(np.max(part, initial=0.0) for part in speeds))

    def velocity(self, t: np.ndarray) -> np.ndarray:
        """Instantaneous velocity; zero outside [0, t0]."""
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.t0)
        if self.shape is Shape.SIN_SQUARED:
            v = (self.d * math.pi / (2.0 * self.t0)) * np.sin(math.pi * t / self.t0)
        else:
            v = self._spline(np.clip(t, 0.0, self.t0), 1)
        return np.where(inside, v, 0.0)


def _sin2_envelope(u: np.ndarray) -> np.ndarray:
    """cos(u/2) / (1 - u^2/pi^2) without cancellation at u = pi.

    Exact rewrite with eps = u - pi:
    cos(u/2) = sin(-eps/2) and 1 - u^2/pi^2 = -eps (2 pi + eps) / pi^2, so the
    ratio is pi^2 sin(eps/2) / (eps (2 pi + eps)); the removable singularity
    becomes an ordinary sinc evaluation.
    """
    eps = np.asarray(u, dtype=float) - math.pi
    # sin(eps/2)/(eps/2) via np.sinc (sin(pi x)/(pi x)).
    return math.pi**2 * 0.5 * np.sinc(eps / (2.0 * math.pi)) / (2.0 * math.pi + eps)


def velocity_fourier(profile: TrajectoryProfile, omega):
    """Fourier transform v(omega) = int v(t) exp(i omega t) dt.

    Closed form for the sin^2 shape; for tabulated shapes, the exact
    transform of the spline's derivative (``tabulated.spline_fourier``).
    Accepts scalar or array omega.
    """
    if profile.shape is Shape.SIN_SQUARED:
        u = np.asarray(omega, dtype=float) * profile.t0
        value = np.exp(0.5j * u) * profile.d * _sin2_envelope(u)
        return complex(value) if np.isscalar(omega) else value
    return spline_fourier(profile._spline.derivative(), omega)


def _check_nonrelativistic(profile: TrajectoryProfile,
                           constants: PhysicalConstants) -> None:
    """d < c t0 / 3 on every path; on a tabulated one also its own peak
    speed, max|v| / c < pi / 6, which the end points alone do not bound."""
    require(profile.d < NONRELATIVISTIC_GATE * constants.c * profile.t0,
            RelativisticMotionError,
            "nonrelativistic gate requires d < c t0 / 3, got d={d}, t0={t0}, c t0={c_t0}",
            d=profile.d, t0=profile.t0, c_t0=constants.c * profile.t0)
    if profile.shape is Shape.TABULATED:
        beta_max = profile._peak_speed / constants.c
        require(beta_max < PEAK_SPEED_GATE, RelativisticMotionError,
                "nonrelativistic gate requires a peak speed max|v|/c < pi/6, got {beta}",
                beta=beta_max)


def _charge_ratio(q: float, constants: PhysicalConstants) -> float:
    require_nonnegative(q=q)
    return q / planck_scales(constants).q_P


def mode_integral(profile: TrajectoryProfile, q: float,
                  constants: PhysicalConstants = CODATA) -> float:
    """Exponent E with vacuum overlap exp(-E).

    E = (q^2 / 6 pi^2) int_0^inf |v(omega)|^2 omega domega in natural units
    (q_P^2 = 4 pi).  On the sin^2 path the integral over u = omega t0 is
    J = pi^2 (pi Si(pi) - 2) / 4, so E is the closed form
    SIN2_EXPONENT_CONSTANT (q/q_P)^2 (d / c t0)^2; on a tabulated path it is
    the spline's spectral moment.  ``q`` and the profile's ``d`` and ``t0``
    may be arrays of sweep values; powers use libm's pow, as in
    ``echo._dipole_pair``, so a swept point equals that point alone.
    """
    _check_nonrelativistic(profile, constants)
    q_ratio = _charge_ratio(q, constants)
    beta = profile.d / (constants.c * profile.t0)
    if profile.shape is Shape.SIN_SQUARED:
        return SIN2_EXPONENT_CONSTANT * np.float_power(q_ratio, 2) * np.float_power(beta, 2)
    prefactor = ((4.0 * math.pi * np.float_power(q_ratio, 2)) / (6.0 * math.pi**2)
                 * np.float_power(beta, 2))
    return prefactor * profile._tabulated_spectral_integral


def vacuum_overlap(profile: TrajectoryProfile, q: float,
                   constants: PhysicalConstants = CODATA) -> float:
    """|<0|f>|^2 = exp(-mode_integral): probability of radiating nothing."""
    return math.exp(-mode_integral(profile, q, constants))


def min_radiationless_time(q: float, d: float,
                           constants: PhysicalConstants = CODATA) -> float:
    """Shortest motion time sqrt(2) (q/q_P) d/c with order-one vacuum overlap."""
    require_positive(q=q, d=d)
    return math.sqrt(2.0) * _charge_ratio(q, constants) * d / constants.c


# --- discretized displacement functions -----------------------------------


@dataclass(frozen=True)
class ModeGrid:
    """Quadrature grid over angular frequency (SI rad/s)."""

    omega_nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega_nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if omega.shape != w.shape or omega.ndim != 1:
            raise ValidationError("nodes and weights must be 1-D arrays of equal length")
        if not (np.all(omega > 0.0) and np.all(np.diff(omega) > 0.0)):
            raise ValidationError("omega nodes must be positive and strictly increasing")
        if not np.all(w > 0.0):
            raise ValidationError("weights must be positive")
        object.__setattr__(self, "omega_nodes", omega)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.omega_nodes)


def gauss_legendre_grid(omega_max: float, n: int) -> ModeGrid:
    """Gauss-Legendre grid on (0, omega_max)."""
    require_positive(omega_max=omega_max)
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    nodes, weights = gauss_legendre(n)
    return ModeGrid(
        omega_nodes=0.5 * omega_max * (nodes + 1.0),
        weights=0.5 * omega_max * weights,
    )


@dataclass(frozen=True)
class DisplacementFunction:
    """Effective per-mode coherent amplitudes on a ModeGrid.

    The angular dependence of the transverse projector is pre-integrated, so
    a single complex amplitude per frequency node remains; the weighted norm
    sum(w |f|^2) reproduces the continuum exponent E.
    """

    values: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 1:
            raise ValidationError("values must be a 1-D complex array")
        if not np.all(np.isfinite(values)):
            raise ValidationError("values must be finite")
        object.__setattr__(self, "values", values)


def displacement_from_trajectory(profile: TrajectoryProfile, q: float,
                                 grid: ModeGrid,
                                 constants: PhysicalConstants = CODATA
                                 ) -> DisplacementFunction:
    """Mode amplitudes i q v(omega) sqrt(omega/6) / pi (natural units).

    Squared and weighted, these reproduce the 1/(6 pi^2) exponent integrand.
    A grid extending past the long-wavelength gate omega < c/(3 d) is flagged
    in ``warnings`` rather than rejected: integrated quantities are dominated
    by omega ~ 1/t0 where the approximation holds.
    """
    q_ratio = _charge_ratio(q, constants)
    c = constants.c
    warnings: tuple[str, ...] = ()
    if profile.d > 0.0:
        omega_gate = LONG_WAVELENGTH_GATE * c / profile.d
        if grid.omega_nodes[-1] >= omega_gate:
            warnings = (
                f"grid max frequency {grid.omega_nodes[-1]:.3e} rad/s exceeds the "
                f"long-wavelength gate c/(3 d) = {omega_gate:.3e} rad/s",
            )
    # Natural units with 1 m as the reference length.
    omega_nat = grid.omega_nodes / c
    q_nat = math.sqrt(4.0 * math.pi) * q_ratio
    # velocity_fourier carries units of length; with 1 m as the reference
    # length its natural-unit value is numerically identical.
    v_nat = velocity_fourier(profile, grid.omega_nodes)
    values = 1j * q_nat * v_nat * np.sqrt(omega_nat / 6.0) / math.pi
    return DisplacementFunction(values=values, warnings=warnings)


def coherent_overlap(f: DisplacementFunction, g: DisplacementFunction,
                     grid: ModeGrid,
                     constants: PhysicalConstants = CODATA) -> float:
    """|<f|g>|^2 = exp(-sum w |f-g|^2) on the discretized mode set."""
    if len(f.values) != len(grid) or len(g.values) != len(grid):
        raise ValidationError("displacement functions must live on the given grid")
    w = grid.weights / constants.c
    return math.exp(-float(np.sum(w * np.abs(f.values - g.values) ** 2)))
