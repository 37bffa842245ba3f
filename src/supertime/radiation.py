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

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import sici

from .constants import CODATA, PhysicalConstants, planck_scales
from .errors import RelativisticMotionError, ValidationError
from .tabulated import gauss_legendre, sample_columns, spectral_moment, spline_fourier

__all__ = [
    "Shape",
    "TrajectoryProfile",
    "ModeGrid",
    "DisplacementFunction",
    "SIN2_EXPONENT_CONSTANT",
    "velocity_fourier",
    "mode_integral",
    "closed_form_exponent",
    "vacuum_overlap",
    "min_radiationless_time",
    "gauss_legendre_grid",
    "displacement_from_trajectory",
    "coherent_overlap",
    "coherent_overlap_amplitude",
    "composition_phase",
]

# pi (pi Si(pi) - 2) / 6: exact constant of the sin^2 trajectory exponent.
SIN2_EXPONENT_CONSTANT = math.pi * (math.pi * float(sici(math.pi)[0]) - 2.0) / 6.0

# Hard gate encoding d << c t0 (nonrelativistic motion).
NONRELATIVISTIC_GATE = 1.0 / 3.0
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

    For TABULATED shapes, ``samples`` is an (n, 2) array of (t, x) pairs
    covering [0, t0]; the profile is interpolated with a cubic spline and the
    velocity is the spline derivative.  Endpoint conditions x(0)=0, x(t0)=d,
    v(0)=v(t0)=0 are checked at construction.
    """

    d: float
    t0: float
    shape: Shape = Shape.SIN_SQUARED
    samples: np.ndarray | None = None
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (self.d >= 0.0 and math.isfinite(self.d)):
            raise ValidationError(f"d must be non-negative, got {self.d}")
        if not (self.t0 > 0.0 and math.isfinite(self.t0)):
            raise ValidationError(f"t0 must be positive, got {self.t0}")
        if self.shape is Shape.TABULATED:
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
        # Clamped spline: the interpolant's endpoint velocities are exactly
        # zero, preventing spurious high-frequency radiation.
        return CubicSpline(t, x, bc_type="clamped")

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


@functools.cache
def _sin2_spectral_integral() -> float:
    """J = int_0^inf u cos^2(u/2) / (1 - u^2/pi^2)^2 du by quadrature.

    Splits at U0: a smooth finite part, an exact algebraic tail for the
    non-oscillatory half of cos^2 = (1 + cos u)/2, and a Fourier (QAWF)
    quadrature for the oscillatory half.  A constant, computed once per
    process.
    """
    U0 = 50.0
    head, _ = quad(lambda u: u * _sin2_envelope(u) ** 2, 0.0, U0,
                   limit=400, epsabs=0.0, epsrel=1e-13)
    # int_U0^inf pi^4 u / (2 (u^2 - pi^2)^2) du = pi^4 / (4 (U0^2 - pi^2))
    tail_smooth = math.pi**4 / (4.0 * (U0**2 - math.pi**2))
    tail_osc, _ = quad(lambda u: math.pi**4 * u / (2.0 * (u**2 - math.pi**2) ** 2),
                       U0, np.inf, weight="cos", wvar=1.0)
    return head + tail_smooth + tail_osc


def _check_nonrelativistic(profile: TrajectoryProfile,
                           constants: PhysicalConstants) -> None:
    if profile.d >= NONRELATIVISTIC_GATE * constants.c * profile.t0:
        raise RelativisticMotionError(
            f"nonrelativistic gate requires d < c t0 / 3, got d={profile.d}, "
            f"c t0={constants.c * profile.t0}"
        )


def _charge_ratio(q: float, constants: PhysicalConstants) -> float:
    if not (q >= 0.0 and math.isfinite(q)):
        raise ValidationError(f"q must be non-negative, got {q}")
    return q / planck_scales(constants).q_P


def mode_integral(profile: TrajectoryProfile, q: float,
                  constants: PhysicalConstants = CODATA) -> float:
    """Exponent E with vacuum overlap exp(-E).

    E = (q^2 / 6 pi^2) int_0^inf |v(omega)|^2 omega domega in natural units
    (q_P^2 = 4 pi), evaluated by quadrature.
    """
    _check_nonrelativistic(profile, constants)
    q_ratio = _charge_ratio(q, constants)
    if q_ratio == 0.0 or profile.d == 0.0:
        return 0.0
    beta = profile.d / (constants.c * profile.t0)
    prefactor = (4.0 * math.pi * q_ratio**2) / (6.0 * math.pi**2) * beta**2
    if profile.shape is Shape.SIN_SQUARED:
        return prefactor * _sin2_spectral_integral()
    return prefactor * _tabulated_spectral_integral(profile)


def _tabulated_spectral_integral(profile: TrajectoryProfile) -> float:
    """int_0^inf |v(u/t0)|^2 u du / d^2 for a tabulated profile.

    With omega = u / t0 this is t0^2 / d^2 times the spectral moment
    int_0^inf |v(omega)|^2 omega domega of the clamped spline's derivative:
    a Gauss-Legendre panel body plus the analytic endpoint tail, whose
    leading term is (v'(0)^2 + v'(t0)^2) t0^4 / (2 d^2 U^2) at cutoff
    u = U (see ``tabulated.spectral_moment``).  Accurate to
    _TABULATED_REL_TOL for the spline; its agreement with the curve the
    samples came from is that of the spline (a few 1e-8 for 64 samples of
    the sin^2 shape, 1e-10 for 400).
    """
    velocity = profile._spline.derivative()
    moment = spectral_moment(velocity, _TABULATED_REL_TOL)
    return moment * (profile.t0 / profile.d) ** 2


def closed_form_exponent(profile: TrajectoryProfile, q: float,
                         constants: PhysicalConstants = CODATA) -> float:
    """Closed form of the sin^2 exponent via the sine integral:

    E = pi (pi Si(pi) - 2)/6 * (q/q_P)^2 * (d / (c t0))^2.
    """
    if profile.shape is not Shape.SIN_SQUARED:
        raise ValidationError("closed form exists only for the sin^2 shape")
    _check_nonrelativistic(profile, constants)
    q_ratio = _charge_ratio(q, constants)
    beta = profile.d / (constants.c * profile.t0)
    return SIN2_EXPONENT_CONSTANT * q_ratio**2 * beta**2


def vacuum_overlap(profile: TrajectoryProfile, q: float,
                   constants: PhysicalConstants = CODATA) -> float:
    """|<0|f>|^2 = exp(-mode_integral): probability of radiating nothing."""
    return math.exp(-mode_integral(profile, q, constants))


def min_radiationless_time(q: float, d: float,
                           constants: PhysicalConstants = CODATA) -> float:
    """Shortest motion time sqrt(2) (q/q_P) d/c with order-one vacuum overlap."""
    if not (q > 0.0 and d > 0.0):
        raise ValidationError("q and d must be positive")
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
    if not (omega_max > 0.0 and n >= 2):
        raise ValidationError("need omega_max > 0 and n >= 2")
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


def _natural_weights(grid: ModeGrid, constants: PhysicalConstants) -> np.ndarray:
    return grid.weights / constants.c


def _check_same_grid(f: DisplacementFunction, g: DisplacementFunction,
                     grid: ModeGrid) -> None:
    if len(f.values) != len(grid) or len(g.values) != len(grid):
        raise ValidationError("displacement functions must live on the given grid")


def coherent_overlap(f: DisplacementFunction, g: DisplacementFunction,
                     grid: ModeGrid,
                     constants: PhysicalConstants = CODATA) -> float:
    """|<f|g>|^2 = exp(-sum w |f-g|^2) on the discretized mode set."""
    _check_same_grid(f, g, grid)
    w = _natural_weights(grid, constants)
    return math.exp(-float(np.sum(w * np.abs(f.values - g.values) ** 2)))


def coherent_overlap_amplitude(f: DisplacementFunction, g: DisplacementFunction,
                               grid: ModeGrid,
                               constants: PhysicalConstants = CODATA) -> complex:
    """Complex overlap <f|g> = exp(-|f|^2/2 - |g|^2/2 + <f, g>)."""
    _check_same_grid(f, g, grid)
    w = _natural_weights(grid, constants)
    inner = np.sum(w * np.conj(f.values) * g.values)
    norm_f = np.sum(w * np.abs(f.values) ** 2)
    norm_g = np.sum(w * np.abs(g.values) ** 2)
    return complex(np.exp(-0.5 * norm_f - 0.5 * norm_g + inner))


def composition_phase(f: DisplacementFunction, g: DisplacementFunction,
                      grid: ModeGrid,
                      constants: PhysicalConstants = CODATA) -> complex:
    """Scalar factor in D[f] D[g] = exp(phase) D[f+g].

    phase = (1/2) sum w (f g* - f* g), a pure imaginary number.
    """
    _check_same_grid(f, g, grid)
    w = _natural_weights(grid, constants)
    phase = 0.5 * np.sum(w * (f.values * np.conj(g.values)
                              - np.conj(f.values) * g.values))
    return complex(np.exp(phase))
