"""Brute-force grid propagation used to validate the analytic echo formulas.

1-D split-operator (FFT) propagation under H = P^2/2m - F X in natural
units (hbar = 1).  With T = P^2/2m and V = -F X, [V, [V, T]] is a c-number
and [T, [T, V]] = 0, so the BCH series of one symmetric Strang step
terminates: a step of length tau is the exact propagator times the c-number
exp(i F^2 tau^3 / 24m), and n steps over t carry ``strang_phase`` =
F^2 t^3 / (24 m n^2).  So each branch is propagated alone in one FFT pair,
and moments, and the modulus of the overlap of two branches, are exact to
spectral accuracy at any step count.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .echo import GaussianState
from .errors import (
    GridError,
    ValidationError,
    require_finite,
    require_nonnegative,
    require_positive,
)

__all__ = [
    "GridSpec",
    "GridState",
    "init_gaussian",
    "propagate_linear",
    "strang_phase",
    "echo_overlap_numeric",
    "matched_echo_overlap",
    "in_matched_reach",
    "auto_grid",
    "MATCHED_GRID_POINTS",
    "MATCHED_STEPS",
]

# A Gaussian padded by 8 sigma sits at exp(-16) ~ 1e-7 of its peak at the
# edge; the threshold must sit above that but far below any real wraparound.
_BOUNDARY_FRACTION = 1e-6

# Grid size and Strang step count of ``matched_echo_overlap``; one step is
# exact up to a global phase per branch, and only the modulus is reported.
MATCHED_GRID_POINTS = 4096
MATCHED_STEPS = 1
# Below this b/a the spreading over t' = 4a/b stretches the grid to about
# 32 a/b, and its Nyquist wavenumber pi N b / (32 a) falls below twice the
# unit packet's 8-sigma momentum 4.
_MIN_RATIO = 256.0 / (math.pi * MATCHED_GRID_POINTS)  # ~0.02


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid; n_points must be a power of two."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        require_finite(x_min=self.x_min, x_max=self.x_max)
        if not (self.x_max > self.x_min):
            raise ValidationError("x_max must exceed x_min")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ValidationError(f"n_points must be a power of two, got {n}")
        # A finite span can still overflow x_max - x_min.
        require_positive(dx=self.dx)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points, endpoint=False)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points


@dataclass(frozen=True)
class GridState:
    """Discretized wavefunction snapshot.

    ``amplitudes`` is held as a read-only view of the array given, so
    ``norm`` is taken once per state.
    """

    spec: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes).view()
        amplitudes.flags.writeable = False
        object.__setattr__(self, "amplitudes", amplitudes)

    @functools.cached_property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.spec.dx)

    def position_moments(self) -> tuple[float, float]:
        """(<x>, Delta x)."""
        x = self.spec.x
        prob = np.abs(self.amplitudes) ** 2 * self.spec.dx
        mean = float(np.sum(x * prob))
        var = float(np.sum((x - mean) ** 2 * prob))
        return mean, math.sqrt(var)

    def momentum_moments(self) -> tuple[float, float]:
        """(<p>, Delta p) via the discrete Fourier representation."""
        n, dx = self.spec.n_points, self.spec.dx
        p = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
        phi = np.fft.fft(self.amplitudes)
        prob = np.abs(phi) ** 2
        prob /= prob.sum()
        mean = float(np.sum(p * prob))
        var = float(np.sum((p - mean) ** 2 * prob))
        return mean, math.sqrt(var)


def init_gaussian(spec: GridSpec, state: GaussianState) -> GridState:
    """Normalized minimum-uncertainty Gaussian on the grid."""
    if state.x0 - 6.0 * state.sigma < spec.x_min or \
            state.x0 + 6.0 * state.sigma > spec.x_max:
        raise GridError("grid must contain x0 +/- 6 sigma")
    x = spec.x
    psi = np.exp(-((x - state.x0) ** 2) / (4.0 * state.sigma**2)
                 + 1j * state.p0 * x)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * spec.dx)
    return GridState(spec=spec, amplitudes=psi)


def strang_phase(F: float, m: float, t: float, n_steps: int) -> float:
    """F^2 t^3 / (24 m n^2): the phase of n Strang steps over t against the
    exact propagator of H = P^2/2m - F X (hbar = 1)."""
    return F**2 * t**3 / (24.0 * m * n_steps**2)


@functools.lru_cache(maxsize=1, typed=True)
def _kinetic(n: int, dx: float, m: float, t: float) -> np.ndarray:
    """exp(-i k^2 t / 2m) on the FFT wavenumbers of n points spaced dx, read-only.

    Bitwise the full-spectrum expression: the exp is taken on the n/2 + 1
    non-negative frequencies only, and fftfreq's k_{n-j} = -k_j exactly, so
    k^2, and with it the factor, of j and n - j have the same bits.  The
    last factor is kept.  Its key is typed, since a numpy float32 m doubles
    in float32; t = 0.0 and -0.0 give the same bits, so they may share it.
    """
    half = n // 2 + 1
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)[:half]
    kinetic = np.empty(n, dtype=complex)
    kinetic[:half] = np.exp(-1j * k**2 * t / (2.0 * m))
    kinetic[half:] = kinetic[half - 2:0:-1]
    kinetic.flags.writeable = False
    return kinetic


def _half_potential(F: float, x: np.ndarray, t: float) -> np.ndarray:
    """exp(1j * F * x * t / 2.0), the half-step potential factor, from one cos and one sin.

    That exp's argument has real part +-0 and imaginary part
    theta = F * x * t / 2.0, rounded in that order, so it is
    cos theta + i sin theta, bit for bit; only where theta is zero may the
    sign of the zero imaginary part differ.
    """
    theta = F * x * t / 2.0
    factor = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=factor.real)
    np.sin(theta, out=factor.imag)
    return factor


def propagate_linear(state: GridState, F: float, m: float, t: float,
                     n_steps: int) -> GridState:
    """Evolve under H = P^2/2m - F X as n_steps Strang steps would.

    One Strang step of length t (half potential phase, full kinetic step in
    momentum space, half potential phase), times the phase by which
    n_steps steps differ from it (none at one step).  A force-free branch,
    which has no potential factor, is ifft(exp(-i k^2 t / 2m) fft(psi0)).
    The kinetic factor comes from ``_kinetic``: its exp is evaluated on the
    non-negative half of the spectrum and mirrored, and the last factor is
    memoised, so the second branch of an overlap, at the same grid, mass
    and time, reuses the first one's.

    The result is checked for norm drift (a NaN norm fails it), then for
    the grid boundary, both on one |psi|.
    """
    require_positive(m=m)
    require_nonnegative(t=t)
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    require_finite(F=F)
    spec = state.spec
    # kinetic stays the first operand, as in the step loop: numpy's SIMD
    # complex multiply is not bitwise commutative.
    kinetic = _kinetic(spec.n_points, spec.dx, m, t)
    if F == 0.0:
        psi = np.fft.ifft(kinetic * np.fft.fft(state.amplitudes))
    else:
        half_potential = _half_potential(F, spec.x, t)
        psi = np.fft.ifft(kinetic * np.fft.fft(state.amplitudes * half_potential))
        psi *= half_potential
        if n_steps > 1:
            psi *= cmath.exp(1j * (strang_phase(F, m, t, n_steps) - strang_phase(F, m, t, 1)))
    norm0 = state.norm
    magnitude = np.abs(psi)
    norm = np.sum(magnitude ** 2) * spec.dx
    # Written so that a NaN norm fails it.
    if not (abs(norm - norm0) <= 1e-8):
        raise GridError(f"norm drifted by {abs(norm - norm0):.3e}")
    peak = magnitude.max()
    if magnitude[0] > _BOUNDARY_FRACTION * peak or magnitude[-1] > _BOUNDARY_FRACTION * peak:
        raise GridError("wavefunction reaches the grid boundary")
    return GridState(spec=spec, amplitudes=psi)


def echo_overlap_numeric(state0: GridState, F_L: float, F_R: float,
                         m: float, t: float, n_steps: int) -> complex:
    """<psi_R(t) | psi_L(t)> by grid inner product of the two evolutions.

    Both forces are checked before either branch is evolved.  Each branch's
    drift check reads the norm of ``state0``, taken once (``GridState.norm``).
    """
    for F in (F_L, F_R):
        require_finite(F=F)
    left = propagate_linear(state0, F_L, m, t, n_steps)
    right = propagate_linear(state0, F_R, m, t, n_steps)
    return complex(np.sum(np.conj(right.amplitudes) * left.amplitudes)
                   * state0.spec.dx)


def in_matched_reach(a: float, b: float) -> bool:
    """Whether ``matched_echo_overlap`` runs the shift groups (a, b) as given:
    _MIN_RATIO <= b/a < 1e3.  Outside, it runs the balanced pair."""
    return _MIN_RATIO <= (b / a if a > 0.0 else math.inf) < 1e3


def matched_echo_overlap(a: float, b: float) -> float:
    """Echo overlap modulus by grid propagation, matched on the two shift groups.

    a = dx/(2 sigma) and b = dp sigma/hbar determine the overlap
    exp(-a^2/2 - b^2/2); a scaled run with sigma = m = hbar = 1 needs
    dx' = 2a and dp' = b, i.e. t' = 4a/b and F' = b^2/(4a).  The run takes
    MATCHED_STEPS Strang steps on MATCHED_GRID_POINTS points.
    """
    require_nonnegative(a=a, b=b)
    if a == 0.0 and b == 0.0:
        return 1.0
    if not in_matched_reach(a, b):
        # Check the exponent-equivalent balanced pair instead (same overlap).
        a = b = math.sqrt(0.5 * (a**2 + b**2))
    t_n, f_n = 4.0 * a / b, b**2 / (4.0 * a)
    unit_state = GaussianState(sigma=1.0)
    spec = auto_grid(unit_state, [f_n, 0.0], m=1.0, t=t_n, n_points=MATCHED_GRID_POINTS)
    grid0 = init_gaussian(spec, unit_state)
    return abs(echo_overlap_numeric(grid0, f_n, 0.0, 1.0, t_n, MATCHED_STEPS))


def auto_grid(state: GaussianState, forces: "list[float]", m: float, t: float,
              n_points: int = 4096) -> GridSpec:
    """Grid bounding the classical excursion of every branch, padded by 8 sigma.

    Padding also covers the free spreading of the packet over [0, t].
    """
    sigma_t = math.sqrt(state.sigma**2 + (t / (2.0 * m * state.sigma)) ** 2)
    pad = 8.0 * max(state.sigma, sigma_t)
    positions = [state.x0]
    for F in forces:
        positions.append(state.x0 + state.p0 * t / m + F * t**2 / (2.0 * m))
    # Momentum kicks widen the sampled region as well.
    p_span = max(abs(state.p0) + abs(F) * t for F in forces) if forces else abs(state.p0)
    drift = p_span * t / m
    lo = min(positions) - pad - drift
    hi = max(positions) + pad + drift
    return GridSpec(x_min=lo, x_max=hi, n_points=n_points)
