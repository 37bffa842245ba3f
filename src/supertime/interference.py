"""Momentum-space discrimination of a coherent superposition from a mixture.

The coherent state of two separated identical wavepackets shows cos^2
fringes in its momentum distribution; the mixture does not.  A likelihood
ratio test between the two distributions, each convolved with Gaussian
measurement noise, turns the required momentum precision ~ pi/d into an
operational power curve.  The spin protocol maps the radiated-field vacuum
overlap onto the visibility of a two-level measurement.

Momenta are in natural units (hbar = 1, k in 1/m); only required_precision
converts to SI.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from . import radiation
from .constants import CODATA, PhysicalConstants
from .errors import (
    ValidationError,
    require,
    require_finite,
    require_nonnegative,
    require_positive,
)
from .radiation import Shape, TrajectoryProfile

__all__ = [
    "Hypothesis",
    "SuperposedWavepacket",
    "DiscriminationResult",
    "SpinProtocolResult",
    "momentum_density_coherent",
    "momentum_density_mixed",
    "required_precision",
    "sample_momenta",
    "discriminate",
    "power_curve",
    "spin_protocol_visibility",
]


class Hypothesis(enum.Enum):
    COHERENT = "coherent"
    MIXED = "mixed"


@dataclass(frozen=True)
class SuperposedWavepacket:
    """Two identical Gaussian packets of width sigma separated by d.

    The state is normalized exactly, including the overlap term between the
    packets; the textbook 1/sqrt(2) normalization silently assumes
    sigma << d.
    """

    sigma: float
    d: float
    phase_phi: float = 0.0

    def __post_init__(self):
        require_positive(sigma=self.sigma)
        require_nonnegative(d=self.d)
        # A non-finite phase makes every acceptance threshold of the
        # rejection sampler NaN, so it would never accept a candidate.
        require_finite(phase_phi=self.phase_phi)
        # A subnormal sigma overflows 1/(2 sigma), and with an infinite spread
        # the rejection sampler never accepts a candidate.
        require(self.momentum_spread < math.inf, ValidationError,
                "sigma={sigma} is too small: its momentum spread 1/(2 sigma) is not finite",
                sigma=self.sigma)

    @property
    def momentum_spread(self) -> float:
        """Single-packet momentum std 1/(2 sigma) (hbar = 1)."""
        return 1.0 / (2.0 * self.sigma)

    @property
    def _overlap(self) -> float:
        """Packet-overlap term cos(phi) exp(-d^2 s^2 / 2) = cos(phi) exp(-d^2/(8 sigma^2))."""
        return math.cos(self.phase_phi) * math.exp(-0.5 * (self.d * self.momentum_spread) ** 2)

    @property
    def _norm(self) -> float:
        """1 / (1 + overlap term), exact normalization."""
        return 1.0 / (1.0 + self._overlap)

    @property
    def _log_norm(self) -> float:
        """log of _norm, kept accurate when the packet overlap is tiny."""
        return -math.log1p(self._overlap)


@dataclass(frozen=True)
class DiscriminationResult:
    n_samples: int
    noise_dP: float
    log_likelihood_ratio: float
    decision: Hypothesis


@dataclass(frozen=True)
class SpinProtocolResult:
    """Spin measurement statistics after the spin-dependent recombination."""

    visibility: float
    p_plus_coherent: float
    p_plus_collapsed: float = 0.5


def _gaussian(k: np.ndarray, std: float) -> np.ndarray:
    return np.exp(-0.5 * (k / std) ** 2) / (math.sqrt(2.0 * math.pi) * std)


def required_precision(d: float, constants: PhysicalConstants = CODATA) -> float:
    """Momentum precision pi hbar / d (SI) needed to resolve the fringes."""
    require_positive(d=d)
    return math.pi * constants.hbar / d


def _noisy_fringe_params(packet: SuperposedWavepacket,
                         noise_dP: float) -> tuple[float, float, float]:
    """(total std c, fringe visibility V, fringe frequency scale beta).

    Convolving N (1 + cos(k d - phi)) g_s with a Gaussian of std sigma_n
    gives N g_c(k) (1 + V cos(beta d k - phi)) with c^2 = s^2 + sigma_n^2,
    V = exp(-d^2 s^2 sigma_n^2 / (2 c^2)) and beta = s^2 / c^2.
    """
    s = packet.momentum_spread
    c_sq = s**2 + noise_dP**2
    visibility = math.exp(-0.5 * packet.d**2 * s**2 * noise_dP**2 / c_sq)
    beta = s**2 / c_sq
    return math.sqrt(c_sq), visibility, beta


def momentum_density_coherent(k, packet: SuperposedWavepacket, noise_dP: float = 0.0):
    """Fringed density N (1 + cos(k d - phi)) |phi(k)|^2, convolved with noise of std noise_dP."""
    require_nonnegative(noise_dP=noise_dP)
    k = np.asarray(k, dtype=float)
    c, visibility, beta = _noisy_fringe_params(packet, noise_dP)
    fringe = 1.0 + visibility * np.cos(beta * packet.d * k - packet.phase_phi)
    return packet._norm * fringe * _gaussian(k, c)


def momentum_density_mixed(k, packet: SuperposedWavepacket, noise_dP: float = 0.0):
    """Fringe-free density |phi(k)|^2 of the mixture, convolved with noise of std noise_dP."""
    require_nonnegative(noise_dP=noise_dP)
    k = np.asarray(k, dtype=float)
    return _gaussian(k, math.sqrt(packet.momentum_spread**2 + noise_dP**2))


def sample_momenta(packet: SuperposedWavepacket, hypothesis: Hypothesis,
                   n: int, noise_dP: float, seed: int) -> np.ndarray:
    """i.i.d. noisy momentum measurements under the chosen hypothesis."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    require_nonnegative(noise_dP=noise_dP)
    rng = np.random.default_rng(seed)
    true_k = np.empty(n)
    _sample_true_momenta(packet, hypothesis, rng, true_k, _RejectionScratch(n))
    if noise_dP > 0.0:
        true_k = true_k + noise_dP * rng.standard_normal(n)
    return true_k


# The Monte-Carlo decisions are screened in float32, whose cos and log1p numpy
# runs in SIMD, where the float64 cos is scalar.  The screens assume these
# bounds, each at least four times what tests/test_interference.py measures:
# - numpy's float32 cos of a float32 x is within _COS32_FLOOR of cos(x);
# - the sampler's float64 theta rounds to float32 within 2^-24 |theta|, a
#   quarter of _COS32_SLOPE |theta|;
# - the level screen's float32 theta = f (k + l u) - phi is within
#   _THETA32_SLOPE (|f| |k| + |f l| |u| + |phi|) of the float64 one (the
#   roundings of both routes reach at most a quarter of that);
# - numpy's float32 log1p is within _LOG1P32_ERROR |log1p(x)| + 2^-148 of
#   log1p(x).
_COS32_SLOPE = 2.0**-22
_COS32_FLOOR = 2.0**-21
_THETA32_SLOPE = 2.0**-19
_LOG1P32_ERROR = 2.0**-19
# Floor on V cos in the log-likelihood ratio, keeping the log finite at exact fringe zeros.
_FRINGE_FLOOR = -1.0 + 1e-15
# The float32 floor, the float32 next above -1.
_FRINGE_FLOOR32 = np.nextafter(np.float32(-1.0), np.float32(0.0))


def _cos32(theta: np.ndarray, out: np.ndarray) -> float:
    """cos of float32(theta) into the float32 ``out``; returns its error bound.

    A theta beyond the float32 range casts to +-inf, whose cos is NaN; the
    bound is then past every gap the sampler compares it with, and a NaN
    fails its test, so those candidates take the exact route.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.copyto(out, theta, casting="same_kind")
        np.cos(out, out=out)
    return _COS32_SLOPE * max(theta.max(), -theta.min()) + _COS32_FLOOR


class _RejectionScratch:
    """Buffers for one rejection pass of ``_sample_true_momenta``.

    A pass draws at most max(2 n, 128) candidates; allocating them once
    per curve instead of once per trial keeps large temporaries from
    costing page faults on every trial.  ``candidates`` counts the draws
    and ``rechecks`` the acceptances the screen left to the float64
    threshold.
    """

    def __init__(self, n: int):
        size = max(2 * n, 128)
        self.draws = np.empty(size)
        self.uniform = np.empty(size)
        self.theta = np.empty(size)
        self.work = np.empty(size)
        self.narrow = np.empty(size, dtype=np.float32)
        self.accept = np.empty(size, dtype=bool)
        self.sure = np.empty(size, dtype=bool)
        self.candidates = 0
        self.rechecks = 0


def _sample_true_momenta(packet: SuperposedWavepacket, hypothesis: Hypothesis,
                         rng: np.random.Generator, out: np.ndarray,
                         scratch: _RejectionScratch) -> None:
    """Fill ``out`` with true momenta drawn under ``hypothesis``.

    The coherent draws are rejection samples: a candidate k is accepted
    when its uniform u < (1 + cos theta) / 2, theta = k d - phi.  Theta is
    computed in float64 as in the plain expression, and the threshold first
    from the float32 cos c~.  Wherever |u - (1 + c~)/2| > eps/2 + 2^-50,
    with eps = 2^-22 max|theta| + 2^-21 over the batch (``_COS32_SLOPE``,
    ``_COS32_FLOOR``), u is on the same side of the float64 threshold, and
    that decision stands; every other candidate, a NaN c~ included, is
    decided again by the exact float64 expression and counted in
    ``scratch.rechecks``.  Every step writes into ``out`` or ``scratch`` and
    keeps the operand order of the plain expressions, so the draws equal
    theirs bit for bit.
    """
    s = packet.momentum_spread
    n = len(out)
    if hypothesis is Hypothesis.MIXED:
        rng.standard_normal(out=out)
        np.multiply(s, out, out=out)
        return
    # Rejection from the single-packet Gaussian with acceptance
    # (1 + cos(k d - phi)) / 2; the exact normalization is automatic.
    filled = 0
    while filled < n:
        batch = max(2 * (n - filled), 128)
        k = scratch.draws[:batch]
        uniform = scratch.uniform[:batch]
        theta = scratch.theta[:batch]
        threshold = scratch.work[:batch]
        accept = scratch.accept[:batch]
        sure = scratch.sure[:batch]
        scratch.candidates += batch
        rng.standard_normal(out=k)
        np.multiply(s, k, out=k)
        rng.random(out=uniform)
        np.multiply(k, packet.d, out=theta)
        np.subtract(theta, packet.phase_phi, out=theta)
        error = _cos32(theta, scratch.narrow[:batch])
        np.copyto(threshold, scratch.narrow[:batch])
        np.add(1.0, threshold, out=threshold)
        np.multiply(0.5, threshold, out=threshold)
        np.less(uniform, threshold, out=accept)
        np.subtract(uniform, threshold, out=threshold)
        np.abs(threshold, out=threshold)
        np.greater(threshold, 0.5 * error + 2.0**-50, out=sure)
        if not sure.all():
            unsure = np.flatnonzero(~sure)
            accept[unsure] = uniform[unsure] < 0.5 * (1.0 + np.cos(theta[unsure]))
            scratch.rechecks += len(unsure)
        # The thresholds are spent; their buffer takes the accepted draws.
        accepted = np.compress(accept, k, out=scratch.work[:np.count_nonzero(accept)])
        take = min(len(accepted), n - filled)
        out[filled:filled + take] = accepted[:take]
        filled += take


def _log_likelihood_ratio(samples: np.ndarray, packet: SuperposedWavepacket,
                          noise_dP: float, work: np.ndarray) -> float:
    """Coherent-vs-mixed log-likelihood ratio of ``samples``, computed in ``work``.

    ``work`` has the shape of ``samples`` and may be ``samples`` itself.
    """
    _, visibility, beta = _noisy_fringe_params(packet, noise_dP)
    np.multiply(beta * packet.d, samples, out=work)
    np.subtract(work, packet.phase_phi, out=work)
    np.cos(work, out=work)
    np.multiply(visibility, work, out=work)
    np.maximum(work, _FRINGE_FLOOR, out=work)
    np.log1p(work, out=work)
    return float(np.sum(work) + samples.size * packet._log_norm)


def discriminate(samples: np.ndarray, packet: SuperposedWavepacket,
                 noise_dP: float) -> DiscriminationResult:
    """Exact log-likelihood ratio coherent vs mixed for noisy samples.

    The Gaussian envelopes of the two noise-convolved densities coincide, so
    the ratio reduces to the fringe factor.  log1p keeps the statistic exact
    when the visibility is far below machine epsilon, where 1 + V cos would
    round to 1; a floor keeps the log finite at exact fringe zeros.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValidationError("samples must be non-empty")
    require_nonnegative(noise_dP=noise_dP)
    llr = _log_likelihood_ratio(samples, packet, noise_dP, np.empty_like(samples))
    decision = Hypothesis.COHERENT if llr > 0.0 else Hypothesis.MIXED
    return DiscriminationResult(
        n_samples=samples.size,
        noise_dP=noise_dP,
        log_likelihood_ratio=llr,
        decision=decision,
    )


def _fringe_phase32(level: np.ndarray, frequency: np.ndarray, phase: np.float32,
                    true_k: np.ndarray, unit_noise: np.ndarray, out: np.ndarray) -> None:
    """theta = f (k + l u) - phi in float32, one row of ``out`` per level.

    ``level`` and ``frequency`` are float32 columns, ``true_k`` and
    ``unit_noise`` float32 rows; the operand order is that of the float64
    ratio.
    """
    np.multiply(level, unit_noise, out=out)
    np.add(out, true_k, out=out)
    np.multiply(out, frequency, out=out)
    np.subtract(out, phase, out=out)


class _LevelScreen:
    """Decides all of one trial's noise levels in one (levels x n) float32 block.

    Holds each level's fringe visibility and frequency in float64 and
    float32, the block, float32 copies of the trial's draws and a float64
    row for the decisions left to ``_log_likelihood_ratio``; ``rechecks``
    counts those.
    """

    def __init__(self, packet: SuperposedWavepacket, n: int, noise_levels: np.ndarray):
        fringes = [_noisy_fringe_params(packet, level) for level in noise_levels]
        self.packet = packet
        self.noise_levels = noise_levels
        self.visibility = np.array([visibility for _, visibility, _ in fringes])
        # The factor of _log_likelihood_ratio, so the float64 theta has its bits.
        self.frequency = np.array([beta * packet.d for _, _, beta in fringes])
        self.noise_frequency = self.frequency * noise_levels
        with np.errstate(over="ignore"):
            self.level32 = noise_levels.astype(np.float32)[:, None]
            self.frequency32 = self.frequency.astype(np.float32)[:, None]
            self.visibility32 = self.visibility.astype(np.float32)[:, None]
            self.phase32 = np.float32(packet.phase_phi)
        # The bound takes each float32 factor to be a normal number, which
        # also leaves out a zero noise level.
        factors = np.hstack([self.level32, self.frequency32, self.visibility32])
        self.normal = np.all((np.abs(factors) >= np.finfo(np.float32).tiny)
                             & np.isfinite(factors), axis=1)
        self.block = np.empty((len(noise_levels), n), dtype=np.float32)
        self.true_k32 = np.empty(n, dtype=np.float32)
        self.unit_noise32 = np.empty(n, dtype=np.float32)
        self.row = np.empty(n)
        self.rechecks = 0

    def decide(self, true_k: np.ndarray, unit_noise: np.ndarray, out: np.ndarray) -> None:
        """out[j] = whether the log-likelihood ratio of true_k + level_j unit_noise is > 0."""
        packet, n = self.packet, len(true_k)
        n_log_norm = n * packet._log_norm
        visibility, block = self.visibility, self.block
        # A draw, factor or theta beyond the float32 range gives inf or NaN,
        # and a NaN ratio or margin settles nothing.
        with np.errstate(all="ignore"):
            k, u = self.true_k32, self.unit_noise32
            np.copyto(k, true_k, casting="same_kind")
            np.copyto(u, unit_noise, casting="same_kind")
            _fringe_phase32(self.level32, self.frequency32, self.phase32, k, u, block)
            np.cos(block, out=block)
            np.multiply(block, self.visibility32, out=block)
            np.maximum(block, _FRINGE_FLOOR32, out=block)
            np.log1p(block, out=block)
            llr = block.sum(axis=1, dtype=np.float64) + n_log_norm
            # |llr - exact llr| <= margin: each V cos moves by at most delta
            # (V times the theta and cos errors, plus the rounding of both
            # products, relative or subnormal), each log1p then by at most
            # delta / least, and the log1p and sum terms scale with
            # |log1p| <= -log(least).
            theta_error = (_THETA32_SLOPE * (self.frequency * max(true_k.max(), -true_k.min())
                                             + self.noise_frequency
                                             * max(unit_noise.max(), -unit_noise.min())
                                             + abs(packet.phase_phi))
                           + 2.0**-148 * (self.frequency + self.noise_frequency + 1.0))
            delta = visibility * (theta_error + _COS32_FLOOR + 2.0**-22) + 2.0**-149
            least = 1.0 - visibility - delta
            margin = (n * (delta / least - (_LOG1P32_ERROR + 2.0**-49 * n) * np.log(least)
                           + 2.0**-148)
                      + 2.0**-52 * abs(n_log_norm))
            # Where the least 1 + V cos exceeds 2^-24, neither floor acts.
            settled = self.normal & (least > 2.0**-24) & (np.abs(llr) > margin)
        out[:] = llr > 0.0
        for j in np.flatnonzero(~settled):
            # The row built as the plain expression builds it, with the same bits.
            row, level = self.row, self.noise_levels[j]
            np.multiply(level, unit_noise, out=row)
            np.add(true_k, row, out=row)
            out[j] = _log_likelihood_ratio(row, packet, level, row) > 0.0
            self.rechecks += 1


def _worker_count(trials: int) -> int:
    """Threads for one power curve: one per CPU the process may run on, at most one per trial."""
    if hasattr(os, "sched_getaffinity"):
        return min(trials, len(os.sched_getaffinity(0)))
    return min(trials, os.cpu_count() or 1)  # no affinity mask on macOS and Windows


def _decide_share(packet: SuperposedWavepacket, n: int, noise_levels: np.ndarray,
                  seed: int, decisions: np.ndarray,
                  rechecks: np.ndarray, share: int, shares: int) -> None:
    """Decide trials share, share + shares, ... into their rows of ``decisions``.

    Trial i draws from child i of ``SeedSequence(seed)``.

    The share allocates its own arrays once and reuses them for each of its
    trials, so shares running in parallel share no buffer.  Its counts of
    level decisions re-decided in float64, of acceptances re-decided in
    float64 and of candidates drawn go to ``rechecks[share]``.
    """
    true_k, unit_noise = np.empty(n), np.empty(n)
    scratch = _RejectionScratch(n)
    screen = _LevelScreen(packet, n, noise_levels)
    for trial in range(share, len(decisions), shares):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
        _sample_true_momenta(packet, Hypothesis.COHERENT, rng, true_k, scratch)
        rng.standard_normal(out=unit_noise)
        screen.decide(true_k, unit_noise, decisions[trial])
    rechecks[share] = screen.rechecks, scratch.rechecks, scratch.candidates


def power_curve(packet: SuperposedWavepacket, n: int,
                noise_levels: "list[float] | np.ndarray", trials: int,
                seed: int) -> np.ndarray:
    """Discrimination power per noise level with common random numbers.

    Each trial draws one set of true coherent momenta and one set of unit
    noise deviates; every noise level observes the same base draw scaled by
    its own noise std, so the empirical power is comparable across levels.
    The decision at each level is that of ``discriminate``, and every power
    is the same bytes as the plain per-trial loop gives.

    Both the rejection sampler (see ``_sample_true_momenta``) and the level
    decisions are screened in float32 and settled in float64 only where the
    screen cannot be sure.  A trial's levels are screened together: its
    draws k and u are cast to float32 once, and theta = f (k + l u) - phi,
    cos, x V, the floor (the float32 next above -1), log1p and each row's
    sum, into float64, give every level's screened ratio llr~.  For a level
    of noise std l, frequency f = beta d and visibility V, theta is within
    e = 2^-19 (|f| max|k| + |f l| max|u| + |phi|) + 2^-148 (|f| + |f l| + 1)
    of the float64 one (``_THETA32_SLOPE``), and the float32 cos within
    2^-21 of the cos of its argument (``_COS32_FLOOR``).  So each float32
    V cos is within delta = V (e + 2^-21 + 2^-22) + 2^-149 of the float64
    one, 2^-22 covering the rounding of V and of both products.  With
    L = 1 - V - delta, the least value of 1 + V cos that either log sees,
    each log1p moves by at most delta / L and is at most -log L in size;
    the float32 log1p errs by at most 2^-19 of that plus 2^-148
    (``_LOG1P32_ERROR``), and the float64 log1p and the sums by at most
    2^-49 n of it.  The float64 ratio is then within
    B = n (delta / L - (2^-19 + 2^-49 n) log L + 2^-148) + 2^-52 |n log N|
    of llr~, so llr~ > B decides coherent and llr~ < -B mixed, provided
    L > 2^-24, so that neither floor acts, and l, f and V are normal
    float32 numbers, as the bound on e takes them to be.  Any other level,
    V = 1 at zero noise and a NaN llr~ from a theta beyond the float32 range
    included, is decided by the float64 ratio itself.

    Each trial has its own ``SeedSequence`` child, so trials are
    independent.  They run in W interleaved shares, one per CPU in the
    process's affinity (at most one per trial): the calling thread decides
    trials 0, W, 2W, ... and W - 1 threads the others.  numpy's ``cos``,
    ``log1p`` and generator fills release the GIL, so the shares run in
    parallel, and the powers are the same bytes for every W.  An error in
    any share is raised here once all shares have stopped.
    """
    return _power_curve_with_rechecks(packet, n, noise_levels, trials, seed)[0]


def _power_curve_with_rechecks(packet: SuperposedWavepacket, n: int,
                               noise_levels: "list[float] | np.ndarray", trials: int,
                               seed: int) -> "tuple[np.ndarray, dict, int]":
    """``power_curve``'s powers; how many level decisions and acceptances the
    screens left to float64, each with its base; and the number of shares."""
    if n < 1 or trials < 1 or seed < 0:
        raise ValidationError("power_curve needs n >= 1, trials >= 1 and seed >= 0, "
                              f"got n={n}, trials={trials}, seed={seed}")
    noise_levels = np.asarray(noise_levels, dtype=float)
    if noise_levels.ndim != 1 or noise_levels.size == 0:
        raise ValidationError("power_curve needs a non-empty list of noise levels, "
                              f"got shape {noise_levels.shape}")
    require_nonnegative(**{f"noise level {i}": level
                           for i, level in enumerate(noise_levels.tolist())})
    from concurrent.futures import ThreadPoolExecutor

    # Trial i draws from child i of SeedSequence(seed).spawn(trials), built
    # only when its share reaches it, as SeedSequence(seed, spawn_key=(i,)),
    # which has the same state: nothing sized by trials precedes the decisions.
    decisions = np.zeros((trials, len(noise_levels)), dtype=bool)
    shares = _worker_count(trials)
    rechecks = np.zeros((shares, 3), dtype=np.int64)
    # With one share the pool never starts a thread.
    with ThreadPoolExecutor(max(shares - 1, 1)) as pool:
        others = [pool.submit(_decide_share, packet, n, noise_levels, seed, decisions,
                              rechecks, share, shares) for share in range(1, shares)]
        _decide_share(packet, n, noise_levels, seed, decisions, rechecks, 0, shares)
        for future in others:
            future.result()
    levels, acceptances, candidates = rechecks.sum(axis=0).tolist()
    return decisions.mean(axis=0), {"levels": levels, "level_decisions": decisions.size,
                                    "acceptances": acceptances,
                                    "candidates": candidates}, shares


def spin_protocol_visibility(q: float, d: float, t0: float,
                             kappa: int = 1,
                             constants: PhysicalConstants = CODATA
                             ) -> SpinProtocolResult:
    """Spin coherence surviving the recombination of the two branches.

    The off-diagonal element of the spin state is suppressed by the
    radiated-field vacuum overlap raised to ``kappa`` (1: the overlap
    probability itself; 2: its square; the quantitative link is a modeling
    convention, hence the explicit exponent).
    """
    if kappa not in (1, 2):
        raise ValidationError(f"kappa must be 1 or 2, got {kappa}")
    require_positive(q=q, d=d, t0=t0)
    profile = TrajectoryProfile(d=d, t0=t0, shape=Shape.SIN_SQUARED)
    overlap = radiation.vacuum_overlap(profile, q, constants)
    visibility = overlap**kappa
    return SpinProtocolResult(
        visibility=visibility,
        p_plus_coherent=0.5 * (1.0 + visibility),
    )
