"""Momentum-space discrimination: densities, likelihood ratio, power."""

import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from supertime import interference
from supertime.constants import CODATA
from supertime.errors import ValidationError
from supertime.interference import (
    Hypothesis,
    SuperposedWavepacket,
    discriminate,
    momentum_density_coherent,
    momentum_density_mixed,
    power_curve,
    required_precision,
    sample_momenta,
    spin_protocol_visibility,
)
from supertime.interference import _noisy_fringe_params

PACKET = SuperposedWavepacket(sigma=0.05, d=1.0)  # s d = 10


def test_densities_nonnegative_and_normalized():
    for packet in (PACKET, SuperposedWavepacket(sigma=0.4, d=1.0, phase_phi=1.0)):
        for density in (momentum_density_coherent, momentum_density_mixed):
            total, _ = quad(lambda k: density(k, packet), -np.inf, np.inf,
                            limit=400)
            assert total == pytest.approx(1.0, abs=1e-8)
        k = np.linspace(-40.0, 40.0, 2001)
        assert np.all(momentum_density_coherent(k, packet) >= 0.0)
        assert np.all(momentum_density_mixed(k, packet) >= 0.0)


def test_noisy_densities_normalized():
    noise = 2.0 * PACKET.momentum_spread
    for density in (momentum_density_coherent, momentum_density_mixed):
        total, _ = quad(lambda k: density(k, PACKET, noise), -np.inf, np.inf,
                        limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_noisy_density_matches_numerical_convolution():
    # Closed-form fringe parameters (c, V, beta) vs direct convolution of the
    # clean coherent density with the Gaussian noise kernel.
    packet = SuperposedWavepacket(sigma=0.2, d=1.0, phase_phi=0.4)
    noise = 3.0
    for k0 in (-2.0, 0.0, 1.3, 4.0):
        direct, _ = quad(
            lambda kp: momentum_density_coherent(kp, packet)
            * math.exp(-0.5 * ((k0 - kp) / noise) ** 2)
            / (math.sqrt(2.0 * math.pi) * noise),
            -np.inf, np.inf, limit=400)
        assert momentum_density_coherent(k0, packet, noise) == pytest.approx(
            direct, rel=1e-8)


def test_phase_average_of_coherent_density_is_the_mixture():
    rng = np.random.default_rng(12)
    ks = rng.normal(scale=2.0 * PACKET.momentum_spread, size=100)
    phis = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    for k in ks:
        mean = np.mean([
            momentum_density_coherent(
                k, SuperposedWavepacket(sigma=PACKET.sigma, d=PACKET.d,
                                        phase_phi=float(phi)))
            for phi in phis
        ])
        assert mean == pytest.approx(
            float(momentum_density_mixed(k, PACKET)), abs=1e-8)


def test_required_precision_is_pi_hbar_over_d():
    assert required_precision(1e-6) == pytest.approx(
        math.pi * CODATA.hbar / 1e-6, rel=1e-12)
    with pytest.raises(ValidationError):
        required_precision(0.0)


def test_packet_rejects_a_width_whose_momentum_spread_overflows():
    # 1/(2 sigma) overflows below sigma = 1/(2 DBL_MAX), about 2.8e-309.
    assert math.isfinite(SuperposedWavepacket(sigma=1e-308, d=1.0).momentum_spread)
    for sigma in (1e-309, 1e-314, 5e-324):
        with pytest.raises(ValidationError, match=r"momentum spread 1/\(2 sigma\) is not finite"):
            SuperposedWavepacket(sigma=sigma, d=1.0)


def test_sampler_matches_density_histogram():
    packet = SuperposedWavepacket(sigma=0.1, d=1.0)
    samples = sample_momenta(packet, Hypothesis.COHERENT, 200_000, 0.0, seed=1)
    edges = np.linspace(-15.0, 15.0, 61)
    hist, _ = np.histogram(samples, bins=edges, density=True)
    # Bin-averaged density (the fringes curve strongly within a bin, so the
    # midpoint value would carry a systematic binning bias).
    fine = np.linspace(-15.0, 15.0, 60 * 32 + 1)
    rho = momentum_density_coherent(fine, packet)
    expected = rho[:-1].reshape(60, 32).mean(axis=1)
    mask = expected > 5e-3
    assert np.max(np.abs(hist[mask] - expected[mask]) / expected[mask]) < 0.15


def test_sampler_reproducible_and_noise_added():
    a = sample_momenta(PACKET, Hypothesis.MIXED, 1000, 0.5, seed=3)
    b = sample_momenta(PACKET, Hypothesis.MIXED, 1000, 0.5, seed=3)
    assert np.array_equal(a, b)
    c = sample_momenta(PACKET, Hypothesis.MIXED, 1000, 0.5, seed=4)
    assert not np.array_equal(a, c)


def test_llr_decides_correctly_at_low_noise():
    noise = 0.02 * math.pi / PACKET.d
    coh = sample_momenta(PACKET, Hypothesis.COHERENT, 5000, noise, seed=5)
    mix = sample_momenta(PACKET, Hypothesis.MIXED, 5000, noise, seed=6)
    assert discriminate(coh, PACKET, noise).decision is Hypothesis.COHERENT
    assert discriminate(mix, PACKET, noise).decision is Hypothesis.MIXED


def test_llr_finite_below_machine_epsilon_visibility():
    # Deep-noise fringe visibility ~1e-20: the statistic must stay nonzero
    # instead of collapsing to log(1) = 0.
    noise = 10.0 * math.pi / PACKET.d
    samples = sample_momenta(PACKET, Hypothesis.COHERENT, 1000, noise, seed=7)
    result = discriminate(samples, PACKET, noise)
    assert result.log_likelihood_ratio != 0.0
    assert abs(result.log_likelihood_ratio) < 1e-12


def test_power_monotone_non_increasing_with_crn():
    levels = np.array([0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 1.05, 1.15, 1.25, 10.0])
    packet = SuperposedWavepacket(sigma=0.1, d=1.0)  # s d = 5
    powers = power_curve(packet, 10_000, levels * math.pi, trials=200, seed=0)
    assert all(b <= a for a, b in zip(powers, powers[1:]))
    assert powers[0] > 0.99


def test_power_crossing_near_required_precision():
    # Noise where power crosses 0.75 is within a factor 3 of pi/d for
    # s d in {5, 20, 100}.
    for sd in (5.0, 20.0, 100.0):
        packet = SuperposedWavepacket(sigma=1.0 / (2.0 * sd), d=1.0)
        levels = math.pi * np.array([1.0 / 3.0, 3.0])
        lo, hi = power_curve(packet, 4000, levels, trials=60, seed=2)
        assert lo > 0.75 > hi, f"crossing outside [pi/3, 3 pi] for sd={sd}"


def test_power_curve_rejects_empty_runs():
    # trials = 0 used to return nan powers; n = 0 has no samples to test.
    for n, trials, seed in ((2000, 0, 1), (0, 5, 1), (2000, 5, -1)):
        with pytest.raises(ValidationError):
            power_curve(PACKET, n, [1.0], trials=trials, seed=seed)


def test_power_curve_deterministic_in_seed():
    levels = [0.5 * math.pi, 2.0 * math.pi]
    a = power_curve(PACKET, 2000, levels, trials=30, seed=11)
    b = power_curve(PACKET, 2000, levels, trials=30, seed=11)
    assert np.array_equal(a, b)


def _reference_true_momenta(packet, rng, n):
    """The plain float64 rejection sampler with fresh arrays."""
    s = packet.momentum_spread
    true_k, filled = np.empty(n), 0
    while filled < n:
        batch = max(2 * (n - filled), 128)
        k = s * rng.standard_normal(batch)
        k = k[rng.random(batch) < 0.5 * (1.0 + np.cos(k * packet.d - packet.phase_phi))]
        take = min(len(k), n - filled)
        true_k[filled:filled + take] = k[:take]
        filled += take
    return true_k


def test_a_trials_seed_built_alone_is_its_spawned_child():
    # power_curve builds trial i's SeedSequence only when it decides trial i.
    for i, child in enumerate(np.random.SeedSequence(2024).spawn(600)):
        alone = np.random.SeedSequence(2024, spawn_key=(i,))
        assert np.array_equal(alone.generate_state(8), child.generate_state(8)), i


def _reference_power_curve(packet, n, noise_levels, trials, seed):
    """The per-trial loop with fresh arrays, deciding through ``discriminate``."""
    decisions = np.zeros((trials, len(noise_levels)), dtype=bool)
    for trial, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        true_k = _reference_true_momenta(packet, rng, n)
        unit_noise = rng.standard_normal(n)
        for j, level in enumerate(noise_levels):
            observed = true_k + level * unit_noise
            result = discriminate(observed, packet, level)
            decisions[trial, j] = result.decision is Hypothesis.COHERENT
            # discriminate's ratio is the plain expression, bit for bit.
            _, visibility, beta = _noisy_fringe_params(packet, level)
            vcos = visibility * np.cos(beta * packet.d * observed - packet.phase_phi)
            assert result.log_likelihood_ratio == float(
                np.sum(np.log1p(np.maximum(vcos, -1.0 + 1e-15)))
                + observed.size * packet._log_norm)
    return decisions.mean(axis=0)


@pytest.mark.parametrize("seed", [4, 2024])
@pytest.mark.parametrize("d,phase", [(1.0, 0.0), (3e-7, 0.3)])
def test_power_curve_in_reused_buffers_is_bitwise_the_per_trial_loop(seed, d, phase):
    packet = SuperposedWavepacket(sigma=d / 10.0, d=d, phase_phi=phase)
    levels = np.logspace(-1.0, 1.0, 5) * math.pi / d
    expected = _reference_power_curve(packet, 3001, levels, 12, seed)
    assert power_curve(packet, 3001, levels, 12, seed).tobytes() == expected.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3, 12 + 5])
def test_power_curve_bytes_do_not_depend_on_the_worker_count(monkeypatch, workers):
    # More shares than trials leaves some empty; a short switch interval
    # interleaves the threads often, so a lost row write would change a power.
    monkeypatch.setattr(interference, "_worker_count", lambda trials: workers)
    packet = SuperposedWavepacket(sigma=0.1, d=1.0, phase_phi=0.3)
    levels = np.logspace(-1.0, 1.0, 5) * math.pi
    expected = _reference_power_curve(packet, 1501, levels, 12, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        powers = power_curve(packet, 1501, levels, 12, 7)
    finally:
        sys.setswitchinterval(interval)
    assert powers.tobytes() == expected.tobytes()


def test_screens_sent_wholly_to_float64_give_the_plain_bytes(monkeypatch):
    # An infinite error bound leaves every acceptance and every level
    # decision to the float64 route, which must reproduce the plain loops.
    # Each constant of the level screen's bound does so for the levels alone.
    packet = SuperposedWavepacket(sigma=0.1, d=1.0, phase_phi=0.3)
    levels = np.logspace(-1.0, 1.0, 5) * math.pi
    expected = _reference_power_curve(packet, 1501, levels, 12, 7).tobytes()
    for name in ("_THETA32_SLOPE", "_COS32_FLOOR", "_LOG1P32_ERROR"):
        with monkeypatch.context() as patch:
            patch.setattr(interference, name, math.inf)
            powers, rechecks, _ = interference._power_curve_with_rechecks(
                packet, 1501, levels, 12, 7)
        assert powers.tobytes() == expected
        assert rechecks["levels"] == rechecks["level_decisions"] == 12 * len(levels)
    monkeypatch.setattr(interference, "_COS32_SLOPE", math.inf)
    monkeypatch.setattr(interference, "_COS32_FLOOR", math.inf)
    powers, rechecks, _ = interference._power_curve_with_rechecks(packet, 1501, levels, 12, 7)
    assert powers.tobytes() == expected
    assert rechecks["levels"] == 12 * len(levels)
    assert rechecks["acceptances"] == rechecks["candidates"] >= 12 * 2 * 1501
    sampled = sample_momenta(packet, Hypothesis.COHERENT, 1501, 0.0, seed=9)
    expected = _reference_true_momenta(packet, np.random.default_rng(9), 1501)
    assert sampled.tobytes() == expected.tobytes()


def test_the_screens_settle_nearly_every_decision():
    # The criterion-8 packet: float64 reruns nearly nothing.
    d = 1e-6
    packet = SuperposedWavepacket(sigma=d / 10.0, d=d)
    levels = np.logspace(-1.0, 1.0, 5) * math.pi / d
    _, rechecks, _ = interference._power_curve_with_rechecks(packet, 3001, levels, 12, 4)
    assert rechecks["level_decisions"] == 12 * len(levels)
    assert rechecks["levels"] <= 1
    assert rechecks["candidates"] >= 12 * 6002
    assert rechecks["acceptances"] <= 20


def test_arguments_beyond_float32_take_the_float64_route():
    # d k ~ 1e39 casts to inf in float32, whose cos is NaN: every decision
    # falls to float64, with no warning, and gives the plain loops' bytes.
    packet = SuperposedWavepacket(sigma=1e-39, d=1.0)
    levels = np.array([0.0, 1.0, 10.0]) * math.pi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers, rechecks, _ = interference._power_curve_with_rechecks(packet, 40, levels, 6, 3)
        expected = _reference_power_curve(packet, 40, levels, 6, 3)
        sampled = sample_momenta(packet, Hypothesis.COHERENT, 40, 0.0, seed=3)
        plain = _reference_true_momenta(packet, np.random.default_rng(3), 40)
    assert powers.tobytes() == expected.tobytes()
    assert sampled.tobytes() == plain.tobytes()
    assert rechecks["levels"] == 6 * len(levels)
    assert rechecks["acceptances"] >= 6 * 128


@pytest.mark.parametrize("sigma,d,levels", [
    # Zero noise (V = 1), and a noise std beyond float32.
    (0.05, 1.0, [0.0, 1e39]),
    # f l = s d / 2 = 2.5e39 beyond float32 (and V = 0).
    (1e-20, 1e20, [5e19]),
    # V = 1.1e-40 and f = beta d = 5.0e-40, each below float32's normal range
    # with the other factors normal: the screen would settle these levels.
    (0.5, 13.6, [13.6]),
    (5e-38, 2e-37, [2e38]),
])
def test_levels_at_the_float32_range_edges_take_the_float64_route(sigma, d, levels):
    packet = SuperposedWavepacket(sigma=sigma, d=d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers, rechecks, _ = interference._power_curve_with_rechecks(packet, 40, levels, 6, 5)
        expected = _reference_power_curve(packet, 40, levels, 6, 5)
    assert powers.tobytes() == expected.tobytes()
    assert rechecks["levels"] == rechecks["level_decisions"] == 6 * len(levels)


class _FixedDraws:
    """A generator stand-in whose normal and uniform fills are fixed arrays."""

    def __init__(self, normal, uniform):
        self._normal, self._uniform = normal, uniform

    def standard_normal(self, out):
        out[...] = self._normal[:len(out)]

    def random(self, out):
        out[...] = self._uniform[:len(out)]


def test_acceptances_at_near_ties_are_the_float64_ones():
    # Each uniform one ulp below, at, or one ulp above its float64
    # threshold: only the float64 route can decide these.
    packet = SuperposedWavepacket(sigma=0.1, d=1.0, phase_phi=0.3)
    normal = np.random.default_rng(8).standard_normal(128)
    k = packet.momentum_spread * normal
    threshold = 0.5 * (1.0 + np.cos(k * packet.d - packet.phase_phi))
    side = np.resize([-1.0, -1.0, 0.0, 1.0], 128)
    uniform = np.where(side == 0.0, threshold, np.nextafter(threshold, side))
    assert np.count_nonzero(uniform < threshold) >= 64  # one batch fills n = 64
    out, scratch = np.empty(64), interference._RejectionScratch(64)
    interference._sample_true_momenta(packet, Hypothesis.COHERENT,
                                      _FixedDraws(normal, uniform), out, scratch)
    assert out.tobytes() == k[uniform < threshold][:64].tobytes()
    assert scratch.rechecks == 128


def test_float32_cos_error_stays_within_a_quarter_of_its_bound():
    # The screens rest on |cos(float32(theta)) - cos(theta)| <= eps(theta);
    # reading at most a quarter of it leaves room for a less accurate cos.
    rng = np.random.default_rng(5)
    for decade in range(-3, 5):
        theta = (10.0 ** rng.uniform(decade, decade + 1, 200_000)
                 * rng.choice([-1.0, 1.0], 200_000))
        narrow = np.empty(theta.shape, dtype=np.float32)
        largest = interference._cos32(theta, narrow)
        bound = interference._COS32_SLOPE * np.abs(theta) + interference._COS32_FLOOR
        assert largest == np.max(bound)
        assert np.max(np.abs(narrow - np.cos(theta)) / bound) <= 0.25


def test_float32_level_pipeline_stays_within_a_quarter_of_its_bounds():
    # The level screen rests on three float32 error bounds: theta's
    # arithmetic against the float64 theta, cos of a float32 theta, and
    # log1p over x in (-1, 1) down to 1 + x = 2^-24; each must read at most
    # a quarter of the bound the screen assumes.
    rng = np.random.default_rng(6)
    n = 20_000
    for decade in range(-3, 6):
        frequency = 10.0 ** rng.uniform(-2.0, 2.0, 8)
        level = 10.0 ** rng.uniform(-2.0, 2.0, 8)
        phase = rng.uniform(-math.pi, math.pi)
        true_k = 10.0 ** rng.uniform(decade - 1, decade + 1, n) * rng.choice([-1.0, 1.0], n)
        unit_noise = rng.standard_normal(n)
        theta = np.empty((8, n), dtype=np.float32)
        interference._fringe_phase32(
            level.astype(np.float32)[:, None], frequency.astype(np.float32)[:, None],
            np.float32(phase), true_k.astype(np.float32), unit_noise.astype(np.float32), theta)
        exact = frequency[:, None] * (true_k + level[:, None] * unit_noise) - phase
        bound = interference._THETA32_SLOPE * (frequency[:, None] * np.abs(true_k)
                                               + (frequency * level)[:, None] * np.abs(unit_noise)
                                               + abs(phase))
        assert np.max(np.abs(theta - exact) / bound) <= 0.25
    theta = (10.0 ** rng.uniform(-3.0, 8.0, 10**6) * rng.choice([-1.0, 1.0], 10**6)).astype(np.float32)
    error = np.abs(np.cos(theta) - np.cos(theta.astype(np.float64)))
    assert np.max(error) <= 0.25 * interference._COS32_FLOOR
    x = np.concatenate([-1.0 + 10.0 ** rng.uniform(math.log10(2.0**-24), 0.0, 10**6),
                        10.0 ** rng.uniform(-45.0, 0.0, 10**6),
                        -(10.0 ** rng.uniform(-45.0, 0.0, 10**6))]).astype(np.float32)
    assert np.all(np.abs(x) < 1.0) and np.all(1.0 + x.astype(np.float64) >= 2.0**-24)
    exact = np.log1p(x.astype(np.float64))
    bound = interference._LOG1P32_ERROR * np.abs(exact) + 2.0**-148
    assert np.max(np.abs(np.log1p(x) - exact) / bound) <= 0.25


def test_screened_level_decision_is_the_float64_one_at_near_ties():
    # Samples paired at theta and pi - theta cancel their fringe terms, and
    # one sample near pi/2 tilts the sum by V cos: below the screen's error
    # bound the ratio is a near-tie that only float64 can decide.
    rechecked = []

    @settings(deadline=None, max_examples=150)
    @given(multiple=st.floats(min_value=0.1, max_value=100.0),
           phase=st.floats(min_value=-3.0, max_value=3.0),
           thetas=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1, max_size=30),
           tilt=st.floats(min_value=-1e-5, max_value=1e-5))
    @example(multiple=2.0, phase=0.0, thetas=[0.5], tilt=0.0)  # always a recheck
    def check(multiple, phase, thetas, tilt):
        packet = SuperposedWavepacket(sigma=0.05, d=1.0, phase_phi=phase)  # s d = 10
        level = multiple * math.pi
        _, _, beta = _noisy_fringe_params(packet, level)
        theta = np.array([*thetas, *(math.pi - t for t in thetas), math.acos(tilt)])
        samples = (theta + phase) / (beta * packet.d)
        screen = interference._LevelScreen(packet, len(samples), np.array([level]))
        decision = np.zeros(1, dtype=bool)
        screen.decide(samples, np.zeros_like(samples), decision)
        exact = interference._log_likelihood_ratio(samples, packet, level, samples.copy())
        assert decision[0] == (exact > 0.0)
        rechecked.append(screen.rechecks)

    check()
    assert sum(rechecked) > 0


def test_worker_count_is_the_affinity_capped_by_the_trials():
    cpus = len(os.sched_getaffinity(0))
    assert interference._worker_count(1) == 1
    assert interference._worker_count(10_000) == min(10_000, cpus)


@pytest.mark.parametrize("failing_share", ["caller", "worker"])
def test_power_curve_raises_the_error_of_any_share(monkeypatch, failing_share):
    monkeypatch.setattr(interference, "_worker_count", lambda trials: 3)
    sample = interference._sample_true_momenta
    raised, lock = [], threading.Lock()

    def sampler(packet, hypothesis, rng, out, scratch):
        in_caller = threading.current_thread() is runner
        with lock:
            fail = in_caller == (failing_share == "caller") and not raised
            if fail:
                raised.append(True)
        if fail:
            raise RuntimeError("sampler failed")
        sample(packet, hypothesis, rng, out, scratch)

    monkeypatch.setattr(interference, "_sample_true_momenta", sampler)
    outcome = {}

    def run():
        try:
            outcome["powers"] = power_curve(PACKET, 500, [1.0, 10.0], trials=9, seed=1)
        except RuntimeError as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=run)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert raised == [True]
    assert "powers" not in outcome and str(outcome["error"]) == "sampler failed"
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


def test_spin_visibility_monotone_in_t0_and_bounded():
    q, d = 1e-15, 1e-9
    t0s = np.logspace(-14, -10, 12)
    vis = [spin_protocol_visibility(q, d, float(t0)).visibility for t0 in t0s]
    assert all(0.0 < v <= 1.0 for v in vis)
    assert all(b >= a for a, b in zip(vis, vis[1:]))


def test_spin_protocol_probabilities():
    res = spin_protocol_visibility(1e-15, 1e-9, 1e-12, kappa=2)
    assert res.p_plus_coherent == pytest.approx(0.5 * (1.0 + res.visibility))
    assert res.p_plus_collapsed == 0.5
    base = spin_protocol_visibility(1e-15, 1e-9, 1e-12, kappa=1)
    assert res.visibility == pytest.approx(base.visibility**2, rel=1e-12)
    with pytest.raises(ValidationError):
        spin_protocol_visibility(1e-15, 1e-9, 1e-12, kappa=3)


def test_exact_normalization_includes_packet_overlap():
    # At d = 0 with phi = 0 the two packets coincide: the density is the
    # single-packet Gaussian, not twice it.
    packet = SuperposedWavepacket(sigma=0.3, d=0.0)
    total, _ = quad(lambda k: momentum_density_coherent(k, packet),
                    -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_validation():
    with pytest.raises(ValidationError):
        SuperposedWavepacket(sigma=0.0, d=1.0)
    with pytest.raises(ValidationError):
        SuperposedWavepacket(sigma=1.0, d=-1.0)
    with pytest.raises(ValidationError):
        sample_momenta(PACKET, Hypothesis.MIXED, 0, 0.0, seed=0)
    with pytest.raises(ValidationError):
        sample_momenta(PACKET, Hypothesis.MIXED, 10, -1.0, seed=0)
    with pytest.raises(ValidationError):
        discriminate(np.array([]), PACKET, 0.0)
    for noise in (math.nan, math.inf, -1.0):
        with pytest.raises(ValidationError, match="noise_dP"):
            sample_momenta(PACKET, Hypothesis.MIXED, 10, noise, seed=0)
        with pytest.raises(ValidationError, match="noise_dP"):
            discriminate(np.array([0.1, 0.2]), PACKET, noise)
    for levels, first in (([1.0, math.inf], "noise level 1"), ([math.nan], "noise level 0"),
                          ([0.5, 2.0, -1.0], "noise level 2"), ([], "non-empty"),
                          ([[1.0]], "non-empty")):
        with pytest.raises(ValidationError, match=first):
            power_curve(PACKET, 100, levels, trials=2, seed=0)
