"""End-to-end acceptance suite: one test (and one PASS/FAIL line) per criterion.

Each test prints ``CRITERION n: PASS|FAIL - summary (tolerance)`` so the run
log carries an explicit verdict per criterion in addition to the pytest
outcome.
"""

import cmath
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from supertime.bounds import (
    SHARP_BOUND_CONSTANT,
    Kind,
    SuperpositionSpec,
    min_time,
)
from supertime.causality import optimize_eta
from supertime.cli import main
from supertime.constants import CODATA, PhysicalConstants, planck_scales
from supertime.echo import (
    GaussianState,
    echo_displacements,
    echo_overlap,
    entanglement_time,
    momentum_route_time,
    trap_max_width,
)
from supertime.interference import SuperposedWavepacket, power_curve
from supertime.oracle import auto_grid, echo_overlap_numeric, init_gaussian, propagate_linear
from supertime.radiation import (
    SIN2_EXPONENT_CONSTANT,
    Shape,
    TrajectoryProfile,
    min_radiationless_time,
    mode_integral,
)
from supertime.vacuum import (
    MIN_TIME_PREFACTOR,
    WindowFunction,
    instantaneous_variance,
)

NATURAL = PhysicalConstants(hbar=1.0, c=1.0, G=1.0, epsilon0=1.0)
E_CHARGE = 1.602176634e-19  # C, the elementary charge


_CAPTURE = []


@pytest.fixture(autouse=True)
def _live_verdicts(capsys):
    # Hand the capture fixture to _verdict so it can print past pytest's
    # output capture; verdict lines then appear even when a criterion passes.
    _CAPTURE.append(capsys)
    yield
    _CAPTURE.pop()


def _verdict(number: int, ok: bool, summary: str) -> None:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {summary}"
    with _CAPTURE[-1].disabled():
        print(line, flush=True)
    assert ok, f"criterion {number} failed: {summary}"


def test_criterion_01_planck_scales():
    """Planck mass and charge reproduce quoted values within 0.5%."""
    s = planck_scales(CODATA)
    err_m = abs(s.m_P / 2.18e-8 - 1.0)
    err_q = abs(s.q_P / (11.7 * E_CHARGE) - 1.0)
    ok = err_m < 5e-3 and err_q < 5e-3
    _verdict(1, ok,
             f"m_P={s.m_P:.4e} kg, q_P={s.q_P / E_CHARGE:.3f} e "
             f"(rel errors {err_m:.2e}, {err_q:.2e}; tolerance 0.5%)")


def test_criterion_02_sharp_bound_constant():
    """Numerical eta optimization recovers eta* = 2/3 and constant 2/27."""
    spec = SuperpositionSpec(kind=Kind.MASS, magnitude=1.0, separation_d=1.0)
    eta_star, bound = optimize_eta(spec)
    constant = bound * CODATA.c / (spec.planck_ratio(CODATA) * spec.separation_d)
    err_eta = abs(eta_star - 2.0 / 3.0)
    err_const = abs(constant - 2.0 / 27.0)
    ok = err_eta < 1e-9 and err_const < 1e-9
    _verdict(2, ok,
             f"eta*={eta_star:.12f}, constant={constant:.12f} "
             f"(abs errors {err_eta:.1e}, {err_const:.1e}; tolerance 1e-9)")


def test_criterion_03_radiation_constant(sin2_spectral_integral):
    """The sin^2 exponent pi(pi Si(pi) - 2)/6, about 2, matches quadrature."""
    d, t0 = 1e-9, 1e-12
    q = E_CHARGE
    closed = mode_integral(TrajectoryProfile(d=d, t0=t0), q)
    prefactor = (2.0 / (3.0 * math.pi) * (q / planck_scales(CODATA).q_P) ** 2
                 * (d / (CODATA.c * t0)) ** 2)
    rel_quad = abs(prefactor * sin2_spectral_integral / closed - 1.0)
    t = np.linspace(0.0, t0, 1600)
    sampled = TrajectoryProfile(d=d, t0=t0, shape=Shape.TABULATED, samples=np.column_stack(
        [t, d * np.sin(math.pi * t / (2.0 * t0)) ** 2]))
    rel_spline = abs(mode_integral(sampled, q) / closed - 1.0)
    paper_err = abs(SIN2_EXPONENT_CONSTANT - 2.0) / 2.0
    ok = rel_quad <= 1e-12 and rel_spline <= 1e-10 and paper_err < 5e-4
    _verdict(3, ok,
             f"constant={SIN2_EXPONENT_CONSTANT:.6f}, rel err vs QUADPACK "
             f"{rel_quad:.1e} (tol 1e-12), vs 1600-sample spline {rel_spline:.1e} "
             f"(tol 1e-10), vs 2: {paper_err:.2%} (tol 0.05%)")


def test_criterion_04_vacuum_variance():
    """Gaussian-window variance equals 1/(4 pi^2 T^2); cutoff scaling ~ L^2."""
    worst = 0.0
    for T in np.logspace(-3.0, 3.0, 13):
        dimensionless, _ = quad(
            lambda u: math.exp(-(u**2)) * u, 0.0, np.inf)
        by_quad = dimensionless / (2.0 * math.pi**2 * T**2)
        closed = 1.0 / (4.0 * math.pi**2 * T**2)
        worst = max(worst, abs(by_quad / closed - 1.0))
        # Library path performs the same cross-check internally.
        assert WindowFunction(width_T=float(T)) is not None
    lam = np.logspace(0.0, 3.0, 31)
    values = np.array([instantaneous_variance(x) for x in lam])
    slope = float(np.polyfit(np.log(lam), np.log(values), 1)[0])
    ok = worst < 1e-8 and abs(slope - 2.0) < 0.01
    _verdict(4, ok,
             f"variance quadrature worst rel err {worst:.1e} over 6 decades "
             f"(tol 1e-8); cutoff fit exponent {slope:.4f} (2.00 +/- 0.01)")


def test_criterion_05_oracle_equivalence():
    """Grid propagation matches the analytic echo overlap and Ehrenfest."""
    rng = np.random.default_rng(42)
    worst_overlap = 0.0
    for _ in range(20):
        sigma = rng.uniform(0.5, 2.0)
        state = GaussianState(sigma=sigma)
        m, t = 1.0, rng.uniform(0.5, 2.0)
        delta_F = 2.0 * m * rng.uniform(0.0, 4.0 * sigma) / t**2
        F_L, F_R = delta_F / 2.0, -delta_F / 2.0
        spec = auto_grid(state, [F_L, F_R], m=m, t=t)
        grid = init_gaussian(spec, state)
        numeric = echo_overlap_numeric(grid, F_L, F_R, m, t, 400)
        res = echo_displacements(delta_F, m, F_L + F_R, t, NATURAL)
        analytic = cmath.exp(1j * res.cubic_phase) * echo_overlap(state, res, NATURAL)
        worst_overlap = max(worst_overlap, abs(numeric - analytic))
    state = GaussianState(x0=-0.5, p0=0.4, sigma=1.1)
    F, m, t = 0.6, 1.3, 1.5
    grid = init_gaussian(auto_grid(state, [F], m=m, t=t), state)
    out = propagate_linear(grid, F, m, t, 50)
    mean_x, _ = out.position_moments()
    mean_p, _ = out.momentum_moments()
    ehrenfest = max(
        abs(mean_x - (state.x0 + state.p0 * t / m + F * t**2 / (2.0 * m))),
        abs(mean_p - (state.p0 + F * t)))
    ok = worst_overlap < 1e-12 and ehrenfest < 1e-12
    _verdict(5, ok,
             f"20 random echoes: worst |overlap error| {worst_overlap:.1e}; "
             f"Ehrenfest error {ehrenfest:.1e} (tolerance 1e-12 absolute)")


def test_criterion_06_trap_condition_property():
    """Inside the trap condition the position route is never slower."""
    rng = np.random.default_rng(23)
    holds = 0
    n = 10_000
    for _ in range(n):
        mB = 10.0 ** rng.uniform(-3, 3)
        dF = 10.0 ** rng.uniform(-6, 3)
        sigma = trap_max_width(mB, dF, NATURAL) * rng.uniform(1e-3, 1.0)
        if entanglement_time(dF, mB, sigma) <= momentum_route_time(dF, sigma, NATURAL):
            holds += 1
    ok = holds == n
    _verdict(6, ok,
             f"entanglement_time <= momentum_route_time in {holds}/{n} draws "
             "(required: 100%)")


def test_criterion_07_earth_example():
    """Earth-mass over a micron gives ~9e17 s, about the age of the universe."""
    t = min_time(SuperpositionSpec(Kind.MASS, 5.972e24, 1e-6))
    ok = 0.5 < t / 9e17 < 2.0 and 0.1 < t / 4.3e17 < 10.0
    _verdict(7, ok,
             f"T = {t:.3e} s vs 9e17 s (factor {t / 9e17:.2f}) and universe "
             f"age 4.3e17 s (factor {t / 4.3e17:.2f}; within one decade)")


def test_criterion_08_interference_power_curve():
    """Power > 0.99 at 0.1 pi/d, 0.5 +/- 0.05 at 10 pi/d, monotone under CRN."""
    d = 1.0
    packet = SuperposedWavepacket(sigma=d / 10.0, d=d)
    multiples = [0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 1.05, 1.15, 1.25, 10.0]
    levels = [m * math.pi / d for m in multiples]
    powers = power_curve(packet, 10_000, levels, trials=500, seed=0)
    monotone = all(b <= a for a, b in zip(powers, powers[1:]))
    ok = powers[0] > 0.99 and abs(powers[-1] - 0.5) <= 0.05 and monotone
    _verdict(8, ok,
             f"power(0.1 pi/d)={powers[0]:.3f} (>0.99), "
             f"power(10 pi/d)={powers[-1]:.3f} (0.5 +/- 0.05), "
             f"monotone={monotone} over 10 CRN levels")


def test_criterion_09_consistency_triangle():
    """Prefactor ordering: 0.1037 and sqrt(2) both at or above 2/27."""
    q, d = 1e-18, 1e-6
    ratio = q / planck_scales(CODATA).q_P
    light = d / CODATA.c
    from supertime.vacuum import min_measurement_time
    meas = min_measurement_time(q, d) / (ratio * light)
    rad = min_radiationless_time(q, d) / (ratio * light)
    err_meas = abs(meas - 1.0 / math.sqrt(3.0 * math.pi**3))
    err_rad = abs(rad - math.sqrt(2.0))
    ordered = meas >= SHARP_BOUND_CONSTANT and rad >= SHARP_BOUND_CONSTANT
    ok = err_meas < 1e-6 and err_rad < 1e-9 and ordered
    _verdict(9, ok,
             f"prefactors {meas:.6f} (1/sqrt(3 pi^3), tol 1e-6) and "
             f"{rad:.9f} (sqrt 2, tol 1e-9), both >= 2/27 = "
             f"{SHARP_BOUND_CONSTANT:.4f}: {ordered}")
    assert abs(MIN_TIME_PREFACTOR - 0.1037) < 1e-4


def test_criterion_10_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV output."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "scenario": {
            "alice": {"kind": "charge", "magnitude": 1.602176634e-19,
                      "separation_d": 1.0e-6},
            "bob_mass": 1.0e-12,
            "bob_charge": 1.602176634e-19,
            "R": 0.5,
        },
        "interference": {"n": 2000, "trials": 20,
                         "noise_multiples": [0.5, 1.0, 2.0]},
        "seed": 12345,
    }))
    outputs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        code = main(["interference", "--config", str(config),
                     "--output", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _verdict(10, ok,
             f"two runs, {len(outputs[0])} bytes each, byte-identical={ok}")
