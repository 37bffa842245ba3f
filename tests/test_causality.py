"""No-signaling audit: eta optimization, T_B cancellations, timelines."""

import math

import numpy as np
import pytest

from supertime.bounds import Kind, SuperpositionSpec, sharp_min_time
from supertime import echo
from supertime.causality import (
    Scenario,
    audit_timeline,
    force_pair,
    optimize_eta,
    tb_at_localization_limit,
)
from supertime.constants import CODATA, planck_scales
from supertime.errors import ValidationError

# Mass large enough that the optimal radius R* = (2/9)(m/m_P) d clears the
# dipole gate d < R/10 for the separations swept below.
HEAVY = SuperpositionSpec(kind=Kind.MASS, magnitude=1.0e-3, separation_d=1.0e-4)


def _mass_scenario(R, bob_mass=1e-12, sigma=None):
    return Scenario(alice=HEAVY, bob_mass=bob_mass, R=R, sigma=sigma)


def test_eta_optimizer_hits_analytic_stationary_point():
    eta_star, bound = optimize_eta(HEAVY)
    assert eta_star == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert bound == pytest.approx(sharp_min_time(HEAVY), rel=1e-9)


def test_tb_mass_case_closed_form():
    scen = _mass_scenario(R=10.0)
    scales = planck_scales(CODATA)
    expected = math.sqrt(
        2.0 * scales.l_P * 10.0**3
        / (CODATA.G * HEAVY.magnitude * HEAVY.separation_d))
    assert tb_at_localization_limit(scen) == pytest.approx(expected, rel=1e-12)


def test_force_pair_dispatches_on_kind():
    mass = _mass_scenario(R=10.0)
    assert force_pair(mass) == echo.force_difference_gravity(
        HEAVY.magnitude, mass.bob_mass, HEAVY.separation_d, 10.0)
    alice = SuperpositionSpec(kind=Kind.CHARGE, magnitude=1e-10, separation_d=1e-4)
    charge = Scenario(alice=alice, bob_mass=1e-12, R=1.0, bob_charge=-2e-19)
    assert force_pair(charge) == echo.force_difference_coulomb(1e-10, -2e-19, 1e-4, 1.0)


def test_tb_is_the_main_text_entanglement_time():
    scen = _mass_scenario(R=10.0)
    expected = echo.entanglement_time(force_pair(scen).delta_F, scen.bob_mass,
                                      scen.effective_sigma(), convention="main_text")
    assert tb_at_localization_limit(scen) == expected


def test_tb_independent_of_bob_mass():
    rng = np.random.default_rng(3)
    values = [
        tb_at_localization_limit(_mass_scenario(R=5.0, bob_mass=10.0 ** e))
        for e in rng.uniform(-20, 0, size=50)
    ]
    spread = (max(values) - min(values)) / values[0]
    assert spread < 1e-9


def test_tb_charge_case_independent_of_bob_parameters():
    alice = SuperpositionSpec(kind=Kind.CHARGE, magnitude=1e-10,
                              separation_d=1e-4)
    rng = np.random.default_rng(4)
    values = []
    for _ in range(50):
        scen = Scenario(
            alice=alice,
            bob_mass=10.0 ** rng.uniform(-25, -5),
            bob_charge=10.0 ** rng.uniform(-22, -12),
            R=2.0,
        )
        values.append(tb_at_localization_limit(scen))
    spread = (max(values) - min(values)) / values[0]
    assert spread < 1e-9
    # And the closed form 2 q_P R^3 / (q_A c^2 d).
    scales = planck_scales(CODATA)
    expected = math.sqrt(2.0 * scales.q_P * 2.0**3
                         / (alice.magnitude * CODATA.c**2 * alice.separation_d))
    assert values[0] == pytest.approx(expected, rel=1e-9)


def test_sharp_bound_is_the_max_over_radii():
    # max_R (R/c - T_B(R)) equals sharp_min_time, attained at R* = 2 mu d / 9.
    mu = HEAVY.planck_ratio(CODATA)
    d = HEAVY.separation_d
    r_star = 2.0 * mu * d / 9.0
    assert r_star > 10.0 * d  # dipole gate respected at the optimum
    radii = r_star * np.logspace(-1.5, 1.5, 4001)
    gains = [
        R / CODATA.c - tb_at_localization_limit(_mass_scenario(R=float(R)))
        for R in radii
    ]
    best = max(gains)
    assert best == pytest.approx(sharp_min_time(HEAVY), rel=1e-6)
    assert radii[int(np.argmax(gains))] == pytest.approx(r_star, rel=1e-2)


def test_audit_never_violated_at_sharp_bound():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        if rng.random() < 0.5:
            alice = SuperpositionSpec(
                kind=Kind.MASS,
                magnitude=10.0 ** rng.uniform(-9, 3),
                separation_d=10.0 ** rng.uniform(-8, -2),
            )
            scen = Scenario(
                alice=alice,
                bob_mass=10.0 ** rng.uniform(-20, -5),
                R=alice.separation_d * 10.0 ** rng.uniform(1.1, 8),
            )
        else:
            alice = SuperpositionSpec(
                kind=Kind.CHARGE,
                magnitude=10.0 ** rng.uniform(-19, -8),
                separation_d=10.0 ** rng.uniform(-8, -2),
            )
            scen = Scenario(
                alice=alice,
                bob_mass=10.0 ** rng.uniform(-25, -10),
                bob_charge=10.0 ** rng.uniform(-21, -15),
                R=alice.separation_d * 10.0 ** rng.uniform(1.1, 8),
            )
        report = audit_timeline(scen, sharp_min_time(alice))
        assert report.satisfied


def test_report_eta_is_ct_over_r():
    scen = _mass_scenario(R=3.0)
    report = audit_timeline(scen, 0.0)
    assert report.eta == pytest.approx(
        CODATA.c * report.T_B / 3.0, rel=1e-12)


def test_sigma_below_localization_limit_rejected():
    scen = _mass_scenario(R=1.0, sigma=1e-40)
    with pytest.raises(ValidationError):
        scen.effective_sigma(CODATA)


def test_explicit_sigma_above_limit_is_used():
    scen = _mass_scenario(R=1.0, sigma=1e-9)
    loose = tb_at_localization_limit(scen)
    tight = tb_at_localization_limit(_mass_scenario(R=1.0))
    assert loose > tight


def test_charge_scenario_requires_bob_charge():
    alice = SuperpositionSpec(kind=Kind.CHARGE, magnitude=1e-15,
                              separation_d=1e-4)
    with pytest.raises(ValidationError):
        Scenario(alice=alice, bob_mass=1e-12, R=1.0)


def test_audit_rejects_negative_measurement_time():
    with pytest.raises(ValidationError):
        audit_timeline(_mass_scenario(R=1.0), -1.0)


def test_swept_audit_equals_its_points_bitwise():
    # With T_A = 0 the audit flips to satisfied at R = G m d / (2 l_P c^2), about 2 m.
    R = np.logspace(-2.0, 2.0, 500)
    T_A = 0.0
    swept = audit_timeline(_mass_scenario(R), T_A)
    points = [audit_timeline(_mass_scenario(r), T_A) for r in R.tolist()]
    for name in ("T_B", "eta", "satisfied"):
        assert getattr(swept, name).tolist() == [getattr(p, name) for p in points]
    assert 0 < np.count_nonzero(swept.satisfied) < len(R)


def test_swept_sigma_names_the_first_value_below_the_limit():
    l_P = planck_scales(CODATA).l_P
    sigma = np.array([1e3, 10.0, 0.5, 2.0, 1e-3]) * l_P
    scenario = _mass_scenario(10.0, sigma=sigma)
    with pytest.raises(ValidationError, match=f"sigma={sigma[2].item()!r} below"):
        tb_at_localization_limit(scenario)
    with pytest.raises(ValidationError, match=r"^R must be positive and finite, got 0\.0$"):
        _mass_scenario(np.array([1.0, 0.0]))
