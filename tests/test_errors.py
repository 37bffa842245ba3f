"""Domain checks: every positive or non-negative quantity must also be finite."""

import math
import re

import numpy as np
import pytest

from supertime import bounds, causality, echo, interference, oracle, radiation, vacuum
from supertime.bounds import Kind, SuperpositionSpec
from supertime.constants import PhysicalConstants
from supertime.errors import ValidationError, require_nonnegative, require_positive

_MASS = SuperpositionSpec(Kind.MASS, 1.0e-6, 1.0e-3)
_CHARGE = SuperpositionSpec(Kind.CHARGE, 1.0e-19, 1.0e-6)
_SCENARIO = causality.Scenario(alice=_MASS, bob_mass=1.0e-9, R=0.5)
_PACKET = interference.SuperposedWavepacket(sigma=0.1, d=1.0)
_UNIT = echo.GaussianState(sigma=1.0)
_GRID = oracle.init_gaussian(oracle.GridSpec(-16.0, 16.0, 256), _UNIT)


def _effective_sigma(sigma):
    return causality.Scenario(alice=_MASS, bob_mass=1.0e-9, R=0.5,
                              sigma=sigma).effective_sigma()


def _tabulated_trajectory(d, t0):
    """A TABULATED profile whose samples trace the sin^2 path of 1 nm in 1 ps."""
    t = np.linspace(0.0, 1e-12, 100)
    samples = np.column_stack([t, 1e-9 * np.sin(math.pi * t / 2e-12) ** 2])
    return radiation.TrajectoryProfile(d=d, t0=t0, shape=radiation.Shape.TABULATED,
                                       samples=samples)


# (callable, valid keyword arguments, the parameters that must be positive or
# non-negative and finite)
_CHECKED = [
    (SuperpositionSpec, dict(kind=Kind.MASS, magnitude=1e-6, separation_d=1e-3),
     ["magnitude", "separation_d"]),
    (bounds.charge_radius, dict(q=1e-19, m=1e-9), ["q", "m"]),
    (causality.Scenario, dict(alice=_MASS, bob_mass=1e-9, R=0.5), ["bob_mass", "R"]),
    (_effective_sigma, dict(sigma=1e-10), ["sigma"]),
    (causality.audit_timeline, dict(scenario=_SCENARIO, T_A=1e-12), ["T_A"]),
    (echo.GaussianState, dict(sigma=1.0), ["sigma"]),
    (echo.force_difference_gravity, dict(mA=1e-6, mB=1e-9, d=1e-3, R=0.5),
     ["mA", "mB", "d", "R"]),
    (echo.force_difference_coulomb, dict(qA=1e-19, qB=1e-19, d=1e-6, R=0.5), ["d", "R"]),
    (echo.echo_displacements, dict(delta_F=1e-20, mB=1e-9, F_sum=1e-18, t=1.0), ["mB", "t"]),
    (echo.entanglement_time, dict(delta_F=1e-20, mB=1e-9, sigma=1e-10), ["mB", "sigma"]),
    (echo.momentum_route_time, dict(delta_F=1e-20, sigma=1e-10), ["sigma"]),
    (echo.trap_max_width, dict(mB=1e-9, delta_F=1e-20), ["mB"]),
    (interference.SuperposedWavepacket, dict(sigma=0.1, d=1.0), ["sigma", "d"]),
    (interference.required_precision, dict(d=1e-3), ["d"]),
    (interference.sample_momenta, dict(packet=_PACKET, hypothesis=interference.Hypothesis.MIXED,
                                       n=4, noise_dP=0.0, seed=0), ["noise_dP"]),
    (interference.discriminate, dict(samples=np.array([0.1]), packet=_PACKET, noise_dP=0.0),
     ["noise_dP"]),
    (interference.momentum_density_coherent, dict(k=0.0, packet=_PACKET, noise_dP=0.0),
     ["noise_dP"]),
    (interference.momentum_density_mixed, dict(k=0.0, packet=_PACKET, noise_dP=0.0),
     ["noise_dP"]),
    (interference.spin_protocol_visibility, dict(q=1e-19, d=1e-9, t0=1e-12), ["q", "d", "t0"]),
    (oracle.propagate_linear, dict(state=_GRID, F=0.1, m=1.0, t=0.5, n_steps=1), ["m", "t"]),
    (oracle.matched_echo_overlap, dict(a=0.5, b=0.5), ["a", "b"]),
    (radiation.TrajectoryProfile, dict(d=1e-9, t0=1e-12), ["d", "t0"]),
    (_tabulated_trajectory, dict(d=1e-9, t0=1e-12), ["d", "t0"]),
    (radiation.mode_integral, dict(profile=radiation.TrajectoryProfile(d=1e-9, t0=1e-12),
                                   q=1e-19), ["q"]),
    (radiation.vacuum_overlap, dict(profile=radiation.TrajectoryProfile(d=1e-9, t0=1e-12),
                                    q=1e-19), ["q"]),
    (radiation.min_radiationless_time, dict(q=1e-19, d=1e-9), ["q", "d"]),
    (radiation.gauss_legendre_grid, dict(omega_max=1e13, n=8), ["omega_max"]),
    (vacuum.WindowFunction, dict(width_T=1.0), ["width_T"]),
    (vacuum.instantaneous_variance, dict(cutoff_Lambda=1.0), ["cutoff_Lambda"]),
    (vacuum.momentum_error, dict(q=1e-19, T=1e-15), ["q", "T"]),
    (vacuum.min_measurement_time, dict(q=1e-19, d=1e-6), ["q", "d"]),
    (PhysicalConstants, {}, ["hbar", "c", "G", "epsilon0"]),
]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=str)
@pytest.mark.parametrize("func,kwargs,name", [
    pytest.param(func, kwargs, name, id=f"{func.__qualname__}-{name}")
    for func, kwargs, names in _CHECKED for name in names])
def test_non_finite_parameter_is_rejected_by_name(func, kwargs, name, bad):
    func(**kwargs)  # the valid arguments pass
    pattern = rf"^{re.escape(name)} must be (positive|non-negative) and finite, got {bad}$"
    with pytest.raises(ValidationError, match=pattern):
        func(**{**kwargs, name: bad})


def test_tabulated_trajectory_rejects_a_swept_d_or_t0():
    for d, t0 in ((np.full(3, 1e-9), 1e-12), (1e-9, np.full(3, 1e-12))):
        with pytest.raises(ValidationError,
                           match=r"^a tabulated profile takes a scalar d and t0$"):
            _tabulated_trajectory(d, t0)


def test_checks_name_the_first_failing_value_of_scalars_and_sweeps():
    with pytest.raises(ValidationError, match=r"^b must be positive and finite, got 0\.0$"):
        require_positive(a=1.0, b=0.0, c=-1.0)
    with pytest.raises(ValidationError,
                       match=r"^x must be non-negative and finite, got -2\.0$"):
        require_nonnegative(x=np.array([0.0, 1.0, -2.0, math.inf]))
    require_positive(a=1, b=np.float64(2.0), c=np.array([3.0, 4.0]))
    require_nonnegative(a=0.0, b=np.zeros(3))


# (callable, valid keyword arguments, the parameters of either sign that must
# be finite)
_FINITE = [
    (echo.force_difference_coulomb, dict(qA=1e-19, qB=-1e-19, d=1e-6, R=0.5), ["qA", "qB"]),
    (echo.entanglement_time, dict(delta_F=-1e-20, mB=1e-9, sigma=1e-10), ["delta_F"]),
    (echo.momentum_route_time, dict(delta_F=1e-20, sigma=1e-10), ["delta_F"]),
    (echo.trap_max_width, dict(mB=1e-9, delta_F=1e-20), ["delta_F"]),
    (echo.GaussianState, dict(x0=-1.0, p0=0.5, sigma=1.0), ["x0", "p0"]),
    (causality.Scenario, dict(alice=_CHARGE, bob_mass=1e-9, R=0.5, bob_charge=-1e-19),
     ["bob_charge"]),
    (oracle.propagate_linear, dict(state=_GRID, F=-0.1, m=1.0, t=0.5, n_steps=1), ["F"]),
    (interference.SuperposedWavepacket, dict(sigma=0.1, d=1.0, phase_phi=0.5), ["phase_phi"]),
]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=str)
@pytest.mark.parametrize("func,kwargs,name", [
    pytest.param(func, kwargs, name, id=f"{func.__qualname__}-{name}")
    for func, kwargs, names in _FINITE for name in names])
def test_non_finite_signed_parameter_is_rejected_by_name(func, kwargs, name, bad):
    func(**kwargs)
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} must be finite, got {bad}$"):
        func(**{**kwargs, name: bad})
    # The first non-finite point of a sweep is named.
    sweep = np.array([kwargs[name], bad, math.inf])
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} must be finite, got {bad}$"):
        func(**{**kwargs, name: sweep})

