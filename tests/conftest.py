"""Reference values shared by several test modules."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from supertime.radiation import TrajectoryProfile, velocity_fourier


@pytest.fixture(scope="session")
def sin2_spectral_integral():
    """J = int_0^inf u |v(u)|^2 du for the unit sin^2 path, by QUADPACK.

    |v(u)| = |cos(u/2) / (1 - u^2/pi^2)| is the path's closed-form velocity
    transform at d = t0 = 1.  The integral is split at U0: a smooth finite
    part, an exact algebraic tail for the non-oscillatory half of
    cos^2 = (1 + cos u)/2, and a Fourier (QAWF) quadrature for the
    oscillatory half.  The closed form is pi^2 (pi Si(pi) - 2) / 4.
    """
    unit = TrajectoryProfile(d=1.0, t0=1.0)
    U0 = 50.0
    head, _ = quad(lambda u: u * abs(velocity_fourier(unit, u)) ** 2, 0.0, U0,
                   limit=400, epsabs=0.0, epsrel=1e-13)
    # int_U0^inf pi^4 u / (2 (u^2 - pi^2)^2) du = pi^4 / (4 (U0^2 - pi^2))
    tail_smooth = math.pi**4 / (4.0 * (U0**2 - math.pi**2))
    tail_osc, _ = quad(lambda u: math.pi**4 * u / (2.0 * (u**2 - math.pi**2) ** 2),
                       U0, np.inf, weight="cos", wvar=1.0)
    return head + tail_smooth + tail_osc
