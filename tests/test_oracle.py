"""Grid-propagation oracle: unitarity, Ehrenfest, convergence, echo checks."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertime import oracle
from supertime.constants import PhysicalConstants
from supertime.echo import GaussianState, echo_displacements, echo_overlap
from supertime.errors import GridError, ValidationError
from supertime.oracle import (
    GridSpec,
    GridState,
    auto_grid,
    echo_overlap_numeric,
    init_gaussian,
    matched_echo_overlap,
    propagate_linear,
)

NATURAL = PhysicalConstants(hbar=1.0, c=1.0, G=1.0, epsilon0=1.0)


def _reference_case():
    state = GaussianState(sigma=1.0)
    F_L, F_R, m, t = 0.9, 0.25, 1.0, 1.2
    spec = auto_grid(state, [F_L, F_R], m=m, t=t)
    return state, spec, F_L, F_R, m, t


def test_grid_spec_properties_and_validation():
    spec = GridSpec(x_min=-8.0, x_max=8.0, n_points=256)
    assert spec.dx == pytest.approx(16.0 / 256)
    assert len(spec.x) == 256 and spec.x[0] == -8.0
    with pytest.raises(ValidationError):
        GridSpec(x_min=1.0, x_max=-1.0, n_points=64)
    with pytest.raises(ValidationError):
        GridSpec(x_min=-1.0, x_max=1.0, n_points=100)  # not a power of two
    # Non-finite bounds, and a finite span whose width overflows.
    with pytest.raises(ValidationError, match="^x_max must be finite, got inf$"):
        GridSpec(x_min=-16.0, x_max=math.inf, n_points=64)
    with pytest.raises(ValidationError, match="^x_min must be finite, got -inf$"):
        GridSpec(x_min=-math.inf, x_max=16.0, n_points=64)
    with pytest.raises(ValidationError, match="^dx must be positive and finite, got inf$"):
        GridSpec(x_min=-1e308, x_max=1e308, n_points=64)


def test_initial_gaussian_moments():
    state = GaussianState(x0=0.7, p0=-1.2, sigma=0.8)
    spec = GridSpec(x_min=-12.0, x_max=12.0, n_points=2048)
    grid = init_gaussian(spec, state)
    assert grid.norm == pytest.approx(1.0, abs=1e-12)
    mean_x, std_x = grid.position_moments()
    mean_p, std_p = grid.momentum_moments()
    assert mean_x == pytest.approx(0.7, abs=1e-9)
    assert std_x == pytest.approx(0.8, abs=1e-9)
    assert mean_p == pytest.approx(-1.2, abs=1e-9)
    assert std_p == pytest.approx(1.0 / 1.6, abs=1e-9)


def test_gaussian_must_fit_on_grid():
    state = GaussianState(x0=7.0, sigma=1.0)
    spec = GridSpec(x_min=-8.0, x_max=8.0, n_points=256)
    with pytest.raises(GridError):
        init_gaussian(spec, state)


def test_unitarity_over_thousand_steps():
    state, spec, F_L, _, m, t = _reference_case()
    grid = init_gaussian(init_spec := spec, state)
    out = propagate_linear(grid, F_L, m, t, n_steps=1000)
    assert abs(out.norm - 1.0) < 1e-10
    assert out.spec is init_spec


def test_ehrenfest_identities_exact_for_linear_potential():
    # Moments must match the classical trajectory regardless of step count,
    # for a forced branch and a force-free one alike.
    state = GaussianState(x0=-0.5, p0=0.4, sigma=1.1)
    m, t = 1.3, 1.5
    for F in (0.6, 0.0):
        spec = auto_grid(state, [F], m=m, t=t)
        grid = init_gaussian(spec, state)
        for n_steps in (3, 10, 100):
            out = propagate_linear(grid, F, m, t, n_steps)
            mean_x, _ = out.position_moments()
            mean_p, _ = out.momentum_moments()
            assert mean_x == pytest.approx(
                state.x0 + state.p0 * t / m + F * t**2 / (2.0 * m), abs=1e-6)
            assert mean_p == pytest.approx(state.p0 + F * t, abs=1e-6)


def test_second_order_convergence_of_complex_overlap():
    # The splitting error on the echo phase shrinks ~4x per step halving,
    # also against a force-free branch evolved in one kinetic factor.
    state, spec, F_L, F_R0, m, t = _reference_case()
    grid = init_gaussian(spec, state)
    for F_R in (F_R0, 0.0):
        res = echo_displacements(F_L - F_R, m, F_L + F_R, t, NATURAL)
        exact = cmath.exp(1j * res.cubic_phase) * echo_overlap(state, res, NATURAL)
        errors = [
            abs(echo_overlap_numeric(grid, F_L, F_R, m, t, n) - exact)
            for n in (100, 200, 400)
        ]
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)
        # The whole error is the closed-form Strang phase of each branch.
        for n, error in zip((100, 200, 400), errors):
            delta = oracle.strang_phase(F_L, m, t, n) - oracle.strang_phase(F_R, m, t, n)
            assert error == pytest.approx(abs(cmath.exp(1j * delta) - 1.0) * abs(exact),
                                          rel=1e-9)


@pytest.mark.parametrize("n_steps", [1, 400])
def test_echo_modulus_matches_analytic_formula_random_cases(n_steps):
    # One Strang step is exact up to a global phase per branch, so the
    # modulus agrees to rounding at any step count, with the forces split
    # evenly or all on the left.
    rng = np.random.default_rng(42)
    for _ in range(20):
        sigma = rng.uniform(0.5, 2.0)
        state = GaussianState(sigma=sigma)
        m = 1.0
        t = rng.uniform(0.5, 2.0)
        target_dx = rng.uniform(0.0, 4.0 * sigma)
        delta_F = 2.0 * m * target_dx / t**2
        for F_L, F_R in ((delta_F / 2.0, -delta_F / 2.0), (delta_F, 0.0)):
            spec = auto_grid(state, [F_L, F_R], m=m, t=t)
            grid = init_gaussian(spec, state)
            numeric = abs(echo_overlap_numeric(grid, F_L, F_R, m, t, n_steps))
            res = echo_displacements(delta_F, m, F_L + F_R, t, NATURAL)
            analytic = echo_overlap(state, res, NATURAL)
            assert numeric == pytest.approx(analytic, abs=1e-12)


def test_matched_overlap_over_shift_ratios_and_sizes():
    # 33 ratios b/a over eight decades times 12 sizes sqrt(a^2 + b^2): every
    # case must either run as given or fall back to the balanced pair,
    # never reach the grid boundary, and match exp(-a^2/2 - b^2/2).
    for ratio in np.logspace(-4.0, 4.0, 33):
        for size in np.logspace(-3.0, 1.5, 12):
            a = size / math.sqrt(1.0 + ratio**2)
            b = ratio * a
            assert matched_echo_overlap(a, b) == pytest.approx(
                math.exp(-0.5 * (a**2 + b**2)), abs=1e-12)
    assert matched_echo_overlap(0.0, 0.0) == 1.0
    # The reach is 0.02 <= b/a < 1e3; a = 0 is out of it.
    assert oracle.in_matched_reach(1.0, oracle._MIN_RATIO)
    assert oracle.in_matched_reach(1.0, 999.0)
    assert not oracle.in_matched_reach(1.0, 0.019)
    assert not oracle.in_matched_reach(1.0, 1e3)
    assert not oracle.in_matched_reach(0.0, 1.0)


def test_boundary_hit_raises():
    state = GaussianState(sigma=1.0)
    spec = GridSpec(x_min=-8.0, x_max=8.0, n_points=512)
    grid = init_gaussian(spec, state)
    with pytest.raises(GridError):
        # Strong force pushes the packet past the boundary.
        propagate_linear(grid, 40.0, 1.0, 2.0, 200)
    with pytest.raises(GridError):
        # A force-free packet spreads to sigma ~ 10 and reaches both edges.
        propagate_linear(grid, 0.0, 1.0, 20.0, 200)


def test_auto_grid_contains_classical_excursion():
    state = GaussianState(x0=1.0, p0=2.0, sigma=0.7)
    F, m, t = 3.0, 0.5, 2.0
    spec = auto_grid(state, [F, 0.0], m=m, t=t)
    x_end = state.x0 + state.p0 * t / m + F * t**2 / (2.0 * m)
    assert spec.x_min < state.x0 - 6.0 * state.sigma
    assert spec.x_max > x_end + 6.0 * state.sigma


def test_propagation_validation():
    state, spec, F_L, _, m, t = _reference_case()
    grid = init_gaussian(spec, state)
    for F in (F_L, 0.0):
        with pytest.raises(ValidationError):
            propagate_linear(grid, F, -1.0, t, 10)
        with pytest.raises(ValidationError):
            propagate_linear(grid, F, m, -t, 10)
        with pytest.raises(ValidationError):
            propagate_linear(grid, F, m, t, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_non_finite_force_is_rejected_by_name(bad):
    state, spec, F_L, _, m, t = _reference_case()
    grid = init_gaussian(spec, state)
    with pytest.raises(ValidationError, match=rf"^F must be finite, got {bad}$"):
        propagate_linear(grid, bad, m, t, 10)
    # Both forces are checked before either branch is evolved: a left
    # branch pushed past the grid boundary must not raise GridError first.
    for forces in ((F_L, bad), (bad, 0.0), (40.0, bad)):
        with pytest.raises(ValidationError, match=rf"^F must be finite, got {bad}$"):
            echo_overlap_numeric(grid, *forces, m, t, 10)


def test_nan_norm_fails_the_drift_check():
    # NaN compares false both ways, so the check must hold the norm within
    # its band rather than look for it outside; the boundary check after it
    # would let a NaN state through too.
    state, spec, F_L, _, m, t = _reference_case()
    amplitudes = init_gaussian(spec, state).amplitudes.copy()
    amplitudes[len(amplitudes) // 2] = math.nan
    grid = GridState(spec=spec, amplitudes=amplitudes)
    for F in (F_L, 0.0):
        with pytest.raises(GridError, match="^norm drifted by nan$"):
            propagate_linear(grid, F, m, t, 10)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(F=st.floats(-1e4, 1e4), t=st.floats(0.0, 1e4),
       x_min=st.floats(-1e3, -1e-3), x_max=st.floats(1e-3, 1e3))
def test_half_potential_is_bitwise_the_complex_exp(F, t, x_min, x_max):
    # The exp of a purely imaginary argument, taken as one cos and one sin:
    # the same bits, except the sign of a zero imaginary part (t = 0, x = 0).
    x = GridSpec(x_min=x_min, x_max=x_max, n_points=4096).x
    want = np.exp(1j * F * x * t / 2.0)
    got = oracle._half_potential(F, x, t)
    assert np.array_equal(got.real.view(np.int64), want.real.view(np.int64))
    nonzero = want.imag != 0.0
    assert np.array_equal(got.imag[nonzero].view(np.int64), want.imag[nonzero].view(np.int64))
    assert np.all(got.imag[~nonzero] == 0.0)


def test_echo_overlap_takes_the_initial_norm_once(monkeypatch):
    calls = []
    norm = GridState.__dict__["norm"].func
    counted = functools.cached_property(lambda self: calls.append(self) or norm(self))
    counted.__set_name__(GridState, "norm")
    monkeypatch.setattr(GridState, "norm", counted)
    state, spec, F_L, F_R, m, t = _reference_case()
    grid = init_gaussian(spec, state)
    echo_overlap_numeric(grid, F_L, F_R, m, t, 200)
    assert calls == [grid]


def test_grid_state_amplitudes_are_read_only():
    # The norm is cached, so a state's amplitudes cannot be written after it.
    state, spec, F_L, _, m, t = _reference_case()
    given = init_gaussian(spec, state).amplitudes.copy()
    grid = GridState(spec=spec, amplitudes=given)
    norm = grid.norm
    for out in (grid, propagate_linear(grid, F_L, m, t, 10)):
        with pytest.raises(ValueError, match="read-only"):
            out.amplitudes[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            out.amplitudes *= 2.0
    assert grid.norm == norm
    assert given.flags.writeable


# F_L and F_R of the reference case, and each against a force-free branch.
@pytest.mark.parametrize("forces", [(0.9, 0.25), (0.9, 0.0), (0.0, 0.25)], ids=str)
def test_echo_overlap_is_the_inner_product_of_two_propagations(forces):
    # Each branch is propagated alone, forced or force-free.
    state, spec, _, _, m, t = _reference_case()
    F_L, F_R = forces
    grid = init_gaussian(spec, state)
    left = propagate_linear(grid, F_L, m, t, 200)
    right = propagate_linear(grid, F_R, m, t, 200)
    expected = complex(np.sum(np.conj(right.amplitudes) * left.amplitudes) * spec.dx)
    assert echo_overlap_numeric(grid, F_L, F_R, m, t, 200) == expected


@pytest.mark.parametrize("forces", [(40.0, 0.0), (0.0, 40.0)], ids=str)
def test_each_branch_is_checked_for_the_boundary(forces):
    # The force-free branch stays clear of the edges; the pushed one does not.
    state = GaussianState(sigma=1.0)
    spec = GridSpec(x_min=-16.0, x_max=16.0, n_points=1024)
    grid = init_gaussian(spec, state)
    assert echo_overlap_numeric(grid, 0.0, 0.0, 1.0, 2.0, 200) == pytest.approx(1.0)
    with pytest.raises(GridError, match="^wavefunction reaches the grid boundary$"):
        echo_overlap_numeric(grid, *forces, 1.0, 2.0, 200)


@pytest.mark.parametrize("call", ["echo_overlap_numeric", "matched_echo_overlap"])
def test_each_overlap_propagates_two_branches_through_the_module_attribute(
        call, monkeypatch):
    # Call counters wrap oracle.propagate_linear from outside and bind its
    # arguments by name, so every branch must go through that attribute.
    bound = []
    original = oracle.propagate_linear

    def counting(state, F, m, t, n_steps):
        bound.append((state.spec.n_points, n_steps))
        return original(state, F, m, t, n_steps)

    monkeypatch.setattr(oracle, "propagate_linear", counting)
    if call == "echo_overlap_numeric":
        state, spec, F_L, F_R, m, t = _reference_case()
        oracle.echo_overlap_numeric(init_gaussian(spec, state), F_L, F_R, m, t, 10)
        assert bound == [(spec.n_points, 10)] * 2
    else:
        oracle.matched_echo_overlap(0.5, 0.7)
        assert bound == [(oracle.MATCHED_GRID_POINTS, oracle.MATCHED_STEPS)] * 2


def _allocating_strang(state, F, m, t, n_steps):
    """The Strang step loop as first written, with fresh temporaries per step:
    the reference the one-step branch and its closed-form phase replace."""
    spec = state.spec
    dt = t / n_steps
    k = 2.0 * math.pi * np.fft.fftfreq(spec.n_points, d=spec.dx)
    half_potential = np.exp(1j * F * spec.x * dt / 2.0)
    kinetic = np.exp(-1j * k**2 * dt / (2.0 * m))
    psi = state.amplitudes.copy()
    for _ in range(n_steps):
        psi *= half_potential
        psi = np.fft.ifft(kinetic * np.fft.fft(psi))
        psi *= half_potential
    return psi


@pytest.mark.parametrize("F", [0.9, 0.25], ids=str)  # F_L and F_R of the reference case
def test_one_strang_step_is_bitwise_the_allocating_loop(F):
    state, spec, _, _, m, t = _reference_case()
    grid = init_gaussian(spec, state)
    out = propagate_linear(grid, F, m, t, 1)
    assert out.amplitudes.tobytes() == _allocating_strang(grid, F, m, t, 1).tobytes()


def _exact_propagation(grid, state, F, m, t):
    """The exact propagator of H = P^2/2m - F X in momentum space on the grid.

    phi(p, t) = phi0(p - F t) exp(-i [p^3 - (p - F t)^3] / 6 m F), with phi0
    the continuous transform of the normalized Gaussian, sampled at the grid
    wavenumbers and returned to the grid points by one inverse FFT.
    """
    spec = grid.spec
    k = 2.0 * math.pi * np.fft.fftfreq(spec.n_points, d=spec.dx)
    q = k - F * t
    norm = 1.0 / math.sqrt(np.sum(np.exp(-(spec.x - state.x0) ** 2
                                         / (2.0 * state.sigma**2))) * spec.dx)
    phi = (norm * 2.0 * state.sigma * math.sqrt(math.pi)
           * np.exp(-state.sigma**2 * (q - state.p0) ** 2 - 1j * (q - state.p0) * state.x0)
           * np.exp(-1j * (k**3 - q**3) / (6.0 * m * F)))
    # fft of the grid samples is phi(k) exp(i k x_min) / dx.
    return np.fft.ifft(phi * np.exp(1j * k * spec.x_min) / spec.dx)


@pytest.mark.parametrize("n_steps", [2, 10, 200])
@pytest.mark.parametrize("F", [0.9, 0.25, -0.6], ids=str)
def test_forced_branch_is_the_exact_propagator_times_the_strang_phase(F, n_steps):
    # n Strang steps are the exact propagator times exp(i strang_phase), so
    # the branch, taken in one step plus that phase, matches the exact
    # packet to rounding wherever it is not negligible, and its overlaps
    # match those of the step loop itself.
    state, spec, _, F_R, m, t = _reference_case()
    grid = init_gaussian(spec, state)
    out = propagate_linear(grid, F, m, t, n_steps).amplitudes
    exact = _exact_propagation(grid, state, F, m, t)
    core = np.abs(exact) > 1e-3 * np.abs(exact).max()
    phase = cmath.exp(-1j * oracle.strang_phase(F, m, t, n_steps))
    assert np.max(np.abs(out * phase - exact)[core]) < 1e-12
    left = _allocating_strang(grid, F, m, t, n_steps)
    right = _allocating_strang(grid, F_R, m, t, n_steps)
    looped = complex(np.sum(np.conj(right) * left) * spec.dx)
    assert abs(echo_overlap_numeric(grid, F, F_R, m, t, n_steps) - looped) < 1e-13


@pytest.mark.parametrize("n_steps", [1, 200])
def test_force_free_branch_is_the_composed_strang_loop(n_steps):
    # The force-free branch takes one kinetic factor instead of the loop:
    # the same bits at one step, within rounding at 200.
    state, spec, _, _, m, t = _reference_case()
    grid = init_gaussian(spec, state)
    free = propagate_linear(grid, 0.0, m, t, n_steps).amplitudes
    expected = _allocating_strang(grid, 0.0, m, t, n_steps)
    if n_steps == 1:
        assert free.tobytes() == expected.tobytes()
    else:
        assert np.max(np.abs(free - expected)) < 1e-13


def _full_spectrum_kinetic(spec, m, t):
    k = 2.0 * math.pi * np.fft.fftfreq(spec.n_points, d=spec.dx)
    return np.exp(-1j * k**2 * t / (2.0 * m))


def test_kinetic_factor_is_bitwise_the_full_spectrum_expression():
    # Consecutive calls differ in the grid spacing alone, the mass alone
    # (an int and floats) or the time alone (0.0 and -0.0 included), so a
    # factor served from the memo for the wrong key would show.
    calls = []
    for n in [2**e for e in range(1, 13)]:
        for spec in (GridSpec(-16.0, 16.0, n), GridSpec(-3.7, 51.2, n)):
            for m, t in ((1, 1.2), (0.37, 1.2), (0.37, 31.5), (0.37, 0.0), (0.37, -0.0),
                         (1.0, -0.0), (1.0, 1.2), (1, 1.2)):
                calls.append((spec, m, t))
    # The grid size alone: same spacing, other size, then back.
    calls += [(GridSpec(-16.0, 16.0, 64), 1.0, 1.2), (GridSpec(-32.0, 32.0, 128), 1.0, 1.2),
              (GridSpec(-16.0, 16.0, 64), 1.0, 1.2)]
    for spec, m, t in calls:
        factor = oracle._kinetic(spec.n_points, spec.dx, m, t)
        assert factor.tobytes() == _full_spectrum_kinetic(spec, m, t).tobytes(), (spec, m, t)


def test_kinetic_factor_is_shared_and_read_only():
    state, spec, _, _, m, t = _reference_case()
    factor = oracle._kinetic(spec.n_points, spec.dx, m, t)
    assert oracle._kinetic(spec.n_points, spec.dx, m, t) is factor
    assert not factor.flags.writeable
    with pytest.raises(ValueError):
        factor[0] = 0.0
    # Propagation leaves the shared factor as it was.
    before = factor.tobytes()
    echo_overlap_numeric(init_gaussian(spec, state), 0.9, 0.0, m, t, 10)
    assert oracle._kinetic(spec.n_points, spec.dx, m, t).tobytes() == before


def test_kinetic_factor_key_is_typed():
    # A float32 m doubles in float32: 2e38 overflows there and not in
    # float64, so a float32 m and a float64 m of equal value need factors
    # with other bits, and an untyped key would serve one for the other.
    spec = GridSpec(-16.0, 16.0, 64)
    m32 = np.float32(2e38)
    factors = []
    with np.errstate(over="ignore"):
        for m in (m32, float(m32), m32):
            factor = oracle._kinetic(spec.n_points, spec.dx, m, 1.2)
            assert factor.tobytes() == _full_spectrum_kinetic(spec, m, 1.2).tobytes(), type(m)
            factors.append(factor.tobytes())
    assert factors[0] != factors[1] and factors[0] == factors[2]
