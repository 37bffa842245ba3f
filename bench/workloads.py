"""Seeded inputs and the ops of the three workloads.

One generator, seeded by ``--seed``, draws every input: the sweep ranges,
the trajectory and window sample counts and widths, the echo scenario and
the power-curve seed.  An op is one call into the program plus the check
of its output; its ``call`` is timed, its ``check`` is not.

Workloads (why each exists is in ``bench/README.md``):

- ``sweep``: three ``cli.main`` calls, on 20k-point ``bound`` and
  ``causality`` sweeps and a 500-point ``radiation`` sweep of ``t0``.
- ``spectral``: tabulated ``mode_integral`` and ``velocity_fourier``,
  tabulated ``averaged_variance``, and one 4096-node Gauss-Legendre grid
  feeding ``displacement_from_trajectory`` and ``coherent_overlap``.
- ``crosscheck``: 41 echo times checked by grid propagation, and one
  common-random-numbers power curve.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from supertime import cli, echo, interference, oracle, radiation, vacuum

import checker as ref
from checker import Checker

SIZES = {
    "full": dict(sweep_points=20_000, t0_points=500, trajectories=6,
                 fourier_points=200, windows=4, gl_nodes=4096, echo_times=41,
                 grid_points=4096, steps=200, mc_n=10_000, mc_trials=500,
                 noise_levels=10, setups=5),
    # For the self-test only: every op kind once, in about a second.
    "tiny": dict(sweep_points=200, t0_points=10, trajectories=2,
                 fourier_points=20, windows=1, gl_nodes=1024, echo_times=5,
                 grid_points=1024, steps=50, mc_n=2000, mc_trials=40,
                 noise_levels=3, setups=1),
}

TRAJECTORY_SAMPLES = (64, 400)
WINDOW_SAMPLES = (801, 3201)
U_MAX = 400.0  # Gauss-Legendre grid spans (0, U_MAX / t0)

# Tolerances, matching the package's own tests.
TOL_CLOSED = 1e-12
TOL_RADIATION_EXPONENT = 1e-6
TOL_TABULATED_MODE = 5e-3
TOL_TABULATED_VARIANCE = 1e-4
TOL_GL_NORM = 1e-4
TOL_ORACLE = 1e-6


@dataclass
class Op:
    name: str
    call: Callable[[Path], Any]
    check: Callable[[Any, Path, Checker], "list[str]"]


def draw(seed: int, size: str) -> dict:
    """Every input parameter of every workload, from one seeded generator."""
    n = SIZES[size]
    rng = np.random.default_rng(seed)

    def log_uniform(lo: float, hi: float) -> float:
        return float(10.0 ** rng.uniform(lo, hi))

    def stratified(lo: int, hi: int, k: int, count: int) -> int:
        # One draw per stratum, so every run spans the whole size range.
        return int(lo + (hi - lo) * (k + rng.random()) / count)

    bound_lo = log_uniform(-15, -9)
    causality_d = log_uniform(-9, -5)
    causality_R = causality_d * log_uniform(1.5, 2.0)   # R >= 30 d: dipole gate holds
    radiation_d = log_uniform(-9, -6)
    radiation_t0 = radiation_d / ref.C * log_uniform(1.0, 2.0)  # d <= c t0 / 10
    sweep = {
        "bound": {"d": log_uniform(-9, -3), "lo": bound_lo,
                  "hi": bound_lo * log_uniform(8, 12), "points": n["sweep_points"]},
        "causality": {"m_a": log_uniform(-6, -2), "d": causality_d,
                      "bob_mass": log_uniform(-15, -9), "lo": causality_R,
                      "hi": causality_R * log_uniform(4, 6), "points": n["sweep_points"]},
        "radiation": {"q": ref.E_CHARGE * log_uniform(0, 3), "d": radiation_d,
                      "lo": radiation_t0, "hi": radiation_t0 * log_uniform(3, 5),
                      "points": n["t0_points"]},
    }
    trajectories = []
    for k in range(n["trajectories"]):
        d = log_uniform(-9, -7)
        trajectories.append({
            "samples": stratified(*TRAJECTORY_SAMPLES, k, n["trajectories"]),
            "d": d, "t0": d / ref.C * log_uniform(2, 3),
            "q": ref.E_CHARGE * log_uniform(0, 2),
            "u_hi": float(rng.uniform(20.0, 40.0)),
            "fourier_points": n["fourier_points"]})
    windows = [{"samples": stratified(*WINDOW_SAMPLES, k, n["windows"]),
                "T": float(rng.uniform(0.5, 2.0))} for k in range(n["windows"])]
    gl_d = log_uniform(-8, -6)
    spectral = {
        "trajectories": trajectories,
        "windows": windows,
        # t0 >= 1600 d / c keeps U_MAX / t0 inside the long-wavelength gate.
        "gauss_legendre": {"d": gl_d, "t0": gl_d / ref.C * log_uniform(3.2, 4.0),
                           "q": ref.E_CHARGE * log_uniform(2, 3), "nodes": n["gl_nodes"]},
    }
    crosscheck = {
        "echo": {"m_a": log_uniform(-3, 0), "m_b": log_uniform(-15, -12),
                 "d": log_uniform(-6, -4), "R_over_d": log_uniform(2, 3),
                 "trap_fraction": float(rng.uniform(0.5, 1.0)),
                 "times": n["echo_times"], "grid_points": n["grid_points"],
                 "steps": n["steps"]},
        "power": {"d": log_uniform(-7, -5), "n": n["mc_n"], "trials": n["mc_trials"],
                  "noise_levels": n["noise_levels"],
                  "seed": int(rng.integers(2**31))},
    }
    return {"sweep": sweep, "spectral": spectral, "crosscheck": crosscheck,
            "setups": n["setups"]}


# --- set-up: write the generated configs and input files -------------------


def _log_sweep_config(parameter: str, spec: dict) -> dict:
    return {"parameter": parameter, "min": spec["lo"], "max": spec["hi"],
            "points": spec["points"], "scale": "log"}


def _sweep_configs(p: dict) -> dict:
    b, c, r = p["bound"], p["causality"], p["radiation"]
    return {
        "bound": {
            "scenario": {"alice": {"kind": "mass", "magnitude": b["lo"],
                                   "separation_d": b["d"]},
                         "bob_mass": 1e-12, "R": 1.0},
            "sweep": _log_sweep_config("magnitude", b)},
        "causality": {
            "scenario": {"alice": {"kind": "mass", "magnitude": c["m_a"],
                                   "separation_d": c["d"]},
                         "bob_mass": c["bob_mass"], "R": c["lo"]},
            "sweep": _log_sweep_config("R", c)},
        "radiation": {
            "scenario": {"alice": {"kind": "charge", "magnitude": r["q"],
                                   "separation_d": r["d"]},
                         "bob_mass": 1e-12, "bob_charge": ref.E_CHARGE, "R": 1.0},
            "sweep": _log_sweep_config("t0", r)},
    }


def _trajectory_samples(p: dict) -> np.ndarray:
    t = np.linspace(0.0, p["t0"], p["samples"])
    return np.column_stack([t, p["d"] * np.sin(math.pi * t / (2.0 * p["t0"])) ** 2])


def _window_samples(p: dict) -> np.ndarray:
    """Gaussian of width T on +-8T, renormalized to unit trapezoid integral."""
    T = p["T"]
    t = np.linspace(-8.0 * T, 8.0 * T, p["samples"])
    phi = np.exp(-0.5 * (t / T) ** 2)
    return np.column_stack([t, phi / np.trapezoid(phi, t)])


def setup(workload: str, params: dict, workdir: Path) -> None:
    """Write the workload's configs and input tables into ``workdir``."""
    p = params[workload]
    (workdir / "params.json").write_text(json.dumps(p, indent=1))
    if workload == "sweep":
        for name, config in _sweep_configs(p).items():
            (workdir / f"{name}.json").write_text(json.dumps(config))
    elif workload == "spectral":
        tables = [("trajectory", _trajectory_samples, p["trajectories"], "t_s,x_m"),
                  ("window", _window_samples, p["windows"], "t,phi")]
        for stem, make, items, header in tables:
            for k, item in enumerate(items):
                np.savetxt(workdir / f"{stem}_{k}.csv", make(item), fmt="%.17g",
                           delimiter=",", header=header, comments="")


def _load_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1)


# --- sweep ------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return (rows[0], rows[1:]) if rows else ([], [])


def _log_sweep(spec: dict) -> np.ndarray:
    return np.logspace(math.log10(spec["lo"]), math.log10(spec["hi"]), spec["points"])


def _cli_op(subcommand: str, workdir: Path, header: list[str], spec: dict,
            check_columns: Callable) -> Op:
    """One ``cli.main`` call on the config that ``setup`` wrote for it."""
    points = spec["points"]

    def call(opdir: Path):
        return cli.main([subcommand, "--config", str(workdir / f"{subcommand}.json"),
                         "--output", str(opdir / f"{subcommand}.csv")])

    def check(returncode, opdir: Path, checker: Checker) -> list[str]:
        reasons = []
        if returncode not in (None, 0):
            reasons.append(f"cli.main returned {returncode}")
        path = opdir / f"{subcommand}.csv"
        if not path.exists():
            return reasons + ["no CSV written"]
        if not path.with_suffix(".csv.meta.json").exists():
            reasons.append("CSV left without its .meta.json")
        got_header, rows = _read_csv(path)
        checker.counts["cli.rows"] += len(rows)
        shape = checker.expect(got_header == header, f"{subcommand}: header {got_header}")
        if not shape:
            shape = checker.expect(
                len(rows) == points and all(len(row) == len(header) for row in rows),
                f"{subcommand}: {len(rows)} rows, expected {points}")
        if shape:
            return reasons + shape
        columns = [np.array(column) for column in zip(*rows)]
        return reasons + check_columns(_log_sweep(spec), columns, checker)

    return Op(subcommand, call, check)


def _sweep_ops(p: dict, workdir: Path) -> list[Op]:
    b, c, r = p["bound"], p["causality"], p["radiation"]

    def bound_columns(magnitude, cols, checker):
        ratio = magnitude / ref.M_P
        return (checker.expect(bool(np.all(cols[0] == "mass")), "bound: kind column")
                + checker.close("cli", "swept magnitude", cols[1].astype(float), magnitude,
                                TOL_CLOSED)
                + checker.close("cli", "separation", cols[2].astype(float),
                                np.full_like(magnitude, b["d"]), TOL_CLOSED)
                + checker.close("bounds", "min_time", cols[3].astype(float),
                                ref.min_time(ratio, b["d"]), TOL_CLOSED)
                + checker.close("bounds", "sharp_min_time", cols[4].astype(float),
                                ref.sharp_min_time(ratio, b["d"]), TOL_CLOSED))

    def causality_columns(R, cols, checker):
        T_A = ref.sharp_min_time(c["m_a"] / ref.M_P, c["d"])
        T_B = ref.entanglement_time_mass(c["m_a"], c["d"], R)
        margin = T_A + T_B - R / ref.C
        # Rows within rounding of T_A + T_B = R/c may go either way.
        decided = np.abs(margin) > 1e-9 * R / ref.C
        return (checker.expect(bool(np.all(np.isin(cols[4], ["true", "false"]))),
                               "causality: satisfied column")
                + checker.expect(bool(np.all(((cols[4] == "true") == (margin >= 0.0))[decided])),
                                 "causality: satisfied disagrees with T_A + T_B >= R/c")
                + checker.close("cli", "swept R", cols[0].astype(float), R, TOL_CLOSED)
                + checker.close("bounds", "T_A", cols[1].astype(float),
                                np.full_like(R, T_A), TOL_CLOSED)
                + checker.close("causality", "T_B", cols[2].astype(float), T_B, TOL_CLOSED)
                + checker.close("causality", "eta", cols[3].astype(float), ref.C * T_B / R,
                                TOL_CLOSED))

    def radiation_columns(t0, cols, checker):
        exponent = ref.radiation_exponent(r["q"], r["d"], t0)
        return (checker.close("cli", "swept t0", cols[0].astype(float), t0, TOL_CLOSED)
                + checker.close("radiation", "exponent", cols[1].astype(float), exponent,
                                TOL_RADIATION_EXPONENT)
                + checker.close("radiation", "vacuum_overlap", cols[2].astype(float),
                                np.exp(-exponent), TOL_RADIATION_EXPONENT, absolute=True)
                + checker.close("radiation", "min_radiationless_time", cols[3].astype(float),
                                np.full_like(t0, ref.radiationless_time(r["q"], r["d"])),
                                TOL_CLOSED))

    return [
        _cli_op("bound", workdir, ["kind", "magnitude_kg_or_C", "separation_d_m",
                                   "min_time_seconds", "sharp_min_time_seconds"],
                b, bound_columns),
        _cli_op("causality", workdir, ["R_m", "T_A_seconds", "T_B_seconds", "eta", "satisfied"],
                c, causality_columns),
        _cli_op("radiation", workdir, ["t0_seconds", "exponent", "vacuum_overlap",
                                       "min_radiationless_time_seconds"],
                r, radiation_columns),
    ]


# --- spectral ---------------------------------------------------------------


def _trajectory_ops(p: dict, samples: np.ndarray) -> list[Op]:
    def profile():
        return radiation.TrajectoryProfile(d=p["d"], t0=p["t0"],
                                           shape=radiation.Shape.TABULATED, samples=samples)

    omega = np.linspace(0.0, p["u_hi"], p["fourier_points"]) / p["t0"]

    def check_mode(value, _workdir, checker):
        if value is None:
            return []
        return checker.close("radiation", "tabulated mode integral", value,
                             ref.radiation_exponent(p["q"], p["d"], p["t0"]),
                             TOL_TABULATED_MODE)

    def check_fourier(value, _workdir, checker):
        if value is None:
            return []
        # Scaled by |v(0)| = d, so the error is relative to the peak.
        return checker.close("radiation", "tabulated velocity_fourier / d",
                             np.asarray(value) / p["d"],
                             ref.sin2_velocity_fourier(p["d"], p["t0"], omega) / p["d"],
                             TOL_TABULATED_MODE, absolute=True)

    return [Op("mode_integral", lambda _w: radiation.mode_integral(profile(), p["q"]),
               check_mode),
            Op("velocity_fourier", lambda _w: radiation.velocity_fourier(profile(), omega),
               check_fourier)]


def _window_op(p: dict, samples: np.ndarray) -> Op:
    def call(_workdir):
        window = vacuum.WindowFunction(shape=vacuum.WindowShape.TABULATED,
                                       width_T=p["T"], samples=samples)
        return vacuum.averaged_variance(window)

    def check(value, _workdir, checker):
        if value is None:
            return []
        return checker.close("vacuum", "tabulated averaged_variance", value,
                             ref.gaussian_window_variance(p["T"]), TOL_TABULATED_VARIANCE)

    return Op("averaged_variance", call, check)


def _gauss_legendre_op(p: dict) -> Op:
    omega_max = U_MAX / p["t0"]

    def call(_workdir):
        grid = radiation.gauss_legendre_grid(omega_max, p["nodes"])
        profile = radiation.TrajectoryProfile(d=p["d"], t0=p["t0"])
        f = radiation.displacement_from_trajectory(profile, p["q"], grid)
        zero = radiation.DisplacementFunction(values=np.zeros(len(grid), dtype=complex))
        return grid, f, radiation.coherent_overlap(f, zero, grid)

    def check(value, _workdir, checker):
        if value is None:
            return []
        grid, f, overlap = value
        exponent = ref.radiation_exponent(p["q"], p["d"], p["t0"])
        norm = float(np.sum(grid.weights / ref.C * np.abs(f.values) ** 2))
        return (checker.expect(len(grid) == p["nodes"], f"grid has {len(grid)} nodes")
                + checker.expect(f.warnings == (), f"unexpected warnings {f.warnings}")
                + checker.close("radiation", "Gauss-Legendre weight sum",
                                float(np.sum(grid.weights)), omega_max, 1e-10)
                + checker.close("radiation", "Gauss-Legendre displacement norm", norm,
                                exponent, TOL_GL_NORM)
                + checker.close("radiation", "coherent_overlap", overlap,
                                math.exp(-exponent), TOL_GL_NORM, absolute=True))

    return Op("gauss_legendre", call, check)


def _spectral_ops(p: dict, workdir: Path) -> list[Op]:
    ops = []
    for k, item in enumerate(p["trajectories"]):
        ops += _trajectory_ops(item, _load_table(workdir / f"trajectory_{k}.csv"))
    ops += [_window_op(item, _load_table(workdir / f"window_{k}.csv"))
            for k, item in enumerate(p["windows"])]
    return ops + [_gauss_legendre_op(p["gauss_legendre"])]


# --- crosscheck -------------------------------------------------------------


def _oracle_overlap(a: float, b: float, grid_points: int, steps: int) -> float:
    """Grid overlap matched on the shift groups a = dx/(2 sigma), b = dp sigma/hbar.

    The same dimensionless run as ``supertime echo --oracle``: sigma = m =
    hbar = 1, t' = 4a/b and F' = b^2/(4a), with extreme ratios replaced by
    the balanced pair of equal overlap.
    """
    if a == 0.0 and b == 0.0:
        return 1.0
    if not (1e-3 < (b / a if a > 0.0 else math.inf) < 1e3):
        a = b = math.sqrt(0.5 * (a**2 + b**2))
    t_n, f_n = 4.0 * a / b, b**2 / (4.0 * a)
    unit = echo.GaussianState(sigma=1.0)
    spec = oracle.auto_grid(unit, [f_n, 0.0], m=1.0, t=t_n, n_points=grid_points)
    grid0 = oracle.init_gaussian(spec, unit)
    return abs(oracle.echo_overlap_numeric(grid0, f_n, 0.0, 1.0, t_n, steps))


def _echo_ops(p: dict) -> list[Op]:
    m_a, m_b, d = p["m_a"], p["m_b"], p["d"]
    R = d * p["R_over_d"]
    delta_F = ref.G * m_a * m_b * d / R**3
    # Near the trap width (hbar^2/(mB dF))^(1/3) both shifts matter: the
    # overlap falls from 1 to exp(-2) .. exp(-6) over the 41 times.
    sigma = p["trap_fraction"] * (ref.HBAR**2 / (m_b * delta_F)) ** (1.0 / 3.0)
    t_ent = math.sqrt(2.0 * m_b * sigma / delta_F)

    def op(t: float) -> Op:
        def call(_workdir):
            pair = echo.force_difference_gravity(m_a, m_b, d, R)
            result = echo.echo_displacements(pair.delta_F, m_b, pair.F_L + pair.F_R, t)
            analytic = echo.echo_overlap(echo.GaussianState(sigma=sigma), result)
            a = abs(result.delta_x) / (2.0 * sigma)
            b = abs(result.delta_p) * sigma / ref.HBAR
            return pair.delta_F, analytic, _oracle_overlap(a, b, p["grid_points"], p["steps"])

        def check(value, _workdir, checker):
            if value is None:
                return []
            got_dF, analytic, numeric = value
            want = ref.echo_overlap(delta_F, m_b, sigma, t)
            return (checker.close("echo", "dipole delta_F", got_dF, delta_F, TOL_CLOSED)
                    + checker.close("echo", "analytic overlap", analytic, want, TOL_CLOSED,
                                    absolute=True)
                    + checker.close("oracle", "grid overlap", numeric, want, TOL_ORACLE,
                                    absolute=True))

        return Op("echo_oracle", call, check)

    return [op(float(t)) for t in np.linspace(0.0, 2.0 * t_ent, p["times"])]


def _power_op(p: dict) -> Op:
    d = p["d"]
    multiples = np.logspace(-1.0, 1.0, p["noise_levels"])  # 0.1 .. 10 pi/d
    first: list[bytes] = []

    def call(_workdir):
        # The criterion-8 packet, sigma = d/10.
        packet = interference.SuperposedWavepacket(sigma=d / 10.0, d=d)
        return interference.power_curve(packet, p["n"], multiples * math.pi / d,
                                        p["trials"], p["seed"])

    def check(powers, _workdir, checker):
        if powers is None:
            return []
        powers = np.asarray(powers)
        checker.mc_stderr = max(checker.mc_stderr, float(np.max(
            np.sqrt(powers * (1.0 - powers) / p["trials"]))))
        band = 4.0 * math.sqrt(0.25 / p["trials"])
        if not first:
            first.append(powers.tobytes())
        return (checker.expect(powers[0] > 0.99, f"power {powers[0]} at 0.1 pi/d")
                + checker.expect(abs(powers[-1] - 0.5) <= band,
                                 f"power {powers[-1]} at 10 pi/d outside 0.5 +- {band:.3f}")
                + checker.expect(powers.tobytes() == first[0],
                                 "same-seed power curve not byte-identical"))

    return Op("power_curve", call, check)


def build_ops(workload: str, params: dict, workdir: Path) -> list[Op]:
    """The ops of one pass, reading the inputs that ``setup`` wrote."""
    p = params[workload]
    if workload == "sweep":
        return _sweep_ops(p, workdir)
    if workload == "spectral":
        return _spectral_ops(p, workdir)
    return _echo_ops(p["echo"]) + [_power_op(p["power"])]
