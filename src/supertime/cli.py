"""Scenario-driven command line: config parsing, sweeps, CSV output.

Usage: supertime <subcommand> --config cfg.json [--output out.csv]
                 [--seed N] [--oracle]

Config files are strict JSON: unknown keys are rejected so a typo in a
physics parameter can never be silently ignored.  Every CSV column name
carries its unit.  A metadata record (inputs, constants, version) is
written next to each CSV so any run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import uuid
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, bounds, causality, echo, interference, oracle, radiation, vacuum
from .bounds import Kind, SuperpositionSpec
from .causality import Scenario
from .constants import CODATA, PhysicalConstants, planck_scales
from .echo import GaussianState
from .errors import SupertimeError, ValidationError

SUBCOMMANDS = ("bound", "echo", "causality", "radiation", "vacuum", "interference")

_CONSTANT_KEYS = {"hbar", "c", "G", "epsilon0", "e_charge"}
_SWEEPABLE = {"magnitude", "separation_d", "bob_mass", "bob_charge", "R", "sigma", "t0"}


@dataclass(frozen=True)
class RunConfig:
    constants: PhysicalConstants
    scenario: Scenario
    sweep: dict | None
    seed: int
    output: str | None
    extras: dict


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _parse_scenario(raw: dict, constants: PhysicalConstants) -> Scenario:
    _reject_unknown(raw, {"alice", "bob_mass", "bob_charge", "R", "sigma"}, "scenario")
    alice_raw = raw.get("alice")
    if not isinstance(alice_raw, dict):
        raise ValidationError("scenario.alice must be an object")
    _reject_unknown(alice_raw, {"kind", "magnitude", "separation_d"}, "scenario.alice")
    try:
        kind = Kind(alice_raw.get("kind"))
    except ValueError:
        raise ValidationError(
            f"scenario.alice.kind must be 'mass' or 'charge', got {alice_raw.get('kind')!r}"
        ) from None
    alice = SuperpositionSpec(
        kind=kind,
        magnitude=float(alice_raw["magnitude"]),
        separation_d=float(alice_raw["separation_d"]),
    )
    return Scenario(
        alice=alice,
        bob_mass=float(raw["bob_mass"]),
        R=float(raw["R"]),
        bob_charge=float(raw.get("bob_charge", 0.0)),
        sigma=float(raw["sigma"]) if "sigma" in raw else None,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON config: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    allowed = {"constants", "scenario", "sweep", "seed", "output",
               "radiation", "vacuum", "interference", "causality"}
    _reject_unknown(raw, allowed, "config")

    const_raw = raw.get("constants", {})
    _reject_unknown(const_raw, _CONSTANT_KEYS, "constants")
    constants = replace(CODATA, **{k: float(v) for k, v in const_raw.items()})

    if "scenario" not in raw:
        raise ValidationError("config requires a 'scenario' section")
    scenario = _parse_scenario(raw["scenario"], constants)

    sweep = raw.get("sweep")
    if sweep is not None:
        _reject_unknown(sweep, {"parameter", "min", "max", "points", "scale"}, "sweep")
        if sweep.get("parameter") not in _SWEEPABLE:
            raise ValidationError(
                f"sweep.parameter must be one of {sorted(_SWEEPABLE)}, "
                f"got {sweep.get('parameter')!r}"
            )
        if sweep.get("scale", "linear") not in ("linear", "log"):
            raise ValidationError("sweep.scale must be 'linear' or 'log'")
        if int(sweep.get("points", 0)) < 1:
            raise ValidationError("sweep.points must be >= 1")

    extras = {key: raw.get(key, {}) for key in ("radiation", "vacuum",
                                                "interference", "causality")}
    _reject_unknown(extras["radiation"], {"t0", "trajectory_csv"}, "radiation")
    _reject_unknown(extras["vacuum"], {"window_T", "window_csv"}, "vacuum")
    _reject_unknown(extras["interference"],
                    {"n", "trials", "noise_multiples", "d_over_sigma"}, "interference")
    _reject_unknown(extras["causality"], {"T_A"}, "causality")

    return RunConfig(
        constants=constants,
        scenario=scenario,
        sweep=sweep,
        seed=int(raw.get("seed", 0)),
        output=raw.get("output"),
        extras=extras,
    )


def _sweep_values(sweep: dict) -> np.ndarray:
    lo, hi, n = float(sweep["min"]), float(sweep["max"]), int(sweep["points"])
    if sweep.get("scale", "linear") == "log":
        if lo <= 0.0:
            raise ValidationError("log sweep requires min > 0")
        return np.logspace(math.log10(lo), math.log10(hi), n)
    return np.linspace(lo, hi, n)


def _scenario_with(scenario: Scenario, parameter: str, value: float) -> Scenario:
    if parameter in ("magnitude", "separation_d"):
        alice = replace(scenario.alice, **{parameter: value})
        return replace(scenario, alice=alice)
    return replace(scenario, **{parameter: value})


def _expand_scenarios(config: RunConfig) -> list[Scenario]:
    if config.sweep is None or config.sweep["parameter"] == "t0":
        return [config.scenario]
    parameter = config.sweep["parameter"]
    return [_scenario_with(config.scenario, parameter, float(v))
            for v in _sweep_values(config.sweep)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


# --- subcommand row builders ----------------------------------------------


def _rows_bound(config: RunConfig, use_oracle: bool):
    constants = config.constants
    header = ["kind", "magnitude_kg_or_C", "separation_d_m",
              "min_time_seconds", "sharp_min_time_seconds"]

    def row(scenario: Scenario):
        a = scenario.alice
        if a.kind is Kind.MASS:
            t = bounds.min_time_mass(a.magnitude, a.separation_d, constants)
        else:
            t = bounds.min_time_charge(a.magnitude, a.separation_d, constants)
        return [a.kind.value, a.magnitude, a.separation_d, t,
                bounds.sharp_min_time(a, constants)]

    return header, [row(scenario) for scenario in _expand_scenarios(config)]


def _echo_force(scenario: Scenario, constants: PhysicalConstants):
    a = scenario.alice
    if a.kind is Kind.MASS:
        return echo.force_difference_gravity(
            a.magnitude, scenario.bob_mass, a.separation_d, scenario.R, constants)
    return echo.force_difference_coulomb(
        a.magnitude, scenario.bob_charge, a.separation_d, scenario.R, constants)


def _rows_echo(config: RunConfig, use_oracle: bool):
    constants = config.constants
    scenario = config.scenario
    pair = _echo_force(scenario, constants)
    sigma = scenario.effective_sigma(constants)
    mB = scenario.bob_mass
    t_ent = math.sqrt(2.0 * mB * sigma / abs(pair.delta_F))
    times = np.linspace(0.0, 2.0 * t_ent, 41)
    state = GaussianState(sigma=sigma)
    header = ["t_seconds", "delta_x_m", "delta_p_kg_m_per_s", "overlap"]
    if use_oracle:
        header.append("overlap_numeric")
    rows = []
    for t in times:
        result = echo.echo_displacements(pair.delta_F, mB,
                                         pair.F_L + pair.F_R, float(t), constants)
        overlap = echo.echo_overlap(state, result, constants)
        row = [float(t), result.delta_x, result.delta_p, overlap]
        if use_oracle:
            row.append(_oracle_overlap(result, state, constants))
        rows.append(row)
    return header, rows


def _oracle_overlap(result, state: GaussianState,
                    constants: PhysicalConstants) -> float:
    """Dimensionless grid-propagation overlap matched on the two shift groups.

    a = dx/(2 sigma) and b = dp sigma/hbar determine the overlap
    exp(-a^2/2 - b^2/2); a scaled run with sigma = m = hbar = 1 needs
    dx' = 2a and dp' = b, i.e. t' = 4a/b and F' = b^2/(4a).
    """
    a = abs(result.delta_x) / (2.0 * state.sigma)
    b = abs(result.delta_p) * state.sigma / constants.hbar
    if a == 0.0 and b == 0.0:
        return 1.0
    if not (1e-3 < (b / a if a > 0.0 else math.inf) < 1e3):
        # Extreme delta_x / delta_p ratios need grids no float can resolve;
        # check an exponent-equivalent balanced pair instead (same overlap).
        a = b = math.sqrt(0.5 * (a**2 + b**2))
    t_n, f_n = 4.0 * a / b, b**2 / (4.0 * a)
    unit_state = GaussianState(sigma=1.0)
    spec = oracle.auto_grid(unit_state, [f_n, 0.0], m=1.0, t=t_n)
    grid0 = oracle.init_gaussian(spec, unit_state)
    return abs(oracle.echo_overlap_numeric(grid0, f_n, 0.0, 1.0, t_n, 200))


def _rows_causality(config: RunConfig, use_oracle: bool):
    constants = config.constants
    t_a = config.extras["causality"].get("T_A")
    header = ["R_m", "T_A_seconds", "T_B_seconds", "eta", "satisfied"]

    def row(scenario: Scenario):
        T_A = float(t_a) if t_a is not None else bounds.sharp_min_time(
            scenario.alice, constants)
        report = causality.audit_timeline(scenario, T_A, constants)
        return [scenario.R, report.T_A_bound, report.T_B, report.eta,
                report.satisfied]

    return header, [row(scenario) for scenario in _expand_scenarios(config)]


def _radiation_profiles(config: RunConfig) -> list[radiation.TrajectoryProfile]:
    """One profile per output row: the tabulated trajectory, or one per t0."""
    section = config.extras["radiation"]
    t0_swept = config.sweep is not None and config.sweep["parameter"] == "t0"
    if "trajectory_csv" in section:
        if t0_swept or "t0" in section:
            raise ValidationError(
                "radiation.trajectory_csv takes t0 from its last sample; "
                "remove radiation.t0 and any t0 sweep")
        samples = _read_two_column_csv(section["trajectory_csv"])
        return [radiation.TrajectoryProfile(
            d=float(samples[-1, 1]), t0=float(samples[-1, 0]),
            shape=radiation.Shape.TABULATED, samples=samples)]
    if t0_swept:
        t0_values = [float(v) for v in _sweep_values(config.sweep)]
    elif "t0" in section:
        t0_values = [float(section["t0"])]
    else:
        raise ValidationError("radiation section requires t0 or trajectory_csv")
    d = config.scenario.alice.separation_d
    return [radiation.TrajectoryProfile(d=d, t0=t0) for t0 in t0_values]


def _rows_radiation(config: RunConfig, use_oracle: bool):
    constants = config.constants
    a = config.scenario.alice
    if a.kind is not Kind.CHARGE:
        raise ValidationError("radiation subcommand needs a charge scenario")
    header = ["t0_seconds", "exponent", "vacuum_overlap",
              "min_radiationless_time_seconds"]

    def row(profile: radiation.TrajectoryProfile):
        exponent = radiation.mode_integral(profile, a.magnitude, constants)
        return [profile.t0, exponent, math.exp(-exponent),
                radiation.min_radiationless_time(a.magnitude, profile.d, constants)]

    return header, [row(profile) for profile in _radiation_profiles(config)]


def _rows_vacuum(config: RunConfig, use_oracle: bool):
    constants = config.constants
    a = config.scenario.alice
    if a.kind is not Kind.CHARGE:
        raise ValidationError("vacuum subcommand needs a charge scenario")
    section = config.extras["vacuum"]
    if "window_csv" in section:
        samples = _read_two_column_csv(section["window_csv"])
        window = vacuum.WindowFunction(shape=vacuum.WindowShape.TABULATED,
                                       width_T=float(section.get("window_T", 1.0)),
                                       samples=samples)
        T_seconds = window.width_T / constants.c
    else:
        if "window_T" not in section:
            raise ValidationError("vacuum section requires window_T or window_csv")
        T_seconds = float(section["window_T"])
        window = vacuum.WindowFunction(width_T=T_seconds * constants.c)
    variance = vacuum.averaged_variance(window)
    header = ["T_seconds", "averaged_variance_natural",
              "momentum_error_kg_m_per_s", "min_measurement_time_seconds"]
    rows = [[T_seconds, variance,
             vacuum.momentum_error(a.magnitude, T_seconds, constants),
             vacuum.min_measurement_time(a.magnitude, a.separation_d, constants)]]
    return header, rows


def _rows_interference(config: RunConfig, use_oracle: bool):
    section = config.extras["interference"]
    d = config.scenario.alice.separation_d
    d_over_sigma = float(section.get("d_over_sigma", 20.0))
    packet = interference.SuperposedWavepacket(sigma=d / d_over_sigma, d=d)
    n = int(section.get("n", 10000))
    trials = int(section.get("trials", 100))
    multiples = [float(v) for v in section.get(
        "noise_multiples", [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0])]
    base = math.pi / d
    powers = interference.power_curve(
        packet, n, [m * base for m in multiples], trials, config.seed)
    header = ["noise_multiple_of_pi_over_d", "noise_dP_natural", "power"]
    rows = [[m, m * base, float(p)] for m, p in zip(multiples, powers)]
    return header, rows


def _read_two_column_csv(path: str) -> np.ndarray:
    """Two-column CSV with a header row, as used for trajectories/windows."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if len(rows) < 2:
        raise ValidationError(f"{path}: expected a header row plus data")
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValidationError(f"{path}:{i}: expected exactly two columns")
        try:
            data.append((float(row[0]), float(row[1])))
        except ValueError:
            raise ValidationError(f"{path}:{i}: non-numeric value") from None
    return np.asarray(data)


_ROW_BUILDERS = {
    "bound": _rows_bound,
    "echo": _rows_echo,
    "causality": _rows_causality,
    "radiation": _rows_radiation,
    "vacuum": _rows_vacuum,
    "interference": _rows_interference,
}


def _write_all_or_nothing(files: "list[tuple[Path, str]]") -> None:
    """Write each ``(path, text)`` pair, or none of them.

    Every text goes to a temporary file next to its target first; the
    temporaries are renamed into place, in order, only once all are
    written.  On any failure the temporaries and whatever was already
    renamed into place are removed before the exception propagates.
    """
    token = uuid.uuid4().hex[:8]
    staged = [(path, path.with_name(f".{path.name}.{token}.tmp"), text)
              for path, text in files]
    placed = []
    try:
        for _, tmp, text in staged:
            with open(tmp, "x", newline="") as handle:
                handle.write(text)
        for path, tmp, _ in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path, tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for path in placed:
            path.unlink(missing_ok=True)
        raise


def run(subcommand: str, config: RunConfig, output: Path,
        use_oracle: bool = False) -> None:
    """Execute one subcommand, writing CSV plus a metadata record.

    Both files appear together or not at all: a failure at any point
    leaves neither of them and no temporary file behind.
    """
    header, rows = _ROW_BUILDERS[subcommand](config, use_oracle)
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    scales = planck_scales(config.constants)
    meta = {
        "subcommand": subcommand,
        "seed": config.seed,
        "oracle": use_oracle,
        "version": __version__,
        "constants": {k: getattr(config.constants, k) for k in sorted(_CONSTANT_KEYS)},
        "planck_scales": {"m_P": scales.m_P, "q_P": scales.q_P, "l_P": scales.l_P},
        "scenario": {
            "kind": config.scenario.alice.kind.value,
            "magnitude": config.scenario.alice.magnitude,
            "separation_d": config.scenario.alice.separation_d,
            "bob_mass": config.scenario.bob_mass,
            "bob_charge": config.scenario.bob_charge,
            "R": config.scenario.R,
            "sigma": config.scenario.sigma,
        },
        "sweep": config.sweep,
        "extras": config.extras,
    }
    # The sidecar is renamed into place first, so a CSV never exists
    # without its metadata record.
    _write_all_or_nothing([
        (output.with_suffix(output.suffix + ".meta.json"),
         json.dumps(meta, indent=2, sort_keys=True) + "\n"),
        (output, table.getvalue()),
    ])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="supertime",
        description="Minimum discrimination times for macroscopic superpositions.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--output", help="CSV output path")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--oracle", action="store_true",
                        help="add grid-propagation cross-check columns (echo)")
    args = parser.parse_args(argv)
    try:
        config = parse_config(Path(args.config).read_text())
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        output = Path(args.output or config.output or f"{args.subcommand}.csv")
        run(args.subcommand, config, output, use_oracle=args.oracle)
    except (SupertimeError, OSError) as exc:
        print(f"supertime: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
