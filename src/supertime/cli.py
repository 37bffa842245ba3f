"""Scenario-driven command line: config parsing, sweeps, CSV output.

Usage: supertime <subcommand> --config cfg.json [--output out.csv]
                 [--seed N] [--oracle]

``--seed`` is accepted only by ``interference``, the one subcommand that
draws random numbers, and ``--oracle`` only where there is an oracle column.

Config files are strict JSON: unknown keys are rejected so a typo in a
physics parameter can never be silently ignored, and every error names the
JSON path of the bad value.  A sweep is evaluated in one pass, with the
swept parameter holding the array of all its values.  Every CSV column name
carries its unit.  A metadata record (inputs, constants, version, row count
and time per stage) is written next to each CSV so any run can be
reproduced exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, bounds, causality, echo, interference, oracle, radiation, vacuum
from .bounds import Kind, SuperpositionSpec
from .causality import Scenario
from .constants import CODATA, PhysicalConstants, planck_scales
from .echo import GaussianState
from .errors import SupertimeError, ValidationError, require_nonnegative, require_positive

_CONSTANT_KEYS = {"hbar", "c", "G", "epsilon0"}
_SWEEPABLE = {"magnitude", "separation_d", "bob_mass", "bob_charge", "R", "sigma", "t0"}
# The most sweep points: numpy's largest float64 array (its size in bytes is
# an intp), rounded down to a float64 as np.linspace counts them.
_MAX_POINTS = int(np.nextafter(float(np.iinfo(np.intp).max // 8), 0.0))
_INTERFERENCE_DEFAULTS = {"n": 10000, "trials": 100, "d_over_sigma": 20.0,
                          "noise_multiples": [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]}

# The config schema: a dict is a JSON object of the given keys, a
# one-element list a JSON list of that schema, a tuple the allowed strings,
# and float, int or str a JSON number, integer or string.
_SCHEMA = {
    "constants": {key: float for key in _CONSTANT_KEYS},
    "scenario": {
        "alice": {"kind": tuple(kind.value for kind in Kind),
                  "magnitude": float, "separation_d": float},
        "bob_mass": float, "R": float, "bob_charge": float, "sigma": float,
    },
    "sweep": {"parameter": tuple(sorted(_SWEEPABLE)), "min": float, "max": float,
              "points": int, "scale": ("linear", "log")},
    "seed": int,
    "output": str,
    "radiation": {"t0": float, "trajectory_csv": str},
    "vacuum": {"window_T": float, "window_csv": str},
    "interference": {"n": int, "trials": int, "noise_multiples": [float],
                     "d_over_sigma": float},
    "causality": {"T_A": float},
}
_REQUIRED = {"scenario", "scenario.alice", "scenario.alice.kind", "scenario.alice.magnitude",
             "scenario.alice.separation_d", "scenario.bob_mass", "scenario.R",
             "sweep.parameter", "sweep.min", "sweep.max", "sweep.points"}
_JSON_TYPES = {dict: (dict, "an object"), list: (list, "a list"), str: (str, "a string"),
               float: ((int, float), "a number"), int: (int, "an integer")}


@dataclass(frozen=True)
class RunConfig:
    constants: PhysicalConstants
    scenario: Scenario
    sweep: dict | None
    seed: int
    output: str | None
    extras: dict


def _read(value, schema, path: str):
    """``value`` checked against ``schema``, with numbers as floats.

    Errors name the JSON path of the offending value (``scenario.alice.magnitude``).
    """
    where = path or "config"
    if isinstance(schema, tuple):
        if value in schema:
            return value
        raise ValidationError(f"{where}: expected one of {list(schema)}, got {json.dumps(value)}")
    json_type = schema if isinstance(schema, type) else type(schema)
    types, name = _JSON_TYPES[json_type]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValidationError(f"{where}: expected {name}, got {json.dumps(value)}")
    if json_type is dict:
        unknown = sorted(set(value) - set(schema))
        if unknown:
            raise ValidationError(f"{where}: unknown key {json.dumps(unknown[0])}")
        paths = {key: f"{path}.{key}" if path else key for key in schema}
        missing = [paths[key] for key in schema if key not in value and paths[key] in _REQUIRED]
        if missing:
            raise ValidationError(f"{missing[0]}: missing")
        return {key: _read(item, schema[key], paths[key]) for key, item in value.items()}
    if json_type is list:
        return [_read(item, schema[0], f"{path}[{i}]") for i, item in enumerate(value)]
    return float(value) if json_type is float else value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers
        raise ValidationError(f"malformed JSON config: {exc}") from None
    raw = _read(document, _SCHEMA, "")
    # The schema's keys are the constructors' own argument names.
    constants = replace(CODATA, **raw.get("constants", {}))
    alice = raw["scenario"]["alice"]
    alice = SuperpositionSpec(**{**alice, "kind": Kind(alice["kind"])})
    scenario = Scenario(**{**raw["scenario"], "alice": alice})
    sweep = raw.get("sweep")
    if sweep is not None:
        if not 1 <= sweep["points"] <= _MAX_POINTS:
            raise ValidationError(f"sweep.points: must be 1 to {_MAX_POINTS}, the most float64 "
                                  f"values numpy can address, got {sweep['points']}")
        for end in ("min", "max"):
            if sweep.get("scale") == "log" and not sweep[end] > 0.0:
                raise ValidationError(f"sweep.{end}: a log sweep needs > 0, got {sweep[end]}")
    extras = {k: raw.get(k, {}) for k in ("radiation", "vacuum", "interference", "causality")}
    return RunConfig(constants, scenario, sweep, raw.get("seed", 0), raw.get("output"), extras)


def _swept(subcommand: str, config: RunConfig, stop: "int | None" = None) -> RunConfig:
    """``config`` with the swept parameter holding the array of sweep values.

    The values are all of them, or the first ``stop``.  Rejects a sweep of
    a parameter the subcommand does not read.
    """
    sweep = config.sweep
    if sweep is None:
        return config
    sweeps, note = SUBCOMMANDS[subcommand].sweeps, ""
    if config.scenario.alice.kind is Kind.MASS:
        sweeps = sweeps - {"bob_charge"}  # only the Coulomb force reads it
    if subcommand == "radiation" and "trajectory_csv" in config.extras["radiation"]:
        sweeps, note = sweeps - {"t0", "separation_d"}, " next to radiation.trajectory_csv"
    parameter = sweep["parameter"]
    if parameter not in sweeps:
        raise ValidationError(f"sweep.parameter: {subcommand} cannot sweep {parameter!r}"
                              f"{note} (sweepable: {', '.join(sorted(sweeps)) or 'none'})")
    lo, hi, n = sweep["min"], sweep["max"], sweep["points"]
    if sweep.get("scale") == "log":
        values = np.logspace(math.log10(lo), math.log10(hi), n)
    else:
        values = np.linspace(lo, hi, n)
    values = values[:stop]
    scenario, extras = config.scenario, config.extras
    if parameter == "t0":
        extras = {**extras, "radiation": {**extras["radiation"], "t0": values}}
    elif parameter in ("magnitude", "separation_d"):
        scenario = replace(scenario, alice=replace(scenario.alice, **{parameter: values}))
    else:
        scenario = replace(scenario, **{parameter: values})
    return replace(config, scenario=scenario, extras=extras)


def _evaluate(subcommand: str, config: RunConfig, use_oracle: bool) -> "tuple[list, dict]":
    """The subcommand's columns over all sweep points, and its report.

    A swept check reports its own first failing point, but a check that
    runs earlier may fail further along the sweep.  So on failure the
    shortest failing prefix of the sweep is found by bisection, and its
    error raised: that of the earliest failing point, from the check that
    fails first there.
    """
    columns = SUBCOMMANDS[subcommand].columns
    try:
        return columns(_swept(subcommand, config), use_oracle)
    except SupertimeError as exc:
        if config.sweep is None:
            raise
        error = exc
    passing, failing = 0, config.sweep["points"]
    while failing - passing > 1:
        middle = (passing + failing) // 2
        try:
            columns(_swept(subcommand, config, middle), use_oracle)
            passing = middle
        except SupertimeError as exc:
            error, failing = exc, middle
    raise error


# --- subcommand columns, over all sweep points at once ------------------------
# Each returns the CSV columns, one entry per column (an array over the sweep
# points, a sequence over the subcommand's own rows, or one value for every
# row), and its report: the sidecar entries that say how they were computed.


def _columns_bound(config: RunConfig, use_oracle: bool):
    constants = config.constants
    a = config.scenario.alice
    return [a.kind.value, a.magnitude, a.separation_d,
            bounds.min_time(a, constants),
            bounds.sharp_min_time(a, constants)], {}


def _columns_echo(config: RunConfig, use_oracle: bool):
    """The echo table, the dipole formula's own relative error, and with
    ``--oracle`` the grid size and step count, the rows run through the
    balanced pair because their b/a is out of the grid's reach, the b/a
    range of the nonzero rows, and the largest |numeric - analytic| overlap.

    The exact branch forces differ by F_L - F_R = 2 delta_F (1 - d^2/4R^2)^-2,
    so the dipole delta_F is short by eps = (1 - d^2/4R^2)^-2 - 1 ~ d^2/2R^2,
    about 5.02e-3 at the d < R/10 gate.
    """
    constants = config.constants
    scenario = config.scenario
    pair, sigma, T_B = causality._at_localization_limit(scenario, constants)
    times = np.linspace(0.0, 2.0 * T_B, 41)
    result = echo.echo_displacements(pair.delta_F, scenario.bob_mass, pair.F_L + pair.F_R,
                                     times, constants)
    overlap = echo.echo_overlap(GaussianState(sigma=sigma), result, constants)
    columns = [times, result.delta_x, result.delta_p, overlap]
    d, R = scenario.alice.separation_d, scenario.R
    report = {"dipole_check": {"rel_error": math.expm1(-2.0 * math.log1p(-d * d / (4.0 * R * R)))}}
    if not use_oracle:
        return columns, report
    # One grid run per row, at its a = |dx|/(2 sigma) and b = |dp| sigma/hbar.
    a = (np.abs(result.delta_x) / (2.0 * sigma)).tolist()
    b = (np.abs(result.delta_p) * sigma / constants.hbar).tolist()
    numeric = [oracle.matched_echo_overlap(x, p) for x, p in zip(a, b)]
    nonzero = [(x, p) for x, p in zip(a, b) if x > 0.0 or p > 0.0]
    ratios = [p / x if x > 0.0 else math.inf for x, p in nonzero]
    report["oracle_check"] = {
        "grid_points": oracle.MATCHED_GRID_POINTS,
        "steps": oracle.MATCHED_STEPS,
        "fallback_rows": sum(not oracle.in_matched_reach(x, p) for x, p in nonzero),
        "min_b_over_a": min(ratios, default=None),
        "max_b_over_a": max(ratios, default=None),
        "max_abs_err": float(np.max(np.abs(np.subtract(numeric, overlap)))),
    }
    return [*columns, numeric], report


def _columns_causality(config: RunConfig, use_oracle: bool):
    constants = config.constants
    scenario = config.scenario
    T_A = config.extras["causality"].get("T_A")
    if T_A is None:
        T_A = bounds.sharp_min_time(scenario.alice, constants)
    report = causality.audit_timeline(scenario, T_A, constants)
    return [scenario.R, report.T_A_bound, report.T_B, report.eta, report.satisfied], {}


def _columns_radiation(config: RunConfig, use_oracle: bool):
    constants = config.constants
    a = config.scenario.alice
    if a.kind is not Kind.CHARGE:
        raise ValidationError("radiation subcommand needs a charge scenario")
    section = config.extras["radiation"]
    if "trajectory_csv" in section:
        if "t0" in section:
            raise ValidationError(
                "radiation.trajectory_csv takes t0 from its last sample; "
                "remove radiation.t0")
        samples, report = _read_two_column_csv(section["trajectory_csv"])
        profile = radiation.TrajectoryProfile(
            d=float(samples[-1, 1]), t0=float(samples[-1, 0]),
            shape=radiation.Shape.TABULATED, samples=samples)
    elif "t0" in section:
        profile, report = radiation.TrajectoryProfile(d=a.separation_d, t0=section["t0"]), {}
    else:
        raise ValidationError("radiation section requires t0 or trajectory_csv")
    exponent = radiation.mode_integral(profile, a.magnitude, constants)
    return [profile.t0, exponent, np.exp(-exponent),
            radiation.min_radiationless_time(a.magnitude, profile.d, constants)], report


def _columns_vacuum(config: RunConfig, use_oracle: bool):
    constants = config.constants
    a = config.scenario.alice
    if a.kind is not Kind.CHARGE:
        raise ValidationError("vacuum subcommand needs a charge scenario")
    section = config.extras["vacuum"]
    if "window_csv" in section:
        if "window_T" in section:
            raise ValidationError(
                "vacuum.window_csv takes its width from its variance; remove vacuum.window_T")
        samples, report = _read_two_column_csv(section["window_csv"])
        variance = vacuum.averaged_variance(vacuum.WindowFunction(
            shape=vacuum.WindowShape.TABULATED, samples=samples))
        # The width of the Gaussian window of the same variance 1/(4 pi^2 T^2).
        T_seconds = 1.0 / (2.0 * math.pi * math.sqrt(variance)) / constants.c
    elif "window_T" in section:
        T_seconds, report = section["window_T"], {}
        variance = vacuum.averaged_variance(vacuum.WindowFunction(width_T=T_seconds * constants.c))
    else:
        raise ValidationError("vacuum section requires window_T or window_csv")
    return [T_seconds, variance,
            vacuum.momentum_error(a.magnitude, T_seconds, constants),
            vacuum.min_measurement_time(a.magnitude, a.separation_d, constants)], report


def _columns_interference(config: RunConfig, use_oracle: bool):
    """The power curve, the trials, the worker threads it ran on, each
    power's Monte-Carlo standard error, and the level decisions and
    acceptances the float32 screens left to float64, with their bases."""
    section = {**_INTERFERENCE_DEFAULTS, **config.extras["interference"]}
    if section["n"] > _MAX_POINTS:
        raise ValidationError(f"interference.n: must be <= {_MAX_POINTS}, the most float64 "
                              f"values numpy can address, got {section['n']}")
    d = config.scenario.alice.separation_d
    d_over_sigma = section["d_over_sigma"]
    require_positive(**{"interference.d_over_sigma": d_over_sigma})
    packet = interference.SuperposedWavepacket(sigma=d / d_over_sigma, d=d)
    multiples = section["noise_multiples"]
    if not multiples:
        raise ValidationError("interference.noise_multiples: must not be empty")
    levels = [m * (math.pi / d) for m in multiples]
    # Each noise std, named by the JSON path of its multiple.
    require_nonnegative(**{f"interference.noise_multiples[{i}] pi/d": level
                           for i, level in enumerate(levels)})
    trials = section["trials"]
    powers, rechecks, workers = interference._power_curve_with_rechecks(
        packet, section["n"], levels, trials, config.seed)
    powers = [float(p) for p in powers]
    return [multiples, levels, powers], {"power_check": {
        "trials": trials,
        "workers": workers,
        "mc_stderr": [math.sqrt(p * (1.0 - p) / trials) for p in powers],
        "exact_rechecks": rechecks,
    }}


def _read_two_column_csv(path: str) -> "tuple[np.ndarray, dict]":
    """Two-column CSV with a header row, as used for trajectories/windows,
    and the report that records it by content: its ``input_csv`` path,
    SHA-256, data rows and first and last t.  The file is read once."""
    # Imported here: hashlib loads OpenSSL, about 4 ms and 3 MB that runs
    # reading no file need not pay.
    import hashlib

    try:
        with open(path, "rb") as handle:
            content = handle.read()
        rows = list(csv.reader(io.StringIO(content.decode(), newline="")))
    except (ValueError, csv.Error) as exc:  # undecodable text, NUL in the path
        raise ValidationError(f"{path!r}: {exc}") from None
    if len(rows) < 2:
        raise ValidationError(f"{path}: expected a header row plus data")
    samples = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValidationError(f"{path}:{i}: expected exactly two columns")
        try:
            samples.append((float(row[0]), float(row[1])))
        except ValueError:
            raise ValidationError(f"{path}:{i}: non-numeric value") from None
    return np.asarray(samples), {"input_csv": {
        "path": path, "sha256": hashlib.sha256(content).hexdigest(), "rows": len(samples),
        "t_first": samples[0][0], "t_last": samples[-1][0]}}


class _Subcommand(NamedTuple):
    """CSV header; columns over all sweep points, with the sidecar entries that
    report how they were computed; sweepable parameters; --oracle column; and
    whether the columns draw random numbers (and so read the seed)."""

    header: tuple[str, ...]
    columns: Callable[[RunConfig, bool], "tuple[list, dict]"]
    sweeps: frozenset = frozenset()
    oracle_column: str | None = None
    seeded: bool = False


SUBCOMMANDS = {
    "bound": _Subcommand(("kind", "magnitude_kg_or_C", "separation_d_m", "min_time_seconds",
                          "sharp_min_time_seconds"),
                         _columns_bound, frozenset({"magnitude", "separation_d"})),
    "echo": _Subcommand(("t_seconds", "delta_x_m", "delta_p_kg_m_per_s", "overlap"),
                        _columns_echo, oracle_column="overlap_numeric"),
    "causality": _Subcommand(("R_m", "T_A_seconds", "T_B_seconds", "eta", "satisfied"),
                             _columns_causality, frozenset({"magnitude", "separation_d",
                                                         "bob_mass", "bob_charge", "R", "sigma"})),
    "radiation": _Subcommand(("t0_seconds", "exponent", "vacuum_overlap",
                              "min_radiationless_time_seconds"),
                             _columns_radiation, frozenset({"t0", "magnitude", "separation_d"})),
    "vacuum": _Subcommand(("T_seconds", "averaged_variance_natural", "momentum_error_kg_m_per_s",
                           "min_measurement_time_seconds"), _columns_vacuum),
    "interference": _Subcommand(("noise_multiple_of_pi_over_d", "noise_dP_natural", "power"),
                                _columns_interference, seeded=True),
}


def _write_all_or_nothing(files: "list[tuple[Path, bytes | memoryview]]") -> None:
    """Write each ``(path, data)`` pair, or none of them.

    Each ``data``, any bytes-like object, goes to a temporary file next to
    its ``path`` first; the temporaries are renamed into place, in order,
    only once all are written.  On any failure the temporaries and
    whatever was already renamed into place are removed before the
    exception propagates.
    """
    token = uuid.uuid4().hex[:8]
    staged = [(path, path.with_name(f".{path.name}.{token}.tmp"), data)
              for path, data in files]
    placed = []
    try:
        for _, tmp, data in staged:
            with open(tmp, "xb") as handle:
                handle.write(data)
        for path, tmp, _ in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path, tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for path in placed:
            path.unlink(missing_ok=True)
        raise


# The correctly rounded 10**j for j = -308 .. 308, at index j + 308.
_POW10 = np.array([float(f"1e{j}") for j in range(-308, 309)])
# "00" .. "99", each as the little-endian uint16 of its two ASCII bytes.
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2")
# "0000" .. "9999", each as the little-endian uint32 of its four ASCII bytes.
_DIGIT_QUADS = np.column_stack([np.repeat(_DIGIT_PAIRS, 100),
                                np.tile(_DIGIT_PAIRS, 100)]).view("<u4").ravel()
# The exponent j = -308 .. 308 of a field, at index j + 308, as the bytes
# "e-hjj": its sign, its hundreds digit (NUL below 100) and its last two.
_EXPONENT_FIELDS = np.frombuffer(b"".join(
    b"e%c%c%02d" % (b"+-"[j < 0], abs(j) // 100 + ord("0") if abs(j) >= 100 else 0, abs(j) % 100)
    for j in range(-308, 309)), np.uint8).reshape(-1, 5)
# The same as the little-endian uint32 of "e-jj", for a block with no
# hundreds byte, and of "-hjj", for a block that writes the "e" before it.
_EXPONENT_QUADS = np.ascontiguousarray(_EXPONENT_FIELDS[:, [0, 1, 3, 4]]).view("<u4")[:, 0]
_EXPONENT_HUNDREDS_QUADS = np.ascontiguousarray(_EXPONENT_FIELDS[:, 1:]).view("<u4")[:, 0]
# Every call shares these tables, so none of them may be written.
_POW10.flags.writeable = _DIGIT_QUADS.flags.writeable = False
_EXPONENT_QUADS.flags.writeable = _EXPONENT_HUNDREDS_QUADS.flags.writeable = False
# |x| 10**(12 - e) computed in float64 is within 2 * 2**-53 * 1e13 ~ 0.0022 of
# its exact value, so one further than this from a half-integer rounds as the
# exact value does.
_TIE_GAP = 0.003


def _put_quads(block: np.ndarray, offset: int, table: np.ndarray, index: np.ndarray) -> None:
    """Write ``table[index]`` as the four bytes at ``offset`` of each row of ``block``."""
    np.take(table, index, out=block[:, offset:offset + 4].view("<u4")[:, 0], mode="clip")


def _float_fields(values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``"%.12e" % v`` of each of ``values`` as NUL-padded rows of a uint8
    block, and the mask of the fields that were written by ``%`` itself
    (the exact route).

    A field of the array route is the leading digit, a point, three 4-digit
    groups (each one uint32 gathered from ``_DIGIT_QUADS``) and the
    exponent: "d.dddddddddddde+dd", 18 bytes.  The block puts a sign byte
    in front only if some array-route value is negative, and a hundreds
    byte after the exponent's sign only if some array-route exponent has
    three digits (NUL on the other rows).  An exact-route field never adds
    either: a longer one (``-0.0``, 19 bytes, or a three-digit exponent)
    widens the block, and a shorter one (``nan``, ``-inf``; ``%`` prints
    -nan as ``nan``) is NUL-padded to its width.
    """
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= 1e-290) & (a <= 1e300)  # also False for 0, inf and nan
    a[~fast] = 1.0  # which keeps 12 - e inside the table of powers
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[12 - e + 308]
    # A log10 one off puts y out of range; a near-tie could round either way.
    fast &= (y >= 1e12) & (y < 1e13 - 0.5) & (np.abs(y - np.floor(y) - 0.5) > _TIE_GAP)
    digits = np.rint(y).astype(np.int64)  # 13 of them
    # The leading digit and three groups of four: one int64 division, then int32.
    high = digits // 10**8
    low = (digits - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    lead = high // 10**4
    middle = low // 10**4
    negative = np.signbit(x)
    sign = int((negative & fast).any())
    hundreds = int(((np.abs(e) >= 100) & fast).any())
    layout = 18 + sign + hundreds
    exact = ~fast
    exact_rows = np.flatnonzero(exact)
    fields = ["%.12e" % v for v in x[exact_rows].tolist()]
    width = max([layout, *map(len, fields)])
    block = np.empty((x.size, width), np.uint8)
    if sign:
        block[:, 0] = negative.view(np.uint8) * np.uint8(ord("-"))
    block[:, sign] = lead + ord("0")
    block[:, sign + 1] = ord(".")
    _put_quads(block, sign + 2, _DIGIT_QUADS, high - lead * 10**4)
    _put_quads(block, sign + 6, _DIGIT_QUADS, middle)
    _put_quads(block, sign + 10, _DIGIT_QUADS, low - middle * 10**4)
    if hundreds:
        block[:, sign + 14] = ord("e")
        _put_quads(block, sign + 15, _EXPONENT_HUNDREDS_QUADS, e + 308)
    else:
        _put_quads(block, sign + 14, _EXPONENT_QUADS, e + 308)
    block[:, layout:] = 0
    if fields:
        block[exact_rows] = np.array(fields, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return block, exact


def _text_fields(values: np.ndarray) -> np.ndarray:
    """Each of ``values``, a boolean as ``true`` or ``false`` and anything
    else as its ``str`` in UTF-8, as NUL-padded rows of a uint8 block as
    wide as its longest field."""
    if values.dtype == bool:  # five bytes wide only if some value is false
        values = np.where(values, b"true", b"true" if values.all() else b"false")
    else:
        values = np.char.encode(values.astype(str), "utf-8")
    return values.view(np.uint8).reshape(values.size, values.dtype.itemsize)


def _csv_table(header: "list[str]", columns: list) -> "tuple[bytes | memoryview, int, int, int]":
    """CSV bytes of ``header`` and ``columns`` as a bytes-like object, its
    number of rows, the number of its float fields that took the exact
    route, and the number of NUL pad bytes dropped from it.

    Single values repeat on every row.  Floats are written as ``%.12e``,
    booleans as ``true``/``false``, anything else as its ``str``; no field
    needs quoting or holds a NUL, and lines end in CRLF as ``csv.writer``
    ends them.

    Each column becomes a block of NUL-padded byte rows, as wide as its
    longest field.  The blocks, broadcast where a value repeats, and the
    separators are written into their slices of one preallocated
    (rows, row width) table.  One count of its zero bytes finds the pads.
    A table whose columns each share one sign and one exponent width has
    none, and is returned as it was built, with no copy; any other is
    copied once with its pads dropped.

    A float column is formatted by array operations with the bytes of
    Python's ``%``: e = floor(log10|x|) and y = |x| 10**(12 - e), from a
    table of correctly rounded powers of ten, so y is within 0.0022 of its
    exact value, and round(y) gives the 13 digits, written as the leading
    digit and three 4-digit groups from a table of ASCII quads.  The exact
    route, ``"%.12e" % v`` itself, takes every field whose y lies within
    0.003 of a half-integer (a near-tie that the error could round either
    way) or outside [1e12, 1e13 - 1/2) (a log10 one off, or a carry into the
    next power of ten), and every x that is zero, not finite or of magnitude
    outside [1e-290, 1e300].
    """
    n_rows = max(np.size(column) for column in columns)
    blocks, exact_fields = [], 0
    for column in columns:
        column = np.ravel(column)
        if column.dtype.kind == "f":
            block, exact = _float_fields(column)
            exact_fields += int(np.count_nonzero(np.broadcast_to(exact, n_rows)))
        else:
            block = _text_fields(column)
        blocks.append(block)
    # One row of the table: the single values, each block's comma and, in
    # the last comma's place, CRLF.  Every row starts as a copy of it, and
    # the blocks of whole columns are written over their slices.
    row = np.zeros(sum(block.shape[1] + 1 for block in blocks) + 1, np.uint8)
    whole, start = [], 0
    for block in blocks:
        end = start + block.shape[1]
        if block.shape[0] == 1:
            row[start:end] = block[0]
        else:
            whole.append((start, end, block))
        row[end] = ord(",")
        start = end + 1
    row[-2:] = np.frombuffer(b"\r\n", np.uint8)
    head = np.frombuffer((",".join(header) + "\r\n").encode(), np.uint8)
    text = np.empty(head.size + n_rows * row.size, np.uint8)
    text[:head.size] = head
    table = text[head.size:].reshape(n_rows, row.size)
    # Each row of a slice as one void field, so a row is copied at a time.
    table.view(f"V{row.size}")[:, 0] = row.view(f"V{row.size}")[0]
    for start, end, block in whole:
        table[:, start:end].view(f"V{end - start}")[:, 0] = block.view(f"V{end - start}")[:, 0]
    padding = text.size - int(np.count_nonzero(text))
    data = text.tobytes().replace(b"\0", b"") if padding else memoryview(text)
    return data, n_rows, exact_fields, padding


def run(subcommand: str, config: RunConfig, output: Path,
        use_oracle: bool = False, parse_s: "float | None" = None) -> None:
    """Execute one subcommand, writing CSV plus a metadata record.

    Both files appear together or not at all: a failure at any point
    leaves neither of them and no temporary file behind.  ``parse_s``, the
    time taken to read the config, is recorded with the other stage times.
    """
    entry = SUBCOMMANDS[subcommand]
    if use_oracle and entry.oracle_column is None:
        raise ValidationError(f"--oracle: {subcommand} has no cross-check column")
    header = [*entry.header, entry.oracle_column] if use_oracle else list(entry.header)
    start = time.perf_counter()
    columns, report = _evaluate(subcommand, config, use_oracle)
    evaluated = time.perf_counter()
    table, n_rows, exact_fields, padding = _csv_table(header, columns)
    formatted = time.perf_counter()
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
        "rows": n_rows,
        "format_exact_fields": exact_fields,
        "format_padding_bytes": padding,
        "timings_s": {"parse": parse_s, "evaluate": evaluated - start,
                      "format": formatted - evaluated},
    }
    meta.update(report)
    # The sidecar is renamed into place first, so a CSV never exists
    # without its metadata record.
    _write_all_or_nothing([
        (output.with_suffix(output.suffix + ".meta.json"),
         (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()),
        (output, table),
    ])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="supertime",
        description="Minimum discrimination times for macroscopic superpositions.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--output", help="CSV output path")
    parser.add_argument("--seed", type=int, help="override config seed (interference)")
    parser.add_argument("--oracle", action="store_true",
                        help="add grid-propagation cross-check columns (echo)")
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and not SUBCOMMANDS[args.subcommand].seeded:
            raise ValidationError(f"--seed: {args.subcommand} draws no random numbers")
        start = time.perf_counter()
        config = parse_config(Path(args.config).read_text())
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        parse_s = time.perf_counter() - start
        output = Path(args.output or config.output or f"{args.subcommand}.csv")
        run(args.subcommand, config, output, use_oracle=args.oracle, parse_s=parse_s)
    # UnicodeDecodeError: a non-UTF-8 config; OverflowError: an integer beyond
    # any float; MemoryError: an array larger than the memory there is.
    except (SupertimeError, OSError, UnicodeDecodeError, OverflowError, MemoryError) as exc:
        print(f"supertime: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
