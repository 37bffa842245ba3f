"""Command-line front end: config validation, CSV output, determinism."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supertime
from supertime import causality, cli, interference, oracle, radiation
from supertime.cli import SUBCOMMANDS, main, parse_config
from supertime.errors import ValidationError


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MASS_CONFIG = {
    "scenario": {
        "alice": {"kind": "mass", "magnitude": 1.0e-6, "separation_d": 1.0e-3},
        "bob_mass": 1.0e-9,
        "R": 0.5,
    },
}

CHARGE_CONFIG = {
    "scenario": {
        "alice": {"kind": "charge", "magnitude": 1.602176634e-19,
                  "separation_d": 1.0e-6},
        "bob_mass": 1.0e-12,
        "bob_charge": 1.602176634e-19,
        "R": 0.5,
    },
    "radiation": {"t0": 1.0e-12},
    "vacuum": {"window_T": 1.0e-15},
    "interference": {"n": 2000, "trials": 20,
                     "noise_multiples": [0.1, 1.0, 10.0]},
}


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError, match="typo_key"):
        parse_config(json.dumps({**MASS_CONFIG, "typo_key": 1}))


def test_unknown_nested_keys_rejected():
    bad = json.loads(json.dumps(MASS_CONFIG))
    bad["scenario"]["alice"]["separation"] = 1.0
    with pytest.raises(ValidationError, match="separation"):
        parse_config(json.dumps(bad))
    bad2 = json.loads(json.dumps(MASS_CONFIG))
    bad2["scenario"]["radius"] = 1.0
    with pytest.raises(ValidationError, match="radius"):
        parse_config(json.dumps(bad2))


def test_malformed_json_and_missing_scenario():
    with pytest.raises(ValidationError, match="JSON"):
        parse_config("{not json")
    with pytest.raises(ValidationError, match="scenario"):
        parse_config("{}")
    with pytest.raises(ValidationError, match="kind"):
        parse_config(json.dumps({"scenario": {
            "alice": {"kind": "flavor", "magnitude": 1.0, "separation_d": 1.0},
            "bob_mass": 1.0, "R": 1.0}}))


def test_sweep_validation():
    bad = {**MASS_CONFIG, "sweep": {"parameter": "nonsense", "min": 1,
                                    "max": 2, "points": 3}}
    with pytest.raises(ValidationError, match="parameter"):
        parse_config(json.dumps(bad))
    bad_scale = {**MASS_CONFIG, "sweep": {"parameter": "R", "min": 1,
                                          "max": 2, "points": 3,
                                          "scale": "cubic"}}
    with pytest.raises(ValidationError, match="scale"):
        parse_config(json.dumps(bad_scale))


def test_constants_override():
    cfg = parse_config(json.dumps(
        {**MASS_CONFIG, "constants": {"G": 1.0e-10}}))
    assert cfg.constants.G == 1.0e-10


def test_bound_subcommand_end_to_end(tmp_path):
    config = _write(tmp_path, "cfg.json", MASS_CONFIG)
    out = tmp_path / "bound.csv"
    assert main(["bound", "--config", str(config), "--output", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["kind", "magnitude_kg_or_C", "separation_d_m",
                      "min_time_seconds", "sharp_min_time_seconds"]
    assert len(rows) == 1
    assert float(rows[0][4]) == pytest.approx(
        (2.0 / 27.0) * float(rows[0][3]), rel=1e-10)
    meta = json.loads((tmp_path / "bound.csv.meta.json").read_text())
    assert meta["scenario"]["magnitude"] == 1.0e-6
    assert meta["constants"]["G"] == pytest.approx(6.6743e-11)
    assert meta["subcommand"] == "bound"
    assert meta["version"] == supertime.__version__
    assert meta["rows"] == 1
    assert sorted(meta["timings_s"]) == ["evaluate", "format", "parse"]
    assert all(isinstance(s, float) and s >= 0.0 for s in meta["timings_s"].values())
    # Of the four float fields of its one row.
    assert isinstance(meta["format_exact_fields"], int)
    assert 0 <= meta["format_exact_fields"] <= 4
    # Every field of its one row is positive with a two-digit exponent.
    assert meta["format_padding_bytes"] == 0


# The sidecar keys of every run; each subcommand adds only its own report.
_COMMON_META_KEYS = {"subcommand", "seed", "oracle", "version", "constants", "planck_scales",
                     "scenario", "sweep", "extras", "rows", "format_exact_fields",
                     "format_padding_bytes", "timings_s"}
_REPORT_KEYS = {"bound": set(), "causality": set(), "radiation": set(), "vacuum": set(),
                "echo": {"dipole_check"}, "echo --oracle": {"dipole_check", "oracle_check"},
                "interference": {"power_check"}}


@pytest.mark.parametrize("payload", [MASS_CONFIG, CHARGE_CONFIG], ids=["mass", "charge"])
def test_each_subcommand_adds_only_its_report_to_the_sidecar(tmp_path, payload):
    config = _write(tmp_path, "cfg.json", payload)
    for run, keys in _REPORT_KEYS.items():
        sub, *extra = run.split()
        if payload is MASS_CONFIG and sub in ("radiation", "vacuum"):
            continue  # they need a charge scenario
        out = tmp_path / f"{sub}{''.join(extra)}.csv"
        assert main([sub, "--config", str(config), "--output", str(out), *extra]) == 0
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert set(meta) == _COMMON_META_KEYS | keys, run


def test_headers_carry_units(tmp_path):
    config = _write(tmp_path, "cfg.json", CHARGE_CONFIG)
    for sub, expect in [("radiation", "t0_seconds"),
                        ("vacuum", "T_seconds"),
                        ("causality", "T_B_seconds")]:
        out = tmp_path / f"{sub}.csv"
        assert main([sub, "--config", str(config), "--output", str(out)]) == 0
        header, _ = _read_csv(out)
        assert expect in header


def test_determinism_byte_identical(tmp_path):
    config = _write(tmp_path, "cfg.json", CHARGE_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["interference", "--config", str(config),
                     "--output", str(out), "--seed", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_interference_sidecar_reports_the_power_check(tmp_path, monkeypatch):
    # The worker count is the run's own: the curve asks for it once.
    asked = []
    worker_count = interference._worker_count
    monkeypatch.setattr(interference, "_worker_count",
                        lambda trials: asked.append(trials) or worker_count(trials))
    config = _write(tmp_path, "cfg.json", CHARGE_CONFIG)
    out = tmp_path / "power.csv"
    assert main(["interference", "--config", str(config), "--output", str(out),
                 "--seed", "3"]) == 0
    _, rows = _read_csv(out)
    check = json.loads((tmp_path / "power.csv.meta.json").read_text())["power_check"]
    assert asked == [20]
    assert check["trials"] == 20
    assert check["workers"] == min(20, len(os.sched_getaffinity(0)))
    powers = [float(row[2]) for row in rows]
    assert check["mc_stderr"] == pytest.approx(
        [math.sqrt(p * (1.0 - p) / 20) for p in powers], rel=1e-11)
    # Level decisions and acceptances the float32 screens left to float64,
    # each with its base: trials x levels, and the candidates drawn.
    rechecks = check["exact_rechecks"]
    assert set(rechecks) == {"levels", "level_decisions", "acceptances", "candidates"}
    assert all(type(count) is int and count >= 0 for count in rechecks.values())
    assert rechecks["level_decisions"] == 20 * 3
    assert rechecks["levels"] <= rechecks["level_decisions"]
    assert 20 * 2 * 2000 <= rechecks["candidates"]
    assert rechecks["acceptances"] <= rechecks["candidates"]
    assert any(0.0 < p < 1.0 for p in powers)


def test_seed_changes_interference_output(tmp_path):
    config = _write(tmp_path, "cfg.json", CHARGE_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["interference", "--config", str(config),
                 "--output", str(out1), "--seed", "1"]) == 0
    assert main(["interference", "--config", str(config),
                 "--output", str(out2), "--seed", "2"]) == 0
    assert out1.read_bytes() != out2.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["seed"] == 1


def test_linear_sweep_rows_are_ordered(tmp_path):
    payload = {**MASS_CONFIG,
               "sweep": {"parameter": "R", "min": 0.5, "max": 2.5,
                         "points": 5}}
    config = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "caus.csv"
    assert main(["causality", "--config", str(config),
                 "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    radii = [float(r[0]) for r in rows]
    assert radii == pytest.approx(list(np.linspace(0.5, 2.5, 5)))


def test_log_sweep_of_t0(tmp_path):
    payload = json.loads(json.dumps(CHARGE_CONFIG))
    payload["sweep"] = {"parameter": "t0", "min": 1e-13, "max": 1e-11,
                        "points": 3, "scale": "log"}
    config = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "rad.csv"
    assert main(["radiation", "--config", str(config),
                 "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    t0s = [float(r[0]) for r in rows]
    assert t0s == pytest.approx([1e-13, 1e-12, 1e-11], rel=1e-9)
    # Slower motion radiates less: exponent decreases along the sweep.
    exponents = [float(r[1]) for r in rows]
    assert exponents[0] > exponents[1] > exponents[2]


def test_exit_code_2_on_errors(tmp_path):
    bad = _write(tmp_path, "bad.json", {**MASS_CONFIG, "oops": 1})
    assert main(["bound", "--config", str(bad)]) == 2
    # Radiation demands a charge scenario.
    mass_cfg = _write(tmp_path, "mass.json",
                      {**MASS_CONFIG, "radiation": {"t0": 1e-12}})
    assert main(["radiation", "--config", str(mass_cfg),
                 "--output", str(tmp_path / "x.csv")]) == 2
    assert main(["bound", "--config", str(tmp_path / "missing.json")]) == 2


def test_failed_write_leaves_no_output(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", MASS_CONFIG)
    out = tmp_path / "bound.csv"
    # A directory where the sidecar belongs makes its write fail (OSError)
    # after the rows are built; the CSV must not be left behind alone.
    (tmp_path / "bound.csv.meta.json").mkdir()
    assert main(["bound", "--config", str(config), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("supertime: error:")
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bound.csv.meta.json", "cfg.json"]


def test_echo_table_and_oracle_column(tmp_path):
    config = _write(tmp_path, "cfg.json", MASS_CONFIG)
    out = tmp_path / "echo.csv"
    assert main(["echo", "--config", str(config), "--output", str(out),
                 "--oracle"]) == 0
    header, rows = _read_csv(out)
    assert header == ["t_seconds", "delta_x_m", "delta_p_kg_m_per_s",
                      "overlap", "overlap_numeric"]
    for row in rows:
        assert float(row[4]) == pytest.approx(float(row[3]), abs=1e-12)
    overlaps = [float(r[3]) for r in rows]
    assert overlaps[0] == 1.0
    assert all(b <= a for a, b in zip(overlaps, overlaps[1:]))
    # Captured when the matched run went from 200 Strang steps to one, which
    # moved the numeric column onto the analytic overlaps.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b7e561a308c3f1ebf9b3caa5155b99972e37a9a2a9e5b45b5465a6d86df28833")
    check = json.loads(out.with_suffix(".csv.meta.json").read_text())["oracle_check"]
    assert check["grid_points"] == 4096 and check["steps"] == 1
    # The CSV holds 13 significant digits of overlaps <= 1.
    assert check["max_abs_err"] == pytest.approx(
        max(abs(float(r[4]) - float(r[3])) for r in rows), abs=1e-12)
    assert check["max_abs_err"] <= 1e-12
    assert main(["echo", "--config", str(config), "--output", str(out)]) == 0
    assert "oracle_check" not in json.loads(out.with_suffix(".csv.meta.json").read_text())


def _dipole_check(tmp_path, payload, *flags):
    config = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "echo.csv"
    assert main(["echo", "--config", str(config), "--output", str(out), *flags]) == 0
    return json.loads(out.with_suffix(".csv.meta.json").read_text())["dipole_check"]


def test_echo_sidecar_reports_the_dipole_formulas_error_against_the_branch_forces(tmp_path):
    config = parse_config(json.dumps(MASS_CONFIG))
    pair = causality.force_pair(config.scenario, config.constants)
    # The exact branch forces differ by twice the dipole delta_F, times 1 + eps.
    from_forces = (pair.F_L - pair.F_R) / (2.0 * pair.delta_F) - 1.0
    for flags in ([], ["--oracle"]):
        rel_error = _dipole_check(tmp_path, MASS_CONFIG, *flags)["rel_error"]
        assert rel_error == pytest.approx(from_forces, rel=1e-6)
        assert rel_error == pytest.approx(2e-6, rel=1e-5)  # ~ d^2 / 2R^2


def test_echo_sidecar_dipole_error_at_the_d_below_r_over_10_gate(tmp_path):
    payload = _with_parameter(MASS_CONFIG, "separation_d", math.nextafter(0.05, 0.0))
    # eps = (1 - 1/400)^-2 - 1 = 799/159201 at d = R/10.
    assert _dipole_check(tmp_path, payload)["rel_error"] == pytest.approx(799 / 159201, rel=1e-12)
    assert 799 / 159201 == pytest.approx(5.02e-3, rel=1e-3)


def test_echo_evaluates_the_force_pair_and_sigma_once(tmp_path, monkeypatch):
    calls = {"force_pair": 0, "effective_sigma": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(causality, "force_pair", counted("force_pair", causality.force_pair))
    monkeypatch.setattr(causality.Scenario, "effective_sigma",
                        counted("effective_sigma", causality.Scenario.effective_sigma))
    config = _write(tmp_path, "cfg.json", MASS_CONFIG)
    for flags in ([], ["--oracle"]):
        calls.update(force_pair=0, effective_sigma=0)
        assert main(["echo", "--config", str(config), "--output",
                     str(tmp_path / "echo.csv"), *flags]) == 0
        assert calls == {"force_pair": 1, "effective_sigma": 1}, flags


def test_oracle_check_reports_the_fallback_rows(tmp_path):
    # On the mass config every nonzero row has b/a ~ 1e-35, far below the
    # grid's reach, so each is checked through the balanced pair.
    config = _write(tmp_path, "cfg.json", MASS_CONFIG)
    out = tmp_path / "echo.csv"
    assert main(["echo", "--config", str(config), "--output", str(out), "--oracle"]) == 0
    check = json.loads(out.with_suffix(".csv.meta.json").read_text())["oracle_check"]
    _, rows = _read_csv(out)
    nonzero = [row for row in rows if float(row[1]) != 0.0 or float(row[2]) != 0.0]
    assert len(rows) == 41 and len(nonzero) == 40
    assert check["fallback_rows"] == 40
    assert 0.0 < check["min_b_over_a"] <= check["max_b_over_a"] < oracle._MIN_RATIO


@pytest.mark.parametrize("payload", [MASS_CONFIG, CHARGE_CONFIG], ids=["mass", "charge"])
def test_echo_times_span_twice_the_audited_entanglement_time(payload):
    # The echo table and the causality audit take T_B from one function.
    config = parse_config(json.dumps(payload))
    times = SUBCOMMANDS["echo"].columns(config, False)[0][0]
    T_B = causality.audit_timeline(config.scenario, 0.0, config.constants).T_B
    assert len(times) == 41 and times[0] == 0.0 and times[-1] == 2.0 * T_B


@pytest.mark.parametrize("sigma", [4.5e-13, 2e-13])
def test_echo_oracle_with_a_wide_test_particle(tmp_path, sigma):
    # A wide packet gives delta_p / delta_x ratios the grid cannot resolve
    # as given; those rows must fall back to the balanced pair, not fail.
    config = _write(tmp_path, "cfg.json", _with_parameter(MASS_CONFIG, "sigma", sigma))
    out = tmp_path / "echo.csv"
    assert main(["echo", "--config", str(config), "--output", str(out), "--oracle"]) == 0
    _, rows = _read_csv(out)
    for row in rows:
        assert float(row[4]) == pytest.approx(float(row[3]), abs=1e-12)


def _write_sin2_trajectory(path, t0, d, n=200):
    t = np.linspace(0.0, t0, n)
    x = d * np.sin(math.pi * t / (2.0 * t0)) ** 2
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_seconds", "x_meters"])
        writer.writerows(zip(t, x))
    return path


def test_trajectory_csv_ingestion(tmp_path):
    t0, d = 1e-12, 1e-9
    traj = _write_sin2_trajectory(tmp_path / "traj.csv", t0, d)
    payload = json.loads(json.dumps(CHARGE_CONFIG))
    payload["scenario"]["alice"]["separation_d"] = d
    payload["radiation"] = {"trajectory_csv": str(traj)}
    config = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "rad.csv"
    assert main(["radiation", "--config", str(config),
                 "--output", str(out)]) == 0
    sin2_payload = json.loads(json.dumps(payload))
    sin2_payload["radiation"] = {"t0": t0}
    sin2_config = _write(tmp_path, "cfg2.json", sin2_payload)
    out2 = tmp_path / "rad2.csv"
    assert main(["radiation", "--config", str(sin2_config),
                 "--output", str(out2)]) == 0
    _, rows = _read_csv(out)
    _, rows2 = _read_csv(out2)
    assert float(rows[0][1]) == pytest.approx(float(rows2[0][1]), rel=1e-6)


def test_trajectory_csv_rejects_t0(tmp_path, capsys):
    # The tabulated trajectory fixes t0 (its last sample time), so a t0 in
    # the radiation section or a t0 sweep beside it would be ignored.
    traj = _write_sin2_trajectory(tmp_path / "traj.csv", 1e-12, 1e-9)
    sweep = {"parameter": "t0", "min": 1e-13, "max": 1e-12, "points": 3}
    for extra in ({"radiation": {"trajectory_csv": str(traj), "t0": 1e-12}},
                  {"radiation": {"trajectory_csv": str(traj)}, "sweep": sweep}):
        config = _write(tmp_path, "cfg.json", {**CHARGE_CONFIG, **extra})
        out = tmp_path / "rad.csv"
        assert main(["radiation", "--config", str(config),
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("supertime: error:")
        assert "trajectory_csv" in err[0] and "t0" in err[0]
        assert not out.exists()


def test_window_csv_ingestion(tmp_path):
    T_nat = 1.0e-15 * 2.99792458e8
    t = np.linspace(-8.0 * T_nat, 8.0 * T_nat, 1601)
    phi = np.exp(-0.5 * (t / T_nat) ** 2) / (math.sqrt(2.0 * math.pi) * T_nat)
    win = tmp_path / "window.csv"
    with open(win, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_natural", "phi"])
        writer.writerows(zip(t, phi))
    rows = {}
    for name, section in (("closed", CHARGE_CONFIG["vacuum"]), ("csv", {"window_csv": str(win)})):
        config = _write(tmp_path, f"{name}.json", {**CHARGE_CONFIG, "vacuum": section})
        out = tmp_path / f"{name}.csv"
        assert main(["vacuum", "--config", str(config), "--output", str(out)]) == 0
        rows[name] = [float(value) for value in _read_csv(out)[1][0]]
    # The tabulated Gaussian reads as the closed-form Gaussian of the same width.
    assert rows["closed"][0] == 1.0e-15
    assert rows["csv"] == pytest.approx(rows["closed"], rel=1e-8)


def test_tabulated_inputs_are_recorded_by_content(tmp_path):
    t, width = np.linspace(0.0, 1e-12, 200), 2.99792458e8 * 1e-15    # c T in metres
    window_t = np.linspace(-8.0, 8.0, 200) * width
    samples = {"radiation": np.column_stack([t, 1e-9 * np.sin(math.pi * t / 2e-12) ** 2]),
               "vacuum": np.column_stack([window_t, np.exp(-0.5 * (window_t / width) ** 2)
                                          / (math.sqrt(2.0 * math.pi) * width)])}
    for sub, key in (("radiation", "trajectory_csv"), ("vacuum", "window_csv")):
        path = tmp_path / f"{sub}_input.csv"
        np.savetxt(path, samples[sub], fmt="%.17g", delimiter=",", header="t,value",
                   comments="")
        payload = {**CHARGE_CONFIG, sub: {key: str(path)}}
        _csv_of(tmp_path, sub, payload, name=sub)
        meta = json.loads((tmp_path / f"{sub}.csv.meta.json").read_text())
        assert meta["input_csv"] == {
            "path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "rows": 200, "t_first": samples[sub][0, 0], "t_last": samples[sub][-1, 0]}, sub


def test_two_column_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x\n1,2,3\n")
    payload = json.loads(json.dumps(CHARGE_CONFIG))
    payload["radiation"] = {"trajectory_csv": str(bad)}
    config = _write(tmp_path, "cfg.json", payload)
    assert main(["radiation", "--config", str(config),
                 "--output", str(tmp_path / "x.csv")]) == 2


# SHA-256 of each subcommand's CSV on the configs above, captured before the
# CLI was rebuilt around its subcommand table; any change to the CSV bytes of
# an existing config shows here.  The radiation hash was captured again when
# the sin^2 exponent became its closed form, which moved its last printed
# digits by up to 6e-13 relative.
GOLDEN_SHA256 = {
    "bound": "49cbfb96a41622fd9975b9244d296d11ef61ae37b9ec4edad186d89a7009ef9f",
    "causality": "822c5ee40467bf6d035172d7f95c65b704e2fdcd0575b51d81bb69134ba89444",
    "echo": "0eefa55f862cec112bb5300f008e87505796bfbc0ad23a25cc440ff3367506e9",
    "radiation": "5e9a6fd18f34a348de385a7eb32ab18aa9b675c6ed6b037d8f83706abc89b7df",
    "vacuum": "f06bee97d73b4810f8a4b2c10b0c844b705641cc15071b1aa745a7e8ab0f2212",
    "interference": "cc4cd5b3e0f41f0524d3a86626c5986678e33c00af5242a9c71aca153bdd8638",
}


def test_csv_bytes_unchanged(tmp_path):
    runs = {
        "bound": (MASS_CONFIG, []),
        "causality": ({**MASS_CONFIG, "sweep": {"parameter": "R", "min": 0.5,
                                                "max": 2.5, "points": 5}}, []),
        "echo": (MASS_CONFIG, []),
        "radiation": ({**CHARGE_CONFIG, "sweep": {"parameter": "t0", "min": 1e-13,
                                                  "max": 1e-11, "points": 3,
                                                  "scale": "log"}}, []),
        "vacuum": (CHARGE_CONFIG, []),
        "interference": (CHARGE_CONFIG, ["--seed", "3"]),
    }
    for sub, (payload, extra) in runs.items():
        config = _write(tmp_path, f"{sub}.json", payload)
        out = tmp_path / f"{sub}.csv"
        assert main([sub, "--config", str(config), "--output", str(out), *extra]) == 0
        text = out.read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[sub], text


def _per_row_csv_table(header, columns):
    """The reference formatter: one Python ``%`` per row."""
    n_rows = max(np.size(column) for column in columns)
    formats, cells = [], []
    for column in columns:
        column = np.broadcast_to(column, n_rows)
        if column.dtype == bool:
            column = np.where(column, "true", "false")
        formats.append("%.12e" if column.dtype.kind == "f" else "%s")
        cells.append(column)
    table = io.StringIO()
    table.write(",".join(header) + "\r\n")
    line = ",".join(formats) + "\r\n"
    table.writelines(line % row for row in zip(*cells))
    return table.getvalue(), n_rows


def _assert_formats_as_per_row(header, columns):
    """``_csv_table``'s text and row count are the reference's; returns its
    count of exact-route fields."""
    data, n_rows, exact_fields, _ = cli._csv_table(header, columns)
    assert (bytes(data).decode(), n_rows) == _per_row_csv_table(header, columns)
    return exact_fields


# Floats of each sign with two- and three-digit exponents on the array
# route, and -0.0 and nan on the exact route.
_MIXED_FLOATS = [1.5, 2.25e-7, -3.125e40, -6.0e-99, 2.5e-150, 7.75e200, -4.0e-120, -0.0, np.nan]


@st.composite
def _mixed_columns(draw):
    """A header and columns of one length, or single values: each float
    column draws from a random subset of ``_MIXED_FLOATS``, so some share
    one sign and one exponent width and some do not."""
    n_rows = draw(st.integers(1, 12))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.lists(st.sampled_from(_MIXED_FLOATS), min_size=1, max_size=3))
        size = draw(st.sampled_from([1, n_rows]))
        columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=size,
                                              max_size=size))))
        if draw(st.booleans()):
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=n_rows,
                                                  max_size=n_rows))))
    return [f"c{i}" for i in range(len(columns))], columns


@settings(deadline=None, max_examples=300)
@given(table=_mixed_columns())
def test_per_row_table_is_returned_without_a_copy_exactly_when_nothing_is_padded(table):
    header, columns = table
    data, n_rows, _, padding = cli._csv_table(header, columns)
    text, _ = _per_row_csv_table(header, columns)
    assert bytes(data).decode() == text
    # The built table holds the CSV's bytes and the pads, one row of every
    # block's width, its commas and CRLF, per CSV row.
    widths = [(cli._float_fields(c)[0] if c.dtype.kind == "f" else cli._text_fields(c)).shape[1]
              for c in columns]
    built = len(",".join(header)) + 2 + n_rows * (sum(widths) + len(widths) + 1)
    assert padding == built - len(text)
    # The table itself, with no copy, exactly when it has no pad.
    assert isinstance(data, memoryview) == (padding == 0)


@settings(deadline=None, max_examples=300)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_fields_are_the_per_row_bytes_for_any_bit_pattern(bits):
    # Every float64, NaN, infinities, -0.0 and subnormals included.
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_formats_as_per_row(["x", "minus_x", "first"], [x, -x, x[0]])


def test_powers_of_ten_their_neighbours_and_near_ties_are_the_per_row_bytes():
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    rng = np.random.default_rng(18)
    # (m + 1/2) 10**j for a 13-digit m: the decimal halfway between two
    # 13-digit outputs, and the floats next to it.
    mantissas = rng.integers(10**12, 10**13, 3000).tolist()
    ties = np.array([float(f"{m}5e{j}") for m, j in zip(mantissas, rng.integers(-330, 296, 3000))])
    for x in (powers, ties):
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, 0.0)])
        exact_fields = _assert_formats_as_per_row(["x", "minus_x"], [x, -x])
    assert exact_fields > 0  # the near-ties take the exact route


def test_forced_exact_route_writes_the_same_bytes_and_counts_every_field(
        tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    x = 10.0 ** rng.uniform(-30.0, 30.0, 500)
    header, columns = list("abcdef"), ["mass", x, 1e-3, -x, x > 1.0, 7]
    unforced = _assert_formats_as_per_row(header, columns)
    monkeypatch.setattr(cli, "_TIE_GAP", math.inf)
    assert _assert_formats_as_per_row(header, columns) == 3 * 500 > unforced
    # Through the CLI: the golden bytes, and all four float fields counted.
    config = _write(tmp_path, "bound.json", MASS_CONFIG)
    out = tmp_path / "bound.csv"
    assert main(["bound", "--config", str(config), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_text().encode()).hexdigest() == GOLDEN_SHA256["bound"]
    meta = json.loads((tmp_path / "bound.csv.meta.json").read_text())
    assert meta["format_exact_fields"] == 4


def test_a_20000_row_table_of_every_column_kind_is_the_per_row_bytes():
    rng = np.random.default_rng(20_000)
    x = 10.0 ** rng.uniform(-300.0, 300.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    header = ["kind", "x", "scalar", "list", "negative", "positive", "flag", "count"]
    columns = ["charge", x, 2.5e-7, x.tolist(), -np.abs(x), x > 0.0, True, 3]
    exact_fields = _assert_formats_as_per_row(header, columns)
    assert 0 < exact_fields < 0.02 * 4 * 20_000
    # A column of exact-route values: a near-tie, signed zeros, NaNs and infinities.
    special = np.array([3421.4379448974983, 0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])
    repeated = special[rng.integers(0, special.size, 20_000)]
    assert _assert_formats_as_per_row(["repeated", "x"], [repeated, x]) > 20_000


def test_no_copy_20000_row_bound_run_peaks_below_two_and_a_half_csv_sizes(tmp_path):
    # Every field positive with a two-digit exponent: a table with no pad,
    # written as it was built.  The float blocks and the table make a traced
    # peak of about twice the CSV; any copy of the whole table would add at
    # least one more CSV size.
    config = _write(tmp_path, "bound.json", {**MASS_CONFIG, "sweep": {
        "parameter": "magnitude", "min": 1e-6, "max": 1e-3, "points": 20_000, "scale": "log"}})
    out = tmp_path / "bound.csv"
    argv = ["bound", "--config", str(config), "--output", str(out)]
    assert main(argv) == 0  # imports and first-call caches outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    meta = json.loads((tmp_path / "bound.csv.meta.json").read_text())
    assert meta["rows"] == 20_000 and meta["format_padding_bytes"] == 0
    assert peak < 2.5 * out.stat().st_size


def test_sidecar_padding_bytes_are_the_pads_dropped(tmp_path):
    # With T_A = 0 the audit is satisfied from R of about 2 m on; each
    # "true" of the five-byte flag column drops one pad, and no other field
    # of the table is shorter than its column.
    config = _write(tmp_path, "causality.json", {
        **MASS_CONFIG, "causality": {"T_A": 0.0},
        "sweep": {"parameter": "R", "min": 0.02, "max": 100.0, "points": 200, "scale": "log"}})
    out = tmp_path / "causality.csv"
    assert main(["causality", "--config", str(config), "--output", str(out)]) == 0
    header, rows = _read_csv(out)
    satisfied = [row[header.index("satisfied")] for row in rows]
    assert len(rows) == 200 and set(satisfied) == {"true", "false"}
    meta = json.loads((tmp_path / "causality.csv.meta.json").read_text())
    assert meta["format_padding_bytes"] == satisfied.count("true")


# Positive values with two-digit exponents and far from any rounding tie, so
# every field takes the array route.
_TWO_DIGIT = np.tile([1.5, 2.25e-7, 3.125e40, 6.0e-99, 7.75e99, 1.0e-10, 42.0], 100)


def test_per_row_positive_two_digit_columns_are_18_byte_blocks_with_no_pad():
    x = _TWO_DIGIT
    block, exact = cli._float_fields(x)
    assert block.shape == (x.size, 18) and np.all(block != 0) and not exact.any()
    # A flag column that is true on every row has no fifth byte either.
    assert cli._text_fields(x > 0.0).shape == (x.size, 4)
    assert cli._text_fields(np.array([True, False])).shape == (2, 5)
    header, columns = ["kind", "x", "scalar", "y", "flag"], ["mass", x, 2.5e-7, x[::-1], x > 0.0]
    _assert_formats_as_per_row(header, columns)
    # So the table has no pad, and is returned as it was built.
    data, _, _, padding = cli._csv_table(header, columns)
    assert isinstance(data, memoryview) and padding == 0


# An exact-route field adds no sign byte: -0.0 widens the block by its own
# 19 bytes, and -nan prints as "nan".
@pytest.mark.parametrize("signed, width", [(-0.0, 19), (-np.nan, 18)],
                         ids=["minus_zero", "minus_nan"])
def test_per_row_sign_byte_only_from_minus_zero_or_minus_nan(signed, width):
    x = np.concatenate([_TWO_DIGIT, [signed]])
    block, exact = cli._float_fields(x)
    assert np.signbit(x).sum() == 1 and exact[-1] and not exact[:-1].any()
    assert block.shape[1] == width
    _assert_formats_as_per_row(["x", "first"], [x, x[0]])


def test_per_row_three_digit_exponents_only_on_the_exact_route():
    x = np.concatenate([_TWO_DIGIT, [1e-300, 5e-324, 2e300]])
    block, exact = cli._float_fields(x)
    assert exact[-3:].all() and not exact[:-3].any()
    # No hundreds byte for the array route; the exact fields widen the block.
    assert block.shape[1] == 19
    assert np.count_nonzero(block[:-3] == 0) == _TWO_DIGIT.size
    assert _assert_formats_as_per_row(["x"], [x]) == 3


def test_per_row_hundreds_byte_only_from_array_route_exponents():
    # A near-tie with a three-digit exponent takes the exact route, and
    # widens the block by its own 19 bytes instead of adding a hundreds byte.
    x = np.concatenate([_TWO_DIGIT, [float("12345678901235e-163")]])
    block, exact = cli._float_fields(x)
    assert exact[-1] and not exact[:-1].any()
    assert block.shape[1] == 19 and np.all(block[:-1, :18] != 0) and not block[:-1, 18].any()
    assert _assert_formats_as_per_row(["x"], [x]) == 1


@pytest.mark.parametrize("values", [[np.nan, np.inf], [np.nan, np.inf, -np.inf]],
                         ids=["unsigned", "signed"])
def test_per_row_column_of_only_nan_and_infinities(values):
    x = np.array(values * 100)
    block, exact = cli._float_fields(x)
    assert exact.all() and block.shape[1] == 18
    assert _assert_formats_as_per_row(["x", "y"], [x, 1.5]) == x.size


def test_per_row_tables_are_read_only():
    for table in (cli._POW10, cli._DIGIT_QUADS, cli._EXPONENT_QUADS,
                  cli._EXPONENT_HUNDREDS_QUADS):
        with pytest.raises(ValueError):
            table[0] = table[1]
    # The failed writes changed nothing: the bytes are still the reference's.
    x = np.concatenate([_TWO_DIGIT, -_TWO_DIGIT, [2.5e-150]])
    _assert_formats_as_per_row(["x"], [x])


def test_per_row_broadcast_single_value_with_a_three_digit_exponent():
    block, exact = cli._float_fields(np.array([-2.5e-150]))
    assert block.shape == (1, 20) and not exact.any()
    x = _TWO_DIGIT
    _assert_formats_as_per_row(["x", "single", "flag"], [x, -2.5e-150, True])
    _assert_formats_as_per_row(["single", "x"], [np.array([3.0e200]), x])


def _mutated(base, edit):
    payload = copy.deepcopy(base)
    edit(payload)
    return payload


def _sweep(parameter, **fields):
    return {"parameter": parameter, "min": 1.0, "max": 2.0, "points": 3, **fields}


def _superluminal_trajectory(directory):
    """x = d sin^2(pi t / 2 t0) + (1 mm) sin^4(pi t / t0): its ends satisfy
    d < c t0 / 3 and its end speeds vanish, but its peak speed is 13.6 c."""
    t0, d = 1e-12, 1e-6
    t = np.linspace(0.0, t0, 401)
    x = d * np.sin(math.pi * t / (2.0 * t0)) ** 2 + 1e-3 * np.sin(math.pi * t / t0) ** 4
    path = directory / "superluminal.csv"
    np.savetxt(path, np.column_stack([t, x]), fmt="%.17g", delimiter=",",
               header="t_seconds,x_meters", comments="")
    return str(path)


BAD_CONFIGS = [
    ("bound", _mutated(MASS_CONFIG, lambda c: c["scenario"]["alice"].pop("magnitude")),
     "scenario.alice.magnitude"),
    ("bound", {**MASS_CONFIG, "constants": {"c": "x"}}, "constants.c"),
    ("bound", _mutated(MASS_CONFIG, lambda c: c["scenario"]["alice"].update(magnitude=True)),
     "scenario.alice.magnitude"),
    ("bound", {**MASS_CONFIG, "seed": "abc"}, "seed"),
    ("bound", _mutated(MASS_CONFIG, lambda c: c["scenario"].update(R=10**400)), "float"),
    ("bound", {**MASS_CONFIG, "sweep": {**_sweep("magnitude"), "points": 2.7}},
     "sweep.points"),
    ("bound", {**MASS_CONFIG, "sweep": _sweep("magnitude", max=0, scale="log")},
     "sweep.max"),
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(
        noise_multiples="abc")), "interference.noise_multiples"),
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(trials=0)),
     "trials"),
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(
        d_over_sigma=0)), "interference.d_over_sigma"),
    ("bound", {**MASS_CONFIG, "sweep": _sweep("R")}, "'R'"),
    ("bound", {**MASS_CONFIG, "sweep": _sweep("t0")}, "'t0'"),
    ("causality", {**MASS_CONFIG, "sweep": _sweep("t0")}, "'t0'"),
    ("causality", {**MASS_CONFIG, "sweep": _sweep("bob_charge")}, "'bob_charge'"),
    ("echo", {**MASS_CONFIG, "sweep": _sweep("R")}, "'R'"),
    ("vacuum", {**CHARGE_CONFIG, "sweep": _sweep("magnitude")}, "'magnitude'"),
    ("interference", {**CHARGE_CONFIG, "sweep": _sweep("separation_d")}, "'separation_d'"),
    # json reads the Infinity and NaN literals that json.dumps writes for these.
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(
        noise_multiples=[0.1, math.inf])), "interference.noise_multiples[1]"),
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(
        noise_multiples=[math.nan])), "interference.noise_multiples[0]"),
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(
        noise_multiples=[0.1, 1.0, -1.0])), "interference.noise_multiples[2]"),
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(
        noise_multiples=[1e308])), "interference.noise_multiples[0]"),  # pi/d overflows
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(
        noise_multiples=[])), "interference.noise_multiples"),
    ("causality", _mutated(MASS_CONFIG, lambda c: c["scenario"].update(sigma=math.inf)),
     "sigma must be positive and finite, got inf"),
    ("echo", _mutated(MASS_CONFIG, lambda c: c["scenario"].update(sigma=math.nan)),
     "sigma must be positive and finite, got nan"),
    ("causality", _mutated(MASS_CONFIG, lambda c: c["scenario"].update(bob_mass=math.inf)),
     "bob_mass must be positive and finite, got inf"),
    ("causality", _mutated(CHARGE_CONFIG, lambda c: c["scenario"].update(bob_charge=math.inf)),
     "bob_charge must be finite, got inf"),
    ("echo", _mutated(CHARGE_CONFIG, lambda c: c["scenario"].update(bob_charge=math.nan)),
     "bob_charge must be finite, got nan"),
    ("bound", {**MASS_CONFIG, "constants": {"e_charge": 1.602176634e-19}},
     'constants: unknown key "e_charge"'),
    ("vacuum", _mutated(CHARGE_CONFIG, lambda c: c["vacuum"].update(window_csv="window.csv")),
     "remove vacuum.window_T"),
    ("causality", _mutated(MASS_CONFIG, lambda c: c["scenario"].update(bob_charge=math.inf)),
     "bob_charge: a mass scenario reads no charge"),
    # sigma = d / 1e308 is subnormal, and its momentum spread 1/(2 sigma) inf.
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(
        d_over_sigma=1e308)), "sigma=1e-314 is too small"),
    # Arrays beyond any address space: numpy refuses to allocate them, or
    # cannot size them at all.  None is ever allocated.
    ("bound", {**MASS_CONFIG, "sweep": {**_sweep("magnitude"), "points": 10**17}},
     "Unable to allocate"),
    ("bound", {**MASS_CONFIG, "sweep": {**_sweep("magnitude"), "points": 2**62}},
     "sweep.points: must be 1 to"),
    ("bound", {**MASS_CONFIG, "sweep": {**_sweep("magnitude"), "points": 10**21}},
     "sweep.points: must be 1 to"),
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(
        n=10**17, trials=2)), "Unable to allocate"),
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(n=2**62)),
     "interference.n: must be <="),
    # No trial's seed is built before the (trials, levels) decisions.
    ("interference", _mutated(CHARGE_CONFIG, lambda c: c["interference"].update(
        n=10, trials=10**17)), "Unable to allocate"),
    # A payload that reads an input file is built around a directory of its own.
    ("radiation", lambda inputs: {**CHARGE_CONFIG, "radiation": {
        "trajectory_csv": _superluminal_trajectory(inputs)}},
     "peak speed max|v|/c < pi/6, got 13.6"),
    # (c T)**2 underflows to 0.0, leaves 1/(4 pi^2 T^2) infinite, or overflows.
    ("vacuum", _mutated(CHARGE_CONFIG, lambda c: c["vacuum"].update(window_T=1e-200)),
     "width_T=2.99792458e-192 is out of range"),
    ("vacuum", _mutated(CHARGE_CONFIG, lambda c: c["vacuum"].update(window_T=1e-170)),
     "width_T=2.99792458e-162 is out of range"),
    ("vacuum", _mutated(CHARGE_CONFIG, lambda c: c["vacuum"].update(window_T=1e200)),
     "width_T=2.99792458e+208 is out of range"),
]


@pytest.mark.parametrize("sub,payload,names", BAD_CONFIGS)
def test_bad_config_is_one_error_line_and_no_output(tmp_path, tmp_path_factory, capsys,
                                                    monkeypatch, sub, payload, names):
    # Rejected before any momentum is sampled: a sampler that cannot accept
    # a candidate would otherwise run forever.
    def no_sampling(*args):
        raise AssertionError("a bad config reached the momentum sampler")

    monkeypatch.setattr(interference, "_sample_true_momenta", no_sampling)
    if callable(payload):
        payload = payload(tmp_path_factory.mktemp("inputs"))
    config = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "out.csv"
    assert main([sub, "--config", str(config), "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("supertime: error:"), err
    assert names in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_non_utf8_config_is_one_error_line(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_bytes(b"\xff\xfe{}")
    assert main(["bound", "--config", str(config), "--output",
                 str(tmp_path / "b.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("supertime: error:")


def test_bare_memory_error_is_one_error_line_naming_it(tmp_path, capsys, monkeypatch):
    # Python's own MemoryError carries no message, unlike numpy's.
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run", out_of_memory)
    config = _write(tmp_path, "cfg.json", MASS_CONFIG)
    assert main(["bound", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "supertime: error: MemoryError\n"


def test_oracle_flag_only_where_there_is_an_oracle(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", MASS_CONFIG)
    assert main(["bound", "--config", str(config), "--output",
                 str(tmp_path / "b.csv"), "--oracle"]) == 2
    assert "--oracle" in capsys.readouterr().err


def test_seed_flag_only_where_something_is_drawn(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", CHARGE_CONFIG)
    for sub in ("bound", "echo", "causality", "radiation", "vacuum"):
        out = tmp_path / f"{sub}.csv"
        assert main([sub, "--config", str(config), "--output", str(out), "--seed", "5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"supertime: error: --seed: {sub} draws no random numbers"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_radiation_magnitude_sweep_scales_as_charge_squared(tmp_path):
    payload = {**CHARGE_CONFIG, "sweep": {"parameter": "magnitude", "min": 1e-19,
                                          "max": 1e-17, "points": 5, "scale": "log"}}
    config = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "rad.csv"
    assert main(["radiation", "--config", str(config), "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 5
    charges = np.logspace(-19, -17, 5)
    exponents = np.array([float(r[1]) for r in rows])
    ratios = exponents / charges**2
    assert ratios == pytest.approx(np.full(5, ratios[0]), rel=1e-12)
    # min_radiationless_time is linear in the charge.
    times = np.array([float(r[3]) for r in rows])
    assert times / charges == pytest.approx(np.full(5, times[0] / charges[0]), rel=1e-12)


# --- property test: mutated configs never escape main ----------------------

FUZZ_BASES = [
    ("bound", {**MASS_CONFIG, "sweep": {"parameter": "magnitude", "min": 1e-6,
                                        "max": 1e-5, "points": 3, "scale": "log"}}),
    ("causality", {**MASS_CONFIG, "causality": {"T_A": 1e-12},
                   "sweep": {"parameter": "R", "min": 0.5, "max": 2.5, "points": 3}}),
    ("echo", {**MASS_CONFIG, "seed": 1}),
    ("radiation", {**CHARGE_CONFIG, "sweep": {"parameter": "t0", "min": 1e-13,
                                              "max": 1e-11, "points": 3, "scale": "log"}}),
    ("vacuum", {**CHARGE_CONFIG, "constants": {"c": 2.99792458e8}}),
    ("interference", {**CHARGE_CONFIG, "seed": 3}),
]

_VALUES = st.one_of(st.text(max_size=8), st.booleans(), st.none(),
                    st.lists(st.sampled_from([0, 1.5, "x", None]), max_size=3))
_KEYS = st.one_of(st.sampled_from(["magnitude", "sweep", "t0", "seed", "scale", "alice"]),
                  st.text(max_size=8))


def _nodes(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate(data, payload):
    """Delete a key, swap a value's type, add a key or wrap a value in a list.

    Values are only ever replaced by strings, booleans, null or short lists,
    never by larger numbers, so no mutant allocates more than its base.
    """
    holder = {"root": payload}
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_nodes(holder["root"]))))
        parent, key = holder, "root"
        for step in path:
            parent, key = parent[key], step
        op = data.draw(st.sampled_from(["delete", "swap", "add", "wrap"]))
        if op == "delete" and parent is not holder:
            del parent[key]
        elif op == "add" and isinstance(parent[key], dict):
            parent[key][data.draw(_KEYS)] = data.draw(_VALUES)
        elif op == "wrap":
            parent[key] = [parent[key]]
        else:
            parent[key] = data.draw(_VALUES)
    return holder["root"]


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.data())
def test_mutated_configs_exit_cleanly(data):
    sub, base = data.draw(st.sampled_from(FUZZ_BASES))
    payload = _mutate(data, copy.deepcopy(base))
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        config = workdir / "cfg.json"
        config.write_text(json.dumps(payload))
        out = workdir / "out.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([sub, "--config", str(config), "--output", str(out)])
        assert code in (0, 2)
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("supertime: error:"), lines
        written = sorted(p.name for p in workdir.iterdir())
        assert written in (["cfg.json"], ["cfg.json", "out.csv", "out.csv.meta.json"]), written
        assert (code == 0) == (len(written) == 3)


# --- sweeps evaluated as arrays ---------------------------------------------

ARRAY_SWEEPS = [
    ("bound", MASS_CONFIG, "magnitude", 1e-7, 1e-5),
    ("bound", MASS_CONFIG, "separation_d", 1e-4, 1e-2),
    ("bound", CHARGE_CONFIG, "magnitude", 1e-19, 1e-17),
    ("causality", MASS_CONFIG, "magnitude", 1e-7, 1e-5),
    ("causality", MASS_CONFIG, "separation_d", 1e-4, 4e-2),
    ("causality", MASS_CONFIG, "bob_mass", 1e-12, 1e-6),
    ("causality", MASS_CONFIG, "R", 2e-2, 5.0),
    ("causality", MASS_CONFIG, "sigma", 1e-30, 1e-20),
    ("causality", CHARGE_CONFIG, "magnitude", 1e-19, 1e-17),
    ("causality", CHARGE_CONFIG, "separation_d", 1e-7, 1e-2),
    ("causality", CHARGE_CONFIG, "bob_mass", 1e-13, 1e-10),
    ("causality", CHARGE_CONFIG, "R", 1e-4, 5.0),
    ("causality", CHARGE_CONFIG, "bob_charge", 1e-19, 1e-17),
    ("causality", CHARGE_CONFIG, "sigma", 1e-20, 1e-10),
    ("radiation", CHARGE_CONFIG, "t0", 1e-13, 1e-10),
    ("radiation", CHARGE_CONFIG, "magnitude", 1e-19, 1e-16),
    ("radiation", CHARGE_CONFIG, "separation_d", 1e-9, 1e-5),
]


def _with_parameter(base, parameter, value):
    payload = copy.deepcopy(base)
    section = payload["scenario"]
    if parameter == "t0":
        section = payload["radiation"]
    elif parameter in ("magnitude", "separation_d"):
        section = section["alice"]
    section[parameter] = value
    return payload


def _csv_of(tmp_path, sub, payload, name="run"):
    config = _write(tmp_path, f"{name}.json", payload)
    out = tmp_path / f"{name}.csv"
    assert main([sub, "--config", str(config), "--output", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("scale", ["linear", "log"])
@pytest.mark.parametrize("sub,base,parameter,lo,hi", ARRAY_SWEEPS)
def test_array_sweep_equals_its_points_run_alone(tmp_path, sub, base, parameter, lo, hi, scale):
    sweep = {"parameter": parameter, "min": lo, "max": hi, "points": 50, "scale": scale}
    swept = _csv_of(tmp_path, sub, {**base, "sweep": sweep})
    if scale == "log":
        values = np.logspace(math.log10(lo), math.log10(hi), 50)
    else:
        values = np.linspace(lo, hi, 50)
    header, _ = swept.split(b"\r\n", 1)
    points = [_csv_of(tmp_path, sub, _with_parameter(base, parameter, v), "point")
              .split(b"\r\n", 1)[1] for v in values.tolist()]
    assert swept == header + b"\r\n" + b"".join(points)


def _only_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("supertime: error:"), err
    return err[0]


@pytest.mark.parametrize("sub,base,sweep,offending", [
    # d = 2e-3 leaves the dipole gate d < R/10 at the fifth radius, R = 0.01.
    ("causality", _with_parameter(MASS_CONFIG, "separation_d", 2e-3),
     {"parameter": "R", "min": 1.0, "max": 1e-3, "points": 7, "scale": "log"}, 4),
    # The Planck length, 1.6e-35 m, lies between the second and third values.
    ("causality", MASS_CONFIG,
     {"parameter": "sigma", "min": 1e-33, "max": 1e-37, "points": 5, "scale": "log"}, 2),
    ("bound", MASS_CONFIG,
     {"parameter": "magnitude", "min": 1e-6, "max": -1e-6, "points": 5}, 2),
    # Two checks fail: the dipole gate at d = 0.2 (R = 0.5), and d > 0 at
    # the last two values.  The earliest point's dipole message wins, though
    # the positivity check runs first.
    ("causality", MASS_CONFIG,
     {"parameter": "separation_d", "min": 0.2, "max": -0.1, "points": 4}, 0),
    # With d = 1e-6 m the nonrelativistic gate d < c t0 / 3 fails below
    # t0 = 3 d / c = 1.0007e-14 s: first at the third value, 1e-14 s.
    ("radiation", CHARGE_CONFIG,
     {"parameter": "t0", "min": 1e-13, "max": 1e-15, "points": 5, "scale": "log"}, 2),
])
def test_array_sweep_error_names_first_offending_value(tmp_path, capsys, sub, base, sweep,
                                                        offending):
    out = tmp_path / "out.csv"
    config = _write(tmp_path, "cfg.json", {**base, "sweep": sweep})
    assert main([sub, "--config", str(config), "--output", str(out)]) == 2
    swept_error = _only_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    # The same line as for the offending point run alone.
    lo, hi, n = sweep["min"], sweep["max"], sweep["points"]
    if sweep.get("scale") == "log":
        values = np.logspace(math.log10(lo), math.log10(hi), n)
    else:
        values = np.linspace(lo, hi, n)
    value = values[offending].item()
    alone = _write(tmp_path, "alone.json", _with_parameter(base, sweep["parameter"], value))
    assert main([sub, "--config", str(alone), "--output", str(out)]) == 2
    assert _only_error_line(capsys) == swept_error
    assert repr(value) in swept_error


def test_tabulated_magnitude_sweep_computes_the_moment_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return spectral_moment(*args, **kwargs)

    spectral_moment = radiation.spectral_moment
    monkeypatch.setattr(radiation, "spectral_moment", counted)
    traj = _write_sin2_trajectory(tmp_path / "traj.csv", 1e-12, 1e-9, n=400)
    payload = _with_parameter(CHARGE_CONFIG, "separation_d", 1e-9)
    payload["radiation"] = {"trajectory_csv": str(traj)}
    payload["sweep"] = {"parameter": "magnitude", "min": 1e-19, "max": 1e-17, "points": 5,
                        "scale": "log"}
    written = _csv_of(tmp_path, "radiation", payload)
    assert len(calls) == 1
    # Captured when every point reread the trajectory and recomputed its moment.
    assert hashlib.sha256(written).hexdigest() == (
        "f1383cd6930386e3394695e36e6bb891b2c8547c918e74c8e65a2199f24b87a0"), written


_IMPORTS_NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None              # every scipy import now raises ImportError
import supertime, supertime.cli
from supertime.bounds import Kind, SuperpositionSpec
runs = 0
for argv in json.loads(sys.argv[1]):
    assert supertime.cli.main(argv) == 0
    runs += 1
eta_star, _ = supertime.optimize_eta(SuperpositionSpec(Kind.MASS, 1.0e-6, 1.0e-3))
print(json.dumps([runs, eta_star]))
"""


def test_cli_subcommands_load_no_scipy(tmp_path):
    # bound, causality, echo, radiation on a sin^2 path and vacuum on a
    # Gaussian window are closed forms, the echo oracle and the interference
    # power curve are numpy only, tabulated trajectories and windows build
    # their splines and spectral moments in numpy, and optimize_eta takes
    # its stationary point from np.roots.  scipy is blocked in the
    # subprocess, so every run must succeed with no scipy module at all, and
    # the oracle's FFTs stay numpy's (not scipy.fft).
    mass = str(_write(tmp_path, "mass.json", MASS_CONFIG))
    charge = str(_write(tmp_path, "charge.json", _mutated(
        CHARGE_CONFIG, lambda c: c["interference"].update(n=200, trials=5))))
    traj = _write_sin2_trajectory(tmp_path / "traj.csv", 1e-12, 1e-9, n=400)
    trajectory = str(_write(tmp_path, "trajectory.json", {
        **_with_parameter(CHARGE_CONFIG, "separation_d", 1e-9),
        "radiation": {"trajectory_csv": str(traj)}}))
    width = 2.99792458e8 * 1e-15                                    # c T in metres
    window_t = np.linspace(-8.0, 8.0, 801) * width
    np.savetxt(tmp_path / "window.csv", np.column_stack(
        [window_t, np.exp(-0.5 * (window_t / width) ** 2) / (math.sqrt(2.0 * math.pi) * width)]),
        fmt="%.17g", delimiter=",", header="t,phi", comments="")
    window = str(_write(tmp_path, "window.json", {
        **CHARGE_CONFIG, "vacuum": {"window_csv": str(tmp_path / "window.csv")}}))
    out = str(tmp_path / "out.csv")
    runs = [[sub, "--config", mass, "--output", out] for sub in ("bound", "causality", "echo")]
    runs += [["echo", "--config", mass, "--output", out, "--oracle"],
             ["interference", "--config", charge, "--output", out],
             ["radiation", "--config", charge, "--output", out],
             ["vacuum", "--config", charge, "--output", out],
             ["radiation", "--config", trajectory, "--output", out],
             ["vacuum", "--config", window, "--output", out]]
    src = str(Path(supertime.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", _IMPORTS_NO_SCIPY, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    completed, eta_star = json.loads(done.stdout)
    assert completed == len(runs) and abs(eta_star - 2.0 / 3.0) <= 1e-9


def test_cli_import_loads_no_thread_pool():
    # power_curve imports concurrent.futures when it runs, not at import.
    src = str(Path(supertime.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, supertime, supertime.cli; "
         "print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_python_dash_m_supertime(tmp_path):
    config = _write(tmp_path, "cfg.json", MASS_CONFIG)
    out = tmp_path / "bound.csv"
    src = str(Path(supertime.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "supertime", "bound", "--config", str(config),
                           "--output", str(out)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == _csv_of(tmp_path, "bound", MASS_CONFIG)
    bad = subprocess.run([sys.executable, "-m", "supertime", "bound", "--config",
                          str(tmp_path / "missing.json")], env=env, capture_output=True,
                         text=True, timeout=60)
    assert bad.returncode == 2 and bad.stderr.startswith("supertime: error:")
