"""Command-line front end: config validation, CSV output, determinism."""

import csv
import json
import math

import numpy as np
import pytest

import supertime
from supertime.cli import main, parse_config
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
        assert float(row[4]) == pytest.approx(float(row[3]), abs=1e-6)
    overlaps = [float(r[3]) for r in rows]
    assert overlaps[0] == 1.0
    assert all(b <= a for a, b in zip(overlaps, overlaps[1:]))


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
    payload = json.loads(json.dumps(CHARGE_CONFIG))
    payload["vacuum"] = {"window_T": T_nat, "window_csv": str(win)}
    config = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "vac.csv"
    assert main(["vacuum", "--config", str(config), "--output", str(out)]) == 0
    header, rows = _read_csv(out)
    variance = float(rows[0][header.index("averaged_variance_natural")])
    assert variance == pytest.approx(1.0 / (4.0 * math.pi**2 * T_nat**2),
                                     rel=1e-8)


def test_two_column_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x\n1,2,3\n")
    payload = json.loads(json.dumps(CHARGE_CONFIG))
    payload["radiation"] = {"trajectory_csv": str(bad)}
    config = _write(tmp_path, "cfg.json", payload)
    assert main(["radiation", "--config", str(config),
                 "--output", str(tmp_path / "x.csv")]) == 2
