"""Smoke test of the benchmark at a tiny size.

Runs each workload once, untraced and traced, and asserts that every metric
named in BENCHMARK.json is emitted with its unit.  Then it corrupts a copy
of a correct output of each workload and asserts that the checker counts it
as a failure, and that the benchmark refuses to run without the package.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402  (needs src/ on the path)
from checker import Checker  # noqa: E402


def _expected_units(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_every_metric_is_emitted_with_its_unit():
    for workload in run.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.benchmark(workload, SEED, 0.0, trace, size="tiny")
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == _expected_units(kind), (workload, kind)
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (workload, name)


def _ops(workload: str, workdir: Path) -> dict:
    params = workloads.draw(SEED, "tiny")
    workloads.setup(workload, params, workdir)
    return {op.name: op for op in workloads.build_ops(workload, params, workdir)}


def _new_dir() -> Path:
    run.OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))


def test_corrupted_sweep_csv_is_a_failure():
    inputs, workdir = _new_dir(), _new_dir()
    try:
        op = _ops("sweep", inputs)["bound"]
        try:
            returncode = op.call(workdir)
        except Exception:  # the CSV is checked even when cli.main raises
            returncode = None
        checker = Checker()
        op.check(returncode, workdir, checker)
        assert checker.misses == 0
        path = workdir / "bound.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        rows[-1][3] = f"{float(rows[-1][3]) * (1.0 + 1e-9):.12e}"
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        reasons = op.check(returncode, workdir, checker)
        assert checker.misses == 1
        assert any("bounds: min_time" in reason for reason in reasons)
    finally:
        shutil.rmtree(inputs)
        shutil.rmtree(workdir)


def test_corrupted_library_outputs_are_failures():
    inputs = _new_dir()
    try:
        spectral = _ops("spectral", inputs)
        variance = spectral["averaged_variance"]
        value = variance.call(inputs)
        checker = Checker()
        assert variance.check(value, inputs, checker) == []
        assert variance.check(value * (1.0 + 1e-3), inputs, checker)
        assert checker.misses == 1
    finally:
        shutil.rmtree(inputs)
    inputs = _new_dir()
    try:
        echo_op = _ops("crosscheck", inputs)["echo_oracle"]  # the last echo time
        delta_F, analytic, numeric = echo_op.call(inputs)
        checker = Checker()
        assert echo_op.check((delta_F, analytic, numeric), inputs, checker) == []
        reasons = echo_op.check((delta_F, analytic, numeric + 1e-5), inputs, checker)
        assert any("oracle: grid overlap" in reason for reason in reasons)
    finally:
        shutil.rmtree(inputs)


def test_refuses_to_run_without_the_package():
    bare = _new_dir()
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        child = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert child.returncode != 0
        assert '"metrics"' not in child.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
