"""The supertime benchmark: one seeded workload, timed, checked and reported.

Usage (from the repository root, no install needed):

    python3 bench/run.py --workload sweep|spectral|crosscheck --seed N \
        --seconds S --trace 0|1

The package is imported from ``src/``.  Each workload is a closed loop: one
caller in this process runs whole passes of ops, one op at a time, until
``--seconds`` have elapsed.  Every output is checked against closed forms
computed in ``checker.py``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs untraced passes for half the
time, then traced passes, and reports the per-layer metrics.  A summary is
printed first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sweep", "spectral", "crosscheck")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

@dataclass
class Phase:
    """What one stretch of passes measured."""

    checker: object
    pass_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    bytes_written: int = 0


def environment() -> dict:
    """Recorded as found; the benchmark changes none of it."""
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        **{name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def measure_setup(workload: str, seed: int, size: str, repeats: int) -> list[float]:
    """Seconds from a fresh interpreter's start until its ops could begin.

    Each child imports supertime and writes the workload's inputs, then
    prints the monotonic clock, which is system-wide on Linux; interpreter
    teardown is not counted.
    """
    times = []
    for _ in range(repeats):
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            start = time.monotonic()
            child = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload,
                 "--seed", str(seed), "--size", size, "--workdir", str(workdir)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
            times.append(float(child.stdout.split()[-1]) - start)
        finally:
            shutil.rmtree(workdir)
    return times


def run_phase(ops, seconds: float, checker, tracer=None) -> Phase:
    """Whole passes, one op at a time, until ``seconds`` have elapsed."""
    phase = Phase(checker=checker)
    start = time.monotonic()
    while not phase.pass_s or time.monotonic() - start < seconds:
        pass_time = 0.0
        for op in ops:
            workdir = Path(tempfile.mkdtemp(prefix="op-", dir=OUT))
            try:
                token = tracer.open() if tracer else None
                began = time.perf_counter()
                try:
                    result, reasons = op.call(workdir), []
                except (Exception, SystemExit) as exc:
                    result, reasons = None, [f"raised {type(exc).__name__}"]
                elapsed = time.perf_counter() - began
                if tracer:
                    tracer.close(f"bench.op.{op.name}", token)
                    tracer.op += 1
                reasons += op.check(result, workdir, checker)
                phase.bytes_written += sum(f.stat().st_size for f in workdir.iterdir())
            finally:
                shutil.rmtree(workdir)
            pass_time += elapsed
            phase.op_s.append(elapsed)
            phase.attempted += 1
            phase.failed += bool(reasons)
            phase.reasons.update(reasons)
        phase.pass_s.append(pass_time)
    return phase


def tail(op_s: list[float], ops_per_pass: int) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ten ops beyond it.

    Each op of a pass is one sample: its latency is its median over the
    run's passes, so a burst of load on the machine moves no single sample.
    With ten ops or fewer the slowest is reported, at percentile 100.
    """
    by_op = [op_s[k::ops_per_pass] for k in range(ops_per_pass)]
    ordered = sorted(statistics.median(samples) for samples in by_op)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def per_layer(phase: Phase, tracer, untraced_pass_s: float) -> dict:
    """Per-layer metrics per traced pass; errors are worst over the phase."""
    calls, total, own = tracer.summary()
    passes = len(phase.pass_s)

    def layer(prefix: str, table) -> float:
        return sum(v for name, v in table.items() if name.startswith(prefix + "."))

    cli_main_s = total.get("cli.main", 0.0)
    cli_self_s = layer("cli", own)
    checker = phase.checker
    per_pass = {
        "cli.main.calls": calls["cli.main"],
        "cli.rows": checker.counts["cli.rows"],
        "cli.bytes_written": phase.bytes_written,
        "cli.self_s": cli_self_s,
        "constants.planck_scales.calls": calls["constants.planck_scales"],
        "constants.self_s": layer("constants", own),
        "bounds.calls": layer("bounds", calls),
        "bounds.self_s": layer("bounds", own),
        "causality.calls": layer("causality", calls),
        "causality.self_s": layer("causality", own),
        "echo.calls": layer("echo", calls),
        "echo.self_s": layer("echo", own),
        "radiation.mode_integral.calls": calls["radiation.mode_integral"],
        "radiation.mode_integral.self_s": own.get("radiation.mode_integral", 0.0),
        "radiation.velocity_fourier.self_s": own.get("radiation.velocity_fourier", 0.0),
        "radiation.displacement_from_trajectory.self_s":
            own.get("radiation.displacement_from_trajectory", 0.0),
        "radiation.gauss_legendre_grid.self_s": own.get("radiation.gauss_legendre_grid", 0.0),
        "radiation.gauss_legendre_grid.nodes":
            tracer.counts["radiation.gauss_legendre_grid.nodes"],
        "vacuum.averaged_variance.calls": calls["vacuum.averaged_variance"],
        "vacuum.averaged_variance.self_s": own.get("vacuum.averaged_variance", 0.0),
        "oracle.propagate_linear.calls": calls["oracle.propagate_linear"],
        "oracle.self_s": layer("oracle", own),
        "oracle.fft_points": tracer.counts["oracle.fft_points"],
        "interference.power_curve.calls": calls["interference.power_curve"],
        "interference.discriminate.calls": calls["interference.discriminate"],
        "interference.samples": tracer.counts["interference.samples"],
        "interference.self_s": layer("interference", own),
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    metrics.update({
        "cli.layer_share": 1.0 - cli_self_s / cli_main_s if cli_main_s else 0.0,
        "radiation.max_rel_err": checker.worst["radiation"],
        "vacuum.max_rel_err": checker.worst["vacuum"],
        "oracle.max_abs_err": checker.worst["oracle"],
        "interference.mc_stderr": checker.mc_stderr,
        "trace.overhead_s": statistics.median(phase.pass_s) - untraced_pass_s,
    })
    return metrics


def report(title: str, phases: list[Phase], metrics: dict, units: dict, notes: dict) -> dict:
    print(title)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {value:.6g} {units[name]}{note}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    reasons = sum((p.reasons for p in phases), Counter())
    for reason, count in reasons.most_common(5):
        print(f"  failure x{count}: {reason}")
    return {"correct": all(p.checker.misses == 0 for p in phases),
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              size: str = "full") -> dict:
    """Run one workload and return the result object; prints a summary."""
    import workloads
    from checker import Checker
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    params = workloads.draw(seed, size)
    OUT.mkdir(exist_ok=True)
    setups = [] if trace else measure_setup(workload, seed, size, params["setups"])
    setup_dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        workloads.setup(workload, params, setup_dir)
        ops = workloads.build_ops(workload, params, setup_dir)
        if not trace:
            phase = run_phase(ops, seconds, Checker())
            op_tail, percentile = tail(phase.op_s, len(ops))
            metrics = {
                "setup_s": statistics.median(setups),
                "pass_s": statistics.median(phase.pass_s),
                "op_tail_s": op_tail,
                "accuracy_digits": phase.checker.accuracy_digits(),
                "failed_share": phase.failed / phase.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            notes = {
                "setup_s": f"median of {len(setups)} fresh-interpreter set-ups",
                "pass_s": f"median of {len(phase.pass_s)} passes of {len(ops)} ops",
                "op_tail_s": f"p{percentile:.1f} of {len(ops)} ops, each the median "
                             f"of {len(phase.pass_s)} passes",
                "failed_share": f"{phase.failed} of {phase.attempted} ops",
            }
            result = report(f"workload {workload}, seed {seed}: end to end", [phase],
                            metrics, {**units, "failed_share": "ratio"}, notes)
            # failed_share travels as "failed"/"attempted": it is 0 on a healthy run.
            del result["metrics"]["failed_share"]
            return result
        untraced = run_phase(ops, seconds / 2.0, Checker())
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(ops, seconds / 2.0, Checker(), tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(traced, tracer, statistics.median(untraced.pass_s))
        tracer.write(OUT / f"spans-{workload}.jsonl.gz", env)
        notes = {"trace.overhead_s": f"{len(traced.pass_s)} traced and "
                                     f"{len(untraced.pass_s)} untraced passes"}
        return report(f"workload {workload}, seed {seed}: per layer, per traced pass",
                      [untraced, traced], metrics, units, notes)
    finally:
        shutil.rmtree(setup_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: one timed set-up, in a fresh interpreter")
    parser.add_argument("--workdir", help="internal: where --setup-only writes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "supertime" / "__init__.py").is_file():
        print(f"bench: error: no supertime package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports supertime

    if args.setup_only:
        workloads.setup(args.workload, workloads.draw(args.seed, args.size), Path(args.workdir))
        print(time.monotonic())
        return 0
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
