"""Spans around the public functions of each supertime layer, from outside.

``Tracer.install`` rebinds every public function of the layer modules, in
every supertime module namespace that holds it, to a wrapper that records a
span: name, start, end, parent span and the op that was running.  A span
opened on a worker thread of the program's own pool, with no open span of
its own thread, takes the innermost open span of the main thread as its
parent, so the pool's work is attributed to the op and to ``cli.run``.
Spans stay in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "constants", "bounds", "causality", "echo", "radiation",
          "vacuum", "oracle", "interference")

# Work counted from the arguments of a call: span name -> (counter, count).
COUNTS = {
    "oracle.propagate_linear":
        ("oracle.fft_points", lambda a: a["state"].spec.n_points * a["n_steps"] * 2),
    "radiation.gauss_legendre_grid":
        ("radiation.gauss_legendre_grid.nodes", lambda a: a["n"]),
    "interference.power_curve":
        ("interference.samples", lambda a: a["n"] * a["trials"]),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.counts: Counter = Counter()
        self.op = 0  # id of the running op, advanced by the caller
        self._ids = itertools.count(1)
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._rebound: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, name: str, token: tuple[int, int | None, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append((span_id, parent, self.op, name, start, end))

    def _wrap(self, name: str, func):
        tracer = self
        counter = COUNTS.get(name)
        signature = inspect.signature(func)

        def wrapper(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.counts[counter[0]] += counter[1](bound.arguments)
            token = tracer.open()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(name, token)

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        wrapper.__doc__ = func.__doc__
        return wrapper

    def install(self) -> None:
        """Rebind the public functions of every layer to span-recording wrappers."""
        namespaces = [module for name, module in sys.modules.items()
                      if name == "supertime" or name.startswith("supertime.")]
        for layer in LAYERS:
            module = importlib.import_module(f"supertime.{layer}")
            names = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")]
            for attr in names:
                func = getattr(module, attr)
                if not (inspect.isfunction(func) and func.__module__ == module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", func)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is func:
                            setattr(namespace, key, wrapper)
                            self._rebound.append((namespace, key, func))

    def uninstall(self) -> None:
        for namespace, key, func in reversed(self._rebound):
            setattr(namespace, key, func)
        self._rebound.clear()

    def summary(self) -> tuple[Counter, dict, dict]:
        """(calls per span name, total seconds per name, self seconds per name).

        Self time is a span's duration minus the union of its child spans,
        which may overlap when they ran on the pool's threads.
        """
        children = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - _covered(children.get(span_id, ()), start, end)
        return calls, total, own

    def write(self, path: Path, environment: dict) -> None:
        """Spans as gzipped JSON lines: environment, column names, one row each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps({"environment": environment}) + "\n")
            handle.write(json.dumps(["id", "parent", "op", "name", "start_s", "end_s"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered
