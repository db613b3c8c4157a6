"""Timing wrappers around each layer's public functions, for the traced run.

The wrappers live here, outside the program: each one records a span
(name, start, end, parent) and a call count, keeps them in memory, and
the request writes them out when it ends.  A function is patched where
its callers look it up: methods on their class, and every module-level
binding of a plain function (``from ... import`` copies included).

Run as a script, this file executes one ``repro`` CLI request in its own
process with the wrappers installed, so the traced request starts from a
fresh interpreter like an untraced one::

    python3 perfbench/tracer.py --spans OUT.json -- analyze --circuit rca4

Pool workers are forked children whose spans this process never sees;
their time is read from the histograms the program merges across
workers (``--metrics``), see :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

#: (span name, module, attribute).  Several attributes may share a span
#: name; their times add up.
TARGETS = (
    ("circuits.build", "repro.circuits.catalog", "build_named_circuit"),
    ("netlist.fingerprint", "repro.netlist.circuit", "Circuit.fingerprint"),
    ("netlist.compile", "repro.netlist.compiled", "compile_circuit"),
    ("netlist.delay_fingerprint", "repro.netlist.compiled",
     "delay_fingerprint"),
    ("netlist.compile_delta", "repro.netlist.compiled", "compile_delta"),
    ("activity.run", "repro.core.activity", "ActivityRun.run"),
    ("runner.cached_run", "repro.service.runner", "cached_run"),
    ("store.encode", "repro.service.store", "encode_result"),
    ("store.decode", "repro.service.store", "decode_result"),
    ("store.get", "repro.service.store", "ResultStore.get"),
    ("store.put", "repro.service.store", "ResultStore.put"),
    ("jobs.run", "repro.service.jobs", "BatchScheduler.run"),
    ("jobs.run", "repro.service.jobs", "run_circuit_tasks"),
    ("pool.run", "repro.service.pool", "run_supervised"),
    ("estimate.workload", "repro.estimate.workload", "estimate_workload"),
    ("estimate.workload", "repro.estimate.workload", "incremental_workload"),
    ("explore.search", "repro.explore.search", "explore"),
    ("opt.transform", "repro.explore.specs", "TransformSpec.apply"),
    ("opt.transform", "repro.explore.specs", "TransformSpec.apply_delta"),
)

#: Call counters without a span.  ``netlist.build`` counts compiles that
#: missed the compiled-IR memo; ``obs.enable`` hands over the program's
#: own metrics recorder (armed by ``--metrics``).
COUNTERS = (
    ("netlist.build", "repro.netlist.compiled", "_build"),
    ("obs.enable", "repro.obs.trace", "enable"),
)

#: Pool histograms the program merges across its forked workers.
POOL_HISTS = ("pool.task_latency_s", "pool.exec_s", "pool.queue_wait_s")


def _note_activity(rec: "Recorder", args, kwargs, result) -> None:
    rec.extras["activity.cycles"] += result.cycles


def _note_get(rec: "Recorder", args, kwargs, result) -> None:
    rec.extras["store.misses" if result is None else "store.hits"] += 1


def _note_pool(rec: "Recorder", args, kwargs, result) -> None:
    processes = kwargs.get("processes", args[2] if len(args) > 2 else None)
    rec.extras["pool.tasks"] += len(result.payloads)
    rec.extras["pool.retries"] += result.n_retries
    workers = min(processes or 1, max(len(result.payloads), 1))
    rec.extras["pool.workers"] = max(rec.extras["pool.workers"], workers)


def _note_explore(rec: "Recorder", args, kwargs, result) -> None:
    rec.extras["explore.candidates"] += len(result.candidates)
    rec.extras["explore.simulated"] += result.n_simulated
    rec.extras["explore.delta_reuse_frac"] = result.delta_reuse_frac or 0.0


def _note_enable(rec: "Recorder", args, kwargs, result) -> None:
    rec.program_recorder = result


NOTES: Dict[str, Callable] = {
    "activity.run": _note_activity,
    "store.get": _note_get,
    "pool.run": _note_pool,
    "explore.search": _note_explore,
    "obs.enable": _note_enable,
}


class Recorder:
    """Spans and call counts of one traced request, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.calls: Counter = Counter()
        self.extras: Dict[str, float] = defaultdict(float)
        self.program_recorder: Any = None
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None,
                           stack[-1] if stack else -1])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.monotonic()

    def wrap(self, name: str, fn: Callable, timed: bool = True) -> Callable:
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if timed:
                with self.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return wrapper

    def to_dict(self) -> Dict[str, Any]:
        hists = {}
        if self.program_recorder is not None:
            for name in POOL_HISTS:
                hist = self.program_recorder.metrics.get_hist(name)
                if hist is not None and hist.count:
                    hists[name] = hist.summary()
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "extras": dict(self.extras),
            "hists": hists,
        }


def _program_modules() -> List[Any]:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


class Patcher:
    """Installs wrappers everywhere callers look a name up; undoes them."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []
        # id(replacement) -> (replacement, original)
        self._originals: Dict[int, tuple] = {}

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace(self, module_name: str, path: str,
                make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.path`` by ``make(original)``.

        A method is replaced on its class (static and class methods keep
        their descriptor); a function is replaced in every loaded
        program module that binds the original object.
        """
        owner = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path)
        original = inspect.getattr_static(owner, attr)
        if isinstance(owner, type):
            if isinstance(original, (staticmethod, classmethod)):
                replacement = type(original)(make(original.__func__))
            else:
                replacement = make(original)
            self._originals[id(replacement)] = (replacement, original)
            self._set(owner, attr, replacement)
            return
        replacement = make(original)
        self._originals[id(replacement)] = (replacement, original)
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)

    def restore(self) -> None:
        """Put every original back, also where a later import copied a
        wrapper."""
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                pair = self._originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, key, pair[1])
        self._originals.clear()


def install(rec: Recorder, patcher: Patcher) -> None:
    """Wrap every layer function of :data:`TARGETS` and :data:`COUNTERS`."""
    for _, module_name, _ in TARGETS + COUNTERS:
        importlib.import_module(module_name)  # bind before scanning
    for name, module_name, path in TARGETS:
        patcher.replace(module_name, path,
                        lambda fn, name=name: rec.wrap(name, fn))
    for name, module_name, path in COUNTERS:
        patcher.replace(module_name, path,
                        lambda fn, name=name: rec.wrap(name, fn, timed=False))


def run_request(argv: List[str], rec: Recorder) -> int:
    """One traced CLI request in this process; wrappers removed after."""
    with rec.span("cli.import"):
        import repro.cli
    patcher = Patcher()
    try:
        with rec.span("tracer.install"):
            install(rec, patcher)
        with rec.span("cli.main"):
            return repro.cli.main(argv)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    finally:
        patcher.restore()


# ---------------------------------------------------------------------------
# Turning one request's spans into per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> Dict[str, float]:
    """Per span name: total duration minus the direct children's."""
    out: Dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        out[name] += end - start
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return out


def covered_s(spans: List[list]) -> float:
    """Seconds covered by the union of the root spans."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s, e) for _, s, e, p in spans if p < 0):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(doc: Dict[str, Any], wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced request (zeros where idle).

    *wall_s* is the request's spawn-to-exit time seen by the parent.
    """
    spans = doc["spans"]
    own = self_times(spans)
    calls = Counter(doc["calls"])
    extras = defaultdict(float, doc["extras"])
    hists = doc["hists"]
    hits, misses = extras["store.hits"], extras["store.misses"]
    builds = calls["netlist.build"]
    run_s = own["activity.run"]
    pool_wall = sum(e - s for n, s, e, _ in spans if n == "pool.run")
    exec_sum = hists.get("pool.exec_s", {}).get("sum") or 0.0
    workers = extras["pool.workers"]

    def p50(name: str) -> float:
        return hists.get(name, {}).get("p50") or 0.0

    return {
        "cli.import_s": own["cli.import"],
        "circuits.build_s": own["circuits.build"],
        "netlist.fingerprint_s": own["netlist.fingerprint"],
        "netlist.compile_s": own["netlist.compile"],
        "netlist.compile_calls": builds,
        "netlist.delay_fingerprint_s": own["netlist.delay_fingerprint"],
        "netlist.compiles_per_hit": builds / hits if hits else 0.0,
        "netlist.compile_delta_s": own["netlist.compile_delta"],
        "activity.run_s": run_s,
        "activity.calls": calls["activity.run"],
        "activity.cycles": extras["activity.cycles"],
        "activity.cycles_per_s": (
            extras["activity.cycles"] / run_s if run_s > 0 else 0.0
        ),
        "runner.cached_run_s": own["runner.cached_run"],
        "store.encode_s": own["store.encode"],
        "store.put_s": own["store.put"],
        "store.get_s": own["store.get"],
        "store.decode_s": own["store.decode"],
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "jobs.run_s": own["jobs.run"],
        "pool.run_s": own["pool.run"],
        "pool.tasks": extras["pool.tasks"],
        "pool.retries": extras["pool.retries"],
        "pool.task_latency_s.p50": p50("pool.task_latency_s"),
        "pool.queue_wait_s.p50": p50("pool.queue_wait_s"),
        "pool.exec_share": (
            exec_sum / (pool_wall * workers) if pool_wall and workers else 0.0
        ),
        "estimate.workload_s": own["estimate.workload"],
        "estimate.calls": calls["estimate.workload"],
        "explore.search_s": own["explore.search"],
        "explore.candidates": extras["explore.candidates"],
        "explore.simulated": extras["explore.simulated"],
        "explore.delta_reuse_frac": extras["explore.delta_reuse_frac"],
        "opt.transform_s": own["opt.transform"],
        "unattributed_s": wall_s - covered_s(spans),
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <repro args>",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    rec = Recorder()
    code = run_request(argv[3:], rec)
    sys.stdout.flush()
    with open(argv[1], "w") as fh:
        json.dump(rec.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
