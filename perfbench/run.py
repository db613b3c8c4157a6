"""End-to-end benchmark of the ``repro`` CLI, one process per request.

Run from the repository root::

    python3 perfbench/run.py --workload farm16-cold --seed 1995 \\
        --seconds 28 --trace 0

A single closed-loop client sends the workload's request, waits for it
to exit, checks its output against the event-engine oracle, and sends
the next, until ``--seconds`` have passed.  Every request is a fresh
``python -m repro.cli`` process with no ``REPRO_*`` environment and no
observability flags.  With ``--trace 1`` the loop alternates such a
request with a traced one (``perfbench/tracer.py``) and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from statistics import median
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import tracer  # noqa: E402
from oracle import clean_env, digest, expected, input_seed  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Seconds a request may run past the end of the measuring window (or
#: past its own start, in set-up) before the benchmark kills it.
REQUEST_LIMIT_S = 60.0
MIB = 2.0**20


@dataclass
class Request:
    """One spawned request, as the client saw it."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    store_mb: float
    ok: bool
    detail: str
    stdout: str
    spans: Optional[dict] = None


def _dir_bytes(path: str) -> int:
    total = 0
    for parent, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(parent, name))
    return total


class HarnessTimeout(Exception):
    """A request outlived :data:`REQUEST_LIMIT_S` and was killed."""


class Client:
    """The closed-loop client of one benchmark run."""

    def __init__(self, root: str, workload: Workload, seed: int,
                 want: str) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.want = want
        #: End of the measuring window, once it has started.
        self.stop: Optional[float] = None
        self.work = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        self.count = 0

    def _spawn(self, cmd: List[str]):
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=clean_env(self.root),
                stdout=out, stderr=err, start_new_session=True,
            )
            # A hung request is killed, with its workers, so that the
            # run still ends; the run then reports no result.
            killed = []

            def kill() -> None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:  # it has just exited
                    return
                killed.append(True)

            limit = max(start, self.stop or start) + REQUEST_LIMIT_S
            timer = threading.Timer(limit - start, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        if killed:
            raise HarnessTimeout(
                f"a request was killed after {wall:.0f} s, the per-request "
                f"limit ({REQUEST_LIMIT_S:.0f} s past the measuring window): "
                + " ".join(cmd[1:])
            )
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return wall, usage, proc.returncode, stdout, stderr

    def request(self, traced: bool = False,
                outcome: Optional[str] = None) -> Request:
        """Send one request and check its output.

        The output must match the oracle and report the cache outcome
        *outcome* (by default the workload's).
        """
        w = self.workload
        outcome = outcome or w.outcome
        self.count += 1
        store = os.path.join(
            self.work, f"store-{self.count}" if w.fresh_store else "store"
        )
        argv = w.argv(self.seed, store)
        spans_path = os.path.join(self.work, "spans.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"),
                   "--spans", spans_path, "--", *argv, *w.traced_flags]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *argv]
        wall, usage, code, stdout, stderr = self._spawn(cmd)
        store_mb = _dir_bytes(store) / MIB if os.path.isdir(store) else 0.0
        if w.fresh_store:
            shutil.rmtree(store, ignore_errors=True)
        if code != 0:
            ok, detail = False, f"exit {code}: {stderr.strip()[-500:]}"
        elif not re.search(outcome, stdout, re.MULTILINE):
            ok, detail = False, f"no line matches the cache outcome {outcome!r}"
        elif digest(w.family, stdout) != self.want:
            ok, detail = False, "output differs from the oracle"
        else:
            ok, detail = True, ""
        spans = None
        if traced and ok:
            with open(spans_path) as fh:
                spans = json.load(fh)
        return Request(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss * 1024 / MIB,
            store_mb=store_mb,
            ok=ok,
            detail=detail,
            stdout=stdout,
            spans=spans,
        )

    def setup(self) -> List[float]:
        """Untimed preparation; returns the wall time of each repetition.

        With a shared store it primes the store (the last priming stays);
        otherwise it is a discarded warm-up request that fills ``.pyc``
        files and the page cache.  Set-up output is checked like a
        request's, except a *warmup* command's, which has no oracle and
        only has to succeed.
        """
        w = self.workload
        times = []
        shared = os.path.join(self.work, "store")
        for _ in range(w.setups):
            shutil.rmtree(shared, ignore_errors=True)
            if w.warmup is None:
                r = self.request(outcome=w.prime_outcome)
                wall, failure = r.wall_s, r.detail
            else:
                store = os.path.join(self.work, "warmup")
                wall, _, code, _, stderr = self._spawn(
                    [sys.executable, "-m", "repro.cli",
                     *w.warmup(self.seed, store)])
                shutil.rmtree(store, ignore_errors=True)
                failure = code and f"exit {code}: {stderr.strip()[-500:]}"
            if failure:
                raise RuntimeError(f"set-up request failed: {failure}")
            times.append(wall)
        return times


def _environment() -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return (
        f"python {platform.python_version()}, numpy {numpy}, "
        f"nproc {os.cpu_count()}, {platform.machine()} {platform.system()}"
    )


def _coverage_errors(w: Workload, traced: List[Request]) -> List[str]:
    errors = []
    for r in traced:
        calls = r.spans["calls"]
        errors += [f"{name} never fired" for name in w.expect_fired
                   if not calls.get(name)]
        errors += [f"{name} fired {calls[name]} time(s)"
                   for name in w.expect_silent if calls.get(name)]
    return sorted(set(errors))


def _load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(args: argparse.Namespace, root: str) -> int:
    spec = _load_spec(root)
    w = WORKLOADS[args.workload]
    seed = input_seed(w.family, args.seed, root)
    want = expected(w.family, seed, root)
    client = Client(root, w, seed, want)
    os.makedirs(client.work)
    try:
        setup_times = client.setup()
        plain: List[Request] = []
        traced: List[Request] = []
        client.stop = time.monotonic() + args.seconds
        while True:
            began = time.monotonic()
            plain.append(client.request())
            if args.trace:
                traced.append(client.request(traced=True))
            # End on the request boundary nearest the end of the window:
            # stop once less than half a round (as long as this one) is
            # left, rather than let a last round run far past it.
            now = time.monotonic()
            if now + (now - began) / 2 >= client.stop:
                break
    except HarnessTimeout as exc:
        print(f"run.py: no result, the benchmark timed out: {exc}",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(client.work, ignore_errors=True)

    everything = plain + traced
    failed = [r for r in everything if not r.ok]
    for r in failed:
        print(f"[failed] {r.detail}")
    good = [r for r in plain if r.ok] or plain
    print(f"environment: {_environment()}")
    print(
        f"workload {w.name}, seed {args.seed} (input seed {seed}), "
        f"{len(everything)} request(s), "
        f"{len(failed)} failed (failed_frac "
        f"{len(failed) / len(everything):.4g} of {len(everything)})"
    )
    if args.trace:
        good_traced = [r for r in traced if r.ok]
        if not good_traced:
            print("no traced request succeeded", file=sys.stderr)
            return 1
        errors = _coverage_errors(w, good_traced)
        if errors:
            print("wrapper coverage check failed: " + "; ".join(errors),
                  file=sys.stderr)
            return 1
        per_request = [tracer.layer_metrics(r.spans, r.wall_s)
                       for r in good_traced]
        values = {
            name: median([m[name] for m in per_request])
            for name in per_request[0]
        }
        values["obs.trace_overhead_frac"] = (
            median([r.wall_s for r in good_traced])
            / median([r.wall_s for r in good]) - 1.0
        )
        wanted = spec["per_layer"]
        samples = len(good_traced)
    else:
        values = {
            "request_s": median([r.wall_s for r in good]),
            "cpu_s": median([r.cpu_s for r in good]),
            "peak_rss_mb": median([r.peak_rss_mb for r in good]),
            "store_mb": median([r.store_mb for r in good]),
            "setup_s": median(setup_times),
        }
        wanted = spec["end_to_end"]
        samples = len(good)
    if {m["name"] for m in wanted} != set(values):
        print("metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {}
    for m in wanted:
        n = len(setup_times) if m["name"] == "setup_s" else samples
        print(f"  {m['name']:<28} {values[m['name']]:>14.6g} {m['unit']:<6}"
              f" (median of {n})")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("run.py: no src/repro/cli.py here; run it from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
