"""The benchmark's workloads: what each request runs, and how it is set up.

Every workload is one ``repro`` CLI command.  Its inputs come only from
the benchmark seed; the program receives them as ordinary CLI flags.
Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

#: How a request reports where its result came from: a cold farm16
#: request simulated, a warm one read the store.
SIMULATED = r"^\[cache\] simulated: "
FROM_STORE = r"^\[cache\] cache: "

#: The seed the README and the committed oracle treat as the default.
DEFAULT_SEED = 1995

#: Circuits of the paper (Figure 5, Tables 1-3, Section 4.2).
PAPER_CIRCUITS = (
    "rca4", "rca8", "rca16", "array4", "array8", "array16",
    "wallace8", "wallace16", "detector",
)


def sweep_seeds(seed: int) -> List[int]:
    """The four stimulus seeds of one ``paper-sweep`` request."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(4)]


def _farm16(seed: int, store: str) -> List[str]:
    return [
        "analyze", "--circuit", "farm16", "--backend", "auto",
        "--vectors", "20", "--seed", str(seed), "--cache", store,
    ]


def _small_analyze(seed: int, store: str) -> List[str]:
    return [
        "analyze", "--circuit", "rca4", "--backend", "auto",
        "--vectors", "20", "--seed", str(seed), "--cache", store,
    ]


def _small_submit(seed: int, store: str) -> List[str]:
    return [
        "submit", "--jobs", "2", "--vectors", "20", "--cache", store,
        "--sweep", "circuit=rca4",
        "--sweep", "seed=" + ",".join(map(str, sweep_seeds(seed)[:2])),
    ]


def _paper_sweep(seed: int, store: str) -> List[str]:
    return [
        "submit", "--jobs", "2", "--vectors", "500", "--cache", store,
        "--sweep", "circuit=" + ",".join(PAPER_CIRCUITS),
        "--sweep", "delay=unit,sumcarry",
        "--sweep", "seed=" + ",".join(map(str, sweep_seeds(seed))),
    ]


def _explore_array8(seed: int, store: str) -> List[str]:
    return [
        "explore", "--circuit", "array8", "--vectors", "100",
        "--max-depth", "3", "--seed", str(seed), "--cache", store,
    ]


def _small_explore(seed: int, store: str) -> List[str]:
    return [
        "explore", "--circuit", "rca4", "--vectors", "20",
        "--max-depth", "1", "--seed", str(seed), "--cache", store,
    ]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    *family* names the oracle entry the output is checked against:
    workloads that run the same command share it.  *fresh_store* gives
    every request an empty result store; otherwise all requests share
    one store that set-up primes.  *setups* is how many times set-up is
    repeated to take its median.  Set-up repeats the workload's own
    request unless *warmup* names a cheaper command that loads the same
    code: every workload but ``farm16-warm`` warms up on the same
    subcommand over rca4 (~0.5 s), and ``farm16-warm`` primes its store
    once with a ~7 s farm16 request.

    *outcome* is a regular expression one line of every request's
    output must match: the cache outcome the workload exists to
    measure.  Set-up requests must match *prime_outcome* instead, when
    it is given.
    """

    name: str
    family: str
    argv: Callable[[int, str], List[str]]
    fresh_store: bool
    setups: int
    outcome: str
    #: Wrappers that must fire in every traced request, and wrappers
    #: that must not fire at all.
    expect_fired: Tuple[str, ...]
    expect_silent: Tuple[str, ...] = ()
    #: Extra CLI flags of a traced request only.
    traced_flags: Tuple[str, ...] = ()
    warmup: Optional[Callable[[int, str], List[str]]] = None
    prime_outcome: Optional[str] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "farm16-cold", "farm16", _farm16, fresh_store=True, setups=5,
            outcome=SIMULATED, warmup=_small_analyze,
            expect_fired=(
                "circuits.build", "netlist.fingerprint", "netlist.compile",
                "netlist.delay_fingerprint", "runner.cached_run",
                "activity.run", "store.get", "store.encode", "store.put",
            ),
        ),
        Workload(
            "farm16-warm", "farm16", _farm16, fresh_store=False, setups=1,
            outcome=FROM_STORE, prime_outcome=SIMULATED,
            expect_fired=(
                "circuits.build", "netlist.fingerprint",
                "runner.cached_run", "store.get", "store.decode",
            ),
            expect_silent=("activity.run", "store.put"),
        ),
        Workload(
            "paper-sweep", "paper-sweep", _paper_sweep, fresh_store=True,
            setups=5, warmup=_small_submit,
            # 9 circuits x 2 delay models x 4 seeds, none in the store.
            outcome=r"^job-\S+: 0 hit\(s\), 72 computed in ",
            expect_fired=("jobs.run", "pool.run", "store.get", "store.put"),
            # Points run in forked workers; their times come from the
            # pool histograms the program merges and prints on --metrics.
            traced_flags=("--metrics",),
        ),
        Workload(
            "explore-array8", "explore-array8", _explore_array8,
            fresh_store=True, setups=5, warmup=_small_explore,
            outcome=r"^\[cache\] 0 hit\(s\), [1-9][0-9]* miss\(es\) at ",
            expect_fired=(
                "explore.search", "estimate.workload", "opt.transform",
                "netlist.compile_delta", "jobs.run", "activity.run",
            ),
        ),
    )
}

FAMILIES = sorted({w.family: w for w in WORKLOADS.values()})


def family_argv(family: str, seed: int, store: str) -> List[str]:
    """The CLI arguments of *family*'s request for *seed*."""
    for w in WORKLOADS.values():
        if w.family == family:
            return w.argv(seed, store)
    raise KeyError(family)
