"""The output oracle: expected results from the event-driven engine.

A request's output is reduced to its result table (:func:`normalize`)
and compared by SHA-256 with the digest the event-driven reference
engine produced for the same command and seed.  Digests for the seeds
in ``perfbench/oracle.json`` are committed; ``oracle.py SEED`` generates
them for another seed and keeps them in ``.perfbench/oracle-cache.json``
inside the checkout, where ``run.py --seed SEED`` then finds them.

Regenerate the committed digests (a few minutes per seed, mostly the
event-driven farm16 run)::

    python3 perfbench/oracle.py --write 0-40 1995

Generate them for a held-out seed only, into the cache::

    python3 perfbench/oracle.py 4242
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_FILE = os.path.join(HERE, "oracle.json")
CACHE_FILE = os.path.join(".perfbench", "oracle-cache.json")

sys.path.insert(0, HERE)
from workloads import FAMILIES, family_argv  # noqa: E402


def normalize(family: str, text: str) -> str:
    """The part of a request's output that must match the oracle.

    Drops ``[cache]``/``[manifest]``/``[trace]`` banners and any
    ``--metrics`` tables after the result; ``submit`` also loses its
    title, which carries the job id and elapsed time.
    """
    lines: List[str] = []
    for line in text.splitlines():
        if line.startswith("-- "):
            break
        if not line.startswith("["):
            lines.append(line.rstrip())
    if family == "paper-sweep" and len(lines) > 1 and set(lines[1]) == {"="}:
        lines = lines[2:]
    return "\n".join(lines) + "\n"


def digest(family: str, text: str) -> str:
    return hashlib.sha256(normalize(family, text).encode()).hexdigest()


def clean_env(root: str) -> Dict[str, str]:
    """The environment of every request: no ``REPRO_*`` settings.

    ``REPRO_CACHE_DIR`` would give a request a default result store,
    ``REPRO_TRACE``/``REPRO_LOG``/``REPRO_RUN_ID`` would arm tracing.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _emit(family: str, seed: int, store: str) -> int:
    """Child side: run *family*'s command with ``auto`` forced to event."""
    import repro.cli
    from tracer import Patcher

    forced = []

    def event_only(original):
        def select(*args, **kwargs):
            forced.append(original(*args, **kwargs))
            return "event"
        return select

    patcher = Patcher()
    patcher.replace("repro.sim.backends", "select_backend", event_only)
    try:
        code = repro.cli.main(family_argv(family, seed, store))
    finally:
        patcher.restore()
    if not forced:
        print("oracle: the run never resolved a backend", file=sys.stderr)
        return 1
    return code


def generate(family: str, seed: int, root: str) -> str:
    """Digest of *family*'s output for *seed*, from the event engine."""
    store = tempfile.mkdtemp(
        prefix="oracle-", dir=os.path.join(root, ".perfbench")
    )
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "oracle.py"), "--emit",
             family, str(seed), store],
            cwd=root, env=clean_env(root), capture_output=True, text=True,
            timeout=170,
        )
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"oracle run for {family} seed {seed} failed:\n{proc.stderr}"
        )
    return digest(family, proc.stdout)


def _load(path: str) -> Dict[str, Dict[str, str]]:
    try:
        with open(path) as fh:
            return json.load(fh)["seeds"]
    except FileNotFoundError:
        return {}


def _save(path: str, seeds: Dict[str, Dict[str, str]]) -> None:
    doc = {"engine": "event", "seeds": dict(sorted(
        seeds.items(), key=lambda kv: int(kv[0])))}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    os.replace(tmp, path)


def known(family: str, seed: int, root: str) -> Optional[str]:
    """The committed or cached oracle digest, if there is one."""
    for path in (ORACLE_FILE, os.path.join(root, CACHE_FILE)):
        found = _load(path).get(str(seed), {}).get(family)
        if found:
            return found
    return None


def input_seed(family: str, seed: int, root: str) -> int:
    """The input seed a benchmark seed selects.

    A seed whose digest is committed or cached is used as it is; any
    other picks one of the committed seeds by index, so that no run has
    to spend ~45 s generating an oracle.
    """
    if known(family, seed, root):
        return seed
    committed = sorted(int(s) for s in _load(ORACLE_FILE))
    return committed[seed % len(committed)]


def expected(family: str, seed: int, root: str) -> str:
    """The oracle digest, committed, cached, or generated now."""
    found = known(family, seed, root)
    if found:
        return found
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    value = generate(family, seed, root)
    cache = os.path.join(root, CACHE_FILE)
    seeds = _load(cache)
    seeds.setdefault(str(seed), {})[family] = value
    _save(cache, seeds)
    return value


def _parse_seeds(specs: List[str]) -> List[int]:
    seeds: List[int] = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--emit"] and len(argv) == 4:
        return _emit(argv[1], int(argv[2]), argv[3])
    write = argv[:1] == ["--write"]
    seeds = _parse_seeds(argv[1:] if write else argv)
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("oracle: run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    committed = _load(ORACLE_FILE)
    for seed in seeds:
        if write:
            committed[str(seed)] = {
                f: generate(f, seed, root) for f in FAMILIES
            }
            _save(ORACLE_FILE, committed)
        else:
            for family in FAMILIES:
                expected(family, seed, root)
        print(f"seed {seed}: done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
