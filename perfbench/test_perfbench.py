"""Checks on the benchmark's own machinery (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from oracle import (  # noqa: E402
    CACHE_FILE, ORACLE_FILE, _load, clean_env, digest, input_seed, normalize,
)
from run import Client, Request, _coverage_errors  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, SIMULATED, WORKLOADS, Workload,
)


def _cli(args, **kwargs) -> str:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args], cwd=ROOT,
        env=clean_env(ROOT), capture_output=True, text=True, check=True,
        **kwargs,
    ).stdout


def _small(argv, fresh_store: bool = True) -> Workload:
    return Workload("small", "small", argv, fresh_store=fresh_store,
                    setups=1, outcome=SIMULATED, expect_fired=())


def _client(tmp_path, workload: Workload, want: str = "") -> Client:
    client = Client(ROOT, workload, DEFAULT_SEED, want)
    client.work = str(tmp_path)
    return client


def test_oracle_accepts_the_output_and_detects_one_corrupted_count(tmp_path):
    family = "paper-sweep"
    argv = WORKLOADS[family].argv(DEFAULT_SEED, str(tmp_path / "store"))
    captured = _cli(argv)
    with open(ORACLE_FILE) as fh:
        want = json.load(fh)["seeds"][str(DEFAULT_SEED)][family]
    assert digest(family, captured) == want
    # Add one to the first "useful" count of the table.
    rows = captured.splitlines()
    row = next(i for i, line in enumerate(rows) if "| computed |" in line)
    cells = rows[row].split("|")
    count = int(cells[3].replace(",", "")) + 1
    cells[3] = f"{count:>{len(cells[3]) - 1},} "
    rows[row] = "|".join(cells)
    corrupted = "\n".join(rows) + "\n"
    assert corrupted != captured
    assert digest(family, corrupted) != want


def test_warm_output_equals_cold_output_apart_from_banners(tmp_path):
    argv = ["analyze", "--circuit", "rca8", "--backend", "auto",
            "--vectors", "20", "--cache", str(tmp_path)]
    cold, warm = _cli(argv), _cli(argv)
    assert "[cache] simulated" in cold and "[cache] cache" in warm
    assert cold != warm
    assert normalize("farm16", cold) == normalize("farm16", warm)


def test_normalize_drops_the_submit_title_and_metrics_tables():
    table = "point | total\n------+------\n rca4 |     7\n"
    a = "job-0001-aa: 0 hit(s), 1 computed in 0.10s\n=====\n" + table
    b = ("job-0002-bb: 0 hit(s), 1 computed in 9.99s\n=====\n" + table
         + "-- counters --\nstore.put  1\n[manifest] x.json\n")
    assert normalize("paper-sweep", a) == normalize("paper-sweep", b)


def test_request_ignores_the_callers_repro_environment(tmp_path, monkeypatch):
    argv = ["analyze", "--circuit", "rca4", "--backend", "auto",
            "--vectors", "20", "--seed", "3"]
    primed = tmp_path / "primed"
    _cli([*argv, "--cache", str(primed)])
    monkeypatch.setenv("REPRO_CACHE_DIR", str(primed))
    monkeypatch.setenv("REPRO_LOG", str(tmp_path / "log.jsonl"))
    monkeypatch.setenv("REPRO_RUN_ID", "outside")
    client = _client(tmp_path / "work", _small(
        lambda seed, store: [*argv, "--cache", store]))
    os.makedirs(client.work)
    r = client.request()
    assert r.detail == "output differs from the oracle"  # no want given
    assert "[cache] simulated" in r.stdout
    assert not (tmp_path / "log.jsonl").exists()
    probe = "import os; print(sorted(k for k in os.environ if 'REPRO' in k))"
    _, _, code, stdout, _ = client._spawn([sys.executable, "-c", probe])
    assert code == 0 and stdout.strip() == "[]"


def test_a_warm_output_fails_a_cold_workload(tmp_path):
    argv = ["analyze", "--circuit", "rca4", "--backend", "auto",
            "--vectors", "20", "--seed", "3"]
    cold = _client(tmp_path / "work", _small(
        lambda seed, store: [*argv, "--cache", store], fresh_store=False))
    os.makedirs(cold.work)
    # Prime the store the workload shares, then ask it for a cold result.
    warm_out = _cli([*argv, "--cache", os.path.join(cold.work, "store")])
    assert "[cache] simulated" in warm_out
    cold.want = digest("small", warm_out)
    r = cold.request()
    assert "[cache] cache" in r.stdout
    assert digest("small", r.stdout) == cold.want  # the table is right
    assert not r.ok
    assert r.detail.startswith("no line matches the cache outcome")


def test_a_request_past_its_limit_stops_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REQUEST_LIMIT_S", 0.5)
    client = _client(tmp_path, _small(lambda seed, store: []))
    start = time.monotonic()
    with pytest.raises(run.HarnessTimeout, match="per-request limit"):
        client._spawn([sys.executable, "-c", "import time; time.sleep(30)"])
    assert time.monotonic() - start < 10


def _bindings():
    """Every program-module binding of a wrapped name, by identity."""
    found = {}
    for _, module_name, path in tracer.TARGETS + tracer.COUNTERS:
        owner = sys.modules[module_name]
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path)
            found[(owner, attr)] = vars(owner)[attr]
            continue
        original = vars(owner)[attr]
        for module in tracer._program_modules():
            for key, value in vars(module).items():
                if value is original:
                    found[(module, key)] = value
    return found


def test_wrappers_fire_and_every_original_is_restored():
    import repro.cli  # noqa: F401

    for _, module_name, _ in tracer.TARGETS + tracer.COUNTERS:
        __import__(module_name)
    before = _bindings()
    rec = tracer.Recorder()
    patcher = tracer.Patcher()
    tracer.install(rec, patcher)
    try:
        for (owner, key), value in before.items():
            assert vars(owner)[key] is not value, (owner, key)
        import repro.circuits.catalog as catalog

        catalog.build_named_circuit("rca4")
        repro.cli.build_named_circuit("rca4")  # through the cli binding
    finally:
        patcher.restore()
    assert rec.calls["circuits.build"] == 2
    assert [s[0] for s in rec.spans] == ["circuits.build"] * 2
    for (owner, key), value in before.items():
        assert vars(owner)[key] is value, (owner, key)


def test_self_time_subtracts_direct_children_and_roots_are_merged():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["runner.cached_run", 1.0, 9.0, 0],
        ["store.get", 2.0, 3.0, 1],
        ["store.get", 4.0, 6.0, 1],
        ["cli.import", 10.0, 11.0, -1],
    ]
    own = tracer.self_times(spans)
    assert own["cli.main"] == 2.0
    assert own["runner.cached_run"] == 5.0
    assert own["store.get"] == 3.0
    assert tracer.covered_s(spans) == 11.0


def test_coverage_check_names_missing_and_unexpected_wrappers():
    w = WORKLOADS["farm16-warm"]
    calls = {name: 1 for name in w.expect_fired}
    ok = Request(1, 1, 1, 1, True, "", "", {"calls": calls})
    assert _coverage_errors(w, [ok]) == []
    bad_calls = dict(calls, **{"activity.run": 1})
    del bad_calls["store.decode"]
    bad = Request(1, 1, 1, 1, True, "", "", {"calls": bad_calls})
    assert _coverage_errors(w, [ok, bad]) == [
        "activity.run fired 1 time(s)", "store.decode never fired",
    ]


def test_layer_metrics_cover_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    doc = {"spans": [], "calls": {}, "extras": {}, "hists": {}}
    produced = set(tracer.layer_metrics(doc, 1.0))
    assert produced | {"obs.trace_overhead_frac"} == names


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not re.search(r'"correct"', proc.stdout)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_committed_oracle_covers_the_default_seed(name):
    with open(ORACLE_FILE) as fh:
        seeds = json.load(fh)["seeds"]
    assert re.fullmatch(r"[0-9a-f]{64}",
                        seeds[str(DEFAULT_SEED)][WORKLOADS[name].family])


def test_seeds_without_known_digests_select_a_committed_seed(tmp_path):
    root = str(tmp_path)
    committed = {int(s) for s in _load(ORACLE_FILE)}
    assert input_seed("farm16", DEFAULT_SEED, root) == DEFAULT_SEED
    assert input_seed("farm16", 3, root) == 3
    seeds = (10**6, 10**6 + 1, 2**31 - 1)
    picked = [input_seed("farm16", s, root) for s in seeds]
    assert set(picked) <= committed
    assert picked == [input_seed("farm16", s, root) for s in seeds]
    assert len(set(picked)) == 3


def test_a_seed_with_cached_digests_is_used_as_it_is(tmp_path):
    os.makedirs(tmp_path / ".perfbench")
    with open(tmp_path / CACHE_FILE, "w") as fh:
        json.dump({"seeds": {"4242": {"farm16": "0" * 64}}}, fh)
    assert input_seed("farm16", 4242, str(tmp_path)) == 4242
    assert input_seed("paper-sweep", 4242, str(tmp_path)) != 4242
