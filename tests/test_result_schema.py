"""Schema-2 result payloads and the compile-free warm path.

A stored simulation result is JSON metadata plus one zlib blob: a
presence bitmap over the circuit's nets in canonical (name-sorted)
order and five fixed-width count columns.  The properties pinned here:
a round trip is ``==`` to the computed result, schema-1 payloads still
decode, a payload that does not fit the requesting circuit is a miss
and a recompute (never a wrong result), and a warm hit never compiles.
"""

import base64
import json
import random
import zlib
from pathlib import Path

import pytest

from repro.circuits.catalog import build_named_circuit
from repro.core.activity import ActivityResult, ActivityRun
from repro.core.transitions import NodeActivity
from repro.netlist.compiled import _CACHE
from repro.obs import trace as obs
from repro.service.jobs import BatchScheduler, JobSpec
from repro.service.runner import cached_run, run_key
from repro.service.store import (
    RESULT_SCHEMA,
    PayloadMismatchError,
    ResultStore,
    check_result_payload,
    decode_result,
    encode_result,
    payload_summary,
)
from repro.sim.delays import SumCarryDelay, UnitDelay
from repro.sim.vectors import UniformStimulus, WordStimulus
from tests.conftest import random_dag_circuit

FIXTURE = Path(__file__).parent / "data" / "rca4_unit_12v_schema1.json"


def _fresh(name="rca4", n_vectors=12, delay=None, backend="event"):
    circuit, stim = build_named_circuit(name)
    result = ActivityRun(
        circuit, delay_model=delay or UnitDelay(), backend=backend
    ).run(UniformStimulus(seed=1995).vectors(stim, n_vectors + 1))
    return circuit, stim, result


def _blob(payload):
    return zlib.decompress(base64.b64decode(payload["columns"]))


def _with_blob(payload, raw):
    return dict(
        payload,
        columns=base64.b64encode(zlib.compress(raw, 1)).decode("ascii"),
    )


class TestSchema2Codec:
    @pytest.mark.parametrize("name", ["rca4", "array4", "detector"])
    def test_roundtrip_equals_computed(self, name):
        circuit, _, result = _fresh(name, n_vectors=40)
        payload = encode_result(result, circuit)
        assert payload["schema"] == RESULT_SCHEMA == 2
        assert payload["nets"] == len(circuit.nets)
        back = decode_result(payload, circuit)
        assert back.per_node == result.per_node
        # A fresh run lists nets in ascending index order; so does a
        # decoded one (float sums over per_node depend on the order).
        assert list(back.per_node) == sorted(result.per_node)
        assert back.cycles == result.cycles
        assert back.summary() == result.summary()
        assert payload_summary(payload) == result.summary()

    def test_payload_is_json_metadata_plus_one_blob(self):
        circuit, _, result = _fresh()
        payload = encode_result(result, circuit)
        assert set(payload) == {
            "schema", "circuit_name", "delay_description", "cycles",
            "nets", "widths", "columns",
        }
        assert json.loads(json.dumps(payload)) == payload
        raw = _blob(payload)
        head = (len(circuit.nets) + 7) // 8
        bits = int.from_bytes(raw[:head], "little")
        assert bits.bit_count() == len(result.per_node)
        assert len(raw) == head + len(result.per_node) * sum(
            payload["widths"]
        )

    def test_columns_take_the_narrowest_width(self):
        circuit, _, _ = _fresh()
        nets = [n.index for n in circuit.nets if n.driver is not None]
        result = ActivityResult(
            circuit.name, "unit delay", cycles=1,
            per_node={
                nets[0]: NodeActivity(255, 256, 65535, 65536, 1),
                nets[1]: NodeActivity(1, 2, 3, 2 ** 32, 1),
            },
            node_names={n.index: n.name for n in circuit.nets},
        )
        payload = encode_result(result, circuit)
        assert payload["widths"] == [1, 2, 2, 8, 1]
        assert decode_result(payload, circuit).per_node == result.per_node

    def test_empty_result_roundtrips(self):
        circuit, _, _ = _fresh()
        result = ActivityResult(
            circuit.name, "unit delay", cycles=0,
            node_names={n.index: n.name for n in circuit.nets},
        )
        back = decode_result(encode_result(result, circuit), circuit)
        assert back.per_node == {} and back.cycles == 0

    def test_random_circuits_roundtrip(self):
        for seed in range(8):
            circuit = random_dag_circuit(
                random.Random(seed), n_gates=20, with_ffs=True
            )
            stim = WordStimulus({"i": list(circuit.inputs)})
            result = ActivityRun(circuit, backend="waveform").run(
                stim.random(random.Random(seed), 30)
            )
            back = decode_result(encode_result(result, circuit), circuit)
            assert back.per_node == result.per_node

    def test_payload_is_much_smaller_than_schema1(self):
        circuit, _, result = _fresh("array8", n_vectors=200)
        rows = {
            circuit.net_name(n): [
                a.toggles, a.rises, a.useful, a.useless, a.cycles_active,
            ]
            for n, a in result.per_node.items()
        }
        legacy = json.dumps({"per_node": rows})
        assert len(json.dumps(encode_result(result, circuit))) * 3 < len(
            legacy
        )


class TestLegacySchema1:
    def test_fixture_decodes_to_the_computed_result(self):
        circuit, _, result = _fresh()
        payload = json.loads(FIXTURE.read_text())
        assert payload["schema"] == 1
        back = decode_result(payload, circuit)
        assert back.per_node == result.per_node
        assert back.summary() == result.summary()
        assert payload_summary(payload) == result.summary()
        check_result_payload(payload, circuit)

    def test_fixture_served_through_cached_run(self, tmp_path):
        circuit, stim, result = _fresh()
        store = ResultStore(tmp_path)
        spec = UniformStimulus(seed=1995)
        store.put(
            run_key(circuit, stim, spec, 12, UnitDelay()),
            json.loads(FIXTURE.read_text()),
        )
        served = cached_run(
            circuit, stim, spec, 12, delay_model=UnitDelay(), store=store
        )
        assert store.hits == 1 and store.misses == 0
        assert served.per_node == result.per_node

    def test_unknown_net_is_a_mismatch(self):
        circuit, _, _ = _fresh()
        payload = json.loads(FIXTURE.read_text())
        payload["per_node"]["no_such_net"] = [1, 1, 1, 0, 1]
        with pytest.raises(PayloadMismatchError):
            decode_result(payload, circuit)
        with pytest.raises(PayloadMismatchError):
            check_result_payload(payload, circuit)


def _mismatched_payloads(circuit, result):
    """Payloads that must not decode against *circuit*."""
    good = encode_result(result, circuit)
    raw = _blob(good)
    head = (len(circuit.nets) + 7) // 8
    other_circuit, _, other = _fresh("rca6")
    yield "other circuit", encode_result(other, other_circuit)
    yield "net count", dict(good, nets=good["nets"] + 1)
    yield "truncated columns", _with_blob(good, raw[:-1])
    yield "extra bytes", _with_blob(good, raw + b"\0")
    # One more present net than the columns hold.
    bitmap = bytearray(raw[:head])
    free = next(
        i for i in range(len(circuit.nets))
        if not bitmap[i >> 3] >> (i & 7) & 1
    )
    bitmap[free >> 3] |= 1 << (free & 7)
    yield "presence count", _with_blob(good, bytes(bitmap) + raw[head:])
    yield "unreadable blob", dict(good, columns="not base64 zlib")
    yield "bad widths", dict(good, widths=[3, 1, 1, 1, 1])
    yield "unknown schema", dict(good, schema=99)


def _plant(store, key, payload, monkeypatch):
    """Store *payload* as is: ``put`` summarizes what it writes, which a
    malformed blob cannot survive."""
    with monkeypatch.context() as m:
        m.setattr("repro.service.store.payload_summary", lambda p: {})
        store.put(key, payload)


class TestMismatchIsAMiss:
    def test_every_mismatch_raises(self):
        circuit, _, result = _fresh()
        for label, payload in _mismatched_payloads(circuit, result):
            with pytest.raises(PayloadMismatchError):
                decode_result(payload, circuit)
            with pytest.raises(PayloadMismatchError):
                check_result_payload(payload, circuit)

    def test_cached_run_recomputes(self, tmp_path, monkeypatch):
        circuit, stim, result = _fresh()
        spec = UniformStimulus(seed=1995)
        key = run_key(circuit, stim, spec, 12, UnitDelay())
        for label, payload in _mismatched_payloads(circuit, result):
            store = ResultStore(tmp_path / label.replace(" ", "-"))
            _plant(store, key, payload, monkeypatch)
            with obs.capture() as rec:
                served = cached_run(
                    circuit, stim, spec, 12, delay_model=UnitDelay(),
                    store=store,
                )
            assert served.per_node == result.per_node, label
            assert store.hits == 0 and store.misses == 1, label
            counters = rec.metrics.snapshot()["counters"]
            assert counters.get("store.decode_error") == 1, label
            assert counters.get("store.hit", 0) == 0, label
            # The recompute replaced the bad entry with a good one.
            fixed = store.get(key)
            assert decode_result(fixed, circuit).per_node == result.per_node

    def test_batch_scheduler_recomputes(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        spec = JobSpec(
            circuit="rca4", n_vectors=12,
            stimulus=UniformStimulus(seed=1995),
        )
        (point,) = spec.points()
        circuit, stim, result = _fresh()
        key = run_key(
            circuit, stim, point.stimulus, 12, UnitDelay(),
            backend=point.backend,
        )
        _plant(
            store, key, dict(encode_result(result, circuit), nets=1),
            monkeypatch,
        )
        report = BatchScheduler(store).run(spec)
        (outcome,) = report.outcomes
        assert outcome.status == "computed"
        assert outcome.summary == result.summary()
        check_result_payload(store.get(key), circuit)


class TestWarmPathNeverCompiles:
    def test_warm_cached_run_records_no_compile(self, tmp_path):
        spec = UniformStimulus(seed=3)
        store = ResultStore(tmp_path)
        circuit, stim = build_named_circuit("array4")
        cold = cached_run(
            circuit, stim, spec, 30, delay_model=SumCarryDelay(),
            store=store,
        )
        # A new process sees a freshly built netlist with nothing
        # compiled; model that with a new build.
        circuit, stim = build_named_circuit("array4")
        with obs.capture() as rec:
            warm = cached_run(
                circuit, stim, spec, 30, delay_model=SumCarryDelay(),
                store=store,
            )
        counters = rec.metrics.snapshot()["counters"]
        assert counters.get("compile.full", 0) == 0
        assert counters.get("store.hit") == 1
        assert rec.find("cache.key") and not rec.find("compile")
        assert circuit not in _CACHE
        assert warm.per_node == cold.per_node

    def test_cold_cached_run_spans_key_and_encode(self, tmp_path):
        circuit, stim = build_named_circuit("rca4")
        with obs.capture() as rec:
            cached_run(
                circuit, stim, UniformStimulus(), 10,
                store=ResultStore(tmp_path),
            )
        assert rec.find("cache.key") and rec.find("cache.encode")
        assert rec.metrics.snapshot()["counters"]["compile.full"] >= 1

    def test_catalog_build_is_spanned(self):
        with obs.capture() as rec:
            build_named_circuit("rca4")
        (span,) = rec.find("circuit.build")
        assert span["args"]["circuit"] == "rca4"
