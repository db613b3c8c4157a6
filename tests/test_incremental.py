"""Incremental-recompute invariants: delta replay, delta compile, cones.

The delta-compilation stack promises *bit-identical* results to the
from-scratch path at every layer:

1. every transform's :class:`~repro.netlist.delta.CircuitDelta`
   replays onto the parent to the child's exact fingerprint;
2. :func:`~repro.netlist.compiled.compile_delta` splices a compiled
   circuit that evaluates identically to a full build (topology,
   levelization, stateful simulation);
3. cone-limited re-estimation reproduces the full fixed-point passes
   exactly (well inside the 1e-12 budget — the replay is
   operation-for-operation identical);
4. the incremental explore path produces the same candidates, costs
   and Pareto front as the pre-incremental reference path, while
   serving most expansions from delta reuse.

Shapes that broke the compiled pipeline before (undriven-net
consumers, BUF feeding a primary output, buffer chains into a DFF)
get explicit delta-path regression coverage.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.catalog import build_named_circuit
from repro.core.activity import ActivityResult
from repro.core.transitions import NodeActivity
from repro.estimate.workload import (
    estimate_workload,
    incremental_workload,
    workload_snapshot,
)
from repro.explore import search
from repro.explore.cost import (
    period_from_arrivals,
    spliced_instant_state,
    transition_instant_sets,
    transition_instants,
)
from repro.explore.search import explore
from repro.explore.specs import TransformSpec, default_space
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import compile_circuit, compile_delta
from repro.netlist.delta import (
    comb_fanout_cone,
    cone_net_indices,
    diff_circuits,
    full_fanout_cone,
    timing_cone_seeds,
    touched_cell_indices,
)
from repro.obs import trace as obs
from repro.opt.balance import balance_paths_delta
from repro.opt.transform import (
    dead_cell_elimination_delta,
    propagate_constants_delta,
    strip_buffers_delta,
)
from repro.service.runner import reusable_result_nets
from repro.service.store import decode_result, share_per_node_rows
from repro.sim.delays import SumCarryDelay, UnitDelay
from repro.sim.vectors import CorrelatedStimulus, UniformStimulus

from tests.conftest import random_dag_circuit

seeds = st.integers(min_value=0, max_value=2**31)

DELAY_MODELS = (UnitDelay(), SumCarryDelay(dsum=2, dcarry=1))


def _delta_children(circuit, delay_model):
    """(child, delta) for every default-space transform of *circuit*."""
    out = []
    for spec in default_space(max_stages=2).transforms:
        child, _info, delta = spec.apply_delta(circuit, delay_model)
        out.append((spec.describe(), child, delta))
    return out


def _buffered_circuit():
    """Tiny netlist where strip_buffers removes a cell (non-additive)."""
    c = Circuit("buffered")
    a = c.add_input("a")
    b = c.add_input("b")
    buf = c.gate(CellKind.BUF, a, name="buf")
    y = c.gate(CellKind.AND, buf, b, name="g")
    c.mark_output(y, "y")
    return c


def _assert_compiled_equivalent(parent, delta, child, delay_model, rng):
    """compile_delta(child) must behave exactly like a full build."""
    cc = compile_delta(parent, delta, child, delay_model)
    ref = compile_circuit(child, delay_model)
    assert sorted(cc.topo) == sorted(ref.topo)
    assert cc.cell_levels == ref.cell_levels
    assert cc.out_specs == ref.out_specs
    assert cc.ff_cells == ref.ff_cells
    assert cc.comb_fanout == ref.comb_fanout
    state_a: dict = {}
    state_b: dict = {}
    for _ in range(8):
        vec = [rng.randint(0, 1) for _ in child.inputs]
        va, state_a = cc.evaluate_flat(vec, state_a)
        vb, state_b = ref.evaluate_flat(vec, state_b)
        assert va == vb
        assert state_a == state_b


class TestDeltaReplay:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, with_ffs=st.booleans())
    def test_cleanup_deltas_replay_to_child_fingerprint(
        self, seed, with_ffs
    ):
        rng = random.Random(seed)
        base = random_dag_circuit(rng, n_inputs=4, n_gates=12,
                                  with_ffs=with_ffs)
        for fn in (dead_cell_elimination_delta, propagate_constants_delta,
                   strip_buffers_delta):
            child, delta = fn(base)
            replayed = delta.apply(base)
            assert replayed.fingerprint() == child.fingerprint(), fn.__name__

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_balance_delta_is_pure_additive_and_replays(self, seed):
        rng = random.Random(seed)
        base = random_dag_circuit(rng, n_inputs=4, n_gates=10)
        child, _stats, delta = balance_paths_delta(base)
        assert delta.is_pure_addition
        assert delta.apply(base).fingerprint() == child.fingerprint()

    @pytest.mark.parametrize("name", ["rca8", "array8"])
    @pytest.mark.parametrize("dm", DELAY_MODELS, ids=lambda m: m.describe())
    def test_space_transforms_replay_on_catalog(self, name, dm):
        circuit, _ = build_named_circuit(name)
        for label, child, delta in _delta_children(circuit, dm):
            replayed = delta.apply(circuit)
            assert replayed.fingerprint() == child.fingerprint(), label

    def test_replay_rejects_wrong_parent(self):
        rca, _ = build_named_circuit("rca4")
        other, _ = build_named_circuit("rca8")
        _, _, delta = balance_paths_delta(rca)
        with pytest.raises(ValueError, match="fingerprint"):
            delta.apply(other)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, with_ffs=st.booleans())
    def test_diff_of_identical_circuits_is_identity(self, seed, with_ffs):
        rng = random.Random(seed)
        base = random_dag_circuit(rng, n_inputs=4, n_gates=10,
                                  with_ffs=with_ffs)
        delta = diff_circuits(base, base)
        assert delta.is_identity
        assert delta.is_pure_addition
        assert delta.apply(base).fingerprint() == base.fingerprint()


class TestDeltaCompile:
    @pytest.mark.parametrize("name", ["rca8", "array8"])
    @pytest.mark.parametrize(
        "dm", (None,) + DELAY_MODELS,
        ids=lambda m: "zero" if m is None else m.describe(),
    )
    def test_catalog_transforms_compile_equivalent(self, name, dm):
        rng = random.Random(7)
        circuit, _ = build_named_circuit(name)
        for label, child, delta in _delta_children(
            circuit, dm or UnitDelay()
        ):
            if not delta.is_pure_addition:
                continue
            replayed = delta.apply(circuit)
            _assert_compiled_equivalent(circuit, delta, replayed, dm, rng)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_random_balance_compiles_equivalent(self, seed):
        rng = random.Random(seed)
        base = random_dag_circuit(rng, n_inputs=4, n_gates=12)
        child, _stats, delta = balance_paths_delta(base)
        replayed = delta.apply(base)
        _assert_compiled_equivalent(base, delta, replayed, UnitDelay(), rng)

    def test_non_additive_delta_falls_back_to_full_build(self):
        circuit = _buffered_circuit()
        child, delta = strip_buffers_delta(circuit)
        assert not delta.is_pure_addition
        cc = compile_delta(circuit, delta, child)
        assert cc is compile_circuit(child)

    def test_delta_compile_is_memoized(self):
        circuit, _ = build_named_circuit("rca4")
        _child, _stats, delta = balance_paths_delta(circuit)
        replayed = delta.apply(circuit)
        cc = compile_delta(circuit, delta, replayed)
        assert compile_circuit(replayed) is cc
        assert compile_delta(circuit, delta, replayed) is cc


class TestConeEstimates:
    @pytest.mark.parametrize("name", ["rca8", "array8"])
    @pytest.mark.parametrize(
        "stim", (UniformStimulus(), CorrelatedStimulus(flip_probability=0.25)),
        ids=("uniform", "correlated"),
    )
    def test_cone_estimates_match_full_pass(self, name, stim):
        circuit, _ = build_named_circuit(name)
        parent = workload_snapshot(circuit, stim)
        assert parent.result == estimate_workload(circuit, stim)
        for label, _child, delta in _delta_children(circuit, UnitDelay()):
            if not delta.is_pure_addition:
                continue
            replayed = delta.apply(circuit)
            cc = compile_delta(circuit, delta, replayed)
            cone = full_fanout_cone(
                replayed, touched_cell_indices(replayed, delta)
            )
            nets = cone_net_indices(replayed, cone, delta)
            snap = incremental_workload(
                replayed, cc, parent, cone, nets, stim
            )
            if snap is None:
                continue  # mixed flipflop cone: full-pass fallback
            ref = workload_snapshot(replayed, stim)
            for got, want in zip(snap.prob_array, ref.prob_array):
                assert got == pytest.approx(want, abs=1e-12), label
            for got, want in zip(snap.dens_array, ref.dens_array):
                assert got == pytest.approx(want, abs=1e-12), label
            assert snap.result == ref.result, label

    def test_mixed_flipflop_cone_returns_none(self):
        # retime then balance: the balanced comb cone reaches some
        # registers (the retimed chains) but not the conceptually
        # upstream ones -> not exactly replayable.
        circuit, _ = build_named_circuit("rca8")
        retime = TransformSpec(kind="retime", params=(("stages", 1),))
        balance = TransformSpec(kind="balance")
        mid, _, d1 = retime.apply_delta(circuit, UnitDelay())
        mid = d1.apply(circuit)
        child, _, d2 = balance.apply_delta(mid, UnitDelay())
        replayed = d2.apply(mid)
        parent = workload_snapshot(mid)
        cc = compile_delta(mid, d2, replayed)
        cone = full_fanout_cone(
            replayed, touched_cell_indices(replayed, d2)
        )
        in_cone = [ci in cone for ci in cc.ff_cells]
        assert any(in_cone) and not all(in_cone)
        snap = incremental_workload(
            replayed, cc, parent, cone,
            cone_net_indices(replayed, cone, d2),
        )
        assert snap is None

    @pytest.mark.parametrize("dm", DELAY_MODELS, ids=lambda m: m.describe())
    def test_spliced_timing_matches_full_pass(self, dm):
        circuit, _ = build_named_circuit("array8")
        parent_sets = transition_instant_sets(circuit, dm)
        parent_arr = circuit.levelize(lambda c, p: dm.delay(c, p))
        for label, _child, delta in _delta_children(circuit, dm):
            if not delta.is_pure_addition:
                continue
            replayed = delta.apply(circuit)
            cone = comb_fanout_cone(
                replayed, timing_cone_seeds(circuit, replayed, delta)
            )
            sets, arr = spliced_instant_state(
                parent_sets, parent_arr, replayed, dm, cone
            )
            assert {
                n: len(t) for n, t in sets.items()
            } == transition_instants(replayed, dm), label
            ref_arr = replayed.levelize(lambda c, p: dm.delay(c, p))
            assert all(arr.get(n) == lv for n, lv in ref_arr.items()), label
            assert period_from_arrivals(
                replayed, arr
            ) == replayed.critical_path_length(
                lambda c, p: dm.delay(c, p)
            ), label


class TestRegressionShapes:
    """Delta paths over the shapes that broke the compiled pipeline."""

    def _undriven_consumer(self):
        c = Circuit("undriven_consumer")
        a = c.add_input("a")
        floating = c.new_net("floating")
        y = c.gate(CellKind.AND, a, floating, name="g")
        c.mark_output(y, "y")
        return c

    def _buf_to_po(self):
        c = Circuit("buf_to_po")
        a = c.add_input("a")
        y = c.gate(CellKind.BUF, a, name="b0")
        c.mark_output(y, "y")
        return c

    def _buffer_chain_to_dff(self):
        c = Circuit("bufchain_dff")
        a = c.add_input("a")
        n = a
        for k in range(3):
            n = c.gate(CellKind.BUF, n, name=f"b{k}")
        q = c.add_dff(n, name="ff")
        q2 = c.add_dff(q, name="ff2")
        c.mark_output(q2, "y")
        return c

    @pytest.mark.parametrize(
        "builder", ["_undriven_consumer", "_buf_to_po",
                    "_buffer_chain_to_dff"],
    )
    def test_delta_stack_on_regression_shape(self, builder):
        rng = random.Random(3)
        base = getattr(self, builder)()
        transforms = [dead_cell_elimination_delta,
                      propagate_constants_delta, strip_buffers_delta]
        if builder != "_undriven_consumer":
            # balance_paths predates undriven-consumer support; the
            # other shapes exercise its additive-delta path too.
            transforms.append(
                lambda c: balance_paths_delta(c)[0::2]
            )
        for fn in transforms:
            out = fn(base)
            child, delta = out[0], out[-1]
            replayed = delta.apply(base)
            assert replayed.fingerprint() == child.fingerprint()
            if not delta.is_pure_addition:
                continue
            _assert_compiled_equivalent(
                base, delta, replayed, UnitDelay(), rng
            )
            parent = workload_snapshot(base)
            cone = full_fanout_cone(
                replayed, touched_cell_indices(replayed, delta)
            )
            cc = compile_delta(base, delta, replayed)
            snap = incremental_workload(
                replayed, cc, parent, cone,
                cone_net_indices(replayed, cone, delta),
            )
            if snap is not None:
                ref = workload_snapshot(replayed)
                assert snap.prob_array == ref.prob_array
                assert snap.dens_array == ref.dens_array


class TestIncrementalExplore:
    def test_array8_beam_depth3_reuses_and_matches_reference(
        self, monkeypatch
    ):
        def run():
            circuit, _ = build_named_circuit("array8")
            return explore(
                circuit, default_space(max_depth=3), strategy="beam",
                beam_width=3, n_vectors=24,
            )

        monkeypatch.setattr(search, "INCREMENTAL_EXPANSION", True)
        inc = run()
        monkeypatch.setattr(search, "INCREMENTAL_EXPANSION", False)
        ref = run()
        assert inc.delta_reuse_frac is not None
        assert inc.delta_reuse_frac > 0.5
        assert ref.delta_reuse_frac is None
        # Bit-identical exploration outcome: same candidates (by chain
        # label), same estimated and simulated costs, same front.
        assert {c.label for c in inc.candidates} == {
            c.label for c in ref.candidates
        }
        # Per-net figures are bit-identical; aggregate power sums in
        # replayed-circuit net order, so allow a few ULPs there.
        def close(a, b):
            assert a.area_mm2 == b.area_mm2
            assert a.latency == b.latency
            assert a.period == b.period
            assert a.power_mw == pytest.approx(b.power_mw, rel=1e-12)

        est_ref = {c.label: c.estimate for c in ref.candidates}
        for c in inc.candidates:
            close(c.estimate, est_ref[c.label])
        front_inc = {c.label: c.exact for c in inc.front()}
        front_ref = {c.label: c.exact for c in ref.front()}
        assert front_inc.keys() == front_ref.keys()
        for label, exact in front_inc.items():
            close(exact, front_ref[label])
        assert inc.n_enumerated == ref.n_enumerated

    def test_deduplicated_chains_skip_estimate_work(self, monkeypatch):
        calls = {"full": 0, "delta": 0}
        real_full = search.workload_snapshot
        real_inc = search.incremental_workload

        def counting_full(*args, **kwargs):
            calls["full"] += 1
            return real_full(*args, **kwargs)

        def counting_inc(*args, **kwargs):
            calls["delta"] += 1
            return real_inc(*args, **kwargs)

        monkeypatch.setattr(search, "workload_snapshot", counting_full)
        monkeypatch.setattr(search, "incremental_workload", counting_inc)
        circuit, _ = build_named_circuit("rca4")
        with obs.capture() as rec:
            result = explore(
                circuit, default_space(max_depth=2), strategy="beam",
                beam_width=4, n_vectors=8,
            )
        # Estimation ran at most once per *unique* candidate (plus one
        # aborted cone attempt per mixed-flipflop fallback); the
        # fingerprint-collapsed chains cost zero estimator work and
        # were charged to the prune counter.
        counters = rec.metrics.snapshot()["counters"]
        fallbacks = counters.get("estimate.cone_mixed_ffs", 0)
        assert (calls["full"] + calls["delta"] - fallbacks
                <= len(result.candidates))
        collapsed = result.n_enumerated - len(result.candidates)
        assert collapsed > 0
        assert counters.get("explore.pruned", 0) >= collapsed
        assert counters.get("compile.delta", 0) > 0
        gauges = rec.metrics.snapshot()["gauges"]
        assert gauges.get("explore.delta_reuse_frac") == pytest.approx(
            result.delta_reuse_frac, abs=5e-5
        )

    def test_payload_roundtrip_keeps_delta_reuse_frac(self):
        circuit, _ = build_named_circuit("rca4")
        result = explore(
            circuit, default_space(max_depth=1), strategy="beam",
            beam_width=2, n_vectors=8,
        )
        payload = result.to_payload()
        assert payload["delta_reuse_frac"] == result.delta_reuse_frac
        decoded = search.ExploreResult.from_payload(payload)
        assert decoded.delta_reuse_frac == result.delta_reuse_frac
        # Backward compatibility: payloads from before this field.
        payload.pop("delta_reuse_frac")
        legacy = search.ExploreResult.from_payload(payload)
        assert legacy.delta_reuse_frac is None


class TestPerNetResultReuse:
    def test_untouched_rows_verified_and_shared(self):
        from repro.service.jobs import CircuitTask, run_circuit_tasks

        circuit, _ = build_named_circuit("rca4")
        _child, _stats, delta = balance_paths_delta(circuit)
        child = delta.apply(circuit)
        reusable = reusable_result_nets(circuit, delta, child)
        # balance touches almost everything on an adder; the carry-out
        # chain's untouched prefix must still be nonempty on rca4's
        # first stage or the cone analysis regressed badly.
        cone_names = {
            child.nets[n].name
            for n in cone_net_indices(
                child,
                full_fanout_cone(
                    child, touched_cell_indices(child, delta)
                ),
                delta,
            )
        }
        assert not (reusable & cone_names)
        tasks = [
            CircuitTask.from_circuit(c, "unit", UniformStimulus(), 16)
            for c in (circuit, child)
        ]
        with obs.capture() as rec:
            parent_payload, child_payload = run_circuit_tasks(tasks)
            parent = decode_result(parent_payload, circuit)
            kid = decode_result(child_payload, child)
            shared = share_per_node_rows(parent, kid, reusable)
        parent_rows = {
            parent.node_names[n]: act for n, act in parent.per_node.items()
        }
        child_rows = {
            kid.node_names[n]: act for n, act in kid.per_node.items()
        }
        counters = rec.metrics.snapshot()["counters"]
        if reusable:
            assert shared == len(
                reusable & set(parent_rows) & set(child_rows)
            )
            assert counters.get("store.nets_reused", 0) == shared
        assert counters.get("store.nets_reuse_mismatch", 0) == 0
        for name in reusable:
            if name in parent_rows:
                assert child_rows[name] is parent_rows[name]

    def test_share_refuses_mismatched_regimes(self):
        def result(delay, counts):
            return ActivityResult(
                "c", delay, cycles=8,
                per_node={0: NodeActivity(*counts)}, node_names={0: "x"},
            )

        a = result("unit", (1, 1, 1, 0, 1))
        b = result("sumcarry", (1, 1, 1, 0, 1))
        assert share_per_node_rows(a, b, {"x"}) == 0
        c = result("unit", (2, 1, 1, 1, 2))
        with obs.capture() as rec:
            assert share_per_node_rows(a, c, {"x"}) == 0
        counters = rec.metrics.snapshot()["counters"]
        assert counters.get("store.nets_reuse_mismatch") == 1

    def test_non_additive_delta_reuses_nothing(self):
        circuit = _buffered_circuit()
        child, delta = strip_buffers_delta(circuit)
        assert not delta.is_pure_addition
        assert reusable_result_nets(circuit, delta, child) == frozenset()


class TestObsGauge:
    def test_gauge_hook_reaches_registry(self):
        with obs.capture() as rec:
            obs.gauge("x.y", 0.25)
            obs.gauge("x.y", 0.75)
        assert rec.metrics.snapshot()["gauges"]["x.y"] == 0.75

    def test_gauge_noop_when_disabled(self):
        obs.gauge("x.z", 1.0)  # must not raise
