"""Unit tests for the compiled circuit IR and its memoization."""

from itertools import product

import pytest

from repro.netlist.cells import KIND_TABLE, CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import _fuse, compile_circuit
from repro.sim.delays import LoadDelay, SumCarryDelay, UnitDelay

from tests.conftest import KIND_SPEC, kernel_cases, random_dag_circuit


class TestCompileMemoization:
    def test_same_model_instance_hits_cache(self, xor_chain):
        model = UnitDelay()
        assert compile_circuit(xor_chain, model) is compile_circuit(
            xor_chain, model
        )

    def test_equivalent_fresh_instances_share_entry(self, xor_chain):
        # analyze()-style call sites construct a fresh UnitDelay each
        # time; the cache token keys on (class, description) so they
        # still share one compiled form.
        assert compile_circuit(xor_chain, UnitDelay()) is compile_circuit(
            xor_chain, UnitDelay()
        )

    def test_structure_only_compile_cached(self, xor_chain):
        assert compile_circuit(xor_chain) is compile_circuit(xor_chain)
        assert compile_circuit(xor_chain).out_specs is None

    def test_different_models_get_different_entries(self, xor_chain):
        a = compile_circuit(xor_chain, UnitDelay())
        b = compile_circuit(xor_chain, SumCarryDelay())
        assert a is not b

    def test_mutation_invalidates(self, xor_chain):
        before = compile_circuit(xor_chain, UnitDelay())
        xor_chain.gate(CellKind.NOT, xor_chain.net("out"))
        after = compile_circuit(xor_chain, UnitDelay())
        assert after is not before
        assert len(after.cell_kinds) == len(before.cell_kinds) + 1

    def test_version_bumps_on_all_mutators(self):
        c = Circuit("v")
        v0 = c.version
        n = c.add_input("a")
        assert c.version > v0
        v1 = c.version
        y = c.gate(CellKind.NOT, n)
        assert c.version > v1
        v2 = c.version
        c.mark_output(y)
        assert c.version > v2

    def test_load_delay_keys_on_instance(self, xor_chain):
        a = LoadDelay(xor_chain)
        b = LoadDelay(xor_chain)
        assert a.cache_token() != b.cache_token()
        assert compile_circuit(xor_chain, a) is not compile_circuit(
            xor_chain, b
        )


class TestCompiledStructure:
    def test_topo_matches_circuit_order(self, rng):
        c = random_dag_circuit(rng, n_inputs=5, n_gates=20)
        compiled = compile_circuit(c)
        assert list(compiled.topo) == [
            cell.index for cell in c.topological_cells()
        ]

    def test_delays_resolved_through_model(self):
        c = Circuit("fa")
        a, b, cin = (c.add_input(n) for n in "abc")
        cell = c.add_cell(CellKind.FA, [a, b, cin])
        compiled = compile_circuit(c, SumCarryDelay(dsum=3, dcarry=1))
        spec = compiled.out_specs[cell.index]
        assert spec == ((cell.outputs[0], 3), (cell.outputs[1], 1))
        assert compiled.max_delay == 3

    def test_comb_fanout_excludes_flipflops(self):
        c = Circuit("ff")
        d = c.add_input("d")
        c.add_dff(d, name="ff0")
        y = c.gate(CellKind.NOT, d)
        c.mark_output(y)
        compiled = compile_circuit(c)
        readers = compiled.comb_fanout[d]
        assert all(not compiled.cell_is_seq[ci] for ci in readers)
        assert len(readers) == 1

    def test_ff_wiring(self):
        c = Circuit("shift")
        n = c.add_input("d")
        q1 = c.add_dff(n, name="ff0")
        q2 = c.add_dff(q1, name="ff1")
        c.mark_output(q2)
        compiled = compile_circuit(c)
        assert compiled.ff_d == (n, q1)
        assert compiled.ff_q == (q1, q2)


class TestEvaluateFlat:
    def test_matches_circuit_evaluate(self, rng):
        for _ in range(10):
            c = random_dag_circuit(rng, n_inputs=4, n_gates=12)
            compiled = compile_circuit(c)
            vec = [rng.randint(0, 1) for _ in c.inputs]
            flat, next_flat = compiled.evaluate_flat(vec)
            values, next_state = c.evaluate(vec)
            for net, v in values.items():
                assert flat[net] == v
            assert next_flat == next_state

    def test_bad_input_length(self, xor_chain):
        with pytest.raises(ValueError, match="expected 3"):
            compile_circuit(xor_chain).evaluate_flat([0, 1])

    def test_state_threading(self):
        c = Circuit("toggle")
        q = c.new_net("q")
        nq = c.gate(CellKind.NOT, q, name="inv")
        ff = c.add_cell(CellKind.DFF, [nq], [q], name="ff")
        compiled = compile_circuit(c)
        values, nxt = compiled.evaluate_flat([], state={ff.index: 0})
        assert values[q] == 0 and values[nq] == 1
        assert nxt == {ff.index: 1}
        values, nxt = compiled.evaluate_flat([], state=nxt)
        assert values[q] == 1 and nxt == {ff.index: 0}

    def test_state_bits_normalised_like_inputs(self):
        c = Circuit("ffnorm")
        a = c.add_input("a")
        q = c.new_net("q")
        ff = c.add_cell(CellKind.DFF, [a], [q], name="ff")
        nq = c.gate(CellKind.NOT, q, name="nq")
        both = c.gate(CellKind.AND, q, a, name="both")
        values, nxt = compile_circuit(c).evaluate_flat([5], {ff.index: 2})
        assert (values[a], values[q], values[nq], values[both]) == (1, 1, 0, 1)
        assert nxt == {ff.index: 1}
        values, _ = c.evaluate([1], {ff.index: 2})
        assert (values[q], values[nq], values[both]) == (1, 0, 1)

    def test_state_keys_must_be_flipflops(self):
        c = Circuit("ffkeys")
        a = c.add_input("a")
        q = c.new_net("q")
        c.add_cell(CellKind.DFF, [a], [q], name="ff")
        inv = c.gate(CellKind.NOT, q, name="inv")
        not_ff = c.nets[inv].driver[0]
        with pytest.raises(ValueError, match="flipflop cell indices"):
            compile_circuit(c).evaluate_flat([0], {not_ff: 1})
        with pytest.raises(ValueError, match="flipflop cell indices"):
            c.evaluate([0], {99: 0})


class TestLaneKernelsMatchCellEvaluators:
    """The fused lane kernels against an independent per-kind spec.

    The event-driven engine, functional evaluation and both batch
    engines all evaluate cells through lane kernels printed from
    ``KIND_TABLE``, so this is the check that ties them to the
    reference semantics (:data:`tests.conftest.KIND_SPEC`, written
    without the table).  Input nets are spread over a wider array
    (other slots hold junk) so a kernel that reads the wrong index
    fails.
    """

    @staticmethod
    def _layout(n):
        nets = tuple(1 + 2 * i for i in range(n))
        return nets, 2 * n + 1

    @pytest.mark.parametrize(
        "kind,n", list(kernel_cases()),
        ids=lambda v: v.value if isinstance(v, CellKind) else str(v),
    )
    def test_single_lane_exhaustive(self, kind, n):
        nets, size = self._layout(n)
        kernel = _fuse(kind, nets)
        for combo in product((0, 1), repeat=n):
            values = [1] * size
            for net, bit in zip(nets, combo):
                values[net] = bit
            assert kernel(values, 1) == KIND_SPEC[kind](combo), combo

    @pytest.mark.parametrize(
        "kind,n", list(kernel_cases()),
        ids=lambda v: v.value if isinstance(v, CellKind) else str(v),
    )
    def test_lane_packed_exhaustive(self, kind, n):
        combos = list(product((0, 1), repeat=n))
        # Every combination in its own lane, plus one repeat so the
        # lane count is never a power of two.
        combos.append(combos[-1])
        mask = (1 << len(combos)) - 1
        nets, size = self._layout(n)
        bits = [mask] * size
        for pin, net in enumerate(nets):
            bits[net] = sum(c[pin] << k for k, c in enumerate(combos))
        outs = _fuse(kind, nets)(bits, mask)
        assert len(outs) == KIND_TABLE[kind].n_out
        for out in outs:
            assert out & ~mask == 0
        for k, combo in enumerate(combos):
            lane = tuple((out >> k) & 1 for out in outs)
            assert lane == KIND_SPEC[kind](combo), (k, combo)
