"""Property tests for the compiled-IR estimation backend.

The estimators in :mod:`repro.estimate.probability` /
:mod:`repro.estimate.density` run as fused passes over the compiled
IR's per-cell kernels; :mod:`repro.estimate.reference` keeps the
original dict-walking implementations as the oracle.  These tests pin:

* rebuilt == reference to 1e-12 over random circuits × random input
  mappings (with and without flipflops) and over the circuit catalog;
* exhaustive-enumeration ground truth on fanout-free circuits, and the
  *shared* bias of both implementations on small reconvergent circuits
  (the independence assumption is wrong there — identically wrong);
* the stimulus-aware workload statistics and the
  :class:`~repro.estimate.workload.EstimateResult` aggregates.
"""

import itertools
import random
from dataclasses import dataclass
from typing import ClassVar

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.catalog import build_named_circuit
from repro.estimate.density import transition_densities
from repro.estimate.probability import signal_probabilities, switching_activity
from repro.estimate.reference import (
    signal_probabilities_reference,
    switching_activity_reference,
    transition_densities_reference,
)
from repro.estimate.workload import (
    estimate_workload,
    input_statistics,
    net_class,
)
from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit
from repro.netlist.codegen import kernel_source
from repro.netlist.compiled import compile_circuit
from repro.sim.vectors import (
    BurstMarkovStimulus,
    CorrelatedStimulus,
    StimulusSpec,
    UniformStimulus,
)

from tests.conftest import kernel_cases, random_dag_circuit

seeds = st.integers(min_value=0, max_value=2**31)

TOL = 1e-12

#: Catalog slice for the whole-catalog agreement checks: adder chains,
#: reconvergent multipliers (both architectures) and the sequential
#: detector with MUX2/DFF structure.
CATALOG = ("rca8", "rca16", "array4", "array8", "array16", "wallace8",
           "detector")


def _assert_net_maps_close(new, ref, tol=TOL):
    assert set(new) == set(ref)
    for n in ref:
        assert new[n] == pytest.approx(ref[n], abs=tol, rel=tol), n


class TestAgreementWithReference:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, with_ffs=st.booleans())
    def test_probabilities_random_circuits_random_inputs(
        self, seed, with_ffs
    ):
        rng = random.Random(seed)
        circuit = random_dag_circuit(
            rng, n_inputs=5, n_gates=14, with_ffs=with_ffs
        )
        probs = {n: rng.random() for n in circuit.inputs}
        _assert_net_maps_close(
            signal_probabilities(circuit, probs),
            signal_probabilities_reference(circuit, probs),
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, with_ffs=st.booleans())
    def test_densities_random_circuits_random_inputs(self, seed, with_ffs):
        rng = random.Random(seed)
        circuit = random_dag_circuit(
            rng, n_inputs=5, n_gates=14, with_ffs=with_ffs
        )
        probs = {n: rng.random() for n in circuit.inputs}
        dens = {n: rng.random() for n in circuit.inputs}
        _assert_net_maps_close(
            transition_densities(circuit, dens, probs),
            transition_densities_reference(circuit, dens, probs),
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_switching_activity_matches_reference(self, seed):
        rng = random.Random(seed)
        circuit = random_dag_circuit(rng, n_inputs=4, n_gates=12)
        probs = {n: rng.random() for n in circuit.inputs}
        _assert_net_maps_close(
            switching_activity(circuit, probs),
            switching_activity_reference(circuit, probs),
        )

    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_probabilities(self, name):
        circuit, _ = build_named_circuit(name)
        _assert_net_maps_close(
            signal_probabilities(circuit, 0.5),
            signal_probabilities_reference(circuit, 0.5),
        )

    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_densities(self, name):
        circuit, _ = build_named_circuit(name)
        _assert_net_maps_close(
            transition_densities(circuit, 0.5),
            transition_densities_reference(circuit, 0.5),
        )

    def test_catalog_biased_inputs(self):
        circuit, _ = build_named_circuit("array8")
        rng = random.Random(1995)
        probs = {n: rng.random() for n in circuit.inputs}
        dens = {n: rng.random() for n in circuit.inputs}
        _assert_net_maps_close(
            transition_densities(circuit, dens, probs),
            transition_densities_reference(circuit, dens, probs),
        )


class TestGeneratedEstimatorPasses:
    """The estimators run as exec-compiled flat passes.

    :func:`signal_probabilities` / :func:`transition_densities` invoke
    the compiled snapshot's generated ``prob_pass`` / ``density_pass``
    — straight-line Python with no interpreter loop — so the agreement
    suite above already gates them against the oracle.  These tests
    pin the mechanism itself: the passes exist, their source is flat,
    and biased-input agreement holds through the generated code.
    """

    def test_passes_are_generated_flat_code(self):
        circuit, _ = build_named_circuit("array8")
        cc = compile_circuit(circuit)
        assert callable(cc.prob_pass) and callable(cc.density_pass)
        for which in ("prob", "density"):
            src = kernel_source(cc, which)
            assert "def " in src and "for " not in src

    def test_unknown_pass_rejected(self, xor_chain):
        cc = compile_circuit(xor_chain)
        for which in ("nope", "settle", "waveform"):
            with pytest.raises(ValueError, match="unknown pass"):
                kernel_source(cc, which)

    @pytest.mark.parametrize("name", ("rca8", "array8", "detector"))
    def test_generated_passes_match_reference_biased(self, name):
        circuit, _ = build_named_circuit(name)
        rng = random.Random(6)
        probs = {n: rng.random() for n in circuit.inputs}
        dens = {n: rng.random() for n in circuit.inputs}
        _assert_net_maps_close(
            signal_probabilities(circuit, probs),
            signal_probabilities_reference(circuit, probs),
        )
        _assert_net_maps_close(
            transition_densities(circuit, dens, probs),
            transition_densities_reference(circuit, dens, probs),
        )


class TestPerCellFloatKernels:
    """Each (kind, arity)'s per-cell probability/density closures.

    The incremental estimators run the closures (``cell_prob``,
    ``cell_density``) over edit cones and the generated passes
    everywhere else, so the two must agree with ``==``.  A one-cell
    circuit makes the generated pass evaluate exactly that cell; both
    are also held to the reference oracle.
    """

    @staticmethod
    def _cases(n, rng):
        """(probs, densities) per input: 0 / 0.5 / 1 / random probs,
        densities with some exact zeros."""
        vecs = [[0.0] * n, [0.5] * n, [1.0] * n]
        vecs += [
            [rng.choice((0.0, 0.5, 1.0, rng.random())) for _ in range(n)]
            for _ in range(40)
        ]
        return [
            (pv, [0.0 if rng.random() < 0.3 else rng.random()
                  for _ in range(n)])
            for pv in vecs
        ]

    @pytest.mark.parametrize(
        "kind,n", list(kernel_cases()),
        ids=lambda v: v.value if isinstance(v, CellKind) else str(v),
    )
    def test_closures_equal_generated_pass_and_reference(self, kind, n):
        c = Circuit("one_cell")
        ins = [c.add_input(f"i{k}") for k in range(n)]
        cell = c.add_cell(kind, ins, name="u")
        for k, out in enumerate(cell.outputs):
            c.mark_output(out, f"o{k}")
        cc = compile_circuit(c)
        prob_kernel = cc.cell_prob[cell.index]
        density_kernel = cc.cell_density[cell.index]
        in_topo = cell.index in cc.topo  # a DFF never is
        for probs, dens in self._cases(n, random.Random(n)):
            p = [0.5] * cc.n_nets
            d = [0.0] * cc.n_nets
            for net, pv, dv in zip(ins, probs, dens):
                p[net], d[net] = pv, dv
            got_p = prob_kernel(p)
            got_d = density_kernel(p, d)
            if in_topo:
                flat_p, flat_d = list(p), list(d)
                cc.prob_pass(flat_p)
                cc.density_pass(p, flat_d)
                assert got_p == tuple(flat_p[o] for o in cell.outputs)
                assert got_d == tuple(flat_d[o] for o in cell.outputs)
            ref_p = signal_probabilities_reference(c, dict(zip(ins, probs)))
            ref_d = transition_densities_reference(
                c, dict(zip(ins, dens)), dict(zip(ins, probs))
            )
            for k, out in enumerate(cell.outputs):
                assert got_p[k] == pytest.approx(ref_p[out], abs=TOL, rel=TOL)
                assert got_d[k] == pytest.approx(ref_d[out], abs=TOL, rel=TOL)


def _exhaustive_probability(circuit: Circuit, net: int) -> float:
    ones = total = 0
    for combo in itertools.product((0, 1), repeat=len(circuit.inputs)):
        values, _ = circuit.evaluate(list(combo))
        ones += values[net]
        total += 1
    return ones / total


class TestExhaustiveEnumeration:
    def test_tree_circuit_is_exact(self):
        """Fanout-free: estimator == exhaustive truth (both impls)."""
        c = Circuit("tree")
        i = [c.add_input(f"i{k}") for k in range(4)]
        a = c.gate(CellKind.AND, i[0], i[1], name="a")
        o = c.gate(CellKind.OR, i[2], i[3], name="o")
        x = c.gate(CellKind.XOR, a, o, name="x")
        c.mark_output(x)
        probs = signal_probabilities(c, 0.5)
        for net in (a, o, x):
            assert probs[net] == pytest.approx(
                _exhaustive_probability(c, net), abs=TOL
            )

    @pytest.mark.parametrize("kind", [CellKind.AND, CellKind.OR,
                                      CellKind.XOR, CellKind.NAND])
    def test_reconvergent_bias_is_shared(self, kind):
        """Reconvergent fanout: both implementations are *identically*
        biased — the rebuilt pass must reproduce the reference's wrong
        answer bit-for-bit-ish, not silently 'fix' it."""
        c = Circuit("reconv")
        a, b = c.add_input("a"), c.add_input("b")
        inv = c.gate(CellKind.NOT, a, name="inv")
        left = c.gate(kind, a, b, name="left")
        right = c.gate(kind, inv, b, name="right")
        y = c.gate(CellKind.AND, left, right, name="y")
        c.mark_output(y)
        new = signal_probabilities(c, 0.5)
        ref = signal_probabilities_reference(c, 0.5)
        assert new[y] == pytest.approx(ref[y], abs=TOL)
        exact = _exhaustive_probability(c, y)
        if kind in (CellKind.AND, CellKind.XOR):
            # The independence assumption is visibly wrong here.
            assert abs(new[y] - exact) > 0.01
        # Densities share the bias identically too.
        _assert_net_maps_close(
            transition_densities(c, 0.5),
            transition_densities_reference(c, 0.5),
        )

    def test_conjugate_reconvergence_bias(self):
        """y = AND(a, NOT a) is always 0; the estimator says 0.25."""
        c = Circuit("contradiction")
        a = c.add_input("a")
        y = c.gate(CellKind.AND, a, c.gate(CellKind.NOT, a))
        c.mark_output(y)
        assert _exhaustive_probability(c, y) == 0.0
        new = signal_probabilities(c, 0.5)
        ref = signal_probabilities_reference(c, 0.5)
        assert new[y] == pytest.approx(0.25, abs=TOL)
        assert new[y] == pytest.approx(ref[y], abs=TOL)


class TestWorkloadStatistics:
    def test_uniform(self):
        assert input_statistics(UniformStimulus()) == (0.5, 0.5)
        # Seed does not change the analytic statistics.
        assert input_statistics(UniformStimulus(seed=7)) == (0.5, 0.5)

    def test_correlated_quantized(self):
        p, d = input_statistics(CorrelatedStimulus(flip_probability=0.1))
        assert p == 0.5
        assert d == pytest.approx(round(0.1 * 65536) / 65536)
        # Degenerate: flip probability 1/2 is the uniform stream.
        _, d_half = input_statistics(
            CorrelatedStimulus(flip_probability=0.5)
        )
        assert d_half == 0.5

    def test_burst_occupancy(self):
        p, d = input_statistics(
            BurstMarkovStimulus(p_burst=0.05, p_end=0.25)
        )
        assert p == 0.5
        assert d == pytest.approx(0.5 * (0.05 / 0.30))
        # Edge cases: never bursts / never ends / both zero.
        assert input_statistics(
            BurstMarkovStimulus(p_burst=0.0, p_end=0.25)
        )[1] == 0.0
        assert input_statistics(
            BurstMarkovStimulus(p_burst=0.2, p_end=0.0)
        )[1] == 0.5
        assert input_statistics(
            BurstMarkovStimulus(p_burst=0.0, p_end=0.0)
        )[1] == 0.0

    def test_unknown_kind_rejected(self):
        @dataclass(frozen=True)
        class Weird(StimulusSpec):
            kind: ClassVar[str] = "weird"

        with pytest.raises(ValueError, match="weird"):
            input_statistics(Weird())


class TestEstimateWorkload:
    def test_monitored_is_cell_driven_set(self):
        circuit, _ = build_named_circuit("rca8")
        est = estimate_workload(circuit)
        expected = {n.index for n in circuit.nets if n.driver is not None}
        assert set(est.monitored) == expected

    def test_seed_invariance(self):
        circuit, _ = build_named_circuit("rca8")
        a = estimate_workload(circuit, UniformStimulus(seed=1))
        b = estimate_workload(circuit, UniformStimulus(seed=2))
        assert a.probabilities == b.probabilities
        assert a.densities == b.densities

    def test_summary_shape(self):
        circuit, _ = build_named_circuit("array4")
        est = estimate_workload(circuit)
        summary = est.summary()
        assert set(summary) == {"nets", "total", "useful", "useless", "L/F"}
        assert summary["total"] >= summary["useful"] > 0
        assert summary["useless"] == pytest.approx(
            summary["total"] - summary["useful"], abs=1e-3
        )

    def test_correlated_workload_scales_density(self):
        """Lower input density -> proportionally lower estimate."""
        circuit, _ = build_named_circuit("rca8")
        uniform = estimate_workload(circuit, UniformStimulus())
        slow = estimate_workload(
            circuit, CorrelatedStimulus(flip_probability=0.05)
        )
        assert slow.density_rate < 0.25 * uniform.density_rate
        # Stationary probabilities are 1/2 either way.
        assert slow.probabilities == uniform.probabilities

    @pytest.mark.parametrize("spec", [
        UniformStimulus(),
        CorrelatedStimulus(flip_probability=0.1),
        BurstMarkovStimulus(p_burst=0.05, p_end=0.25),
    ])
    def test_workload_estimates_are_internally_consistent(self, spec):
        """Regression: useful and density must describe the *same*
        workload — a slow stimulus once kept the iid useful rate while
        the density shrank, reporting useful > total."""
        circuit, _ = build_named_circuit("array4")
        est = estimate_workload(circuit, spec)
        summary = est.summary()
        assert summary["useful"] <= summary["total"]
        # The primary-input useful rate equals the input density
        # exactly (inputs settle once per cycle).
        assert est.activities[circuit.inputs[0]] == pytest.approx(
            est.input_density
        )
        # Both estimators are linear in the input density, so the
        # workload scales them identically: L/F is workload-invariant.
        uniform = estimate_workload(circuit, UniformStimulus())
        assert summary["L/F"] == pytest.approx(
            uniform.summary()["L/F"], abs=1e-3
        )

    def test_by_class_and_net_class(self):
        circuit, _ = build_named_circuit("array4")
        est = estimate_workload(circuit)
        classes = est.by_class(circuit)
        assert "FA.sum" in classes and "FA.carry" in classes
        assert sum(r["nets"] for r in classes.values()) == len(est.monitored)
        for n in circuit.inputs:
            assert net_class(circuit, n) == "input"

    def test_restrict(self):
        circuit, ports = build_named_circuit("rca8")
        est = estimate_workload(circuit)
        word = [n for n in est.monitored][:4]
        sub = est.restrict(word)
        assert set(sub.monitored) == set(word)
        assert sub.useful_rate <= est.useful_rate
