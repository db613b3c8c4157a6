"""Najm-style transition-density propagation.

The transition density ``D(y)`` of a gate output is estimated from its
input densities through Boolean-difference sensitisation:

    D(y) = sum_i  P(dy/dx_i) * D(x_i)

where ``dy/dx_i = y|x_i=1 XOR y|x_i=0`` and the probability is taken
over the other inputs (spatial independence).  Unlike the zero-delay
switching-activity model, density propagation *is* sensitive to
multiple input changes per cycle and therefore tracks glitch-rich
circuits more closely — but it still over/under-shoots under
reconvergent fanout, which the ablation experiment quantifies against
the simulator's exact counts.

Primary-input densities default to the random-vector value: a fresh
random bit toggles with probability 1/2 per cycle.  Stimulus-aware
densities (correlated / burst streams) come from
:func:`repro.estimate.workload.input_statistics`.

Like :mod:`repro.estimate.probability`, the propagation runs on the
compiled IR through the generated flat density pass
(:data:`~repro.netlist.compiled.CompiledCircuit.density_pass`): one
exec-compiled straight-line function over flat per-net float arrays
with the Boolean-difference probabilities in closed form per kind,
instead of the reference implementation's per-(cell, pin) truth-table
enumeration (:mod:`repro.estimate.reference`).  The pass and the
per-cell closures incremental runs use
(:attr:`~repro.netlist.compiled.CompiledCircuit.cell_density`) are
both printed from the density rules of
:data:`repro.netlist.cells.KIND_TABLE`, so they agree bit for bit.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.estimate.probability import (
    _as_net_dict,
    _probability_array,
    _validated_input_values,
)
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import CompiledCircuit, compile_circuit
from repro.obs import trace as obs


def _density_array(
    cc: CompiledCircuit,
    probs: list,
    input_densities: Mapping[int, float],
) -> list:
    """Flat per-net transition densities via the generated pass.

    *probs* is the flat one-probability array
    (:func:`~repro.estimate.probability._probability_array`) — taken as
    an argument so callers that already propagated probabilities (the
    workload estimator computes probabilities, activities and
    densities in one go) never pay the fixed-point pass twice.
    """
    dens = [0.0] * cc.n_nets
    for net, d in input_densities.items():
        dens[net] = d
    density_pass = cc.density_pass
    ff_d, ff_q = cc.ff_d, cc.ff_q
    # Feed-forward propagation; one refinement pass settles pipelines.
    for _ in range(2 if ff_q else 1):
        for i, q in enumerate(ff_q):
            d = dens[ff_d[i]]
            dens[q] = d if d < 1.0 else 1.0
        density_pass(probs, dens)
    return dens


def _density_array_cone(
    cc: CompiledCircuit,
    probs: list,
    input_densities: Mapping[int, float],
    base: list,
    cone_cells,
) -> list:
    """Cone-limited variant of :func:`_density_array`.

    *base* is the parent's final density array, *probs* the **child's**
    final probability array; only *cone_cells* are re-evaluated via
    the per-cell kernels (:attr:`CompiledCircuit.cell_density`).
    Bit-identical to the full pass under the same two cone conditions
    as :func:`repro.estimate.probability._probability_array_cone`.

    The full pass's trajectory is position-sensitive: in round one the
    flipflop update reads the *initial* array (zero everywhere except
    primary-input densities), not converged values — so the cone
    replay seeds cone flipflop outputs from that same initial rule
    before its first pass, then re-reads current densities for the
    second round, exactly like the full pass does.  Non-cone values
    are frozen at parent-final throughout (purely combinational
    remainder, or untouched flipflop trajectories).
    """
    dens = list(base)
    if cc.n_nets > len(dens):
        dens.extend([0.0] * (cc.n_nets - len(dens)))
    for net, d in input_densities.items():
        dens[net] = d
    kernels = cc.cell_density
    cell_outputs = cc.cell_outputs
    cone_topo = [ci for ci in cc.topo if ci in cone_cells]

    def cone_pass() -> None:
        for ci in cone_topo:
            outs = kernels[ci](probs, dens)
            for out_net, v in zip(cell_outputs[ci], outs):
                dens[out_net] = v

    ff_d, ff_q = cc.ff_d, cc.ff_q
    cone_ffs = [i for i, ci in enumerate(cc.ff_cells) if ci in cone_cells]
    if not cone_ffs:
        cone_pass()
        return dens
    # Round-one register reads see the full pass's *initial* array:
    # input densities on primary inputs, the just-updated value on Q
    # nets of flipflops earlier in the update order (register chains),
    # zero everywhere else.
    updated: Dict[int, float] = {}
    for i in cone_ffs:
        dn = ff_d[i]
        d0 = updated.get(dn)
        if d0 is None:
            d0 = input_densities.get(dn, 0.0)
        v = d0 if d0 < 1.0 else 1.0
        dens[ff_q[i]] = v
        updated[ff_q[i]] = v
    cone_pass()
    for i in cone_ffs:
        d = dens[ff_d[i]]
        dens[ff_q[i]] = d if d < 1.0 else 1.0
    cone_pass()
    return dens


def transition_densities(
    circuit: Circuit,
    input_densities: Mapping[int, float] | float = 0.5,
    input_probs: Mapping[int, float] | float = 0.5,
) -> Dict[int, float]:
    """Estimated transitions per cycle for every net.

    *input_densities* maps primary-input nets to expected transitions
    per cycle (scalar applies to all; 0.5 for fresh random vectors).
    A mapping must cover every primary input and nothing else —
    missing inputs, keys that are not primary-input nets, and
    densities outside ``[0, 1]`` raise ``ValueError`` (a primary input
    can toggle at most once per cycle; internal nets may well exceed
    1.0, which is the point of the estimator).  Flipflop outputs
    inherit their D-net's density capped at 1.0 — a registered node
    can toggle at most once per cycle.
    """
    dens_in = _validated_input_values(
        circuit, input_densities, "densities", 0.0, 1.0
    )
    probs_in = _validated_input_values(
        circuit, input_probs, "probabilities", 0.0, 1.0
    )
    with obs.span("estimate.density", circuit=circuit.name):
        cc = compile_circuit(circuit)
        probs = _probability_array(cc, probs_in)
        return _as_net_dict(cc, _density_array(cc, probs, dens_in))
