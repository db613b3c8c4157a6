"""Reference (seed) estimator implementations — the executable spec.

These are the original per-cell dict-walking estimators the compiled
fused pass in :mod:`repro.estimate.probability` and
:mod:`repro.estimate.density` was rebuilt from.  They stay because they
*are* the semantics: the rebuilt estimators are property-tested to
agree with these to 1e-12 over random circuits, biased input mappings
and the whole circuit catalog.  They branch on the cell kind per
evaluation and enumerate truth tables for the compound kinds, so they
are O(cells · 2^arity) per pass — fine as an oracle, too slow as a
production path.

Do not add features here; extend the compiled estimators and pin the
behaviour with a property test against this module instead.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Dict, Mapping, Sequence

from repro.netlist.cells import CellKind
from repro.netlist.circuit import Circuit


def _kind_probability(
    kind: CellKind, input_probs: Sequence[float]
) -> list[float]:
    """Output one-probabilities of *kind* given independent input probs."""
    if kind is CellKind.CONST0:
        return [0.0]
    if kind is CellKind.CONST1:
        return [1.0]
    if kind in (CellKind.BUF, CellKind.DFF):
        return [input_probs[0]]
    if kind is CellKind.NOT:
        return [1.0 - input_probs[0]]
    if kind is CellKind.AND:
        p = 1.0
        for q in input_probs:
            p *= q
        return [p]
    if kind is CellKind.NAND:
        return [1.0 - _kind_probability(CellKind.AND, input_probs)[0]]
    if kind is CellKind.OR:
        p = 1.0
        for q in input_probs:
            p *= 1.0 - q
        return [1.0 - p]
    if kind is CellKind.NOR:
        return [1.0 - _kind_probability(CellKind.OR, input_probs)[0]]
    if kind in (CellKind.XOR, CellKind.XNOR):
        # P(odd parity) via the product identity.
        prod = 1.0
        for q in input_probs:
            prod *= 1.0 - 2.0 * q
        p_odd = (1.0 - prod) / 2.0
        return [p_odd if kind is CellKind.XOR else 1.0 - p_odd]
    # Small fixed-arity kinds: enumerate the truth table.
    from repro.netlist.cells import KIND_TABLE, evaluate_kind

    n_out = KIND_TABLE[kind].n_out
    probs = [0.0] * n_out
    for combo in iter_product((0, 1), repeat=len(input_probs)):
        weight = 1.0
        for bit, p in zip(combo, input_probs):
            weight *= p if bit else 1.0 - p
        outs = evaluate_kind(kind, combo)
        for k in range(n_out):
            if outs[k]:
                probs[k] += weight
    return probs


def signal_probabilities_reference(
    circuit: Circuit,
    input_probs: Mapping[int, float] | float = 0.5,
) -> Dict[int, float]:
    """Seed ``signal_probabilities``: per-cell dict walk, kind branch."""
    if isinstance(input_probs, (int, float)):
        probs: Dict[int, float] = {n: float(input_probs) for n in circuit.inputs}
    else:
        probs = {n: float(p) for n, p in input_probs.items()}
        missing = set(circuit.inputs) - set(probs)
        if missing:
            raise ValueError(
                f"missing probabilities for inputs "
                f"{sorted(circuit.net_name(n) for n in missing)}"
            )
    for p in probs.values():
        if not 0.0 <= p <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")

    values: Dict[int, float] = dict(probs)
    ff_cells = [c for c in circuit.cells if c.is_sequential]
    for c in ff_cells:
        values[c.outputs[0]] = 0.5  # initial guess

    order = circuit.topological_cells()
    for _ in range(max(1, 64 if circuit.num_flipflops else 2)):
        for cell in order:
            ins = [values.get(n, 0.5) for n in cell.inputs]
            outs = _kind_probability(cell.kind, ins)
            for net, p in zip(cell.outputs, outs):
                values[net] = p
        changed = False
        for c in ff_cells:
            new = values.get(c.inputs[0], 0.5)
            if abs(values[c.outputs[0]] - new) > 1e-12:
                values[c.outputs[0]] = new
                changed = True
        if not changed:
            break
    return values


def switching_activity_reference(
    circuit: Circuit,
    input_probs: Mapping[int, float] | float = 0.5,
) -> Dict[int, float]:
    """Seed ``switching_activity``: ``2 p (1 - p)`` over the reference probs."""
    probs = signal_probabilities_reference(circuit, input_probs)
    return {net: 2.0 * p * (1.0 - p) for net, p in probs.items()}


def _difference_probability(
    cell_kind, arity: int, pin: int, out_pos: int, pin_probs: list[float]
) -> float:
    """P(boolean difference of output *out_pos* w.r.t. input *pin*)."""
    from repro.netlist.cells import evaluate_kind

    others = [i for i in range(arity) if i != pin]
    total = 0.0
    for combo in iter_product((0, 1), repeat=len(others)):
        weight = 1.0
        assignment = [0] * arity
        for idx, bit in zip(others, combo):
            assignment[idx] = bit
            weight *= pin_probs[idx] if bit else 1.0 - pin_probs[idx]
        assignment[pin] = 0
        low = evaluate_kind(cell_kind, assignment)[out_pos]
        assignment[pin] = 1
        high = evaluate_kind(cell_kind, assignment)[out_pos]
        if low != high:
            total += weight
    return total


def transition_densities_reference(
    circuit: Circuit,
    input_densities: Mapping[int, float] | float = 0.5,
    input_probs: Mapping[int, float] | float = 0.5,
) -> Dict[int, float]:
    """Seed ``transition_densities``: per-(cell, pin) truth-table walk."""
    if isinstance(input_densities, (int, float)):
        dens: Dict[int, float] = {
            n: float(input_densities) for n in circuit.inputs
        }
    else:
        dens = {n: float(d) for n, d in input_densities.items()}
    for d in dens.values():
        if d < 0:
            raise ValueError("densities cannot be negative")

    probs = signal_probabilities_reference(circuit, input_probs)
    densities: Dict[int, float] = dict(dens)
    for c in circuit.cells:
        if c.is_sequential:
            densities[c.outputs[0]] = 0.0  # refined below

    # Feed-forward propagation; one refinement pass settles pipelines.
    for _ in range(2 if circuit.num_flipflops else 1):
        for c in circuit.cells:
            if c.is_sequential:
                densities[c.outputs[0]] = min(
                    1.0, densities.get(c.inputs[0], 0.0)
                )
        for cell in circuit.topological_cells():
            arity = len(cell.inputs)
            pin_probs = [probs.get(n, 0.5) for n in cell.inputs]
            for pos, out in enumerate(cell.outputs):
                total = 0.0
                for pin, net in enumerate(cell.inputs):
                    d_in = densities.get(net, 0.0)
                    if d_in == 0.0:
                        continue
                    total += (
                        _difference_probability(
                            cell.kind, arity, pin, pos, pin_probs
                        )
                        * d_in
                    )
                densities[out] = total
    return densities
