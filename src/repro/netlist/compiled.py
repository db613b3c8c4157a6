"""Compiled circuit IR: flat, cache-friendly arrays built once per netlist.

A :class:`Circuit` is convenient to build and query but expensive to
simulate directly: every :meth:`Circuit.evaluate` re-runs a topological
sort, and every simulator instance used to re-resolve cells, delays and
fanout into private lists.  :func:`compile_circuit` performs that
flattening exactly once per ``(Circuit, DelayModel)`` pair and memoizes
the result, so constructing simulators and evaluating circuits becomes
O(nets) instead of O(cells·outputs) with repeated delay-model calls.

The :class:`CompiledCircuit` holds:

* per-cell flat tuples — input nets, output nets, kind, evaluator,
  sequential flag;
* ``out_specs`` — per combinational cell, ``((out_net, delay), ...)``
  pairs pre-resolved through the delay model (``None`` when compiled
  without one, e.g. for purely functional evaluation);
* ``comb_fanout`` — per net, the combinational cells reading it (the
  event-driven hot loop never needs sequential readers);
* a cached topological order of the combinational cells;
* the flipflop wiring (cell, D net, Q net) as parallel tuples.

Memoization is keyed on the circuit object (weakly, so compiled forms
die with their circuits) plus :meth:`DelayModel.cache_token`, and
invalidated by :attr:`Circuit.version`, which every netlist mutation
bumps.  Per circuit, at most :data:`MEMO_DELAY_MODELS` delay-model
entries are retained (least-recently-used eviction), so a long-lived
service process sweeping many delay models cannot grow the memo
without bound.  All simulation backends (:mod:`repro.sim.backends`)
and :meth:`Circuit.evaluate` share this cache.

This module is also the home of **canonical fingerprinting**
(:func:`circuit_fingerprint`, :func:`delay_fingerprint`): stable
content hashes over the same structural facts the compiled IR is built
from, used by the service layer (:mod:`repro.service`) to address
cached analysis results.  Fingerprints are insertion-order independent
— nets and cells are canonicalized by *name*, not index — so two
builds of the same netlist hash identically no matter the construction
order.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Mapping, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.netlist.cells import Cell, CellKind, _EVALUATORS
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.netlist.circuit import Circuit
    from repro.sim.delays import DelayModel


# ---------------------------------------------------------------------------
# Kind-specialized fused evaluators
# ---------------------------------------------------------------------------
#
# The generic evaluation pattern — ``ins = [values[n] for n in nets];
# outs = evaluator(ins)`` — allocates one throwaway list per cell per
# evaluation, which the timed backends pay millions of times per run.
# A *fused* evaluator captures the cell's input net indices at compile
# time and reads the flat ``values`` array directly, with a branch-free
# bitop body specialized per (kind, arity).  Cells outside the
# specialization table fall back to the generic list-building form, so
# every kind keeps working.

def _fuse_generic(evaluator, nets):
    def f(values, _e=evaluator, _n=nets):
        return _e([values[n] for n in _n])
    return f


def _fuse_cell(
    kind: CellKind, nets: Tuple[int, ...]
) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """Build the fused evaluator for one cell instance."""
    n = len(nets)
    if kind is CellKind.CONST0:
        return lambda values: (0,)
    if kind is CellKind.CONST1:
        return lambda values: (1,)
    if kind is CellKind.BUF:
        a, = nets
        return lambda values, _a=a: (values[_a],)
    if kind is CellKind.NOT:
        a, = nets
        return lambda values, _a=a: (values[_a] ^ 1,)
    if kind is CellKind.MUX2:
        s, a, b = nets
        # 0/1-domain branch-free select: a when s == 0, b when s == 1.
        return lambda values, _s=s, _a=a, _b=b: (
            values[_a] ^ ((values[_a] ^ values[_b]) & values[_s]),
        )
    if kind is CellKind.HA:
        a, b = nets
        def f_ha(values, _a=a, _b=b):
            x, y = values[_a], values[_b]
            return (x ^ y, x & y)
        return f_ha
    if kind is CellKind.FA:
        a, b, c = nets
        def f_fa(values, _a=a, _b=b, _c=c):
            x, y, z = values[_a], values[_b], values[_c]
            p = x ^ y
            return (p ^ z, (x & y) | (z & p))
        return f_fa
    if kind in (CellKind.AND, CellKind.NAND):
        inv = 1 if kind is CellKind.NAND else 0
        if n == 2:
            a, b = nets
            return lambda values, _a=a, _b=b, _i=inv: (
                (values[_a] & values[_b]) ^ _i,
            )
        if n == 3:
            a, b, c = nets
            return lambda values, _a=a, _b=b, _c=c, _i=inv: (
                (values[_a] & values[_b] & values[_c]) ^ _i,
            )
        def f_and(values, _n=nets, _i=inv):
            out = 1
            for net in _n:
                out &= values[net]
            return (out ^ _i,)
        return f_and
    if kind in (CellKind.OR, CellKind.NOR):
        inv = 1 if kind is CellKind.NOR else 0
        if n == 2:
            a, b = nets
            return lambda values, _a=a, _b=b, _i=inv: (
                (values[_a] | values[_b]) ^ _i,
            )
        if n == 3:
            a, b, c = nets
            return lambda values, _a=a, _b=b, _c=c, _i=inv: (
                (values[_a] | values[_b] | values[_c]) ^ _i,
            )
        def f_or(values, _n=nets, _i=inv):
            out = 0
            for net in _n:
                out |= values[net]
            return (out ^ _i,)
        return f_or
    if kind in (CellKind.XOR, CellKind.XNOR):
        inv = 1 if kind is CellKind.XNOR else 0
        if n == 2:
            a, b = nets
            return lambda values, _a=a, _b=b, _i=inv: (
                values[_a] ^ values[_b] ^ _i,
            )
        if n == 3:
            a, b, c = nets
            return lambda values, _a=a, _b=b, _c=c, _i=inv: (
                values[_a] ^ values[_b] ^ values[_c] ^ _i,
            )
        def f_xor(values, _n=nets, _i=inv):
            out = _i
            for net in _n:
                out ^= values[net]
            return (out,)
        return f_xor
    return _fuse_generic(_EVALUATORS[kind], nets)


# ---------------------------------------------------------------------------
# Fused bitwise (lane-packed) kernels
# ---------------------------------------------------------------------------
#
# The same fusion idea applied to *bitmask* evaluation: one integer per
# net, each bit one independent lane, inversions against an explicit
# lane mask.  The bit-parallel backend packs one clock cycle per lane;
# the waveform backend packs one intra-cycle event time per lane — both
# evaluate every cell exactly once per batch through these kernels.

def _bits_const0(ins, mask):
    return (0,)


def _bits_const1(ins, mask):
    return (mask,)


def _bits_buf(ins, mask):
    return (ins[0],)


def _bits_not(ins, mask):
    return (ins[0] ^ mask,)


def _bits_and(ins, mask):
    out = mask
    for v in ins:
        out &= v
    return (out,)


def _bits_or(ins, mask):
    out = 0
    for v in ins:
        out |= v
    return (out,)


def _bits_nand(ins, mask):
    return (_bits_and(ins, mask)[0] ^ mask,)


def _bits_nor(ins, mask):
    return (_bits_or(ins, mask)[0] ^ mask,)


def _bits_xor(ins, mask):
    out = 0
    for v in ins:
        out ^= v
    return (out,)


def _bits_xnor(ins, mask):
    return (_bits_xor(ins, mask)[0] ^ mask,)


def _bits_mux2(ins, mask):
    sel, a, b = ins
    return (a ^ ((a ^ b) & sel),)


def _bits_ha(ins, mask):
    a, b = ins
    return (a ^ b, a & b)


def _bits_fa(ins, mask):
    a, b, cin = ins
    p = a ^ b
    return (p ^ cin, (a & b) | (cin & p))


#: Generic bitwise evaluators by kind (fallback for the fused forms).
#: ``DFF`` maps to its transparent (buffer) view; neither backend ever
#: evaluates a sequential cell through these.
_BIT_EVALUATORS = {
    CellKind.CONST0: _bits_const0,
    CellKind.CONST1: _bits_const1,
    CellKind.BUF: _bits_buf,
    CellKind.NOT: _bits_not,
    CellKind.AND: _bits_and,
    CellKind.OR: _bits_or,
    CellKind.NAND: _bits_nand,
    CellKind.NOR: _bits_nor,
    CellKind.XOR: _bits_xor,
    CellKind.XNOR: _bits_xnor,
    CellKind.MUX2: _bits_mux2,
    CellKind.HA: _bits_ha,
    CellKind.FA: _bits_fa,
    CellKind.DFF: _bits_buf,
}


def _fuse_bits_generic(evaluator, nets):
    def f(bits, mask, _e=evaluator, _n=nets):
        return _e([bits[n] for n in _n], mask)
    return f


def _fuse_bits(
    kind: CellKind, nets: Tuple[int, ...]
) -> Callable[[Sequence[int], int], Tuple[int, ...]]:
    """Build the fused bitmask kernel for one cell instance."""
    n = len(nets)
    if kind is CellKind.CONST0:
        return lambda bits, mask: (0,)
    if kind is CellKind.CONST1:
        return lambda bits, mask: (mask,)
    if kind in (CellKind.BUF, CellKind.DFF):
        a, = nets
        return lambda bits, mask, _a=a: (bits[_a],)
    if kind is CellKind.NOT:
        a, = nets
        return lambda bits, mask, _a=a: (bits[_a] ^ mask,)
    if kind is CellKind.MUX2:
        s, a, b = nets
        return lambda bits, mask, _s=s, _a=a, _b=b: (
            bits[_a] ^ ((bits[_a] ^ bits[_b]) & bits[_s]),
        )
    if kind is CellKind.HA:
        a, b = nets
        def f_ha(bits, mask, _a=a, _b=b):
            x, y = bits[_a], bits[_b]
            return (x ^ y, x & y)
        return f_ha
    if kind is CellKind.FA:
        a, b, c = nets
        def f_fa(bits, mask, _a=a, _b=b, _c=c):
            x, y, z = bits[_a], bits[_b], bits[_c]
            p = x ^ y
            return (p ^ z, (x & y) | (z & p))
        return f_fa
    if kind in (CellKind.AND, CellKind.NAND):
        invert = kind is CellKind.NAND
        if n == 2:
            a, b = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b: (
                    (bits[_a] & bits[_b]) ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b: (bits[_a] & bits[_b],)
        if n == 3:
            a, b, c = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b, _c=c: (
                    (bits[_a] & bits[_b] & bits[_c]) ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b, _c=c: (
                bits[_a] & bits[_b] & bits[_c],
            )
    if kind in (CellKind.OR, CellKind.NOR):
        invert = kind is CellKind.NOR
        if n == 2:
            a, b = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b: (
                    (bits[_a] | bits[_b]) ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b: (bits[_a] | bits[_b],)
        if n == 3:
            a, b, c = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b, _c=c: (
                    (bits[_a] | bits[_b] | bits[_c]) ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b, _c=c: (
                bits[_a] | bits[_b] | bits[_c],
            )
    if kind in (CellKind.XOR, CellKind.XNOR):
        invert = kind is CellKind.XNOR
        if n == 2:
            a, b = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b: (
                    bits[_a] ^ bits[_b] ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b: (bits[_a] ^ bits[_b],)
        if n == 3:
            a, b, c = nets
            if invert:
                return lambda bits, mask, _a=a, _b=b, _c=c: (
                    bits[_a] ^ bits[_b] ^ bits[_c] ^ mask,
                )
            return lambda bits, mask, _a=a, _b=b, _c=c: (
                bits[_a] ^ bits[_b] ^ bits[_c],
            )
    return _fuse_bits_generic(_BIT_EVALUATORS[kind], nets)


# ---------------------------------------------------------------------------
# Fused probability / transition-density kernels
# ---------------------------------------------------------------------------
#
# The estimation layer (:mod:`repro.estimate`) propagates *floats* —
# signal one-probabilities and Najm transition densities — through the
# same netlist the simulators evaluate.  The seed estimators branched
# on the cell kind and enumerated truth tables per evaluation; these
# kernels instead specialize the closed-form propagation rule per cell
# instance, reading flat per-net float arrays via captured indices,
# exactly like :func:`_fuse_cell` does for bits.  They are part of the
# compiled snapshot (memoized with it), built lazily on first
# estimator access — see :attr:`CompiledCircuit.cell_prob`.
#
# A probability kernel maps the flat ``probs`` array to the cell's
# output one-probabilities under spatial independence of its inputs.
# A density kernel maps ``(probs, dens)`` to the cell's output
# transition densities through Boolean-difference sensitisation:
# ``D(y) = sum_i P(dy/dx_i) * D(x_i)`` with the difference probability
# taken over the other inputs.  Kinds outside the closed-form tables
# fall back to truth-table enumeration (the seed semantics), so every
# kind keeps working; the fallback matches the specialized forms to
# float rounding.

def _prob_table_generic(kind: CellKind, nets):
    """Truth-table probability fallback (seed enumeration order)."""
    from itertools import product as iter_product

    from repro.netlist.cells import OUTPUT_COUNT

    evaluator = _EVALUATORS[kind]
    n_out = OUTPUT_COUNT[kind]
    combos = tuple(iter_product((0, 1), repeat=len(nets)))

    def f(probs, _nets=nets, _combos=combos, _e=evaluator, _n_out=n_out):
        out = [0.0] * _n_out
        for combo in _combos:
            weight = 1.0
            for bit, net in zip(combo, _nets):
                p = probs[net]
                weight *= p if bit else 1.0 - p
            outs = _e(combo)
            for k in range(_n_out):
                if outs[k]:
                    out[k] += weight
        return tuple(out)

    return f


def _fuse_prob(kind: CellKind, nets: Tuple[int, ...]):
    """Build the fused signal-probability kernel for one cell."""
    n = len(nets)
    if kind is CellKind.CONST0:
        return lambda probs: (0.0,)
    if kind is CellKind.CONST1:
        return lambda probs: (1.0,)
    if kind in (CellKind.BUF, CellKind.DFF):
        a, = nets
        return lambda probs, _a=a: (probs[_a],)
    if kind is CellKind.NOT:
        a, = nets
        return lambda probs, _a=a: (1.0 - probs[_a],)
    if kind is CellKind.MUX2:
        s, a, b = nets
        return lambda probs, _s=s, _a=a, _b=b: (
            (1.0 - probs[_s]) * probs[_a] + probs[_s] * probs[_b],
        )
    if kind is CellKind.HA:
        a, b = nets
        def f_ha(probs, _a=a, _b=b):
            pa, pb = probs[_a], probs[_b]
            return (pa * (1.0 - pb) + pb * (1.0 - pa), pa * pb)
        return f_ha
    if kind is CellKind.FA:
        a, b, c = nets
        def f_fa(probs, _a=a, _b=b, _c=c):
            pa, pb, pc = probs[_a], probs[_b], probs[_c]
            prod = (1.0 - 2.0 * pa) * (1.0 - 2.0 * pb) * (1.0 - 2.0 * pc)
            carry = pa * pb + pc * (pa * (1.0 - pb) + pb * (1.0 - pa))
            return ((1.0 - prod) / 2.0, carry)
        return f_fa
    if kind in (CellKind.AND, CellKind.NAND):
        inv = kind is CellKind.NAND
        if n == 2:
            a, b = nets
            if inv:
                return lambda probs, _a=a, _b=b: (
                    1.0 - probs[_a] * probs[_b],
                )
            return lambda probs, _a=a, _b=b: (probs[_a] * probs[_b],)
        def f_and(probs, _n=nets, _inv=inv):
            p = 1.0
            for net in _n:
                p *= probs[net]
            return (1.0 - p,) if _inv else (p,)
        return f_and
    if kind in (CellKind.OR, CellKind.NOR):
        inv = kind is CellKind.NOR
        if n == 2:
            a, b = nets
            if inv:
                return lambda probs, _a=a, _b=b: (
                    (1.0 - probs[_a]) * (1.0 - probs[_b]),
                )
            return lambda probs, _a=a, _b=b: (
                1.0 - (1.0 - probs[_a]) * (1.0 - probs[_b]),
            )
        def f_or(probs, _n=nets, _inv=inv):
            q = 1.0
            for net in _n:
                q *= 1.0 - probs[net]
            return (q,) if _inv else (1.0 - q,)
        return f_or
    if kind in (CellKind.XOR, CellKind.XNOR):
        inv = kind is CellKind.XNOR
        def f_xor(probs, _n=nets, _inv=inv):
            prod = 1.0
            for net in _n:
                prod *= 1.0 - 2.0 * probs[net]
            p_odd = (1.0 - prod) / 2.0
            return (1.0 - p_odd,) if _inv else (p_odd,)
        return f_xor
    return _prob_table_generic(kind, nets)


def _density_table_generic(kind: CellKind, nets):
    """Truth-table Boolean-difference fallback (seed enumeration order)."""
    from itertools import product as iter_product

    from repro.netlist.cells import OUTPUT_COUNT

    evaluator = _EVALUATORS[kind]
    n_out = OUTPUT_COUNT[kind]
    arity = len(nets)

    def f(probs, dens, _nets=nets, _e=evaluator, _n_out=n_out, _ar=arity):
        totals = [0.0] * _n_out
        for pin in range(_ar):
            d_in = dens[_nets[pin]]
            if d_in == 0.0:
                continue
            others = [i for i in range(_ar) if i != pin]
            diff = [0.0] * _n_out
            for combo in iter_product((0, 1), repeat=len(others)):
                weight = 1.0
                assignment = [0] * _ar
                for idx, bit in zip(others, combo):
                    assignment[idx] = bit
                    p = probs[_nets[idx]]
                    weight *= p if bit else 1.0 - p
                assignment[pin] = 0
                low = _e(assignment)
                assignment[pin] = 1
                high = _e(assignment)
                for k in range(_n_out):
                    if low[k] != high[k]:
                        diff[k] += weight
            for k in range(_n_out):
                totals[k] += diff[k] * d_in
        return tuple(totals)

    return f


def _fuse_density(kind: CellKind, nets: Tuple[int, ...]):
    """Build the fused transition-density kernel for one cell."""
    n = len(nets)
    if kind in (CellKind.CONST0, CellKind.CONST1):
        return lambda probs, dens: (0.0,)
    if kind in (CellKind.BUF, CellKind.DFF, CellKind.NOT):
        a, = nets
        return lambda probs, dens, _a=a: (dens[_a],)
    if kind in (CellKind.XOR, CellKind.XNOR):
        # Every pin is always sensitised: D(y) = sum_i D(x_i).
        def f_xor(probs, dens, _n=nets):
            total = 0.0
            for net in _n:
                total += dens[net]
            return (total,)
        return f_xor
    if kind is CellKind.MUX2:
        s, a, b = nets
        def f_mux(probs, dens, _s=s, _a=a, _b=b):
            ps, pa, pb = probs[_s], probs[_a], probs[_b]
            return (
                (pa * (1.0 - pb) + pb * (1.0 - pa)) * dens[_s]
                + (1.0 - ps) * dens[_a]
                + ps * dens[_b],
            )
        return f_mux
    if kind is CellKind.HA:
        a, b = nets
        def f_ha(probs, dens, _a=a, _b=b):
            da, db = dens[_a], dens[_b]
            return (da + db, probs[_b] * da + probs[_a] * db)
        return f_ha
    if kind is CellKind.FA:
        a, b, c = nets
        def f_fa(probs, dens, _a=a, _b=b, _c=c):
            pa, pb, pc = probs[_a], probs[_b], probs[_c]
            da, db, dc = dens[_a], dens[_b], dens[_c]
            # d(carry)/dx = XOR of the other two inputs (majority).
            return (
                da + db + dc,
                (pb * (1.0 - pc) + pc * (1.0 - pb)) * da
                + (pa * (1.0 - pc) + pc * (1.0 - pa)) * db
                + (pa * (1.0 - pb) + pb * (1.0 - pa)) * dc,
            )
        return f_fa
    if kind in (CellKind.AND, CellKind.NAND):
        # dy/dx_i = AND of the other inputs (inversion cancels out).
        if n == 2:
            a, b = nets
            return lambda probs, dens, _a=a, _b=b: (
                probs[_b] * dens[_a] + probs[_a] * dens[_b],
            )
        def f_and(probs, dens, _n=nets):
            total = 0.0
            for pin, net in enumerate(_n):
                d_in = dens[net]
                if d_in == 0.0:
                    continue
                w = 1.0
                for j, other in enumerate(_n):
                    if j != pin:
                        w *= probs[other]
                total += w * d_in
            return (total,)
        return f_and
    if kind in (CellKind.OR, CellKind.NOR):
        if n == 2:
            a, b = nets
            return lambda probs, dens, _a=a, _b=b: (
                (1.0 - probs[_b]) * dens[_a]
                + (1.0 - probs[_a]) * dens[_b],
            )
        def f_or(probs, dens, _n=nets):
            total = 0.0
            for pin, net in enumerate(_n):
                d_in = dens[net]
                if d_in == 0.0:
                    continue
                w = 1.0
                for j, other in enumerate(_n):
                    if j != pin:
                        w *= 1.0 - probs[other]
                total += w * d_in
            return (total,)
        return f_or
    return _density_table_generic(kind, nets)


@dataclass(frozen=True)
class CompiledCircuit:
    """Flat arrays mirroring one :class:`Circuit` at one version.

    Instances are immutable snapshots; obtain them via
    :func:`compile_circuit`, never by mutating an existing one.
    """

    name: str
    version: int
    n_nets: int
    inputs: Tuple[int, ...]
    input_set: frozenset
    outputs: Tuple[int, ...]
    driven: Tuple[bool, ...]
    cell_kinds: Tuple[CellKind, ...]
    cell_inputs: Tuple[Tuple[int, ...], ...]
    cell_outputs: Tuple[Tuple[int, ...], ...]
    cell_eval: Tuple[Callable[[Sequence[int]], Tuple[int, ...]], ...]
    #: Per-cell fused kernels (see :func:`_fuse_cell`): read the flat
    #: ``values`` array directly via captured net indices — no
    #: per-evaluation input-list allocation.  Shared by both timed
    #: backends and :meth:`evaluate_flat`.
    cell_eval_fused: Tuple[Callable[[Sequence[int]], Tuple[int, ...]], ...]
    #: Per-cell fused bitmask kernels (see :func:`_fuse_bits`): same
    #: fusion over a per-net integer-bitmask array, one independent
    #: lane per bit.  The bit-parallel backend packs clock cycles into
    #: lanes; the waveform backend packs intra-cycle event times.
    cell_eval_bits: Tuple[Callable[[Sequence[int], int], Tuple[int, ...]], ...]
    cell_is_seq: Tuple[bool, ...]
    comb_fanout: Tuple[Tuple[int, ...], ...]
    topo: Tuple[int, ...]
    ff_cells: Tuple[int, ...]
    ff_d: Tuple[int, ...]
    ff_q: Tuple[int, ...]
    out_specs: Tuple[Tuple[Tuple[int, int], ...], ...] | None
    max_delay: int

    # ------------------------------------------------------------------
    # The estimator kernel tables are built lazily on first access:
    # compiles on the simulation path (every backend, every shard
    # worker) never pay for them, while the one compiled snapshot per
    # (circuit, delay model) still amortizes them across estimator
    # calls.  ``cached_property`` writes straight into the instance
    # ``__dict__``, which the frozen dataclass permits.

    @cached_property
    def cell_prob(
        self,
    ) -> Tuple[Callable[[Sequence[float]], Tuple[float, ...]], ...]:
        """Per-cell fused signal-probability kernels (:func:`_fuse_prob`).

        Flat per-net float array in, output one-probabilities out.
        The estimation layer (:mod:`repro.estimate`) runs one pass
        over these instead of branching on kinds per cell per
        evaluation.
        """
        return tuple(
            _fuse_prob(kind, nets)
            for kind, nets in zip(self.cell_kinds, self.cell_inputs)
        )

    @cached_property
    def cell_density(
        self,
    ) -> Tuple[
        Callable[[Sequence[float], Sequence[float]], Tuple[float, ...]], ...
    ]:
        """Per-cell fused transition-density kernels (:func:`_fuse_density`).

        ``(probs, dens)`` flat arrays in, output Najm transition
        densities out.
        """
        return tuple(
            _fuse_density(kind, nets)
            for kind, nets in zip(self.cell_kinds, self.cell_inputs)
        )

    # ------------------------------------------------------------------
    # Generated flat passes (see repro.netlist.codegen): whole-circuit
    # straight-line kernels exec-compiled on first access and memoized
    # with the snapshot, exactly like the estimator kernel tables.

    @cached_property
    def settle_pass(self):
        """Generated ``f(v, M)`` zero-delay bitmask pass (codegen tier).

        Statement-for-statement equivalent to running every
        :attr:`cell_eval_bits` kernel over the topo order; accepted by
        :func:`settle_lanes` as ``comb_pass``.
        """
        from repro.netlist import codegen

        return codegen.build_settle_pass(self)

    @cached_property
    def waveform_pass(self):
        """Generated ``f(w, ch, vals, F)`` timed waveform-lane pass.

        Only available on delay-compiled snapshots (``out_specs`` not
        ``None``); transport delays are baked in as literal shifts.
        """
        from repro.netlist import codegen

        return codegen.build_waveform_pass(self)

    @cached_property
    def prob_pass(self):
        """Generated ``f(p)`` signal-probability topo pass (in place)."""
        from repro.netlist import codegen

        return codegen.build_prob_pass(self)

    @cached_property
    def density_pass(self):
        """Generated ``f(p, d)`` transition-density topo pass (in place)."""
        from repro.netlist import codegen

        return codegen.build_density_pass(self)

    @cached_property
    def cell_levels(self):
        """Per-cell structural levels (:func:`repro.netlist.codegen.levelize_cells`).

        Delta-compiled snapshots pre-seed this by splicing the parent's
        levels and recomputing only at/downstream of the edit frontier
        (:func:`repro.netlist.codegen.levelize_cells_delta`).
        """
        from repro.netlist import codegen

        return codegen.levelize_cells(self)

    @cached_property
    def cell_groups(self):
        """Levelized vectorization groups (:func:`repro.netlist.codegen.level_groups`)."""
        from repro.netlist import codegen

        return codegen.level_groups(self)

    # ------------------------------------------------------------------
    def evaluate_flat(
        self,
        input_values: Sequence[int],
        state: Mapping[int, int] | None = None,
    ) -> Tuple[List[int], Dict[int, int]]:
        """Zero-delay functional evaluation of one clock cycle.

        *input_values* are bits in ``inputs`` order; *state* maps DFF
        cell index -> stored bit (missing entries default to 0).
        Returns ``(values, next_state)`` where *values* is a flat list
        indexed by net (undriven non-input nets read 0).
        """
        if len(input_values) != len(self.inputs):
            raise ValueError(
                f"expected {len(self.inputs)} input values, "
                f"got {len(input_values)}"
            )
        state = state or {}
        values = [0] * self.n_nets
        for net, v in zip(self.inputs, input_values):
            values[net] = int(bool(v))
        for i, ci in enumerate(self.ff_cells):
            values[self.ff_q[i]] = state.get(ci, 0)
        cell_outputs = self.cell_outputs
        fused = self.cell_eval_fused
        for ci in self.topo:
            outs = fused[ci](values)
            for out_net, v in zip(cell_outputs[ci], outs):
                values[out_net] = v
        next_state = {
            ci: values[self.ff_d[i]] for i, ci in enumerate(self.ff_cells)
        }
        return values, next_state


def settle_lanes(
    cc: CompiledCircuit,
    net_bits: List[int],
    mask: int,
    base_values: Sequence[int],
    comb_pass: Callable[[List[int], int], None] | None = None,
) -> List[int]:
    """Zero-delay settle of a lane-packed batch, in place.

    *net_bits* holds one integer bitmask per net with the primary-input
    lanes already filled (bit *k* = value in lane *k*); *mask* selects
    the active lanes; *base_values* are the settled values before the
    batch (used to seed flipflop outputs).  On return every driven
    net's mask holds its settled value per lane, including flipflop
    ``q`` nets, whose cross-lane dependency ``q[k] = d[k-1]`` is
    resolved by fixpoint iteration (each pass extends the correct
    prefix by at least one register stage).

    *comb_pass* overrides the combinational pass — pass
    :attr:`CompiledCircuit.settle_pass` to run the generated flat
    kernel instead of the per-cell fused-kernel loop (bit-identical by
    construction).

    Returns the converged ``q`` lane masks, parallel to
    :attr:`CompiledCircuit.ff_cells`.  Shared by the bit-parallel
    backend (lane = clock cycle) and the waveform/codegen backends'
    settled pre-pass.
    """
    if comb_pass is None:
        kernels = cc.cell_eval_bits
        cell_outputs = cc.cell_outputs
        topo = cc.topo

        def comb_pass(bits, m):
            for ci in topo:
                outs = kernels[ci](bits, m)
                for out_net, v in zip(cell_outputs[ci], outs):
                    bits[out_net] = v

    ff_cells, ff_d, ff_q = cc.ff_cells, cc.ff_d, cc.ff_q
    if not ff_cells:
        comb_pass(net_bits, mask)
        return []
    nbits = mask.bit_length()
    q_init = [base_values[d] & 1 for d in ff_d]
    q_bits = list(q_init)
    for _ in range(nbits + 1):
        for i, qn in enumerate(ff_q):
            net_bits[qn] = q_bits[i]
        comb_pass(net_bits, mask)
        new_q = [
            ((net_bits[ff_d[i]] << 1) | q_init[i]) & mask
            for i in range(len(ff_cells))
        ]
        if new_q == q_bits:
            return q_bits
        q_bits = new_q
    raise RuntimeError(  # pragma: no cover - mathematically unreachable
        "flipflop fixpoint did not converge"
    )


#: circuit -> OrderedDict{delay cache token -> CompiledCircuit} (LRU)
_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()

#: Per-circuit bound on memoized (delay model -> compiled form)
#: entries.  Small on purpose: a run touches a handful of delay models
#: at a time, while a long-lived service process may sweep hundreds —
#: without a cap the memo would retain all of them for as long as the
#: circuit lives.
MEMO_DELAY_MODELS = 8


def compile_circuit(
    circuit: "Circuit", delay_model: "DelayModel | None" = None
) -> CompiledCircuit:
    """Return the (memoized) compiled form of *circuit*.

    With *delay_model* ``None`` the compiled form carries no delay
    information (``out_specs is None``) — enough for functional
    evaluation and the bit-parallel backend.  Each distinct delay
    model (by :meth:`DelayModel.cache_token`) gets its own entry, up
    to :data:`MEMO_DELAY_MODELS` per circuit (least-recently-used
    eviction beyond that); mutating the circuit invalidates all of
    them.
    """
    key: Hashable = None if delay_model is None else delay_model.cache_token()
    per_circuit = _CACHE.get(circuit)
    if per_circuit is None:
        per_circuit = _CACHE[circuit] = OrderedDict()
    cached = per_circuit.get(key)
    if cached is not None and cached.version == circuit.version:
        per_circuit.move_to_end(key)
        return cached
    if per_circuit and next(iter(per_circuit.values())).version != circuit.version:
        per_circuit.clear()  # the whole snapshot generation is stale
    with obs.span(
        "compile",
        circuit=getattr(circuit, "name", "?"),
        delay=key is not None,
    ):
        obs.inc("compile.full")
        compiled = _build(circuit, delay_model)
    per_circuit[key] = compiled
    per_circuit.move_to_end(key)
    while len(per_circuit) > MEMO_DELAY_MODELS:
        per_circuit.popitem(last=False)
    return compiled


# ---------------------------------------------------------------------------
# Canonical fingerprints
# ---------------------------------------------------------------------------

def content_digest(doc: object) -> str:
    """SHA-256 over the canonical ``repr`` of a pure-literal document.

    *doc* must be built only from str / int / float / tuple so that
    ``repr`` is deterministic across processes and Python versions.
    The one digest primitive every fingerprint in the system uses
    (circuit/delay here, stimulus specs, run keys), so the determinism
    contract lives in exactly one place.
    """
    return hashlib.sha256(repr(doc).encode("utf-8")).hexdigest()


_digest = content_digest


def circuit_fingerprint(circuit: "Circuit") -> str:
    """Stable content hash of a circuit's structure.

    Covers topology, cell kinds and net names; port order (which is
    semantically significant — input vectors are positional, output
    words are LSB-first) is preserved, while net and cell *insertion*
    order is canonicalized away by sorting name-based records.  Any
    change to connectivity, a cell kind, a net name, or the port lists
    changes the hash; re-building the identical netlist in a different
    order does not.

    Prefer :meth:`Circuit.fingerprint`, which memoizes this per
    circuit version.
    """
    nets = circuit.nets
    cells = tuple(sorted(
        (
            cell.kind.value,
            tuple(nets[n].name for n in cell.inputs),
            tuple(nets[n].name for n in cell.outputs),
        )
        for cell in circuit.cells
    ))
    doc = (
        "circuit-v1",
        tuple(nets[n].name for n in circuit.inputs),
        tuple(nets[n].name for n in circuit.outputs),
        tuple(nets[n].name for n in circuit.canonical_order()),
        cells,
    )
    return _digest(doc)


#: Fingerprint shared by every zero-delay regime (``delay_model is
#: None``, :class:`~repro.sim.delays.ZeroDelay`): no intra-cycle time
#: resolution exists, so all of them produce identical results.
ZERO_DELAY_FINGERPRINT = _digest(("delay-v1", "zero"))


def delay_fingerprint(
    circuit: "Circuit", delay_model: "DelayModel | None"
) -> str:
    """Stable content hash of a delay model *as applied to* a circuit.

    Hashing the resolved per-output delays (rather than the model
    object) makes the fingerprint exact for stateful models such as
    :class:`~repro.sim.delays.LoadDelay`, and makes differently-named
    models that assign identical delays hash identically.  The delays
    are listed per net in :meth:`Circuit.canonical_order` (``-1`` for
    an undriven net, ``0`` for a flipflop output) after the circuit
    fingerprint, so the hash is insertion-order independent like
    :func:`circuit_fingerprint` — and it never compiles the circuit:
    :func:`resolve_out_spec` is the same resolution the compiled
    ``out_specs`` come from.
    """
    from repro.sim.delays import ZeroDelay

    if delay_model is None or isinstance(delay_model, ZeroDelay):
        return ZERO_DELAY_FINGERPRINT
    delays = [-1] * len(circuit.nets)
    for cell in circuit.cells:
        for out, d in resolve_out_spec(cell, delay_model):
            delays[out] = d
    return _digest((
        "delay-v2",
        circuit.fingerprint(),
        tuple([delays[n] for n in circuit.canonical_order()]),
    ))


def resolve_out_spec(
    cell: Cell, delay_model: "DelayModel"
) -> Tuple[Tuple[int, int], ...]:
    """``((out_net, delay), ...)`` of one cell under *delay_model*.

    The one place a delay model is applied to a netlist: the compiled
    ``out_specs`` (:func:`_build`, :func:`_build_delta`) and
    :func:`delay_fingerprint` both come from here.  A flipflop's
    output switches at the clock edge, delta time 0.
    """
    # Hot on 100k-cell netlists: Cell.is_sequential without the
    # property call, and the one- and two-output shapes spelled out.
    outputs = cell.outputs
    if cell.kind is CellKind.DFF:
        return ((outputs[0], 0),)
    if len(outputs) == 1:
        return ((outputs[0], delay_model.delay(cell, 0)),)
    if len(outputs) == 2:
        return (
            (outputs[0], delay_model.delay(cell, 0)),
            (outputs[1], delay_model.delay(cell, 1)),
        )
    return tuple(
        (out, delay_model.delay(cell, pos))
        for pos, out in enumerate(outputs)
    )


def _build(
    circuit: "Circuit", delay_model: "DelayModel | None"
) -> CompiledCircuit:
    n_nets = len(circuit.nets)
    cell_kinds = []
    cell_inputs = []
    cell_outputs = []
    cell_eval = []
    cell_eval_fused = []
    cell_eval_bits = []
    cell_is_seq = []
    ff_cells: List[int] = []
    ff_d: List[int] = []
    ff_q: List[int] = []
    out_specs: List[Tuple[Tuple[int, int], ...]] | None = (
        None if delay_model is None else []
    )
    max_delay = 0
    for cell in circuit.cells:
        cell_kinds.append(cell.kind)
        cell_inputs.append(cell.inputs)
        cell_outputs.append(cell.outputs)
        cell_eval.append(_EVALUATORS[cell.kind])
        cell_eval_fused.append(_fuse_cell(cell.kind, cell.inputs))
        cell_eval_bits.append(_fuse_bits(cell.kind, cell.inputs))
        seq = cell.is_sequential
        cell_is_seq.append(seq)
        if seq:
            ff_cells.append(cell.index)
            ff_d.append(cell.inputs[0])
            ff_q.append(cell.outputs[0])
        if out_specs is not None:
            spec = resolve_out_spec(cell, delay_model)
            out_specs.append(spec)
            for _, d in spec:
                if d > max_delay:
                    max_delay = d
    comb_fanout: List[Tuple[int, ...]] = [
        tuple(ci for ci in net.fanout if not cell_is_seq[ci])
        for net in circuit.nets
    ]
    return CompiledCircuit(
        name=circuit.name,
        version=circuit.version,
        n_nets=n_nets,
        inputs=tuple(circuit.inputs),
        input_set=frozenset(circuit.inputs),
        outputs=tuple(circuit.outputs),
        driven=tuple(net.driver is not None for net in circuit.nets),
        cell_kinds=tuple(cell_kinds),
        cell_inputs=tuple(cell_inputs),
        cell_outputs=tuple(cell_outputs),
        cell_eval=tuple(cell_eval),
        cell_eval_fused=tuple(cell_eval_fused),
        cell_eval_bits=tuple(cell_eval_bits),
        cell_is_seq=tuple(cell_is_seq),
        comb_fanout=tuple(comb_fanout),
        topo=tuple(c.index for c in circuit.topological_cells()),
        ff_cells=tuple(ff_cells),
        ff_d=tuple(ff_d),
        ff_q=tuple(ff_q),
        out_specs=None if out_specs is None else tuple(out_specs),
        max_delay=max_delay,
    )


# ---------------------------------------------------------------------------
# Delta compilation: patch the parent snapshot instead of rebuilding
# ---------------------------------------------------------------------------

def compile_delta(
    parent: "Circuit",
    delta,
    child: "Circuit",
    delay_model: "DelayModel | None" = None,
) -> CompiledCircuit:
    """Compile *child* by patching *parent*'s compiled snapshot.

    *delta* is the :class:`~repro.netlist.delta.CircuitDelta` from
    *parent* to *child* (which must be index-aligned with the parent —
    the shape :meth:`CircuitDelta.apply` produces).  Fused kernels are
    reused for every untouched parent cell, the topological order is
    spliced (only the combinational fanout cone of the touched cells
    is re-sorted), and the structural levelization is recomputed only
    at/downstream of the edit frontier.  The result is inserted into
    the ordinary ``(Circuit, DelayModel)`` memo, so later
    :func:`compile_circuit` calls on *child* hit it.

    Bit-identical to a from-scratch :func:`_build` — the property
    suite pins evaluation, probability and density behaviour.  When
    the delta is not pure-additive (indices shifted) or does not match
    *parent*, this transparently falls back to :func:`compile_circuit`.
    """
    key: Hashable = None if delay_model is None else delay_model.cache_token()
    per_circuit = _CACHE.get(child)
    if per_circuit is not None:
        cached = per_circuit.get(key)
        if cached is not None and cached.version == child.version:
            per_circuit.move_to_end(key)
            return cached
    if (
        not delta.is_pure_addition
        or len(parent.nets) != delta.parent_n_nets
        or len(parent.cells) != delta.parent_n_cells
        or parent.fingerprint() != delta.parent_fingerprint
    ):
        obs.inc("compile.delta_fallback")
        return compile_circuit(child, delay_model)
    parent_cc = compile_circuit(parent, delay_model)
    with obs.span(
        "compile.delta",
        circuit=getattr(child, "name", "?"),
        delay=key is not None,
        touched=len(delta.touched_cells),
    ):
        obs.inc("compile.delta")
        compiled = _build_delta(parent_cc, delta, child, delay_model)
    if per_circuit is None:
        per_circuit = _CACHE[child] = OrderedDict()
    elif per_circuit and next(
        iter(per_circuit.values())
    ).version != child.version:
        per_circuit.clear()
    per_circuit[key] = compiled
    per_circuit.move_to_end(key)
    while len(per_circuit) > MEMO_DELAY_MODELS:
        per_circuit.popitem(last=False)
    return compiled


def _cone_topo(child: "Circuit", cone) -> List[int]:
    """Kahn sub-sort of the (combinational) cone cells of *child*."""
    cells = child.cells
    nets = child.nets
    indeg: Dict[int, int] = {}
    ready: List[int] = []
    for ci in cone:
        deg = 0
        for n in cells[ci].inputs:
            drv = nets[n].driver
            if drv is not None and drv[0] in cone:
                deg += 1
        indeg[ci] = deg
        if deg == 0:
            ready.append(ci)
    order: List[int] = []
    while ready:
        ci = ready.pop()
        order.append(ci)
        for out in cells[ci].outputs:
            for reader in nets[out].fanout:
                deg = indeg.get(reader)
                if deg is not None:
                    indeg[reader] = deg - 1
                    if deg == 1:
                        ready.append(reader)
    if len(order) != len(cone):
        raise ValueError(
            f"combinational cycle through the edit cone of {child.name!r}"
        )
    return order


def _build_delta(
    parent_cc: CompiledCircuit,
    delta,
    child: "Circuit",
    delay_model: "DelayModel | None",
) -> CompiledCircuit:
    from repro.netlist import codegen
    from repro.netlist.delta import comb_fanout_cone

    touched_names = delta.touched_cells
    parent_n_cells = delta.parent_n_cells
    cells = child.cells
    nets = child.nets

    cell_kinds = []
    cell_inputs = []
    cell_outputs = []
    cell_eval = []
    cell_eval_fused = []
    cell_eval_bits = []
    cell_is_seq = []
    reused: List[bool] = []
    touched_idx: List[int] = []
    ff_cells: List[int] = []
    ff_d: List[int] = []
    ff_q: List[int] = []
    out_specs: List[Tuple[Tuple[int, int], ...]] | None = (
        None if delay_model is None else []
    )
    max_delay = 0
    parent_fused = parent_cc.cell_eval_fused
    parent_bits = parent_cc.cell_eval_bits
    for cell in cells:
        ci = cell.index
        reuse = ci < parent_n_cells and cell.name not in touched_names
        reused.append(reuse)
        cell_kinds.append(cell.kind)
        cell_inputs.append(cell.inputs)
        cell_outputs.append(cell.outputs)
        cell_eval.append(_EVALUATORS[cell.kind])
        if reuse:
            # Index alignment makes the parent's closures (which
            # captured net indices) valid verbatim in the child.
            cell_eval_fused.append(parent_fused[ci])
            cell_eval_bits.append(parent_bits[ci])
        else:
            touched_idx.append(ci)
            cell_eval_fused.append(_fuse_cell(cell.kind, cell.inputs))
            cell_eval_bits.append(_fuse_bits(cell.kind, cell.inputs))
        seq = cell.is_sequential
        cell_is_seq.append(seq)
        if seq:
            ff_cells.append(ci)
            ff_d.append(cell.inputs[0])
            ff_q.append(cell.outputs[0])
        if out_specs is not None:
            # Delays are re-resolved for every cell, not spliced: a
            # load-dependent model may change an untouched cell's
            # delay when its fanout gained a reader.
            spec = resolve_out_spec(cell, delay_model)
            out_specs.append(spec)
            for _, d in spec:
                if d > max_delay:
                    max_delay = d

    cone = comb_fanout_cone(child, touched_idx)
    if cone:
        prefix = [ci for ci in parent_cc.topo if ci not in cone]
        topo = tuple(prefix + _cone_topo(child, cone))
    else:
        topo = parent_cc.topo

    compiled = CompiledCircuit(
        name=child.name,
        version=child.version,
        n_nets=len(nets),
        inputs=tuple(child.inputs),
        input_set=frozenset(child.inputs),
        outputs=tuple(child.outputs),
        driven=tuple(net.driver is not None for net in nets),
        cell_kinds=tuple(cell_kinds),
        cell_inputs=tuple(cell_inputs),
        cell_outputs=tuple(cell_outputs),
        cell_eval=tuple(cell_eval),
        cell_eval_fused=tuple(cell_eval_fused),
        cell_eval_bits=tuple(cell_eval_bits),
        cell_is_seq=tuple(cell_is_seq),
        comb_fanout=tuple(
            tuple(ci for ci in net.fanout if not cell_is_seq[ci])
            for net in nets
        ),
        topo=topo,
        ff_cells=tuple(ff_cells),
        ff_d=tuple(ff_d),
        ff_q=tuple(ff_q),
        out_specs=None if out_specs is None else tuple(out_specs),
        max_delay=max_delay,
    )
    # Pre-seed the lazy tables that splice cheaply.  Levelization only
    # recomputes the cone; the estimator kernel tables reuse parent
    # closures for untouched cells, but only when the parent has (or
    # will plausibly need) them — sim-only snapshots never pay.
    compiled.__dict__["cell_levels"] = codegen.levelize_cells_delta(
        parent_cc, compiled, cone
    )
    if delay_model is None or "cell_prob" in parent_cc.__dict__:
        parent_prob = parent_cc.cell_prob
        compiled.__dict__["cell_prob"] = tuple(
            parent_prob[ci] if reused[ci]
            else _fuse_prob(cell_kinds[ci], cell_inputs[ci])
            for ci in range(len(cells))
        )
    if delay_model is None or "cell_density" in parent_cc.__dict__:
        parent_density = parent_cc.cell_density
        compiled.__dict__["cell_density"] = tuple(
            parent_density[ci] if reused[ci]
            else _fuse_density(cell_kinds[ci], cell_inputs[ci])
            for ci in range(len(cells))
        )
    return compiled
