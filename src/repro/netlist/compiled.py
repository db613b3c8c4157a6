"""Compiled circuit IR: flat, cache-friendly arrays built once per netlist.

A :class:`Circuit` is convenient to build and query but expensive to
simulate directly: every :meth:`Circuit.evaluate` re-runs a topological
sort, and every simulator instance used to re-resolve cells, delays and
fanout into private lists.  :func:`compile_circuit` performs that
flattening exactly once per ``(Circuit, DelayModel)`` pair and memoizes
the result, so constructing simulators and evaluating circuits becomes
O(nets) instead of O(cells·outputs) with repeated delay-model calls.

The :class:`CompiledCircuit` holds:

* per-cell flat tuples — input nets, output nets, kind, lane kernel
  (printed from the kind's row of
  :data:`repro.netlist.cells.KIND_TABLE`, like the lazily built
  probability and density kernels), sequential flag;
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

from repro.netlist.cells import Cell, CellKind, kernel_factory
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.netlist.circuit import Circuit
    from repro.sim.delays import DelayModel


def _fuse(kind: CellKind, nets: Tuple[int, ...], form: str = "lane") -> Callable:
    """One cell's fused *form* kernel (see :func:`kernel_factory`).

    A fused kernel captures the cell's input net indices and reads the
    flat per-net array directly, so no evaluation allocates an input
    list.  Lane kernels are lane-packed: one integer per net, each bit
    one independent lane, inversions against an explicit lane mask.
    The bit-parallel backend packs one clock cycle per lane, the
    waveform backend one intra-cycle event time per lane; the
    event-driven engine and :meth:`CompiledCircuit.evaluate_flat` run
    them at mask 1 (one lane, plain 0/1 values).
    """
    return kernel_factory(kind, len(nets), form)(*nets)


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
    #: Per-cell fused lane kernels (see :func:`_fuse`): read a
    #: per-net integer-bitmask array directly via captured net indices,
    #: one independent lane per bit.  The bit-parallel backend packs
    #: clock cycles into lanes, the waveform backend intra-cycle event
    #: times; the event-driven engine and :meth:`evaluate_flat` call
    #: them with mask 1.
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
        """Per-cell fused signal-probability kernels (``f(p)``).

        Flat per-net float array in, output one-probabilities out.
        The incremental estimators re-evaluate edit cones through
        these; whole-circuit passes run :attr:`prob_pass`, printed
        from the same rules.
        """
        return tuple(
            _fuse(kind, nets, "prob")
            for kind, nets in zip(self.cell_kinds, self.cell_inputs)
        )

    @cached_property
    def cell_density(
        self,
    ) -> Tuple[
        Callable[[Sequence[float], Sequence[float]], Tuple[float, ...]], ...
    ]:
        """Per-cell fused transition-density kernels (``f(p, d)``).

        ``(probs, dens)`` flat arrays in, output Najm transition
        densities out.
        """
        return tuple(
            _fuse(kind, nets, "density")
            for kind, nets in zip(self.cell_kinds, self.cell_inputs)
        )

    # ------------------------------------------------------------------
    # Generated estimator passes (see repro.netlist.codegen): whole-
    # circuit straight-line kernels exec-compiled on first access and
    # memoized with the snapshot, exactly like the estimator kernel
    # tables.

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
        cell index -> stored bit (missing entries default to 0).  Both
        are normalised to 0/1 with ``int(bool(v))``; a *state* key that
        is not a flipflop cell index raises ``ValueError``.  Returns
        ``(values, next_state)`` where *values* is a flat list indexed
        by net (undriven non-input nets read 0).
        """
        if len(input_values) != len(self.inputs):
            raise ValueError(
                f"expected {len(self.inputs)} input values, "
                f"got {len(input_values)}"
            )
        state = state or {}
        if state:
            stray = set(state).difference(self.ff_cells)
            if stray:
                raise ValueError(
                    "state keys must be flipflop cell indices; got "
                    f"non-flipflop keys {sorted(stray)}"
                )
        values = [0] * self.n_nets
        for net, v in zip(self.inputs, input_values):
            values[net] = int(bool(v))
        for i, ci in enumerate(self.ff_cells):
            values[self.ff_q[i]] = int(bool(state.get(ci, 0)))
        cell_outputs = self.cell_outputs
        kernels = self.cell_eval_bits
        for ci in self.topo:
            outs = kernels[ci](values, 1)
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

    Returns the converged ``q`` lane masks, parallel to
    :attr:`CompiledCircuit.ff_cells`.  Shared by the bit-parallel
    backend (lane = clock cycle) and the waveform backend's settled
    pre-pass.
    """
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
        cell_eval_bits.append(_fuse(cell.kind, cell.inputs))
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
    parent_bits = parent_cc.cell_eval_bits
    for cell in cells:
        ci = cell.index
        reuse = ci < parent_n_cells and cell.name not in touched_names
        reused.append(reuse)
        cell_kinds.append(cell.kind)
        cell_inputs.append(cell.inputs)
        cell_outputs.append(cell.outputs)
        if reuse:
            # Index alignment makes the parent's closures (which
            # captured net indices) valid verbatim in the child.
            cell_eval_bits.append(parent_bits[ci])
        else:
            touched_idx.append(ci)
            cell_eval_bits.append(_fuse(cell.kind, cell.inputs))
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
            else _fuse(cell_kinds[ci], cell_inputs[ci], "prob")
            for ci in range(len(cells))
        )
    if delay_model is None or "cell_density" in parent_cc.__dict__:
        parent_density = parent_cc.cell_density
        compiled.__dict__["cell_density"] = tuple(
            parent_density[ci] if reused[ci]
            else _fuse(cell_kinds[ci], cell_inputs[ci], "density")
            for ci in range(len(cells))
        )
    return compiled
