"""Pluggable simulation backends over the compiled circuit IR.

Every backend implements the :class:`SimBackend` protocol — construct
with a circuit (plus options), call :meth:`run` with a vector stream,
get back aggregated per-net :class:`RunStats` — so the activity layer
(:class:`repro.core.activity.ActivityRun`) can swap engines without
touching consumers:

* :class:`EventDrivenBackend` — the exact transport-delay engine
  (:class:`repro.sim.engine.Simulator`): intra-cycle delta timing,
  glitches observable, per-cycle parity classification of useful vs
  useless transitions.  The reference for every paper number, and the
  only engine that produces per-cycle traces and recorded events
  (VCD).
* :class:`~repro.sim.waveform.WaveformBackend` — glitch-exact batch
  engine: packs whole timed waveforms (cycle × delta-time lanes) into
  per-net integer bitmasks and evaluates each cell once per batch
  through the compiled IR's fused bitmask kernels.  Aggregated
  :class:`RunStats` are **bit-identical** to the event-driven backend
  at a fraction of the cost — the default choice for glitch-exact
  activity analysis (see :func:`select_backend`).
* :class:`BitParallelBackend` — zero-delay batch evaluation that packs
  many clock cycles into single Python-int bitmasks per net and
  evaluates each gate once per batch with bitwise operators.  Glitches
  are invisible by construction, so every counted transition is a
  settled-value change (useful activity).  Ideal for fast functional
  verification, warm-up/fast-forward, and flipflop/useful-activity
  estimation; its per-net toggle counts equal the event-driven
  backend's per-net *useful* counts exactly.
* :class:`~repro.sim.vector.VectorBackend` — the numpy tier (the
  optional ``[perf]`` extra): per-net cycle lanes packed into
  ``uint64`` ndarrays, evaluated level-by-level with per-kind
  vectorized ops.  Dual-mode: a timed delay model selects the
  glitch-exact algorithm (bit-identical to the event-driven
  reference), an explicit ZeroDelay selects settled batch evaluation
  (bit-identical to the bit-parallel backend).  The fastest
  glitch-exact engine by a wide margin.

The three interpreted engines evaluate cells through one kernel family,
the compiled IR's lane kernels
(:attr:`~repro.netlist.compiled.CompiledCircuit.cell_eval_bits`): the
event-driven engine and functional evaluation run them at a one-lane
mask, the batch engines at one lane per cycle or event time.

Runtime degradation follows two chains (:data:`FALLBACK_CHAIN`,
:data:`ZERO_DELAY_FALLBACK_CHAIN`): vector → waveform → event for
glitch-exact sessions and vector → bitparallel for settled ones.

All backends accept an explicit starting point (``initial_values`` +
``initial_ff_state``), which is what makes exact vector-stream sharding
possible: a shard's boundary state is computed cheaply with the
zero-delay engine (:func:`zero_delay_backend`) and handed to a
glitch-exact shard worker, whose stats are then bit-identical to an
unsharded run (settled values provably equal zero-delay evaluation).

:func:`select_backend` implements the ``"auto"`` policy used by the
session API and the CLI: event-driven whenever traces/VCD recording
are requested; otherwise the vector backend when numpy is available,
falling back to waveform (glitch-exact) or bit-parallel (explicit
zero-delay) without it.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Protocol, Sequence, Tuple, runtime_checkable

from repro.core.transitions import NodeActivity
from repro.netlist.circuit import Circuit
from repro.obs import trace as obs
from repro.netlist.compiled import (
    CompiledCircuit,
    compile_circuit,
    settle_lanes,
)
from repro.sim.delays import DelayModel, UnitDelay, ZeroDelay
from repro.sim.engine import Simulator

InputVector = Sequence[int] | Mapping[int, int]


@dataclass
class RunStats:
    """Aggregated per-net activity of one backend run.

    ``final_values`` / ``final_ff_state`` snapshot the settled state
    after the last counted cycle, so a subsequent run (on any backend)
    can continue the stream exactly where this one stopped.
    """

    cycles: int = 0
    per_node: Dict[int, NodeActivity] = field(default_factory=dict)
    final_values: List[int] = field(default_factory=list)
    final_ff_state: Dict[int, int] = field(default_factory=dict)


@runtime_checkable
class SimBackend(Protocol):
    """Common protocol every simulation backend satisfies."""

    #: Stable identifier used by CLIs, benchmarks and reports.
    name: str
    #: True when intra-cycle glitches are observable (event-driven);
    #: False for settled-value-only engines (bit-parallel).
    exact_glitches: bool

    def run(
        self,
        vectors: Iterable[InputVector],
        warmup: InputVector | None = None,
        initial_values: Sequence[int] | None = None,
        initial_ff_state: Mapping[int, int] | None = None,
    ) -> RunStats:
        """Simulate *vectors* and return aggregated activity."""
        ...  # pragma: no cover - protocol stub


def _resolve_vector(
    vec: InputVector,
    inputs: Tuple[int, ...],
    input_set: frozenset,
    current: List[int],
) -> List[int]:
    """Full positional input bits for *vec*, with mapping carry-over.

    Mirrors :meth:`Simulator._normalise_inputs`: mapping keys must name
    primary inputs, and inputs a mapping omits keep their *current*
    value.  Updates *current* in place and returns a copy.
    """
    if isinstance(vec, Mapping):
        for n in vec:
            if n not in input_set:
                raise ValueError(
                    f"net {n} is not a primary input; mapping vectors may "
                    "only drive primary inputs"
                )
        for pos, net in enumerate(inputs):
            if net in vec:
                current[pos] = int(bool(vec[net]))
    else:
        if len(vec) != len(inputs):
            raise ValueError(
                f"expected {len(inputs)} input bits, got {len(vec)}"
            )
        current[:] = [int(bool(v)) for v in vec]
    return list(current)


class EventDrivenBackend:
    """Exact transport-delay backend (see :mod:`repro.sim.engine`).

    Per-cycle toggle counts are folded into :class:`NodeActivity`
    records with the paper's parity classification: an odd per-cycle
    count contributes one useful transition, everything else is
    useless.
    """

    name = "event"
    exact_glitches = True

    def __init__(
        self,
        circuit: Circuit,
        delay_model: DelayModel | None = None,
        monitor: Iterable[int] | None = None,
    ) -> None:
        self.circuit = circuit
        self.delay_model = delay_model or UnitDelay()
        self.monitor = None if monitor is None else list(monitor)

    def run(
        self,
        vectors: Iterable[InputVector],
        warmup: InputVector | None = None,
        initial_values: Sequence[int] | None = None,
        initial_ff_state: Mapping[int, int] | None = None,
    ) -> RunStats:
        sim = Simulator(self.circuit, self.delay_model, monitor=self.monitor)
        if initial_ff_state:
            sim.ff_state.update(initial_ff_state)
        it = iter(vectors)
        if initial_values is not None:
            # Resuming mid-stream from an exact settled state; an
            # explicit warmup on top re-settles from that state (same
            # semantics as the bit-parallel backend).
            sim.values[:] = initial_values
            if warmup is not None:
                sim.settle(warmup)
        else:
            if warmup is None:
                try:
                    warmup = next(it)
                except StopIteration:
                    return RunStats(
                        final_values=list(sim.values),
                        final_ff_state=dict(sim.ff_state),
                    )
            sim.settle(warmup)
        stats = RunStats()
        per_node = stats.per_node
        rec = obs.active()
        t0 = rec.now() if rec is not None else 0
        for vec in it:
            trace = sim.step(vec)
            stats.cycles += 1
            rises = trace.rises
            for net, count in trace.toggles.items():
                act = per_node.get(net)
                if act is None:
                    act = per_node[net] = NodeActivity()
                act.add_cycle(count, rises.get(net, 0))
        stats.final_values = list(sim.values)
        stats.final_ff_state = dict(sim.ff_state)
        if rec is not None:
            dur = rec.complete(
                "sim.batch", t0, backend="event", cycles=stats.cycles
            )
            rec.metrics.hist("sim.batch_s", dur / 1e9)
            rec.metrics.inc("sim.vectors", stats.cycles)
            rec.metrics.inc(
                "sim.cell_evals", stats.cycles * len(self.circuit.cells)
            )
        return stats


# ---------------------------------------------------------------------------
# Bit-parallel zero-delay evaluation
# ---------------------------------------------------------------------------

class BitParallelBackend:
    """Zero-delay batch backend: one int bitmask per net, B cycles deep.

    Combinational logic is evaluated once per batch with bitwise
    operators over ``batch_cycles``-bit integers (bit *k* of a net's
    mask is its settled value in cycle *k* of the batch).  Flipflops
    introduce a cross-cycle dependency — ``q[k] = d[k-1]`` — resolved
    by fixpoint iteration: each pass extends the correct prefix by at
    least one register stage, so a circuit with an r-stage register
    pipeline converges in about ``r + 1`` passes regardless of batch
    size.

    Because evaluation is zero-delay, per-cycle toggle counts are 0 or
    1 and every transition is useful — the numbers match the
    event-driven backend's *useful* counts per net exactly (both equal
    "settled value changed this cycle").
    """

    name = "bitparallel"
    exact_glitches = False

    def __init__(
        self,
        circuit: Circuit,
        delay_model: DelayModel | None = None,
        monitor: Iterable[int] | None = None,
        batch_cycles: int = 256,
    ) -> None:
        if delay_model is not None and not isinstance(delay_model, ZeroDelay):
            raise ValueError(
                "the bit-parallel backend is inherently zero-delay; "
                "pass delay_model=None (or ZeroDelay) or use the "
                "event-driven backend"
            )
        if batch_cycles < 1:
            raise ValueError("batch_cycles must be >= 1")
        self.circuit = circuit
        self.delay_model = ZeroDelay()
        self._cc: CompiledCircuit = compile_circuit(circuit)
        if monitor is None:
            self._monitor = [
                n for n in range(self._cc.n_nets) if self._cc.driven[n]
            ]
        else:
            self._monitor = list(monitor)
        self.batch_cycles = batch_cycles

    def run(
        self,
        vectors: Iterable[InputVector],
        warmup: InputVector | None = None,
        initial_values: Sequence[int] | None = None,
        initial_ff_state: Mapping[int, int] | None = None,
    ) -> RunStats:
        cc = self._cc
        n_nets = cc.n_nets
        inputs = cc.inputs
        input_set = cc.input_set
        if initial_values is not None:
            values = list(initial_values)
        else:
            values = [0] * n_nets
        state: Dict[int, int] = dict.fromkeys(cc.ff_cells, 0)
        if initial_ff_state:
            state.update(initial_ff_state)
        cur_inputs = [values[net] for net in inputs]

        it = iter(vectors)
        if initial_values is None:
            if warmup is None:
                try:
                    warmup = next(it)
                except StopIteration:
                    return RunStats(
                        final_values=values, final_ff_state=state
                    )
            full = _resolve_vector(warmup, inputs, input_set, cur_inputs)
            values, _ = cc.evaluate_flat(full, state)
        elif warmup is not None:
            full = _resolve_vector(warmup, inputs, input_set, cur_inputs)
            values, _ = cc.evaluate_flat(full, state)

        stats = RunStats()
        per_node = stats.per_node
        ff_cells = cc.ff_cells
        monitor = self._monitor
        B = self.batch_cycles

        rec = obs.active()
        n_cells = len(cc.cell_kinds)
        batch: List[List[int]] = []
        exhausted = False
        while not exhausted:
            batch.clear()
            for vec in it:
                batch.append(
                    _resolve_vector(vec, inputs, input_set, cur_inputs)
                )
                if len(batch) == B:
                    break
            else:
                exhausted = True
            if not batch:
                break
            bt0 = rec.now() if rec is not None else 0
            nbits = len(batch)
            mask = (1 << nbits) - 1
            top = nbits - 1

            net_bits = [0] * n_nets
            for pos, net in enumerate(inputs):
                stream = 0
                for k in range(nbits):
                    stream |= batch[k][pos] << k
                net_bits[net] = stream

            # Zero-delay settle via the shared fused-kernel helper; the
            # flipflop recurrence q[k] = d[k-1] is fixpoint-resolved.
            q_bits = settle_lanes(cc, net_bits, mask, values)
            for i, ci in enumerate(ff_cells):
                state[ci] = (q_bits[i] >> top) & 1

            for net in monitor:
                s = net_bits[net]
                prev = ((s << 1) | (values[net] & 1)) & mask
                diff = s ^ prev
                if diff:
                    act = per_node.get(net)
                    if act is None:
                        act = per_node[net] = NodeActivity()
                    tog = diff.bit_count()
                    act.toggles += tog
                    act.rises += (s & diff).bit_count()
                    act.useful += tog
                    act.cycles_active += tog
            for net in range(n_nets):
                values[net] = (net_bits[net] >> top) & 1
            stats.cycles += nbits
            if rec is not None:
                dur = rec.complete(
                    "sim.batch", bt0, backend=self.name, cycles=nbits
                )
                rec.metrics.hist("sim.batch_s", dur / 1e9)
                rec.metrics.inc("sim.vectors", nbits)
                rec.metrics.inc("sim.cell_evals", nbits * n_cells)

        stats.final_values = values
        stats.final_ff_state = state
        return stats


class BackendUnavailableError(ValueError):
    """A registered backend cannot run in this environment.

    Raised when a backend's optional dependency is missing — e.g. the
    vector backend without the ``[perf]`` extra's numpy.  Subclasses
    :class:`ValueError` so existing "bad backend name" handling keeps
    working.
    """


class BackendDegradedWarning(RuntimeWarning):
    """A run fell back from one backend tier to a slower one mid-run.

    Emitted by the session API's failover policy when the selected
    engine dies with ``MemoryError`` / an import failure /
    :class:`BackendUnavailableError` and the run is re-dispatched on
    the next tier of the fallback chain.  The result is still
    bit-identical (all tiers in a chain share a result class); only
    throughput degrades.  Structured so monitoring can aggregate:
    :attr:`from_backend`, :attr:`to_backend`, :attr:`reason`.
    """

    def __init__(self, from_backend: str, to_backend: str, reason: str):
        self.from_backend = from_backend
        self.to_backend = to_backend
        self.reason = reason
        super().__init__(
            f"backend {from_backend!r} failed ({reason}); "
            f"degrading to {to_backend!r} (results stay bit-identical, "
            "throughput does not)"
        )


from repro.sim.waveform import WaveformBackend  # noqa: E402  (needs RunStats at run time)

#: Why the vector backend cannot run when numpy is not installed.
NUMPY_MISSING = "numpy is not installed (pip install 'repro-leijten-date95[perf]')"
#: Why it cannot run on a numpy older than 2.0 (no ``bitwise_count``).
NUMPY_TOO_OLD = "numpy {} lacks bitwise_count (the [perf] extra needs numpy >= 2.0)"
#: An installed numpy's metadata directory: ``numpy-<version>.dist-info``.
_NUMPY_DIST_INFO = re.compile(r"numpy-((\d+)[^-]*)\.dist-info")


class _VectorEntry:
    """Registry entry for :class:`repro.sim.vector.VectorBackend`.

    Importing :mod:`repro.sim.vector` imports numpy (about a third of
    ``import repro.cli``), so it is deferred until a vector backend is
    first built: constructing this entry returns the real backend.
    The class attributes mirror the real class's, for the session
    layer's result-class decisions.
    """

    name = "vector"
    exact_glitches = True
    dual_mode = True

    def __new__(cls, *args, **kwargs):
        from repro.sim.vector import VectorBackend

        return VectorBackend(*args, **kwargs)


def numpy_unavailable_reason() -> str | None:
    """Why the vector backend can't run here, or ``None`` if it can.

    Before :mod:`repro.sim.vector` is imported this reads the installed
    numpy's version without importing it; afterwards
    the module's own verdict is used.  Both give the same answer.
    """
    vector = sys.modules.get("repro.sim.vector")
    if vector is not None:
        return vector.numpy_unavailable_reason()
    return _installed_numpy_reason()


@functools.lru_cache(maxsize=None)
def _installed_numpy_reason() -> str | None:
    """The pre-import verdict of :func:`numpy_unavailable_reason`.

    The version is read from the name of numpy's ``.dist-info``
    directory beside the package (``importlib.metadata`` would add
    about a megabyte of imports), once per process.  Without exactly
    one such directory the vector module imports numpy and decides.
    """
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        return NUMPY_MISSING
    found = [
        match
        for location in spec.submodule_search_locations or ()
        for entry in os.listdir(os.path.dirname(location))
        if (match := _NUMPY_DIST_INFO.fullmatch(entry))
    ]
    if len(found) != 1:
        import repro.sim.vector

        return repro.sim.vector.numpy_unavailable_reason()
    version, major = found[0].group(1, 2)
    if int(major) < 2:
        return NUMPY_TOO_OLD.format(version)
    return None


def numpy_available() -> bool:
    """Whether the vector backend can run in this environment."""
    return numpy_unavailable_reason() is None


#: Registered backends, by canonical name (aliases resolved in
#: :func:`get_backend`).  Registration is unconditional — use
#: :func:`backend_unavailable_reason` / :func:`available_backends` to
#: learn whether one can actually run here.
BACKENDS = {
    EventDrivenBackend.name: EventDrivenBackend,
    WaveformBackend.name: WaveformBackend,
    BitParallelBackend.name: BitParallelBackend,
    _VectorEntry.name: _VectorEntry,
}

_ALIASES = {
    "event": "event",
    "event-driven": "event",
    "waveform": "waveform",
    "wave": "waveform",
    "bitparallel": "bitparallel",
    "bit-parallel": "bitparallel",
    "batch": "bitparallel",
    "vector": "vector",
    "numpy": "vector",
    "np": "vector",
}

#: Pseudo-backend name resolved per run by :func:`select_backend`.
AUTO_BACKEND = "auto"

#: Runtime degradation order for glitch-exact sessions: every tier is
#: bit-identical to the event-driven reference, each successive tier
#: trades throughput for fewer runtime dependencies / less memory
#: (the event engine streams one cycle at a time and allocates almost
#: nothing).
FALLBACK_CHAIN = ("vector", "waveform", "event")
#: Degradation order for settled (zero-delay) sessions.
ZERO_DELAY_FALLBACK_CHAIN = ("vector", "bitparallel")


def fallback_candidates(
    current: str, zero_delay: bool = False
) -> List[str]:
    """Backends to try, in order, after *current* fails at runtime.

    Only tiers *behind* the failing one in the chain are candidates
    (they need strictly less memory / fewer dependencies), and only
    those available in this environment.  An empty list means the
    failure is terminal.
    """
    chain = ZERO_DELAY_FALLBACK_CHAIN if zero_delay else FALLBACK_CHAIN
    if current not in chain:
        return []
    return [
        name
        for name in chain[chain.index(current) + 1:]
        if backend_unavailable_reason(name) is None
    ]


def backend_unavailable_reason(name: str) -> str | None:
    """Why backend *name* can't run here, or ``None`` when it can.

    Resolves aliases; raises :class:`ValueError` for unknown names
    (like :func:`canonical_backend`).
    """
    canonical = canonical_backend(name)
    if canonical == _VectorEntry.name:
        reason = numpy_unavailable_reason()
        if reason is not None:
            return f"the 'vector' backend is unavailable: {reason}"
    return None


def available_backends() -> List[str]:
    """Canonical names of the backends that can run here, sorted."""
    return sorted(
        name
        for name in BACKENDS
        if backend_unavailable_reason(name) is None
    )


def select_backend(
    delay_model: DelayModel | None = None,
    record_events: bool = False,
    want_traces: bool = False,
) -> str:
    """Resolve the ``"auto"`` backend policy to a concrete engine.

    * per-cycle traces or recorded events (VCD dumps) need the
      event-driven engine — nothing else produces them;
    * everything else goes to the vectorized numpy backend when the
      ``[perf]`` extra is installed — it is bit-identical to the
      event-driven engine in both its glitch-exact and zero-delay
      modes and by far the fastest;
    * without numpy the policy falls back to the interpreted engines:
      bit-parallel for an explicit
      :class:`~repro.sim.delays.ZeroDelay` model (no glitch is
      observable anyway), the waveform backend for everything else.
    """
    if record_events or want_traces:
        return EventDrivenBackend.name
    if numpy_available():
        return _VectorEntry.name
    if delay_model is not None and isinstance(delay_model, ZeroDelay):
        return BitParallelBackend.name
    return WaveformBackend.name


def import_before_fork(names: Iterable[str]) -> None:
    """Import the deferred module behind any of the backends *names*.

    Call before forking workers that will build those backends: a
    module the parent imported is shared by every forked child, which
    would otherwise each import it (numpy) again.  ``"auto"`` counts as
    the backend :func:`select_backend` picks.
    """
    for name in names:
        if name == AUTO_BACKEND:
            name = select_backend()
        if canonical_backend(name) == _VectorEntry.name and numpy_available():
            import repro.sim.vector  # noqa: F401


def canonical_backend(name: str) -> str:
    """Resolve a backend name/alias to its canonical registry key."""
    canonical = _ALIASES.get(name)
    if canonical is None:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"choose from {sorted(set(_ALIASES))}"
        )
    return canonical


def get_backend(
    name: str,
    circuit: Circuit,
    delay_model: DelayModel | None = None,
    monitor: Iterable[int] | None = None,
) -> SimBackend:
    """Construct the backend called *name* for *circuit*.

    Raises :class:`BackendUnavailableError` when the backend exists
    but can't run in this environment (missing optional dependency).
    """
    canonical = canonical_backend(name)
    reason = backend_unavailable_reason(canonical)
    if reason is not None:
        raise BackendUnavailableError(reason)
    return BACKENDS[canonical](circuit, delay_model, monitor)


def zero_delay_backend(
    circuit: Circuit, monitor: Iterable[int] | None = None
) -> SimBackend:
    """The fastest available settled-value engine for *circuit*.

    The vector backend's zero-delay mode when numpy is present, else
    the bit-parallel backend — both produce identical results (the
    settled-equivalence invariant), so callers that only fast-forward
    state or need useful-only counts can take whichever is faster.
    """
    if numpy_available():
        return _VectorEntry(circuit, ZeroDelay(), monitor)
    return BitParallelBackend(circuit, None, monitor)
