"""Search drivers: exhaustive sweep and estimate-guided greedy/beam search.

Every driver works on the same candidate representation — a chain of
:class:`~repro.explore.specs.TransformSpec`\\ s applied to the base
circuit, deduplicated by circuit fingerprint (``balance+balance`` and
``balance`` collapse to one candidate; the merged labels are kept for
reporting).  The difference is *which candidates pay for glitch-exact
simulation*:

* :func:`explore` with ``strategy="exhaustive"`` simulates every
  unique feasible candidate — the oracle, affordable for small spaces;
* ``strategy="beam"`` (or ``"greedy"``, beam width 1) expands the
  chain space guided by the fused analytic cost estimate
  (:func:`repro.explore.cost.estimated_cost`), prunes candidates that
  are clearly estimate-dominated
  (:func:`repro.explore.pareto.dominated_with_margin` — the exact
  structural objectives must be no better and the estimated power
  must be worse by a safety margin), and runs glitch-exact simulation
  only on the surviving frontier.

Candidate simulations fan out through the batch machinery
(:func:`repro.service.jobs.run_circuit_tasks`): with a result store
they resume warm — re-running an exploration, or running a larger one
that shares candidates with a previous run, does zero duplicate
simulation work.  The estimate-vs-sim power rank agreement of every
run is recorded so users can audit when estimate pruning is
trustworthy (see the README's estimation-gap guidance).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.estimate.workload import (
    WorkloadSnapshot,
    incremental_workload,
    workload_snapshot,
)
from repro.explore.cost import (
    CostContext,
    CostVector,
    estimated_cost,
    estimated_cost_from,
    period_from_arrivals,
    rank_agreement,
    simulated_cost,
    spliced_instant_state,
    transition_instant_sets,
)
from repro.explore.pareto import dominated_with_margin, pareto_front
from repro.explore.specs import (
    Chain,
    ExploreSpace,
    TransformSpec,
    default_space,
    describe_chain,
)
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import (
    compile_delta,
    content_digest,
    delay_fingerprint,
)
from repro.netlist.delta import (
    CircuitDelta,
    comb_fanout_cone,
    cone_net_indices,
    full_fanout_cone,
    timing_cone_seeds,
    touched_cell_indices,
)
from repro.obs import trace as obs
from repro.service.jobs import CircuitTask, resolve_delay, run_circuit_tasks
from repro.service.store import (
    EXPLORE,
    ResultStore,
    RunKey,
    decode_result,
    share_per_node_rows,
)
from repro.service.runner import reusable_result_nets
from repro.sim.delays import DelayModel
from repro.sim.vectors import StimulusSpec, UniformStimulus

STRATEGIES = ("exhaustive", "beam", "greedy")

#: Expand candidates through delta replay + cone-limited recompute when
#: possible.  Module-level so the bit-identity tests (and benchmarks)
#: can pin the pre-incremental reference path by monkeypatching it to
#: ``False`` — both paths must produce identical fronts.
INCREMENTAL_EXPANSION = True

#: Counters of the most recent :func:`_expand_candidates` run.  Kept as
#: a module global (cleared by :func:`explore` before expansion) rather
#: than widening the function signature, which tests monkeypatch; and
#: not derived from the obs metrics registry, which may simply be
#: disabled.  Keys: ``delta`` (cone-limited expansions), ``full``
#: (from-scratch expansions), ``collapsed`` (fingerprint-deduplicated
#: chains that skipped estimation entirely).
_EXPAND_STATS: Dict[str, int] = {}

#: Transform-application memo for the incremental expansion path,
#: keyed per parent :class:`Circuit` *object* (same weak-keyed idiom
#: as the retiming-graph memo in :mod:`repro.explore.specs`).  A
#: repeated exploration of the same netlist — a service sweep, an
#: interactive session widening the beam, the committed throughput
#: benchmark — re-applies the exact same ``(parent, spec)`` moves, and
#: the transform passes (retiming's LP in particular) dominate
#: expansion cost.  Because the cached ``replayed`` child is itself
#: the parent object of the next depth, the whole chain tree becomes
#: memo-stable after one pass.  Entries die with the parent circuit;
#: the per-circuit slot is keyed by ``Circuit.version`` so a mutated
#: netlist can never reuse stale results.
_TRANSFORM_MEMO: "weakref.WeakKeyDictionary[Circuit, Dict[tuple, tuple]]" = (
    weakref.WeakKeyDictionary()
)


def _applied_delta(
    parent: Circuit, spec: TransformSpec, delay_model: DelayModel
) -> Tuple[Circuit, Dict[str, Any], CircuitDelta, Optional[Circuit]]:
    """Memoized ``spec.apply_delta`` + fingerprint-checked replay.

    Returns ``(child, info, delta, replayed)`` where *replayed* is the
    delta re-applied onto *parent* (index-aligned with it), or ``None``
    when the delta is not pure-additive or the replay invariant does
    not hold — i.e. exactly when the caller must take the full path.
    """
    per = _TRANSFORM_MEMO.setdefault(parent, {})
    key = (parent.version, delay_model.describe(), spec)
    hit = per.get(key)
    if hit is None:
        for stale in [k for k in per if k[0] != parent.version]:
            del per[stale]
        child, info, delta = spec.apply_delta(parent, delay_model)
        replayed: Optional[Circuit] = None
        if delta.is_pure_addition:
            candidate = delta.apply(parent)
            if candidate.fingerprint() == child.fingerprint():
                replayed = candidate
            else:  # pragma: no cover - replay invariant violated
                obs.inc("explore.delta_replay_mismatch")
                obs.instant(
                    "explore.delta_replay_mismatch",
                    transform=spec.describe(),
                )
        hit = per[key] = (child, info, delta, replayed)
    return hit


@dataclass
class Candidate:
    """One unique design point: a transform chain and its evaluations."""

    chain: Chain
    label: str
    fingerprint: str
    latency: int
    circuit: Optional[Circuit] = None  # transient; absent after decode
    merged: List[str] = field(default_factory=list)
    estimate: Optional[CostVector] = None
    exact: Optional[CostVector] = None
    activity: Optional[Dict[str, Any]] = None
    feasible: bool = True
    on_front: bool = False
    # Transient incremental-expansion state — never serialized.  *state*
    # is dropped as soon as the candidate leaves the beam frontier;
    # *delta* / *parent_fp* survive so the simulate phase can reuse
    # unchanged per-net results from the parent's payload.
    state: Optional["_IncrementalState"] = None
    delta: Optional[CircuitDelta] = None
    parent_fp: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "chain": [t.to_dict() for t in self.chain],
            "label": self.label,
            "fingerprint": self.fingerprint,
            "latency": self.latency,
            "merged": list(self.merged),
            "estimate": None if self.estimate is None else self.estimate.to_dict(),
            "exact": None if self.exact is None else self.exact.to_dict(),
            "activity": self.activity,
            "feasible": self.feasible,
            "on_front": self.on_front,
        }

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "Candidate":
        return Candidate(
            chain=tuple(TransformSpec.from_dict(t) for t in doc["chain"]),
            label=doc["label"],
            fingerprint=doc["fingerprint"],
            latency=int(doc["latency"]),
            merged=list(doc.get("merged", [])),
            estimate=(
                None if doc.get("estimate") is None
                else CostVector.from_dict(doc["estimate"])
            ),
            exact=(
                None if doc.get("exact") is None
                else CostVector.from_dict(doc["exact"])
            ),
            activity=doc.get("activity"),
            feasible=bool(doc.get("feasible", True)),
            on_front=bool(doc.get("on_front", False)),
        )


@dataclass
class ExploreResult:
    """Outcome of one design-space exploration."""

    circuit_name: str
    strategy: str
    beam_width: int
    space: ExploreSpace
    stimulus_description: str
    n_vectors: int
    frequency: float
    candidates: List[Candidate]
    n_enumerated: int
    n_simulated: int
    rank_agreement: Optional[float]
    #: Fraction of non-root candidate expansions served by delta replay
    #: + cone-limited recompute or fingerprint collapse instead of a
    #: from-scratch estimate build; ``None`` when nothing was expanded
    #: incrementally (e.g. :data:`INCREMENTAL_EXPANSION` off).
    delta_reuse_frac: Optional[float] = None

    def front(self) -> List[Candidate]:
        """The discovered Pareto front, cheapest-power first."""
        points = [c for c in self.candidates if c.on_front]
        return sorted(points, key=lambda c: c.exact.power_mw)

    def candidate(self, label: str) -> Candidate:
        """Look up a candidate by its (or a merged) chain label."""
        for c in self.candidates:
            if c.label == label or label in c.merged:
                return c
        raise KeyError(f"no candidate labelled {label!r}")

    def summary(self) -> Dict[str, Any]:
        return {
            "candidates": len(self.candidates),
            "enumerated": self.n_enumerated,
            "simulated": self.n_simulated,
            "front": len([c for c in self.candidates if c.on_front]),
            "rank_agreement": self.rank_agreement,
        }

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "kind": "explore",
            "circuit_name": self.circuit_name,
            "strategy": self.strategy,
            "beam_width": self.beam_width,
            "space": self.space.to_dict(),
            "stimulus_description": self.stimulus_description,
            "n_vectors": self.n_vectors,
            "frequency": self.frequency,
            "candidates": [c.to_dict() for c in self.candidates],
            "front": [c.label for c in self.candidates if c.on_front],
            "n_candidates": len(self.candidates),
            "n_enumerated": self.n_enumerated,
            "n_simulated": self.n_simulated,
            "rank_agreement": self.rank_agreement,
            "delta_reuse_frac": self.delta_reuse_frac,
        }

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "ExploreResult":
        return ExploreResult(
            circuit_name=payload["circuit_name"],
            strategy=payload["strategy"],
            beam_width=int(payload["beam_width"]),
            space=ExploreSpace.from_dict(payload["space"]),
            stimulus_description=payload["stimulus_description"],
            n_vectors=int(payload["n_vectors"]),
            frequency=float(payload["frequency"]),
            candidates=[
                Candidate.from_dict(c) for c in payload["candidates"]
            ],
            n_enumerated=int(payload["n_enumerated"]),
            n_simulated=int(payload["n_simulated"]),
            rank_agreement=payload.get("rank_agreement"),
            delta_reuse_frac=payload.get("delta_reuse_frac"),
        )


def explore_key(
    circuit: Circuit,
    space: ExploreSpace,
    stimulus: StimulusSpec,
    n_vectors: int,
    strategy: str,
    beam_width: int,
    context: CostContext,
    power_margin: float,
) -> RunKey:
    """Content-addressed identity of a whole exploration run.

    Hashes everything that determines the outcome: the base circuit,
    the delay regime, the space (transforms, depth, constraints), the
    workload, the search strategy and its pruning parameters, and the
    cost regime (frequency + default-model parameters).  Only valid
    for the default cost models — :func:`explore` checks
    :attr:`CostContext.cacheable` and skips the whole-result cache for
    custom model instances (the per-candidate simulation cache is
    still exact there).
    """
    delay_model = resolve_delay(space.delay)
    return RunKey(
        circuit_fp=circuit.fingerprint(),
        delay_fp=delay_fingerprint(circuit, delay_model),
        stimulus_fp=content_digest((
            "explore-v1",
            space.fingerprint(),
            stimulus.fingerprint(),
            strategy,
            beam_width,
            power_margin,
            context.fingerprint_fields(),
        )),
        n_vectors=n_vectors,
        result_class=EXPLORE,
    )


def _make_candidate(
    chain: Chain,
    circuit: Circuit,
    latency: int,
    space: ExploreSpace,
    delay_model: DelayModel,
    stimulus: StimulusSpec,
    context: CostContext,
) -> Candidate:
    label = describe_chain(chain)
    ct0 = time.perf_counter()
    with obs.span("explore.candidate", label=label):
        est = estimated_cost(
            circuit, delay_model, stimulus, context, latency
        )
    obs.hist("explore.candidate_s", time.perf_counter() - ct0)
    obs.inc("explore.candidates")
    feasible = True
    if space.max_area_mm2 is not None and est.area_mm2 > space.max_area_mm2:
        feasible = False
    if space.max_latency is not None and latency > space.max_latency:
        feasible = False
    return Candidate(
        chain=chain,
        label=label,
        fingerprint=circuit.fingerprint(),
        latency=latency,
        circuit=circuit,
        estimate=est,
        feasible=feasible,
    )


@dataclass
class _IncrementalState:
    """Per-candidate reusable state carried down the beam tree.

    Everything a child expansion needs to recompute only its edit
    cone: the parent's converged estimate arrays (plus delay-less
    compiled form, inside the snapshot), its transition-instant sets
    and its arrival levels.  Dropped (:data:`Candidate.state`) as soon
    as the candidate can no longer be expanded — the arrays are O(nets)
    each and the beam tree would otherwise pin every generation.
    """

    snapshot: WorkloadSnapshot
    instant_sets: Dict[int, FrozenSet[int]]
    arrivals: Dict[int, int]


def _feasibility(space: ExploreSpace, est: CostVector, latency: int) -> bool:
    if space.max_area_mm2 is not None and est.area_mm2 > space.max_area_mm2:
        return False
    if space.max_latency is not None and latency > space.max_latency:
        return False
    return True


def _make_candidate_full(
    chain: Chain,
    circuit: Circuit,
    latency: int,
    space: ExploreSpace,
    delay_model: DelayModel,
    stimulus: StimulusSpec,
    context: CostContext,
) -> Candidate:
    """From-scratch candidate build that also captures reusable state.

    Runs the same estimators :func:`estimated_cost` runs — once — and
    keeps the converged arrays, instant sets and arrival levels as
    :class:`_IncrementalState` so descendants can expand by cone
    splicing.  The produced :class:`CostVector` is identical to
    :func:`_make_candidate`'s (shared assembly via
    :func:`estimated_cost_from`).
    """
    label = describe_chain(chain)
    ct0 = time.perf_counter()
    with obs.span("explore.candidate", label=label):
        snapshot = workload_snapshot(circuit, stimulus)
        instant_sets = transition_instant_sets(circuit, delay_model)
        arrivals = circuit.levelize(
            lambda cell, pos: delay_model.delay(cell, pos)
        )
        counts = {net: len(times) for net, times in instant_sets.items()}
        est = estimated_cost_from(
            circuit, context, latency, snapshot.result, counts,
            period_from_arrivals(circuit, arrivals),
        )
    obs.hist("explore.candidate_s", time.perf_counter() - ct0)
    obs.inc("explore.candidates")
    return Candidate(
        chain=chain,
        label=label,
        fingerprint=circuit.fingerprint(),
        latency=latency,
        circuit=circuit,
        estimate=est,
        feasible=_feasibility(space, est, latency),
        state=_IncrementalState(snapshot, instant_sets, arrivals),
    )


def _make_candidate_delta(
    parent: Candidate,
    chain: Chain,
    replayed: Circuit,
    delta: CircuitDelta,
    latency: int,
    space: ExploreSpace,
    delay_model: DelayModel,
    stimulus: StimulusSpec,
    context: CostContext,
) -> Optional[Candidate]:
    """Cone-limited candidate build from the parent's carried state.

    *replayed* must be the delta's index-aligned replay of
    ``parent.circuit`` (same fingerprint as the transform's own
    output, parent-prefix net/cell numbering).  Splices the compiled
    form, re-estimates only the value cone, re-times only the timing
    cone, and assembles the identical :class:`CostVector` through the
    shared costing path.  Returns ``None`` when the cone shape is not
    exactly replayable (mixed flipflop cone) — caller falls back to
    the full build.
    """
    state = parent.state
    label = describe_chain(chain)
    ct0 = time.perf_counter()
    with obs.span("explore.candidate_delta", label=label):
        cc = compile_delta(parent.circuit, delta, replayed)
        value_cone = full_fanout_cone(
            replayed, touched_cell_indices(replayed, delta)
        )
        snapshot = incremental_workload(
            replayed, cc, state.snapshot, value_cone,
            cone_net_indices(replayed, value_cone, delta), stimulus,
        )
        if snapshot is None:
            return None
        timing_cone = comb_fanout_cone(
            replayed, timing_cone_seeds(parent.circuit, replayed, delta)
        )
        instant_sets, arrivals = spliced_instant_state(
            state.instant_sets, state.arrivals, replayed, delay_model,
            timing_cone,
        )
        counts = {net: len(times) for net, times in instant_sets.items()}
        est = estimated_cost_from(
            replayed, context, latency, snapshot.result, counts,
            period_from_arrivals(replayed, arrivals),
        )
    obs.hist("explore.candidate_s", time.perf_counter() - ct0)
    obs.inc("explore.candidates")
    return Candidate(
        chain=chain,
        label=label,
        fingerprint=replayed.fingerprint(),
        latency=latency,
        circuit=replayed,
        estimate=est,
        feasible=_feasibility(space, est, latency),
        state=_IncrementalState(snapshot, instant_sets, arrivals),
        delta=delta,
        parent_fp=parent.fingerprint,
    )


def _expand_candidates(
    circuit: Circuit,
    space: ExploreSpace,
    delay_model: DelayModel,
    stimulus: StimulusSpec,
    context: CostContext,
    beam_width: Optional[int],
) -> tuple[List[Candidate], int]:
    """Grow the candidate set chain by chain, deduplicating by fingerprint.

    With ``beam_width=None`` every unique candidate is expanded
    (exhaustive enumeration); otherwise only the *beam_width*
    estimate-cheapest new candidates of each depth are expanded
    further, which bounds the estimator work on large spaces.
    Returns ``(candidates, n_enumerated)`` where *n_enumerated* counts
    chain applications before deduplication.

    With :data:`INCREMENTAL_EXPANSION` on (the default), each
    expansion first tries the delta path — replay the transform's
    :class:`~repro.netlist.delta.CircuitDelta` onto the parent
    (index-aligned, fingerprint-checked), splice the compiled form and
    recompute only the edit cone's estimates and timing — and falls
    back to the from-scratch build whenever the delta is not
    pure-additive, the replay fingerprint mismatches, or the cone is
    not exactly replayable.  Both paths produce bit-identical
    candidates (test-enforced); counters land in
    :data:`_EXPAND_STATS`.
    """
    if not INCREMENTAL_EXPANSION:
        return _expand_candidates_full(
            circuit, space, delay_model, stimulus, context, beam_width
        )
    for key in ("delta", "full", "collapsed"):
        _EXPAND_STATS.setdefault(key, 0)
    root = _make_candidate_full(
        (), circuit, 0, space, delay_model, stimulus, context
    )
    by_fp: Dict[str, Candidate] = {root.fingerprint: root}
    candidates = [root]
    frontier = [root]
    n_enumerated = 1
    for _ in range(space.max_depth):
        fresh: List[Candidate] = []
        for parent in frontier:
            for spec in space.transforms:
                n_enumerated += 1
                child, info, delta, replayed = _applied_delta(
                    parent.circuit, spec, delay_model
                )
                latency = parent.latency + info.get("latency", 0)
                label = describe_chain(parent.chain + (spec,))
                fp = child.fingerprint()
                known = by_fp.get(fp)
                if known is not None:
                    # Fingerprint collapse: no estimate work at all.
                    if label != known.label and label not in known.merged:
                        known.merged.append(label)
                    _EXPAND_STATS["collapsed"] += 1
                    obs.inc("explore.pruned")
                    obs.instant(
                        "explore.prune", label=label,
                        decision="deduplicated",
                    )
                    continue
                cand: Optional[Candidate] = None
                if replayed is not None and parent.state is not None:
                    cand = _make_candidate_delta(
                        parent, parent.chain + (spec,), replayed,
                        delta, latency, space, delay_model,
                        stimulus, context,
                    )
                if cand is not None:
                    _EXPAND_STATS["delta"] += 1
                else:
                    _EXPAND_STATS["full"] += 1
                    cand = _make_candidate_full(
                        parent.chain + (spec,), child, latency,
                        space, delay_model, stimulus, context,
                    )
                    if delta.is_pure_addition:
                        cand.delta = delta
                        cand.parent_fp = parent.fingerprint
                by_fp[fp] = cand
                candidates.append(cand)
                fresh.append(cand)
        if beam_width is not None:
            fresh.sort(key=lambda c: c.estimate.power_mw)
            next_frontier = fresh[:beam_width]
        else:
            next_frontier = fresh
        # Carried state is only needed while a candidate can still be
        # expanded; drop it the moment a candidate leaves the frontier.
        keep = {id(c) for c in next_frontier}
        for cand in frontier:
            if id(cand) not in keep:
                cand.state = None
        for cand in fresh:
            if id(cand) not in keep:
                cand.state = None
        frontier = next_frontier
    for cand in frontier:
        cand.state = None
    return candidates, n_enumerated


def _expand_candidates_full(
    circuit: Circuit,
    space: ExploreSpace,
    delay_model: DelayModel,
    stimulus: StimulusSpec,
    context: CostContext,
    beam_width: Optional[int],
) -> tuple[List[Candidate], int]:
    """Pre-incremental expansion: every candidate built from scratch.

    The reference path for the bit-identity tests and the benchmark
    baseline; selected by monkeypatching
    :data:`INCREMENTAL_EXPANSION` to ``False``.
    """
    root = _make_candidate(
        (), circuit, 0, space, delay_model, stimulus, context
    )
    by_fp: Dict[str, Candidate] = {root.fingerprint: root}
    candidates = [root]
    frontier = [root]
    n_enumerated = 1
    for _ in range(space.max_depth):
        fresh: List[Candidate] = []
        for parent in frontier:
            for spec in space.transforms:
                n_enumerated += 1
                new_circuit, info = spec.apply(parent.circuit, delay_model)
                latency = parent.latency + info.get("latency", 0)
                label = describe_chain(parent.chain + (spec,))
                fp = new_circuit.fingerprint()
                known = by_fp.get(fp)
                if known is not None:
                    if label != known.label and label not in known.merged:
                        known.merged.append(label)
                    obs.inc("explore.pruned")
                    obs.instant(
                        "explore.prune", label=label,
                        decision="deduplicated",
                    )
                    continue
                cand = _make_candidate(
                    parent.chain + (spec,), new_circuit, latency,
                    space, delay_model, stimulus, context,
                )
                by_fp[fp] = cand
                candidates.append(cand)
                fresh.append(cand)
        if beam_width is not None:
            fresh.sort(key=lambda c: c.estimate.power_mw)
            frontier = fresh[:beam_width]
        else:
            frontier = fresh
    return candidates, n_enumerated


def explore(
    circuit: Circuit,
    space: ExploreSpace | None = None,
    strategy: str = "beam",
    beam_width: int = 4,
    n_vectors: int = 120,
    stimulus: StimulusSpec | None = None,
    context: CostContext | None = None,
    power_margin: float = 0.05,
    store: ResultStore | None = None,
    processes: int | None = None,
) -> ExploreResult:
    """Search the transform space of *circuit* for minimum glitch power.

    Ranks candidates with the fused analytic estimators and runs
    glitch-exact simulation on every candidate (``exhaustive``) or
    only on the estimate-surviving frontier (``beam`` / ``greedy``),
    then extracts the Pareto front over (power, area, latency) from
    the simulated costs.  With *store*, candidate simulations resume
    warm through the content-addressed cache and the whole exploration
    result is itself cached under the :data:`~repro.service.store.EXPLORE`
    result class — an identical re-run returns without estimating or
    simulating anything.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    space = space or default_space()
    stimulus = stimulus or UniformStimulus()
    context = context or CostContext()
    delay_model = resolve_delay(space.delay)
    if delay_model is None:
        raise ValueError(
            "explore needs a glitch-capable delay regime; "
            "'zero' has no useless transitions to reduce"
        )
    width = 1 if strategy == "greedy" else beam_width

    # The whole-result cache is only sound for the default cost models
    # (a custom tech/clock/area instance can change behaviour without
    # changing any hashed field); candidate *simulations* below still
    # cache either way — they do not depend on the cost models.
    key = None
    if store is not None and context.cacheable:
        key = explore_key(
            circuit, space, stimulus, n_vectors, strategy, width,
            context, power_margin,
        )
        payload = store.get(key)
        if payload is not None:
            return ExploreResult.from_payload(payload)

    _EXPAND_STATS.clear()
    _EXPAND_STATS.update(delta=0, full=0, collapsed=0)
    with obs.span(
        "explore.expand", circuit=circuit.name, strategy=strategy
    ):
        candidates, n_enumerated = _expand_candidates(
            circuit, space, delay_model, stimulus, context,
            None if strategy == "exhaustive" else width,
        )
    # Reuse accounting over non-root expansions: delta-expanded and
    # fingerprint-collapsed chains skipped the from-scratch rebuild.
    # Read from the module stats, not the metrics registry — tracing
    # may be disabled, and a monkeypatched expansion leaves all zeros.
    reused = _EXPAND_STATS["delta"] + _EXPAND_STATS["collapsed"]
    expansions = reused + _EXPAND_STATS["full"]
    delta_reuse_frac = reused / expansions if expansions else None
    if delta_reuse_frac is not None:
        obs.gauge("explore.delta_reuse_frac", round(delta_reuse_frac, 4))

    feasible = [c for c in candidates if c.feasible]
    if strategy == "exhaustive":
        to_simulate = list(feasible)
    else:
        est_costs = [c.estimate for c in feasible]
        to_simulate = []
        for c in feasible:
            pruned = dominated_with_margin(
                c.estimate, est_costs, power_margin
            )
            obs.instant(
                "explore.prune", label=c.label,
                decision="pruned" if pruned else "kept",
            )
            if pruned:
                obs.inc("explore.pruned")
            else:
                to_simulate.append(c)

    tasks = [
        CircuitTask.from_circuit(
            c.circuit, space.delay, stimulus, n_vectors, label=c.label
        )
        for c in to_simulate
    ]
    with obs.span(
        "explore.simulate", circuit=circuit.name, points=len(tasks)
    ):
        payloads = run_circuit_tasks(tasks, store=store, processes=processes)
        by_fp_sim: Dict[str, Any] = {}
        by_fp_cand = {c.fingerprint: c for c in candidates}
        for cand, payload in zip(to_simulate, payloads):
            activity = decode_result(payload, cand.circuit)
            # Per-net result reuse: outside the delta's full fanout
            # cone a child's per-net counts must equal its parent's;
            # verify and share those entries (the parents simulate
            # first — `candidates` is in expansion order).
            parent_activity = (
                by_fp_sim.get(cand.parent_fp)
                if cand.parent_fp is not None else None
            )
            if cand.delta is not None and parent_activity is not None:
                parent_cand = by_fp_cand.get(cand.parent_fp)
                if parent_cand is not None and parent_cand.circuit is not None:
                    reusable = reusable_result_nets(
                        parent_cand.circuit, cand.delta, cand.circuit
                    )
                    share_per_node_rows(
                        parent_activity, activity, reusable
                    )
            by_fp_sim[cand.fingerprint] = activity
            cand.exact = simulated_cost(
                cand.circuit, activity, delay_model, context, cand.latency
            )
            cand.activity = activity.summary()

    for cand in pareto_front(to_simulate, lambda c: c.exact):
        cand.on_front = True

    simulated = [c for c in candidates if c.exact is not None]
    agreement = None
    if len(simulated) >= 2:
        agreement = rank_agreement(
            [c.estimate.power_mw for c in simulated],
            [c.exact.power_mw for c in simulated],
        )

    result = ExploreResult(
        circuit_name=circuit.name,
        strategy=strategy,
        beam_width=width,
        space=space,
        stimulus_description=stimulus.describe(),
        n_vectors=n_vectors,
        frequency=context.frequency,
        candidates=candidates,
        n_enumerated=n_enumerated,
        n_simulated=len(to_simulate),
        rank_agreement=agreement,
        delta_reuse_frac=delta_reuse_frac,
    )
    if store is not None:
        if key is not None:
            store.put(key, result.to_payload())
        store.flush()
    return result
