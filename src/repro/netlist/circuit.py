"""The flat circuit container: nets, cells, ports and word helpers.

A :class:`Circuit` is a single-clock synchronous network.  Nets have at
most one driver (a cell output or a primary input).  Words (buses) are
plain Python lists of net indices, least-significant bit first; helper
methods create and register them under dotted names such as ``a[3]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from repro.netlist.cells import KIND_TABLE, Cell, CellKind, check_arity


@dataclass
class Net:
    """A single-driver signal node.

    Attributes
    ----------
    name:
        Unique net name within the circuit.
    index:
        Position in ``circuit.nets``.
    driver:
        ``(cell_index, output_position)`` or ``None`` for primary
        inputs / undriven nets.
    fanout:
        Indices of cells reading this net (duplicates possible when a
        cell reads the same net on several pins).
    """

    name: str
    index: int
    driver: Tuple[int, int] | None = None
    fanout: List[int] = field(default_factory=list)

    @property
    def is_driven(self) -> bool:
        return self.driver is not None


class Circuit:
    """A flat, single-clock, cell-level netlist.

    Typical construction::

        c = Circuit("rca4")
        a = c.add_input_word("a", 4)
        b = c.add_input_word("b", 4)
        s, cout = ripple_carry_adder(c, a, b)   # from repro.circuits
        c.mark_output_word(s, "s")
        c.mark_output(cout, "cout")
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.nets: List[Net] = []
        self.cells: List[Cell] = []
        self._net_by_name: dict[str, int] = {}
        self._cell_by_name: dict[str, int] = {}
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self._anon_net = 0
        self._anon_cell = 0
        self._version = 0
        self._fingerprint: Tuple[int, str] | None = None
        self._canonical_order: Tuple[int, Tuple[int, ...]] | None = None

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every structural change.

        Consumers that cache derived structure (notably the compiled IR
        in :mod:`repro.netlist.compiled`) compare this to detect
        staleness instead of hashing the whole netlist.
        """
        return self._version

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_net(self, name: str | None = None) -> int:
        """Create a new undriven net and return its index."""
        if name is None:
            name = f"n{self._anon_net}"
            self._anon_net += 1
            while name in self._net_by_name:
                name = f"n{self._anon_net}"
                self._anon_net += 1
        if name in self._net_by_name:
            raise ValueError(f"duplicate net name {name!r}")
        net = Net(name=name, index=len(self.nets))
        self.nets.append(net)
        self._net_by_name[name] = net.index
        self._version += 1
        return net.index

    def new_net_word(self, name: str, width: int) -> List[int]:
        """Create *width* nets named ``name[0] .. name[width-1]`` (LSB first)."""
        return [self.new_net(f"{name}[{i}]") for i in range(width)]

    def add_input(self, name: str | None = None) -> int:
        """Create a primary-input net."""
        idx = self.new_net(name)
        self.inputs.append(idx)
        return idx

    def add_input_word(self, name: str, width: int) -> List[int]:
        """Create a *width*-bit primary-input word, LSB first."""
        return [self.add_input(f"{name}[{i}]") for i in range(width)]

    def mark_output(self, net: int, alias: str | None = None) -> int:
        """Register *net* as a primary output (optionally aliasing its name)."""
        if not 0 <= net < len(self.nets):
            raise ValueError(f"no such net index {net}")
        if alias is not None and alias not in self._net_by_name:
            self._net_by_name[alias] = net
        self.outputs.append(net)
        self._version += 1
        return net

    def mark_output_word(self, nets: Sequence[int], name: str | None = None) -> None:
        """Register a word of nets as primary outputs, LSB first."""
        for i, n in enumerate(nets):
            self.mark_output(n, f"{name}[{i}]" if name is not None else None)

    def add_cell(
        self,
        kind: CellKind,
        inputs: Sequence[int],
        outputs: Sequence[int] | None = None,
        name: str | None = None,
        delay_hint: Sequence[int] | None = None,
    ) -> Cell:
        """Instantiate a cell.

        If *outputs* is ``None``, fresh anonymous nets are created for
        every output.  Returns the :class:`Cell` (its ``outputs`` carry
        the driven net indices).
        """
        if outputs is None:
            outputs = [self.new_net() for _ in range(KIND_TABLE[kind].n_out)]
        check_arity(kind, len(inputs), len(outputs))
        if name is None:
            name = f"u{self._anon_cell}_{kind.value.lower()}"
            self._anon_cell += 1
            while name in self._cell_by_name:
                name = f"u{self._anon_cell}_{kind.value.lower()}"
                self._anon_cell += 1
        if name in self._cell_by_name:
            raise ValueError(f"duplicate cell name {name!r}")
        for n in list(inputs) + list(outputs):
            if not 0 <= n < len(self.nets):
                raise ValueError(f"cell {name!r}: no such net index {n}")
        cell = Cell(
            name=name,
            kind=kind,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            delay_hint=tuple(delay_hint) if delay_hint is not None else None,
            index=len(self.cells),
        )
        for pos, out in enumerate(cell.outputs):
            net = self.nets[out]
            if net.driver is not None:
                raise ValueError(
                    f"net {net.name!r} already driven by "
                    f"{self.cells[net.driver[0]].name!r}"
                )
            net.driver = (cell.index, pos)
        for inp in cell.inputs:
            self.nets[inp].fanout.append(cell.index)
        self.cells.append(cell)
        self._cell_by_name[name] = cell.index
        self._version += 1
        return cell

    # convenience single-output gate constructors -----------------------
    def gate(
        self,
        kind: CellKind,
        *inputs: int,
        output: int | None = None,
        name: str | None = None,
    ) -> int:
        """Add a single-output gate and return its output net index."""
        outs = None if output is None else [output]
        cell = self.add_cell(kind, list(inputs), outs, name=name)
        return cell.outputs[0]

    def add_dff(self, d: int, q: int | None = None, name: str | None = None) -> int:
        """Add a D-flipflop from net *d*; returns the ``q`` net index."""
        outs = None if q is None else [q]
        cell = self.add_cell(CellKind.DFF, [d], outs, name=name)
        return cell.outputs[0]

    def add_dff_word(self, word: Sequence[int], name: str | None = None) -> List[int]:
        """Register every bit of *word* through a DFF; returns the q word."""
        qs = []
        for i, d in enumerate(word):
            cell_name = f"{name}[{i}]" if name is not None else None
            qs.append(self.add_dff(d, name=cell_name))
        return qs

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def net(self, name: str) -> int:
        """Return the index of the net called *name*."""
        return self._net_by_name[name]

    def net_name(self, index: int) -> str:
        return self.nets[index].name

    def cell(self, name: str) -> Cell:
        """Return the cell called *name*."""
        return self.cells[self._cell_by_name[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._net_by_name

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of this circuit's structure.

        Canonical over topology, cell kinds and net names —
        insertion-order independent, port-order sensitive (see
        :func:`repro.netlist.compiled.circuit_fingerprint`).  The
        service layer uses this as the circuit half of its
        content-addressed result keys; the compiled-IR memo shares the
        same identity notion via :attr:`version` invalidation.
        Memoized per version, so repeated calls are free.
        """
        from repro.netlist.compiled import circuit_fingerprint

        cached = self._fingerprint
        if cached is not None and cached[0] == self._version:
            return cached[1]
        digest = circuit_fingerprint(self)
        self._fingerprint = (self._version, digest)
        return digest

    def canonical_order(self) -> Tuple[int, ...]:
        """Net indices sorted by net name.

        The insertion-order independent net order the fingerprints and
        the result store's per-net columns use: two builds of the same
        netlist list the same names in the same order, whatever their
        index assignment.  Memoized per version, like
        :meth:`fingerprint`.
        """
        cached = self._canonical_order
        if cached is not None and cached[0] == self._version:
            return cached[1]
        nets = self.nets
        order = tuple(sorted(range(len(nets)), key=lambda i: nets[i].name))
        self._canonical_order = (self._version, order)
        return order

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def flipflops(self) -> List[Cell]:
        """All sequential cells, in creation order."""
        return [c for c in self.cells if c.is_sequential]

    @property
    def num_flipflops(self) -> int:
        return sum(1 for c in self.cells if c.is_sequential)

    @property
    def combinational_cells(self) -> List[Cell]:
        return [c for c in self.cells if not c.is_sequential]

    def kind_histogram(self) -> dict[str, int]:
        """Cell count per kind name (useful in reports and tests)."""
        hist: dict[str, int] = {}
        for c in self.cells:
            hist[c.kind.value] = hist.get(c.kind.value, 0) + 1
        return hist

    def topological_cells(self) -> List[Cell]:
        """Combinational cells in topological order.

        DFF outputs and primary inputs are sources; DFF inputs are
        sinks (the clock edge cuts those arcs).  Raises ``ValueError``
        on a combinational cycle.
        """
        indeg: dict[int, int] = {}
        for c in self.cells:
            if c.is_sequential:
                continue
            deg = 0
            for n in c.inputs:
                drv = self.nets[n].driver
                if drv is not None and not self.cells[drv[0]].is_sequential:
                    deg += 1
            indeg[c.index] = deg
        ready = [i for i, d in indeg.items() if d == 0]
        order: List[Cell] = []
        while ready:
            ci = ready.pop()
            cell = self.cells[ci]
            order.append(cell)
            for out in cell.outputs:
                for succ in self.nets[out].fanout:
                    if succ in indeg:
                        indeg[succ] -= 1
                        if indeg[succ] == 0:
                            ready.append(succ)
        if len(order) != len(indeg):
            raise ValueError(
                f"{self.name}: combinational cycle among "
                f"{len(indeg) - len(order)} cells"
            )
        return order

    def levelize(self, delay_of=None) -> dict[int, int]:
        """Arrival level per net under a per-cell-output delay function.

        *delay_of(cell, output_position)* defaults to unit delay for
        every combinational cell output.  Primary inputs and DFF outputs
        are at level 0.  Returns ``{net_index: level}`` for every driven
        or primary-input net.
        """
        if delay_of is None:
            delay_of = lambda cell, pos: 1  # noqa: E731 - tiny default
        level: dict[int, int] = {n: 0 for n in self.inputs}
        for c in self.cells:
            if c.is_sequential:
                for out in c.outputs:
                    level[out] = 0
        for cell in self.topological_cells():
            at = max((level.get(n, 0) for n in cell.inputs), default=0)
            for pos, out in enumerate(cell.outputs):
                level[out] = at + delay_of(cell, pos)
        return level

    def critical_path_length(self, delay_of=None) -> int:
        """Longest register-to-register / input-to-output delay."""
        level = self.levelize(delay_of)
        endpoints = list(self.outputs)
        for c in self.cells:
            if c.is_sequential:
                endpoints.extend(c.inputs)
        return max((level.get(n, 0) for n in endpoints), default=0)

    # ------------------------------------------------------------------
    # functional evaluation (zero delay, single cycle)
    # ------------------------------------------------------------------
    def evaluate(
        self,
        input_values: Sequence[int],
        state: dict[int, int] | None = None,
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Zero-delay functional evaluation of one clock cycle.

        *input_values* are the primary-input values in ``self.inputs``
        order; *state* maps DFF cell index -> stored bit (missing
        entries default to 0).  Both are normalised to 0/1; a *state*
        key that is not a flipflop cell index raises ``ValueError``.
        Returns ``(net_values, next_state)``.

        This is the zero-delay reference the event-driven simulator is
        checked against: after any cycle the settled simulator values
        must equal this function's result.  Both run the compiled
        lane kernels printed from :data:`repro.netlist.cells.KIND_TABLE`,
        which the tests check exhaustively against an independent
        per-kind spec.

        Evaluation runs on the memoized compiled IR
        (:func:`repro.netlist.compiled.compile_circuit`), so repeated
        calls do not re-run the topological sort.
        """
        from repro.netlist.compiled import compile_circuit

        compiled = compile_circuit(self)
        flat, next_state = compiled.evaluate_flat(input_values, state)
        values: dict[int, int] = {net: flat[net] for net in self.inputs}
        for i, ci in enumerate(compiled.ff_cells):
            values[compiled.ff_q[i]] = flat[compiled.ff_q[i]]
        for ci in compiled.topo:
            for out_net in compiled.cell_outputs[ci]:
                values[out_net] = flat[out_net]
        return values, next_state

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}: {len(self.cells)} cells, "
            f"{len(self.nets)} nets, {len(self.inputs)} in, "
            f"{len(self.outputs)} out, {self.num_flipflops} FFs)"
        )


def word_value(values: dict[int, int], word: Iterable[int]) -> int:
    """Assemble an unsigned integer from per-net *values* of *word* (LSB first)."""
    out = 0
    for i, net in enumerate(word):
        out |= (values.get(net, 0) & 1) << i
    return out


def int_to_bits(value: int, width: int) -> List[int]:
    """Split an unsigned integer into *width* bits, LSB first."""
    if value < 0:
        raise ValueError("value must be non-negative")
    return [(value >> i) & 1 for i in range(width)]
