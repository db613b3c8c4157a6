"""Cell kinds and their Boolean evaluation semantics.

Cells are the atomic units of a netlist.  Most kinds are simple gates
with one output; two compound arithmetic kinds — half adder (``HA``)
and full adder (``FA``) — have two outputs (*sum*, *carry*) so that a
full adder can be simulated as a single stage with independent sum and
carry delays, exactly as the paper's "unit delay model for every full
adder stage" (Section 3) and its ``dsum = 2*dcarry`` refinement
(Table 2) require.

The ``DFF`` kind is the only sequential cell: it samples its ``d``
input at the active clock edge and presents it on ``q`` at the start of
the next cycle.  Clocking is implicit (single global clock), which
matches the paper's synchronous single-clock networks.

:data:`KIND_TABLE` is the one definition of each kind: its arity, its
output count and its lane, probability and density rules.  Every
executable form of a kind — simulation kernels, numpy group ops,
:func:`evaluate_kind`, estimator closures and generated estimator
passes — is printed from that row.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence, Tuple


class CellKind(enum.Enum):
    """Enumeration of supported cell kinds."""

    CONST0 = "CONST0"
    CONST1 = "CONST1"
    BUF = "BUF"
    NOT = "NOT"
    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    MUX2 = "MUX2"  # inputs: (sel, a, b) -> a if sel == 0 else b
    HA = "HA"  # inputs: (a, b) -> (sum, carry)
    FA = "FA"  # inputs: (a, b, cin) -> (sum, carry)
    DFF = "DFF"  # inputs: (d,) -> (q,); sequential


#: Kinds evaluated combinationally by the simulator.
COMBINATIONAL_KINDS = frozenset(k for k in CellKind if k is not CellKind.DFF)

#: Kinds with clocked (edge-triggered) semantics.
SEQUENTIAL_KINDS = frozenset({CellKind.DFF})

# ---------------------------------------------------------------------------
# The cell-kind table
# ---------------------------------------------------------------------------
#
# Each kind's logic is written once, as three *rules* that turn operand
# expressions (Python source text) into one output expression per
# output of the kind:
#
# * ``lane(x, m)`` — lane-packed bitwise logic: every bit of an operand
#   is an independent lane, inversions are against the lane mask *m*;
# * ``prob(p)`` — output one-probabilities from input one-probabilities
#   under spatial independence;
# * ``density(p, d)`` — output Najm transition densities through
#   Boolean-difference sensitisation, ``D(y) = sum_i P(dy/dx_i) D(x_i)``
#   with the difference probability taken over the other inputs.
#
# Every executable form is printed from these rules: the per-cell
# kernels of the compiled IR (:func:`kernel_factory`), the numpy group
# ops of the vector backend and :func:`evaluate_kind`
# (:func:`lane_kernel`), and the generated whole-circuit estimator
# passes (:mod:`repro.netlist.codegen`).  Since all forms evaluate the
# same expression in the same association order, they agree bit for
# bit.  An output expression may bind a temporary with ``:=`` for a
# later output of the same row (the full adder's ``a ^ b``).


class KindRule(NamedTuple):
    """One row of :data:`KIND_TABLE`."""

    #: Fixed input count, or ``None`` for n-ary kinds (>= 1 input).
    arity: int | None
    n_out: int
    lane: Callable[[Sequence[str], str], Tuple[str, ...]]
    prob: Callable[[Sequence[str]], Tuple[str, ...]]
    density: Callable[[Sequence[str], Sequence[str]], Tuple[str, ...]]


def _pxor2(a: str, b: str) -> str:
    """P(a XOR b) for independent *a*, *b*."""
    return f"{a} * (1.0 - {b}) + {b} * (1.0 - {a})"


def _pxor(p: Sequence[str]) -> str:
    """P(odd parity) via the product identity."""
    return "(1.0 - " + " * ".join(f"(1.0 - 2.0 * {x})" for x in p) + ") / 2.0"


def _por_not(p: Sequence[str]) -> str:
    """P(all inputs 0)."""
    return " * ".join(f"(1.0 - {x})" for x in p)


def _sensitised(w: Sequence[str], d: Sequence[str]) -> str:
    """``sum_i (prod_{j != i} w_j) * d_i`` — AND/OR-family densities."""
    return " + ".join(
        " * ".join([*w[:i], *w[i + 1:], d[i]]) for i in range(len(d))
    )


def _one(x, *_):
    return (x[0],)


KIND_TABLE: dict[CellKind, KindRule] = {
    CellKind.CONST0: KindRule(
        0, 1, lambda x, m: ("0",), lambda p: ("0.0",), lambda p, d: ("0.0",),
    ),
    CellKind.CONST1: KindRule(
        0, 1, lambda x, m: (m,), lambda p: ("1.0",), lambda p, d: ("0.0",),
    ),
    CellKind.BUF: KindRule(1, 1, _one, _one, lambda p, d: (d[0],)),
    CellKind.NOT: KindRule(
        1, 1,
        lambda x, m: (f"{x[0]} ^ {m}",),
        lambda p: (f"1.0 - {p[0]}",),
        lambda p, d: (d[0],),
    ),
    # dy/dx_i of AND/NAND is the AND of the other inputs (inversion
    # cancels out); of OR/NOR, the NOR of the other inputs.
    CellKind.AND: KindRule(
        None, 1,
        lambda x, m: (" & ".join(x),),
        lambda p: (" * ".join(p),),
        lambda p, d: (_sensitised(p, d),),
    ),
    CellKind.NAND: KindRule(
        None, 1,
        lambda x, m: (f"({' & '.join(x)}) ^ {m}",),
        lambda p: ("1.0 - " + " * ".join(p),),
        lambda p, d: (_sensitised(p, d),),
    ),
    CellKind.OR: KindRule(
        None, 1,
        lambda x, m: (" | ".join(x),),
        lambda p: (f"1.0 - {_por_not(p)}",),
        lambda p, d: (_sensitised([f"(1.0 - {x})" for x in p], d),),
    ),
    CellKind.NOR: KindRule(
        None, 1,
        lambda x, m: (f"({' | '.join(x)}) ^ {m}",),
        lambda p: (_por_not(p),),
        lambda p, d: (_sensitised([f"(1.0 - {x})" for x in p], d),),
    ),
    # Every XOR/XNOR pin is always sensitised: D(y) = sum_i D(x_i).
    CellKind.XOR: KindRule(
        None, 1,
        lambda x, m: (" ^ ".join(x),),
        lambda p: (_pxor(p),),
        lambda p, d: (" + ".join(d),),
    ),
    CellKind.XNOR: KindRule(
        None, 1,
        lambda x, m: (f"({' ^ '.join(x)}) ^ {m}",),
        lambda p: (f"1.0 - {_pxor(p)}",),
        lambda p, d: (" + ".join(d),),
    ),
    # inputs (sel, a, b) -> a if sel == 0 else b
    CellKind.MUX2: KindRule(
        3, 1,
        lambda x, m: (f"{x[1]} ^ (({x[1]} ^ {x[2]}) & {x[0]})",),
        lambda p: (f"(1.0 - {p[0]}) * {p[1]} + {p[0]} * {p[2]}",),
        lambda p, d: (
            f"({_pxor2(p[1], p[2])}) * {d[0]}"
            f" + (1.0 - {p[0]}) * {d[1]} + {p[0]} * {d[2]}",
        ),
    ),
    # inputs (a, b) -> (sum, carry)
    CellKind.HA: KindRule(
        2, 2,
        lambda x, m: (f"{x[0]} ^ {x[1]}", f"{x[0]} & {x[1]}"),
        lambda p: (_pxor2(p[0], p[1]), f"{p[0]} * {p[1]}"),
        lambda p, d: (f"{d[0]} + {d[1]}", f"{p[1]} * {d[0]} + {p[0]} * {d[1]}"),
    ),
    # inputs (a, b, cin) -> (sum, carry); d(carry)/dx is the XOR of the
    # other two inputs (majority).
    CellKind.FA: KindRule(
        3, 2,
        lambda x, m: (
            f"(_t := {x[0]} ^ {x[1]}) ^ {x[2]}",
            f"({x[0]} & {x[1]}) | ({x[2]} & _t)",
        ),
        lambda p: (
            _pxor(p),
            f"{p[0]} * {p[1]} + {p[2]} * ({_pxor2(p[0], p[1])})",
        ),
        lambda p, d: (
            " + ".join(d),
            f"({_pxor2(p[1], p[2])}) * {d[0]}"
            f" + ({_pxor2(p[0], p[2])}) * {d[1]}"
            f" + ({_pxor2(p[0], p[1])}) * {d[2]}",
        ),
    ),
    # The combinational view of a DFF is transparent (d -> q); no
    # simulator evaluates a sequential cell through it.
    CellKind.DFF: KindRule(1, 1, _one, _one, lambda p, d: (d[0],)),
}


def _check_inputs(kind: CellKind, n_inputs: int) -> None:
    """Raise ``ValueError`` if *n_inputs* is an illegal arity for *kind*."""
    arity = KIND_TABLE[kind].arity
    if arity is None:
        if n_inputs < 1:
            raise ValueError(f"{kind.value} needs at least one input")
    elif n_inputs != arity:
        raise ValueError(
            f"{kind.value} takes exactly {arity} inputs, got {n_inputs}"
        )


def check_arity(kind: CellKind, n_inputs: int, n_outputs: int) -> None:
    """Raise ``ValueError`` if the input/output counts are illegal for *kind*."""
    _check_inputs(kind, n_inputs)
    expected_out = KIND_TABLE[kind].n_out
    if n_outputs != expected_out:
        raise ValueError(
            f"{kind.value} drives exactly {expected_out} outputs, got {n_outputs}"
        )


#: Kernel signature per form; operands are read as ``bits[_i]``,
#: ``p[_i]`` and ``d[_i]``.
_FORM_PARAMS = {"lane": "bits, mask", "prob": "p", "density": "p, d"}


@functools.cache
def kernel_factory(kind: CellKind, arity: int, form: str) -> Callable:
    """``make(*nets)`` building one cell's *form* kernel.

    *form* is ``"lane"`` (``f(bits, mask)``), ``"prob"`` (``f(p)``) or
    ``"density"`` (``f(p, d)``); each kernel reads flat per-net arrays
    through the cell's input net indices, bound as default arguments,
    and returns the tuple of output values.  The factory is printed
    from :data:`KIND_TABLE` and exec-compiled once per process per
    (kind, arity, form); an illegal arity raises ``ValueError``.
    """
    params = _FORM_PARAMS[form]
    _check_inputs(kind, arity)
    rule = KIND_TABLE[kind]
    nets = [f"_{i}" for i in range(arity)]
    p = [f"p[{n}]" for n in nets]
    if form == "lane":
        outs = rule.lane([f"bits[{n}]" for n in nets], "mask")
    elif form == "prob":
        outs = rule.prob(p)
    else:
        outs = rule.density(p, [f"d[{n}]" for n in nets])
    bound = "".join(f", {n}={n}" for n in nets)
    src = (
        f"def make({', '.join(nets)}):\n"
        f"    def kernel({params}{bound}):\n"
        f"        return ({', '.join(outs)},)\n"
        f"    return kernel\n"
    )
    ns: dict = {}
    exec(compile(src, f"<{form} kernel {kind.value}/{arity}>", "exec"), ns)
    return ns["make"]


@functools.cache
def lane_kernel(kind: CellKind, arity: int) -> Callable:
    """The lane form ``f(ins, mask)`` of *kind* at *arity*.

    ``ins[i]`` is pin *i*'s lane word: Python ints (one bit per lane),
    or ``uint64`` ndarrays in the vector backend, whose group ops this
    is.  The inputs and *mask* are never modified.
    """
    return kernel_factory(kind, arity, "lane")(*range(arity))


def evaluate_kind(kind: CellKind, values: Sequence[int]) -> Tuple[int, ...]:
    """Evaluate the Boolean function of *kind* on input *values*.

    Values are ints in {0, 1}; the result is a tuple with one entry per
    output of the kind (``KIND_TABLE[kind].n_out``).  A wrong number of
    inputs raises the same ``ValueError`` as :func:`check_arity`.
    """
    return lane_kernel(kind, len(values))(values, 1)


@dataclass
class Cell:
    """A netlist cell instance.

    Attributes
    ----------
    name:
        Unique instance name within its circuit.
    kind:
        The :class:`CellKind` selecting the evaluation function.
    inputs:
        Net indices feeding the cell, in kind-defined order.
    outputs:
        Net indices driven by the cell, in kind-defined order
        (e.g. ``(sum, carry)`` for ``FA``).
    delay_hint:
        Optional per-output delay override, honoured by delay models
        that opt in (e.g. :class:`repro.sim.delays.HintedDelay`).
    """

    name: str
    kind: CellKind
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]
    delay_hint: Tuple[int, ...] | None = None
    index: int = field(default=-1)

    @property
    def is_sequential(self) -> bool:
        """True for clocked cells (DFF)."""
        return self.kind in SEQUENTIAL_KINDS

    def evaluate(self, values: Sequence[int]) -> Tuple[int, ...]:
        """Evaluate this cell's combinational function on *values*."""
        return evaluate_kind(self.kind, values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cell({self.name!r}, {self.kind.value}, "
            f"in={self.inputs}, out={self.outputs})"
        )
