"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.netlist.cells import KIND_TABLE, CellKind
from repro.netlist.circuit import Circuit


#: Each kind's function on one 0/1 input combination, written from the
#: kind's definition (all / any / parity, the mux select, ``a+b(+cin)``
#: as sum and carry bits) and independently of ``KIND_TABLE``, so the
#: kernels printed from the table can be checked against it.
KIND_SPEC = {
    CellKind.CONST0: lambda v: (0,),
    CellKind.CONST1: lambda v: (1,),
    CellKind.BUF: lambda v: (v[0],),
    CellKind.DFF: lambda v: (v[0],),
    CellKind.NOT: lambda v: (1 - v[0],),
    CellKind.AND: lambda v: (int(all(v)),),
    CellKind.NAND: lambda v: (1 - all(v),),
    CellKind.OR: lambda v: (int(any(v)),),
    CellKind.NOR: lambda v: (1 - any(v),),
    CellKind.XOR: lambda v: (sum(v) % 2,),
    CellKind.XNOR: lambda v: (1 - sum(v) % 2,),
    CellKind.MUX2: lambda v: (v[2] if v[0] else v[1],),
    CellKind.HA: lambda v: (sum(v) % 2, sum(v) // 2),
    CellKind.FA: lambda v: (sum(v) % 2, sum(v) // 2),
}


def kernel_cases():
    """(kind, arity) for every kind: n-ary kinds at arities 1..5."""
    for kind in CellKind:
        arity = KIND_TABLE[kind].arity
        for n in range(1, 6) if arity is None else (arity,):
            yield kind, n


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; reseed per test for reproducibility."""
    return random.Random(0xD47E1995)


@pytest.fixture
def xor_chain() -> Circuit:
    """in0 -> xor(in0, in1) -> xor(.., in2): a 2-level toy circuit."""
    c = Circuit("xor_chain")
    i0, i1, i2 = (c.add_input(f"in{k}") for k in range(3))
    x1 = c.new_net("x1")
    out = c.new_net("out")
    c.gate(CellKind.XOR, i0, i1, output=x1, name="g1")
    c.gate(CellKind.XOR, x1, i2, output=out, name="g2")
    c.mark_output(out)
    return c


@pytest.fixture
def glitchy_and() -> Circuit:
    """The canonical glitch generator: AND(a, NOT(a)).

    Under unit delay, a rising ``a`` makes the AND see (1, 1) for one
    delta before the inverter output falls, producing a 0->1->0 glitch
    at the output while the settled value never changes.
    """
    c = Circuit("glitchy_and")
    a = c.add_input("a")
    na = c.gate(CellKind.NOT, a, name="inv")
    y = c.gate(CellKind.AND, a, na, name="and")
    c.mark_output(y, "y")
    return c


def random_dag_circuit(
    rng: random.Random,
    n_inputs: int = 4,
    n_gates: int = 12,
    with_ffs: bool = False,
) -> Circuit:
    """A random combinational (optionally sequential) DAG circuit.

    Used by property-based tests: any circuit this returns is valid by
    construction (single drivers, no combinational cycles).
    """
    c = Circuit("random_dag")
    nets = [c.add_input(f"i{k}") for k in range(n_inputs)]
    one_out = [
        CellKind.NOT,
        CellKind.BUF,
        CellKind.AND,
        CellKind.OR,
        CellKind.NAND,
        CellKind.NOR,
        CellKind.XOR,
        CellKind.XNOR,
        CellKind.MUX2,
    ]
    for g in range(n_gates):
        kind = rng.choice(one_out + [CellKind.FA, CellKind.HA])
        if kind in (CellKind.NOT, CellKind.BUF):
            ins = [rng.choice(nets)]
        elif kind is CellKind.MUX2:
            ins = [rng.choice(nets) for _ in range(3)]
        elif kind is CellKind.FA:
            ins = [rng.choice(nets) for _ in range(3)]
        elif kind is CellKind.HA:
            ins = [rng.choice(nets) for _ in range(2)]
        else:
            ins = [rng.choice(nets) for _ in range(rng.randint(2, 4))]
        cell = c.add_cell(kind, ins, name=f"g{g}")
        nets.extend(cell.outputs)
        if with_ffs and rng.random() < 0.2:
            q = c.add_dff(rng.choice(nets), name=f"ff{g}")
            nets.append(q)
    # Mark the last few nets as outputs so nothing useful is floating.
    for k, n in enumerate(nets[-4:]):
        c.mark_output(n, f"o{k}")
    return c
