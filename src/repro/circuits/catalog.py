"""Named circuit catalog: string name -> (circuit, word stimulus).

One registry shared by every front end — the CLI, the service job
scheduler, and the benchmarks — so a declarative job spec can carry a
plain string (``"array16"``) that any worker process resolves to the
identical netlist.  Names:

* ``rcaN`` — N-bit ripple-carry adder;
* ``arrayN`` / ``wallaceN`` — NxN array / Wallace-tree multiplier;
* ``farmN`` — a ≥100k-cell farm of NxN array-multiplier tiles sharing
  one rotated input-word pair (the backend stress workload);
* ``detector`` — the Section 4.2 direction-detector processing unit.
"""

from __future__ import annotations

from typing import Tuple

from repro.circuits.adders import build_rca_circuit
from repro.circuits.direction_detector import build_direction_detector
from repro.circuits.multipliers import build_multiplier_circuit
from repro.netlist.circuit import Circuit
from repro.obs import trace as obs
from repro.sim.vectors import WordStimulus


def _parse_size(name: str, prefix: str) -> int:
    try:
        n = int(name[len(prefix):])
    except ValueError:
        raise ValueError(f"bad circuit name {name!r}: expected {prefix}<bits>")
    if not 1 <= n <= 64:
        raise ValueError(f"width {n} out of range 1..64")
    return n


def validate_name(name: str) -> str:
    """Check *name* is a known catalog entry without building it.

    Cheap enough to run per sweep point at job-expansion time, so a
    bad circuit axis fails before anything simulates.  Returns the
    name; raises ``ValueError`` like :func:`build_named_circuit`.
    """
    if name.startswith("rca"):
        _parse_size(name, "rca")
    elif name.startswith("array"):
        _parse_size(name, "array")
    elif name.startswith("wallace"):
        _parse_size(name, "wallace")
    elif name.startswith("farm"):
        _parse_size(name, "farm")
    elif name != "detector":
        raise ValueError(
            f"unknown circuit {name!r}; "
            "try rca16, array8, wallace8, farm16, detector"
        )
    return name


def build_named_circuit(name: str) -> Tuple[Circuit, WordStimulus]:
    """Construct a circuit by catalog name; returns it with its stimulus."""
    with obs.span("circuit.build", circuit=name):
        return _build_named(name)


def _build_named(name: str) -> Tuple[Circuit, WordStimulus]:
    if name.startswith("rca"):
        n = _parse_size(name, "rca")
        circuit, ports = build_rca_circuit(n, with_cin=False)
        return circuit, WordStimulus({"a": ports["a"], "b": ports["b"]})
    if name.startswith("array") or name.startswith("wallace"):
        arch = "array" if name.startswith("array") else "wallace"
        n = _parse_size(name, arch)
        circuit, ports = build_multiplier_circuit(n, arch)
        return circuit, WordStimulus({"x": ports["x"], "y": ports["y"]})
    if name.startswith("farm"):
        from repro.circuits.farm import build_multiplier_farm

        n = _parse_size(name, "farm")
        circuit, ports = build_multiplier_farm(n)
        return circuit, WordStimulus({"x": ports["x"], "y": ports["y"]})
    if name == "detector":
        from repro.experiments.detector import detector_stimulus

        circuit, ports = build_direction_detector()
        return circuit, detector_stimulus(ports)
    raise ValueError(
        f"unknown circuit {name!r}; "
        "try rca16, array8, wallace8, farm16, detector"
    )
