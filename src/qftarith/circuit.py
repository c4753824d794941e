"""Gate and circuit data model, register layout, execution, statistics.

A :class:`Circuit` is an immutable ordered gate list over a fixed qubit
count; :func:`run` executes it against a :class:`~qftarith.qstate.StateVector`
via the primitive kernels.  Multi-controlled gates are first class: every
gate carries a control list of ``(qubit, polarity)`` pairs of any fan-in,
so "active on |0>" needs no X sandwich.

Text listing format (one gate per line, stable, used by the CLI's
``--emit-circuit``)::

    GATE <kind>[(<phase_turns as signed fraction>)] target=<q>[,<q2>] [controls=<q>:<pol>,...] [# <label>]

Examples::

    GATE H target=0
    GATE PHASE(-1/4) target=1 controls=0:1
    GATE X target=8 controls=6:0,7:0 # check[0]
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateQubit,
    IndexOutOfRange,
    QubitCountMismatch,
    ValueTooWide,
)
from .qstate import (
    StateVector,
    apply_hadamard,
    apply_phase,
    apply_swap,
    apply_x,
)


class GateKind(enum.Enum):
    HADAMARD = "H"
    PHASE = "PHASE"
    X = "X"
    SWAP = "SWAP"


@dataclass(frozen=True)
class Gate:
    """One primitive operation: kind, target(s), optional phase and controls."""

    kind: GateKind
    targets: tuple[int, ...]
    phase_turns: Fraction | float | None = None
    controls: tuple[tuple[int, int], ...] = ()
    label: str | None = None

    def __post_init__(self):
        arity = 2 if self.kind is GateKind.SWAP else 1
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind.value} takes {arity} target(s), got {self.targets}")
        if self.kind is GateKind.PHASE:
            if self.phase_turns is None or not math.isfinite(float(self.phase_turns)):
                raise ValueError(f"PHASE needs a finite angle, got {self.phase_turns!r}")
        elif self.phase_turns is not None:
            raise ValueError(f"{self.kind.value} takes no phase")
        seen: set[int] = set()
        for q in (*self.targets, *(q for q, _ in self.controls)):
            if q < 0:
                raise IndexOutOfRange(f"negative qubit index {q}")
            if q in seen:
                raise DuplicateQubit(f"qubit {q} used more than once in one gate")
            seen.add(q)
        for _, pol in self.controls:
            if pol not in (0, 1):
                raise ValueError(f"control polarity must be 0 or 1, got {pol!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def hadamard(cls, target: int, controls: Sequence[tuple[int, int]] = (),
                 label: str | None = None) -> "Gate":
        return cls(GateKind.HADAMARD, (target,), None, tuple(controls), label)

    @classmethod
    def phase(cls, turns: Fraction | float, target: int,
              controls: Sequence[tuple[int, int]] = (), label: str | None = None) -> "Gate":
        return cls(GateKind.PHASE, (target,), turns, tuple(controls), label)

    @classmethod
    def x(cls, target: int, controls: Sequence[tuple[int, int]] = (),
          label: str | None = None) -> "Gate":
        return cls(GateKind.X, (target,), None, tuple(controls), label)

    @classmethod
    def swap(cls, target_a: int, target_b: int, controls: Sequence[tuple[int, int]] = (),
             label: str | None = None) -> "Gate":
        return cls(GateKind.SWAP, (target_a, target_b), None, tuple(controls), label)

    # --------------------------------------------------------------------

    def inverse(self) -> "Gate":
        """H, X and SWAP are involutions; PHASE negates its angle."""
        if self.kind is GateKind.PHASE:
            return replace(self, phase_turns=-self.phase_turns)
        return self

    def max_qubit(self) -> int:
        return max((*self.targets, *(q for q, _ in self.controls)))


@dataclass(frozen=True)
class Circuit:
    """Immutable ordered gate sequence over a fixed number of qubits."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.num_qubits}")
        for g in self.gates:
            if g.max_qubit() >= self.num_qubits:
                raise IndexOutOfRange(
                    f"gate {g.kind.value} touches qubit {g.max_qubit()} "
                    f"but the circuit has {self.num_qubits} qubits"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        if not isinstance(other, Circuit):
            return NotImplemented
        return concat((self, other))


def concat(circuits: Iterable[Circuit]) -> Circuit:
    """Concatenate circuits of equal width into one, joining the gates once."""
    parts = tuple(circuits)
    if not parts:
        raise ValueError("nothing to concatenate")
    n = parts[0].num_qubits
    for c in parts:
        if c.num_qubits != n:
            raise QubitCountMismatch(
                f"cannot concatenate circuits on {n} and {c.num_qubits} qubits"
            )
    return Circuit(n, tuple(chain.from_iterable(c.gates for c in parts)))


def labeled(circuit: Circuit, label: str | None) -> Circuit:
    """Copy of the circuit with every gate's label replaced."""
    if label is None:
        return circuit
    return Circuit(circuit.num_qubits, tuple(replace(g, label=label) for g in circuit.gates))


def run(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply the gates in order.  Mutates ``state`` in place and returns it."""
    if state.num_qubits != circuit.num_qubits:
        raise QubitCountMismatch(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    for g in circuit.gates:
        if g.kind is GateKind.HADAMARD:
            apply_hadamard(state, g.targets[0], g.controls)
        elif g.kind is GateKind.PHASE:
            apply_phase(state, g.targets[0], g.phase_turns, g.controls)
        elif g.kind is GateKind.X:
            apply_x(state, g.targets[0], g.controls)
        else:
            apply_swap(state, g.targets[0], g.targets[1], g.controls)
    return state


def inverse(circuit: Circuit) -> Circuit:
    """Reversed gate order with negated phases; undoes the circuit exactly."""
    return Circuit(circuit.num_qubits, tuple(g.inverse() for g in reversed(circuit.gates)))


@dataclass(frozen=True)
class CircuitStats:
    gate_count_total: int
    gate_count_by_kind: dict[str, int]
    controlled_gate_count: int
    max_control_fanin: int


def stats(circuit: Circuit) -> CircuitStats:
    by_kind = Counter(g.kind.value for g in circuit.gates)
    return CircuitStats(
        gate_count_total=len(circuit.gates),
        gate_count_by_kind=dict(by_kind),
        controlled_gate_count=sum(1 for g in circuit.gates if g.controls),
        max_control_fanin=max((len(g.controls) for g in circuit.gates), default=0),
    )


# -- register layout -----------------------------------------------------


class RegisterLayout:
    """Named, disjoint qubit ranges packed in declaration order.

    Qubit 0 is the most significant bit of the first register; within a
    register, the first qubit is the register's own most significant bit.
    A register named ``control`` must have width 1.
    """

    def __init__(self, registers: Mapping[str, int] | Iterable[tuple[str, int]]):
        pairs = list(registers.items()) if isinstance(registers, Mapping) else list(registers)
        if not pairs:
            raise ValueError("layout needs at least one register")
        self._ranges: dict[str, range] = {}
        start = 0
        for name, width in pairs:
            if name in self._ranges:
                raise ValueError(f"duplicate register name {name!r}")
            if width < 1:
                raise ValueError(f"register {name!r} needs width >= 1, got {width}")
            if name == "control" and width != 1:
                raise ValueError(f"control register must have width 1, got {width}")
            self._ranges[name] = range(start, start + width)
            start += width
        self.num_qubits = start

    def __getitem__(self, name: str) -> range:
        return self._ranges[name]

    def __contains__(self, name: str) -> bool:
        return name in self._ranges

    def names(self) -> tuple[str, ...]:
        return tuple(self._ranges)

    def width(self, name: str) -> int:
        return len(self._ranges[name])

    def widths(self) -> dict[str, int]:
        return {name: len(r) for name, r in self._ranges.items()}


def encode_register(layout: RegisterLayout, name: str, value: int) -> int:
    """Basis-index fragment with ``value``'s bits placed in the register's slots."""
    width = layout.width(name)
    if not 0 <= value < (1 << width):
        raise ValueTooWide(
            f"value {value} does not fit in register {name!r} of width {width}"
        )
    return value << (layout.num_qubits - layout[name].stop)


def decode_register(layout: RegisterLayout, name: str, index: int) -> int:
    """Integer held by one register inside a full basis index."""
    width = layout.width(name)
    return (index >> (layout.num_qubits - layout[name].stop)) & ((1 << width) - 1)


def encode_registers(layout: RegisterLayout, values: Mapping[str, int]) -> int:
    """Full basis index from per-register values; unset registers read 0."""
    index = 0
    for name, value in values.items():
        if name not in layout:
            raise KeyError(f"unknown register {name!r}")
        index |= encode_register(layout, name, value)
    return index


def decode_registers(layout: RegisterLayout, index: int) -> dict[str, int]:
    """Per-register values decoded from a full basis index."""
    return {name: decode_register(layout, name, index) for name in layout.names()}


# -- circuit listing ------------------------------------------------------


def _format_turns(turns: Fraction | float) -> str:
    if isinstance(turns, Fraction):
        return str(turns)
    return repr(turns)


def format_gate(gate: Gate) -> str:
    kind = gate.kind.value
    if gate.kind is GateKind.PHASE:
        kind += f"({_format_turns(gate.phase_turns)})"
    line = f"GATE {kind} target=" + ",".join(str(t) for t in gate.targets)
    if gate.controls:
        line += " controls=" + ",".join(f"{q}:{p}" for q, p in gate.controls)
    if gate.label is not None:
        line += f" # {gate.label}"
    return line


def circuit_listing(circuit: Circuit) -> str:
    """Text listing, one gate per line, in the documented stable format."""
    return "\n".join(format_gate(g) for g in circuit.gates)
