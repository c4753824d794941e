"""Gate and circuit data model, register layout, execution, statistics.

A :class:`Circuit` is an immutable ordered gate list over a fixed qubit
count; :func:`run` executes it against a :class:`~qftarith.qstate.StateVector`
via the primitive kernels.  Multi-controlled gates are first class: every
gate carries a control list of ``(qubit, polarity)`` pairs of any fan-in,
so "active on |0>" needs no X sandwich.

Execution slices on static qubits.  A qubit that some gate uses but no H,
X or SWAP targets (the multiplier's x register, the adder's source
register) never changes its basis populations, so :func:`run` simulates
each populated value of those qubits on its own 2^r-amplitude slice, with
the static controls and targets resolved per slice.  A cost model (one
pass to find the slices, plus a fixed cost per kernel call) falls back to
the whole state when slicing would not pay.  Either way every amplitude
sees the same operations in the same order as in a gate-by-gate run of the
public ``apply_*`` kernels, which remains the reference: the tests hold
``run`` to it.  ``run`` calls the trusted private kernels of
:mod:`qftarith.qstate`: ``Gate`` and ``Circuit`` validated every gate on
construction.

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
from itertools import chain, groupby
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateQubit,
    IndexOutOfRange,
    QubitCountMismatch,
    ValueTooWide,
)
from .qstate import StateVector, _hadamard, _phase, _phase_factor, _swap, _x

# What one kernel call costs beyond the amplitudes it is given, in units of
# the time a kernel spends per amplitude: Python dispatch and numpy's
# indexing set-up.  Fitted over the multiplier (n = 2..5) and decrement
# (w = 4..18) runs on a 2-core x86 machine with numpy 2.4: about 9 us per
# call against 1.8 ns per amplitude, or 4,900 amplitudes; rounded to 2^12.
_CALL_COST = 1 << 12


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
    """Apply the gates in order.  Mutates ``state`` in place and returns it.

    A qubit is *static* when some gate uses it and no H, X or SWAP targets
    it: it is only ever a control or a PHASE target, so every gate maps each
    value of the static qubits to itself and the circuit is block-diagonal
    over those values.  ``run`` therefore simulates each populated value on
    its own *slice*: the static qubits fixed, the r free ones spanning 2^r
    amplitudes.  Within a slice a gate whose static control does not match
    is dropped, a matching static control is removed, and a PHASE on a
    static qubit holding 1 multiplies the amplitudes that meet its free
    controls (the whole slice when it has none).  Each amplitude therefore
    goes through the same arithmetic, in the same gate order, as in a
    gate-by-gate run of the public ``apply_*`` kernels on the whole state,
    which stays the reference the tests compare against.

    Finding the populated slices costs one pass over the state, and each
    kernel call costs ``_CALL_COST`` amplitudes beyond the array it is
    given.  Slicing is used only when that model says it pays (see
    :func:`_slicing_pays`); otherwise the one slice is the whole state and
    the same loop runs on it in place.
    """
    if state.num_qubits != circuit.num_qubits:
        raise QubitCountMismatch(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    static, grouped, static_axes, populated = _plan(circuit, state.amplitudes)
    free = [q for q in range(circuit.num_qubits) if q not in static]
    pos = {q: i for i, q in enumerate(free)}
    factors = [_phase_factor(g.phase_turns) if g.kind is GateKind.PHASE else None
               for g in circuit.gates]
    for value in populated:
        bits = {q: (value >> (len(static) - 1 - j)) & 1 for j, q in enumerate(static)}
        index = [slice(None)] * grouped.ndim
        rest = value
        for axis in reversed(static_axes):
            rest, v = divmod(rest, grouped.shape[axis])
            index[axis] = slice(v, v + 1)
        block = grouped[tuple(index)]
        psi = np.ascontiguousarray(block)  # a copy only when the slice is strided
        tensor = psi.reshape((2,) * len(free))
        for kernel, *args in _slice_kernels(circuit.gates, factors, bits, pos):
            kernel(tensor, *args)
        if psi is not block:
            block[...] = psi
    return state


def _static_qubits(circuit: Circuit) -> set[int]:
    """Qubits that some gate uses and no H, X or SWAP targets."""
    used: set[int] = set()
    moved: set[int] = set()
    for g in circuit.gates:
        used.update(g.targets)
        used.update(q for q, _ in g.controls)
        if g.kind is not GateKind.PHASE:
            moved.update(g.targets)
    return used - moved


def _slicing_pays(num_qubits: int, free_qubits: int, gates: int, slices: int) -> bool:
    """Whether one pass to find the slices, then every gate on each of
    ``slices`` slices of 2^free_qubits amplitudes, costs less than every
    gate on the whole state."""
    whole = gates * ((1 << num_qubits) + _CALL_COST)
    sliced = (1 << num_qubits) + slices * gates * ((1 << free_qubits) + _CALL_COST)
    return sliced < whole


def _plan(circuit: Circuit, amplitudes: np.ndarray):
    """How ``run`` cuts the state into slices.

    Returns the static qubits sliced on (ascending); the amplitudes viewed
    with adjacent static and adjacent free qubits merged into single axes;
    the static axes of that view; and the populated slices, each as the
    value of the static qubits read most significant first.  When slicing
    does not pay, no qubit is sliced on and the one slice is the whole state.
    """
    n = circuit.num_qubits
    static = sorted(_static_qubits(circuit))
    free_qubits = n - len(static)
    if static and _slicing_pays(n, free_qubits, len(circuit), 1):
        runs = [(flag, len(list(group)))
                for flag, group in groupby(q in static for q in range(n))]
        grouped = amplitudes.reshape([1 << width for _, width in runs])
        static_axes = [axis for axis, (flag, _) in enumerate(runs) if flag]
        mask = np.moveaxis(grouped != 0, static_axes, range(len(static_axes)))
        populated = np.flatnonzero(mask.reshape(1 << len(static), -1).any(axis=1))
        if _slicing_pays(n, free_qubits, len(circuit), len(populated)):
            return static, grouped, static_axes, populated.tolist()
    return [], amplitudes, [], [0]


def _slice_kernels(gates, factors, bits: dict[int, int], pos: dict[int, int]):
    """``(kernel, *args)`` for each gate that acts on the slice where the
    static qubits hold ``bits``, with free qubits renumbered by ``pos``."""
    for g, factor in zip(gates, factors):
        fixed = []
        for q, pol in g.controls:
            if q not in bits:
                fixed.append((pos[q], pol))
            elif bits[q] != pol:
                break
        else:
            t = g.targets[0]
            if g.kind is GateKind.PHASE:
                if g.phase_turns == 0:
                    continue  # exact identity
                if t not in bits:
                    yield _phase, [(pos[t], 1), *fixed], factor
                elif bits[t]:
                    yield _phase, fixed, factor
            elif g.kind is GateKind.HADAMARD:
                yield _hadamard, pos[t], fixed
            elif g.kind is GateKind.X:
                yield _x, pos[t], fixed
            else:
                yield _swap, pos[t], pos[g.targets[1]], fixed


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
