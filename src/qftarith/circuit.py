"""Gate and circuit data model, register layout, execution, statistics.

A :class:`Circuit` is an immutable ordered gate list over a fixed qubit
count; :func:`run` executes it against a :class:`~qftarith.qstate.StateVector`
via the primitive kernels.  Multi-controlled gates are first class: every
gate carries a control list of ``(qubit, polarity)`` pairs of any fan-in,
so "active on |0>" needs no X sandwich.

Below ``_FUSE_FROM_QUBITS`` qubits :func:`run` is the reference: the
kernel calls of a gate-by-gate run of the public ``apply_*`` on the full
vector, bitwise equal to it for every input.  From that size up it cuts
the gate list into blocks at label changes, compiles each distinct block
(labels aside) into one step, once per circuit object, and runs the
program on one tensor, which agrees with the replay within rounding.  One
matcher finds the paper's Fourier blocks: a transform on a register,
groups of phase kicks, and the inverse transform, one of the transforms
possibly missing.  Each group adds a constant c_g under its own controls,
outside the register: one group is Draper's constant adder, v -> v + c
mod 2^w, and one group per source qubit, controlled by it, is the
register adder.  The steps are:

* a *shift* for a sandwich, a block with both transforms.  The groups
  commute.  Those whose controls are classical bits add up to one cyclic
  roll of the register's axis; each other group is its own roll where its
  controls hold;
* a *transform* for a block that is exactly the Fourier transform on a
  register of two or more qubits, or its inverse, with no controls: one
  FFT along the register's axis, with the register's axes reversed;
* a *diagonal* for a block of PHASE gates only: one multiply by a table of
  the product of their phases;
* *gates* for anything else, one kernel call each.

The qubits that a compact state fixes stay fixed as *classical* bits when
every step either leaves them alone or only permutes them: a shift, or a
block of X and SWAP gates, all of whose qubits are classical.  Such a step
rewrites the bits and calls no kernel, and the other steps are resolved
against the bits of the moment.  So a basis-state input has amplitudes
only over the qubits that some other step moves: the decrement, the adder
and the zero check run as bit arithmetic, and the multiplier simulates
its accumulator alone, with x as bits, as two transforms and one diagonal
per addition.  Both paths of :func:`run` call the trusted private
kernels of :mod:`qftarith.qstate`: ``Gate`` and ``Circuit`` validated
every gate on construction.

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
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import chain, groupby
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import IndexOutOfRange, QubitCountMismatch, ValueTooWide
from .qstate import (
    StateVector,
    _check_index,
    _diagonal,
    _expand,
    _fixed_axes,
    _fourier,
    _hadamard,
    _is_integer,
    _phase,
    _phase_factor,
    _shift,
    _swap,
    _validate_count,
    _validate_qubits,
    _validate_turns,
    _x,
)

# Below this many qubits ``run`` is the gate-by-gate replay, bitwise equal to
# it for every input; from here up it agrees within rounding.  That keeps the
# 9-qubit multiplier of perfbench/test_perfbench.py bitwise equal; compiled,
# one of its multiplies takes 0.15 ms instead of 0.8-0.9 (2-core x86, numpy 2.4).
_FUSE_FROM_QUBITS = 10


class GateKind(enum.Enum):
    HADAMARD = "H"
    PHASE = "PHASE"
    X = "X"
    SWAP = "SWAP"


@dataclass(frozen=True)
class Gate:
    """One primitive operation: kind, target(s), optional phase and controls.

    ``targets`` is stored as a tuple and ``controls`` as a tuple of
    ``(qubit, polarity)`` tuples, whatever sequences they were given as, so
    equal gates compare and hash equal.  A ``kind`` that is no
    :class:`GateKind` raises ValueError.
    """

    kind: GateKind
    targets: tuple[int, ...]
    phase_turns: Fraction | float | None = None
    controls: tuple[tuple[int, int], ...] = ()
    label: str | None = None

    def __post_init__(self):
        if not isinstance(self.kind, GateKind):
            raise ValueError(f"gate kind must be a GateKind, got {self.kind!r}")
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "controls", tuple(map(tuple, self.controls)))
        arity = 2 if self.kind is GateKind.SWAP else 1
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind.value} takes {arity} target(s), got {self.targets}")
        if self.kind is GateKind.PHASE:
            _validate_turns(self.phase_turns)
            if isinstance(self.phase_turns, np.generic):  # keyed and listed as Python's
                object.__setattr__(self, "phase_turns", self.phase_turns.item())
        elif self.phase_turns is not None:
            raise ValueError(f"{self.kind.value} takes no phase")
        _validate_qubits(None, self.targets, self.controls)

    # -- constructors ---------------------------------------------------

    @classmethod
    def hadamard(cls, target: int, controls: Sequence[tuple[int, int]] = (),
                 label: str | None = None) -> "Gate":
        return cls(GateKind.HADAMARD, (target,), None, controls, label)

    @classmethod
    def phase(cls, turns: Fraction | float, target: int,
              controls: Sequence[tuple[int, int]] = (), label: str | None = None) -> "Gate":
        return cls(GateKind.PHASE, (target,), turns, controls, label)

    @classmethod
    def x(cls, target: int, controls: Sequence[tuple[int, int]] = (),
          label: str | None = None) -> "Gate":
        return cls(GateKind.X, (target,), None, controls, label)

    @classmethod
    def swap(cls, target_a: int, target_b: int, controls: Sequence[tuple[int, int]] = (),
             label: str | None = None) -> "Gate":
        return cls(GateKind.SWAP, (target_a, target_b), None, controls, label)

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
        _validate_count(self.num_qubits)
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
    # Each part checked its gates against n when it was built.
    return _trusted(n, tuple(chain.from_iterable(c.gates for c in parts)))


def labeled(circuit: Circuit, label: str | None) -> Circuit:
    """Copy of the circuit with every gate's label replaced by ``label``;
    ``None`` clears them.

    The builders emit unlabelled gates, and this is the one way to name a
    block.  Neither the gates nor the circuit are checked again: a label
    cannot make a valid gate invalid.  So a builder can make one block and
    reuse its gates under many labels at the cost of a copy per gate.
    """
    gates = []
    for g in circuit.gates:
        copy = object.__new__(Gate)
        copy.__dict__.update(g.__dict__, label=label)
        gates.append(copy)
    return _trusted(circuit.num_qubits, tuple(gates))


def _trusted(num_qubits: int, gates: tuple[Gate, ...]) -> Circuit:
    """A circuit of gates already checked against ``num_qubits``."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "num_qubits", num_qubits)
    object.__setattr__(circuit, "gates", gates)
    return circuit


def run(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply the gates in order.  Mutates ``state`` in place and returns it.

    Below ``_FUSE_FROM_QUBITS`` qubits this is the replay: the state is
    expanded to the full vector and gets the kernel calls of a gate-by-gate
    run of the public ``apply_*``, bitwise equal to it for every input.

    From that size up the circuit is compiled once per circuit object (see
    :func:`_compile`), and the program is kept on the circuit outside its
    fields, so not in ``==``, the hash, the repr or ``replace``.  The
    *classical* qubits are those a compact state fixes and every step
    leaves alone or permutes as bits (see :func:`_classical`).  The block is
    expanded once to the other qubits, and the program runs on that one
    contiguous tensor.  A classical step rewrites the bits and calls no
    kernel.  Every other step is resolved against the current bits, once
    per value of the classical qubits it reads: a gate or kick group whose
    classical control fails is dropped, and one whose controls hold loses
    them.  A sandwich's groups with classical controls merge into one shift,
    and a transform is one FFT.  From ``new_basis_state`` the multiplier
    holds its 2^(2n)-amplitude accumulator and the adder and the decrement
    one amplitude; a dense state has no classical qubit and runs whole.

    The compiled run agrees with the replay within rounding: a phase table
    multiplies by a product of factors, a shift moves whole amplitudes that
    the gates mix through Hadamards, an FFT sums in another order than the
    gates, and a gate on a smaller array may round differently in the last
    bit.  Classical steps are exact.
    """
    n = circuit.num_qubits
    if state.num_qubits != n:
        raise QubitCountMismatch(f"circuit has {n} qubits, state has {state.num_qubits}")
    if n < _FUSE_FROM_QUBITS:
        psi = _expand(state, ())
        for kernel, *args in _gate_kernels(tuple(map(_gate_key, circuit.gates)), {}, range(n)):
            kernel(psi, *args)
        return state
    # Frozen, so written through vars().  Threads racing here may compile
    # twice and keep either program: both are the same.
    if "_compiled" not in vars(circuit):
        vars(circuit)["_compiled"] = _compile(circuit.gates)
    steps, program = vars(circuit)["_compiled"]
    classical = _classical(steps, [q for q, _ in state._fixed])
    bits = {q: bit for q, bit in state._fixed if q in classical}
    bitwise = {i for i, step in enumerate(steps) if step.permute and step.used <= classical}
    reads = [sorted(step.used & classical) for step in steps]
    psi = _expand(state, tuple(bits.items()))
    pos = {q: i for i, q in enumerate(q for q in range(n) if q not in bits)}
    resolved: dict[tuple, list] = {}
    for i in program:
        if i in bitwise:
            steps[i].permute(bits)
            continue
        key = (i, *(bits[q] for q in reads[i]))
        if key not in resolved:
            resolved[key] = steps[i].resolve(bits, pos)
        for kernel, *args in resolved[key]:
            kernel(psi, *args)
    state._fixed = tuple(bits.items())  # permuting bits keeps the qubits' order
    return state


def _classical(steps: Sequence[_Step], fixed: Iterable[int]) -> set[int]:
    """The fixed qubits that every step leaves alone or permutes as bits.

    A qubit stays classical unless some step moves it and that step is no
    permutation or uses a qubit that is not classical.  Dropping a qubit can
    disqualify a step that kept another one, so this repeats until nothing
    changes.
    """
    classical = set(fixed)
    while dropped := {q for step in steps
                      if not (step.permute and step.used <= classical)
                      for q in step.moved & classical}:
        classical -= dropped
    return classical


class _Step(NamedTuple):
    resolve: Callable  # (bits, pos) -> [(kernel, *args), ...] on the tensor
    moved: frozenset   # qubits an H, X or SWAP targets
    used: frozenset    # qubits a gate targets or is controlled by
    permute: Callable | None = None  # (bits) -> None: the step on basis bits, in place


def _compile(gates: Sequence[Gate]) -> tuple[list[_Step], list[int]]:
    """The distinct steps and the program as indices into them.

    Blocks are runs of gates with one label; two blocks with the same
    gates, labels aside, compile to one step.  A step holds only the
    block's gate keys (see :func:`_gate_key`) and what the matcher read
    from them, so compiling makes no numpy call: phase factors are
    computed when a step is resolved.
    """
    steps: list[_Step] = []
    seen: dict[tuple, int] = {}
    program: list[int] = []
    for _, group in groupby(gates, key=lambda g: g.label):
        key = tuple(map(_gate_key, group))
        index = seen.setdefault(key, len(steps))
        if index == len(steps):
            steps.append(_block_step(key))
        program.append(index)
    return steps, program


def _gate_key(g: Gate) -> tuple:
    """``(kind, targets, turns, controls)`` with the turns as an exact
    integer ratio: cheap to hash, and equal for equal angles."""
    turns = None if g.phase_turns is None else g.phase_turns.as_integer_ratio()
    return g.kind, g.targets, turns, g.controls


def _block_step(key: tuple) -> _Step:
    used = frozenset(q for _, targets, _, controls in key
                     for q in chain(targets, (c for c, _ in controls)))
    moved = frozenset(q for kind, targets, _, _ in key if kind is not GateKind.PHASE
                      for q in targets)
    fourier = _fourier_block(key)
    if fourier is not None:
        first, width, head, groups, tail = fourier
        if head and tail:
            return _Step(partial(_shift_kernels, first, width, groups), moved, used,
                         partial(_shift_bits, first, width, groups))
        if not groups and width >= 2:
            return _Step(partial(_fourier_kernels, first, width, 1 if head else -1), moved, used)
    if not moved:
        return _Step(partial(_diagonal_kernels, key), moved, used)
    flips = all(kind in (GateKind.X, GateKind.SWAP) for kind, *_ in key)
    return _Step(partial(_gate_kernels, key), moved, used,
                 partial(_flip_bits, key) if flips else None)


def _holds(controls, bits: dict[int, int]) -> bool:
    return all(bits[q] == pol for q, pol in controls)


def _shift_bits(first: int, width: int, groups, bits: dict[int, int]) -> None:
    """The sandwich on a basis state: add to the register's bits, most
    significant first, the sum modulo 2^width of the groups' amounts whose
    controls hold."""
    amount = sum(amount for amount, controls in groups if _holds(controls, bits))
    last = first + width - 1
    value = sum(bits[q] << (last - q) for q in range(first, last + 1)) + amount
    bits.update((q, value >> (last - q) & 1) for q in range(first, last + 1))


def _flip_bits(key: tuple, bits: dict[int, int]) -> None:
    """A block of X and SWAP gates on a basis state, gate by gate."""
    for kind, targets, _, controls in key:
        if _holds(controls, bits):
            if kind is GateKind.X:
                bits[targets[0]] ^= 1
            else:
                a, b = targets
                bits[a], bits[b] = bits[b], bits[a]


def _qft_key(qs: Sequence[int], sign: int) -> list[tuple]:
    """The forward transform on ``qs`` (see :mod:`qftarith.qft`), every
    angle times ``sign``, as ``(kind, targets, turns, controls)`` tuples."""
    key = []
    for j in range(len(qs)):
        key.append((GateKind.HADAMARD, (qs[j],), None, ()))
        for k in range(2, len(qs) - j + 1):
            key.append((GateKind.PHASE, (qs[j],), (sign, 1 << k), ((qs[j + k - 1], 1),)))
    return key


def _fourier_block(key: tuple) -> tuple[int, int, bool, tuple, bool] | None:
    """``(first, width, head, groups, tail)`` when the block is a Fourier
    block on the register ``first`` .. ``first + width - 1``, else None.

    A Fourier block is the transform on the register (``head``; a lone
    Hadamard at width 1), a middle of consecutive kick groups, and the
    inverse transform (``tail``), with at least one of the transforms.
    ``groups`` holds one ``(amount, controls)`` pair per group: one phase
    kick of amount/2^(width-j) turns (taken mod 1 with the amount's sign,
    zero kicks left out) on each wire j, all under the group's controls,
    which lie outside the register, for a nonzero integer amount below
    2^width in magnitude.  Its kick on wire 0 is never zero, so every group
    starts there.  One group is Draper's constant adder, v -> v + amount
    mod 2^width where the controls hold.  Between the two transforms the
    groups commute, so the block adds the sum of the amounts whose controls
    hold: with one group per source qubit, controlled by it, this is the
    register adder.  An empty middle adds 0.

    The rules are written out here from the transform's definition, not
    taken from the builders, and angles are compared exactly, so a builder
    that emits a wrong angle falls back to the gates and still fails its
    tests.
    """
    hs = [targets[0] for kind, targets, _, _ in key if kind is GateKind.HADAMARD]
    if not hs:
        return None
    first, width = min(hs), max(hs) - min(hs) + 1
    qs = list(range(first, first + width))
    head = hs[:width] == qs
    tail = len(hs) > width * head
    if hs != qs * head + qs[::-1] * tail:
        return None
    expected = _qft_key(qs, 1) if head else []
    end = len(key) - tail * width * (width + 1) // 2
    groups = []
    while len(expected) < end:
        kind, targets, turns, controls = key[len(expected)]
        if kind is not GateKind.PHASE or targets != (first,):
            return None
        if any(q in qs for q, _ in controls):
            return None  # a kick controlled from inside the register adds nothing
        amount = Fraction(*turns) * (1 << width)
        if amount.denominator != 1 or not 0 < abs(amount) < 1 << width:
            return None
        sign, magnitude = (-1 if amount < 0 else 1), abs(int(amount))
        wire_turns = [(q, Fraction(magnitude, 1 << (width - j)) % 1) for j, q in enumerate(qs)]
        expected += [(GateKind.PHASE, (q,), (sign * t).as_integer_ratio(), controls)
                     for q, t in wire_turns if t]
        groups.append((int(amount), controls))
    if tail:
        expected += reversed(_qft_key(qs, -1))
    if list(key) != expected:
        return None
    return first, width, head, tuple(groups), tail


def _free_controls(controls, bits: dict[int, int], pos: dict[int, int]):
    """The controls on the tensor's qubits, renumbered by ``pos``; None
    when a classical control does not hold ``bits``."""
    fixed = []
    for q, pol in controls:
        if q not in bits:
            fixed.append((pos[q], pol))
        elif bits[q] != pol:
            return None
    return fixed


def _phase_fixed(gate: tuple, bits: dict[int, int], pos: dict[int, int]):
    """``(fixed, factor)`` for a PHASE gate's key: the (axis, bit) pairs it
    multiplies at on the tensor and its factor, from the exact ratio; None
    when it acts as the identity there."""
    _, (t,), (num, den), controls = gate
    fixed = _free_controls(controls, bits, pos)
    if fixed is None or num == 0 or t in bits and not bits[t]:  # a zero turn is an exact identity
        return None
    return (fixed if t in bits else [(pos[t], 1), *fixed]), _phase_factor(num / den)


def _gate_kernels(key: tuple, bits: dict[int, int], pos: dict[int, int]):
    """``(kernel, *args)`` for each gate of the key that acts on the tensor
    where the classical qubits hold ``bits``, with its qubits renumbered by
    ``pos``."""
    kernels = []
    for gate in key:
        kind, targets, _, controls = gate
        if kind is GateKind.PHASE:
            kick = _phase_fixed(gate, bits, pos)
            if kick is not None:
                kernels.append((_phase, *kick))
            continue
        fixed = _free_controls(controls, bits, pos)
        if fixed is None:
            continue
        if kind is GateKind.HADAMARD:
            kernels.append((_hadamard, pos[targets[0]], fixed))
        elif kind is GateKind.X:
            kernels.append((_x, pos[targets[0]], fixed))
        else:
            kernels.append((_swap, pos[targets[0]], pos[targets[1]], fixed))
    return kernels


def _diagonal_kernels(key: tuple, bits: dict[int, int], pos: dict[int, int]):
    """One multiply by the product of a PHASE block's factors on the
    tensor; none if no phase acts there.

    The product is tabulated over the tensor's axes the phases depend on,
    then broadcast to every axis from the first of those to the last and
    laid out contiguously, so that it multiplies whole contiguous rows:
    broadcasting a short inner axis is several times slower.
    """
    kicks = [kick for gate in key if (kick := _phase_fixed(gate, bits, pos)) is not None]
    if not kicks:
        return []
    ndim = len(pos)
    axes = {axis for fixed, _ in kicks for axis, _ in fixed}
    table = np.ones([2 if axis in axes else 1 for axis in range(ndim)], dtype=np.complex128)
    for fixed, factor in kicks:
        table[_fixed_axes(ndim, fixed)] *= factor
    first = min(axes, default=ndim)
    table = np.broadcast_to(table.reshape(table.shape[first:]), (2,) * (ndim - first))
    return [(_diagonal, table.reshape(-1))]


def _shift_kernels(first: int, width: int, groups,
                   bits: dict[int, int], pos: dict[int, int]):
    """The sandwich's shifts on the tensor.  The groups whose controls are
    all classical and hold add up to one shift, left out if it adds 0 mod
    2^width; a group with a control on the tensor is its own shift; a group
    with a classical control that fails is dropped."""
    kernels, amount = [], 0
    for group_amount, controls in groups:
        fixed = _free_controls(controls, bits, pos)
        if fixed:
            kernels.append((_shift, pos[first], width, group_amount, fixed))
        elif fixed is not None:
            amount += group_amount
    if amount % (1 << width):
        kernels.append((_shift, pos[first], width, amount, []))
    return kernels


def _fourier_kernels(first: int, width: int, sign: int,
                     bits: dict[int, int], pos: dict[int, int]):
    """The transform's one FFT on the tensor.  Its qubits are never
    classical, because it mixes them."""
    return [(_fourier, pos[first], width, sign)]


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
            if not _is_integer(width) or width < 1:
                raise ValueError(f"register {name!r} needs an integer width >= 1, got {width!r}")
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
    """Basis-index fragment with ``value``'s bits, an integer, placed in the register's slots."""
    width = layout.width(name)
    if not _is_integer(value) or not 0 <= value < (1 << width):
        raise ValueTooWide(
            f"value {value!r} does not fit in register {name!r}: "
            f"it is no integer in [0, 2^{width})"
        )
    return int(value) << (layout.num_qubits - layout[name].stop)


def decode_register(layout: RegisterLayout, name: str, index: int) -> int:
    """Integer held by one register inside a full basis index, an integer
    in [0, 2^num_qubits)."""
    _check_index(index, layout.num_qubits)
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
