"""Gate and circuit data model, register layout, execution, statistics.

A :class:`Circuit` is an immutable ordered gate list over a fixed qubit
count; :func:`run` executes it against a :class:`~qftarith.qstate.StateVector`
via the primitive kernels.  Multi-controlled gates are first class: every
gate carries a control list of ``(qubit, polarity)`` pairs of any fan-in,
so "active on |0>" needs no X sandwich.

Execution runs a compiled program on slices of static qubits.
:func:`run` cuts the gate list into blocks at label changes and compiles
each distinct block (labels aside) once into one step:

* a *shift* for a Fourier sandwich, the transform on a register, one
  phase kick per wire adding a constant c, and the inverse transform:
  Draper's adder, which is exactly v -> v + c mod 2^w.  It runs as one
  cyclic roll of the register's axis where the kick's controls hold.  The
  match compares exact angles against the rule written out here, so any
  other angle keeps the gates;
* a *diagonal* for a block of PHASE gates only: one multiply by a table of
  the product of their phases;
* *gates* for anything else, one kernel call each.

Circuits on fewer than ``_FUSE_FROM_QUBITS`` qubits run every block as
gates.  A qubit that some gate uses but no H, X or SWAP targets (the
multiplier's x register, the adder's source register) never changes its
basis populations.  The compiler collects those static qubits from each
distinct block as it compiles it, so a repeated block is read once, and
``run`` executes the program on each populated value of those qubits on
its own 2^r-amplitude slice, with the static controls and targets resolved
per slice.

The qubits that a compact state fixes stay fixed as *classical* bits when
every step either leaves them alone or only permutes them: a shift, or a
block of X and SWAP gates, all of whose qubits are classical.  Such a step
rewrites the bits and calls no kernel, and the other steps are resolved
against the bits of the moment.  So a basis-state input has amplitudes
only over the qubits that some other step moves: the decrement and the
zero check run as bit arithmetic, and the multiplier simulates its
accumulator alone.  A cost model (one pass to find the slices, plus a
fixed cost per kernel call) falls back to the whole state when slicing on
the other static qubits would not pay.  A gate-by-gate run of the public
``apply_*`` kernels remains the reference: the tests hold ``run`` to it
within rounding.  ``run`` calls the trusted private kernels of
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
    _diagonal,
    _expand,
    _fixed_axes,
    _hadamard,
    _phase,
    _phase_factor,
    _shift,
    _swap,
    _validate_qubits,
    _validate_turns,
    _x,
)

# What one kernel call costs beyond the amplitudes it is given, in units of
# the time a kernel spends per amplitude: Python dispatch and numpy's
# indexing set-up.  The cost model counts one call per shift or diagonal
# step, one per gate of any other step and none for a classical step.
# Fitted per kernel (relative error, arrays of 2^4..2^18 amplitudes) on a
# 2-core x86 machine with numpy 2.4: H 11 us per call and 4.4 ns per
# amplitude, a controlled PHASE 4 us and 0.3 ns, a shift 12 us and 1.8 ns,
# a diagonal 2 us and 0.8 ns, i.e. 2,500 to 15,000 amplitudes per call;
# 2^12 sits in that range.
_CALL_COST = 1 << 12

# Circuits on fewer qubits than this run every block gate by gate.  That
# keeps the 9-qubit multiplier in perfbench/test_perfbench.py bitwise equal
# to a gate-by-gate replay of the public kernels; other results agree with
# the replay within rounding, because numpy may round a multiply on a
# strided slice differently from one on the contiguous state.  Fusion would
# still save a little there: 0.1-0.3 ms of a 0.6-0.9 ms run of the 9-qubit
# multiplier, on the machine above.
_FUSE_FROM_QUBITS = 10


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
            _validate_turns(self.phase_turns)
        elif self.phase_turns is not None:
            raise ValueError(f"{self.kind.value} takes no phase")
        _validate_qubits(None, self.targets, self.controls)

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
    # Each part checked its gates against n when it was built.
    joined = object.__new__(Circuit)
    object.__setattr__(joined, "num_qubits", n)
    object.__setattr__(joined, "gates", tuple(chain.from_iterable(c.gates for c in parts)))
    return joined


def labeled(circuit: Circuit, label: str | None) -> Circuit:
    """Copy of the circuit with every gate's label replaced."""
    if label is None:
        return circuit
    return Circuit(circuit.num_qubits, tuple(replace(g, label=label) for g in circuit.gates))


def run(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply the gates in order.  Mutates ``state`` in place and returns it.

    ``run`` first compiles the circuit once into steps, one per distinct
    block of one label (see :func:`_compile`): a Fourier sandwich on a
    register, which adds a constant to it (see :func:`_sandwich`), runs as
    one cyclic shift; a block of PHASE gates only, as one diagonal; any
    other block, and every block of a circuit on fewer than
    ``_FUSE_FROM_QUBITS`` qubits, gate by gate.

    A qubit is *static* when some gate uses it and no H, X or SWAP targets
    it: it is only ever a control or a PHASE target, so every gate maps each
    value of the static qubits to itself and the circuit is block-diagonal
    over those values.  :func:`_compile` finds the static qubits from the
    distinct blocks it compiles.  ``run`` therefore runs the program on each
    populated value on its own *slice*: a tensor over the qubits indexed at
    the static qubits' bits, leaving the r free axes and 2^r amplitudes (a
    0-d view when r = 0).

    The *classical* qubits are the ones a compact state (see
    :mod:`qftarith.qstate`) fixes and that every step either leaves alone or
    permutes as bits: a shift, or a block of X and SWAP gates, whose qubits
    are all classical (see :func:`_classical`).  They stay fixed, and the
    state's block is expanded to the other qubits only, which allocates
    nothing when those are all the qubits it already covers.  A classical
    step calls no kernel: it rewrites the slice's bits of the classical
    qubits.  Every other step is resolved against the current bits, once per
    slice and per value of the classical qubits it reads.  A state from
    ``new_basis_state`` fixes every qubit, so its one populated slice is
    built directly and needs no scan, no copy and no write-back: the
    multiplier then holds its 2^(2n)-amplitude accumulator, with x, the y
    counter and the stop qubit as bits, and the decrement holds one
    amplitude.  A dense state has no classical qubit.  On the expanded
    tensor, :func:`_plan` picks slices of the remaining static qubits, and
    each slice's bits include the classical ones, whose final values become
    the state's fixed pairs.  The full vector appears only when something
    reads ``state.amplitudes`` or calls a public ``apply_*``, or when no
    qubit is classical.

    A slice is copied only when it is strided, and the copy is written
    back.  Within a slice a gate or a shift whose static or classical
    control does not match is dropped, a matching one is removed, and a
    PHASE on such a qubit holding 1 multiplies the amplitudes that meet its
    free controls (the whole slice when it has none).  Each step is resolved
    this way once per slice and per value of the classical qubits it reads,
    however many times the program runs it.

    The result equals a gate-by-gate run of the public ``apply_*`` kernels
    on the whole state, which the tests compare against, up to rounding
    (classical steps are exact): a phase table multiplies once by a product
    of factors, a shift moves whole amplitudes where the gates mix them
    through Hadamards, and numpy may round a multiply on a strided slice
    differently from one on the contiguous state, so even a block run gate
    by gate can differ in the last bit.

    Finding the populated slices costs one pass over the expanded tensor,
    and each kernel call of a step that is not classical costs
    ``_CALL_COST`` amplitudes beyond the array it is given.  Slicing on the
    remaining static qubits is used only when that model says it pays (see
    :func:`_slicing_pays`); otherwise the one slice is the whole tensor and
    the same program runs on it in place.
    """
    if state.num_qubits != circuit.num_qubits:
        raise QubitCountMismatch(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    n = circuit.num_qubits
    steps, program, static = _compile(circuit.gates, n >= _FUSE_FROM_QUBITS)
    classical = _classical(steps, [q for q, _ in state._fixed])
    kept = {q: bit for q, bit in state._fixed if q in classical}
    bitwise = {i for i, step in enumerate(steps) if step.permute and step.used <= classical}
    reads = [sorted(step.used & classical) for step in steps]
    calls = sum(steps[i].calls for i in program if i not in bitwise)
    tensor = _expand(state, tuple(kept.items()))
    qubits = [q for q in range(n) if q not in kept]
    sliced, free, rows = _plan(tensor, qubits, [q for q in static if q not in kept], calls)
    pos = {q: i for i, q in enumerate(free)}
    for row in rows:
        bits = {**kept, **dict(zip(sliced, row))}
        block = tensor[(*(bits.get(q, slice(None)) for q in qubits), ...)]
        psi = block if block.flags.c_contiguous else block.copy()
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
        if psi is not block:
            block[...] = psi
    state._fixed = tuple((q, bits[q]) for q in kept)  # every slice ends on the same bits
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
    resolve: Callable  # (bits, pos) -> [(kernel, *args), ...] for one slice
    calls: int         # kernel calls per slice, at most
    moved: frozenset   # qubits an H, X or SWAP targets
    used: frozenset    # qubits a gate targets or is controlled by
    permute: Callable | None = None  # (bits) -> None: the step on basis bits, in place


def _compile(gates: Sequence[Gate], fuse: bool) -> tuple[list[_Step], list[int], list[int]]:
    """The distinct steps, the program as indices into them, and the static
    qubits in ascending order.

    Blocks are runs of gates with one label; two blocks with the same
    gates, labels aside, compile to one step.  Unless ``fuse``, every step
    runs its gates one by one and none permutes bits.  A qubit is static
    when some gate uses it and no H, X or SWAP targets it; a repeated block
    uses and moves the same qubits each time, so only each distinct block's
    key is read.
    """
    steps: list[_Step] = []
    seen: dict[tuple, int] = {}
    program: list[int] = []
    for _, group in groupby(gates, key=lambda g: g.label):
        block = tuple(group)
        key = tuple(map(_gate_key, block))
        index = seen.setdefault(key, len(steps))
        if index == len(steps):
            steps.append(_block_step(block, key, fuse))
        program.append(index)
    used = set().union(*(step.used for step in steps))
    moved = set().union(*(step.moved for step in steps))
    return steps, program, sorted(used - moved)


def _gate_key(g: Gate) -> tuple:
    """``(kind, targets, turns, controls)`` with the turns as an exact
    integer ratio: cheap to hash, and equal for equal angles."""
    turns = None if g.phase_turns is None else g.phase_turns.as_integer_ratio()
    return g.kind, g.targets, turns, g.controls


def _block_step(block: tuple[Gate, ...], key: tuple, fuse: bool) -> _Step:
    used = frozenset(q for _, targets, _, controls in key
                     for q in chain(targets, (c for c, _ in controls)))
    moved = frozenset(q for kind, targets, _, _ in key if kind is not GateKind.PHASE
                      for q in targets)
    shift = _sandwich(key) if fuse else None
    if shift is not None:
        return _Step(partial(_shift_kernels, *shift), 1, moved, used,
                     partial(_shift_bits, *shift))
    factors = [_phase_factor(g.phase_turns) if g.kind is GateKind.PHASE else None
               for g in block]
    if fuse and not moved:
        return _Step(partial(_diagonal_kernels, block, factors), 1, moved, used)
    flips = fuse and all(kind in (GateKind.X, GateKind.SWAP) for kind, *_ in key)
    return _Step(partial(_slice_kernels, block, factors), len(block), moved, used,
                 partial(_flip_bits, key) if flips else None)


def _holds(controls, bits: dict[int, int]) -> bool:
    return all(bits[q] == pol for q, pol in controls)


def _shift_bits(first: int, width: int, amount: int, controls, bits: dict[int, int]) -> None:
    """The sandwich on a basis state: add ``amount`` modulo 2^width to the
    register's bits, most significant first, where the controls hold."""
    if _holds(controls, bits):
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


def _sandwich(key: tuple) -> tuple[int, int, int, tuple] | None:
    """``(first, width, amount, controls)`` when the block is a Fourier
    sandwich, else None.

    A sandwich is the Fourier transform on the register ``first`` ..
    ``first + width - 1``, one phase kick of amount/2^(width-j) turns
    (taken mod 1 with the amount's sign, zero kicks left out) on each wire
    j under the same controls, and the inverse transform: Draper's
    constant adder, v -> v + amount mod 2^width where the controls hold.
    The rule is written out here from the transform's definition, not taken
    from the builders, and angles are compared exactly, so a builder that
    emits a wrong angle falls back to the gates and still fails its tests.
    """
    hs = [targets[0] for kind, targets, _, _ in key if kind is GateKind.HADAMARD]
    width = len(hs) // 2
    qs = list(range(hs[0], hs[0] + width)) if hs else []
    if not qs or hs != qs + qs[::-1]:
        return None
    edge = width * (width + 1) // 2
    kicks = key[edge:len(key) - edge]
    amount, controls = 0, ()
    if kicks:
        kind, targets, turns, controls = kicks[0]
        if kind is not GateKind.PHASE or targets != (qs[0],):
            return None
        if any(q in qs for q, _ in controls):
            return None  # a kick controlled from inside the register adds nothing
        amount = Fraction(*turns) * (1 << width)
        if amount.denominator != 1 or abs(amount) >= 1 << width:
            return None
    sign, magnitude = (-1 if amount < 0 else 1), abs(int(amount))
    wire_turns = [(q, Fraction(magnitude, 1 << (width - j)) % 1) for j, q in enumerate(qs)]
    expected = [
        *_qft_key(qs, 1),
        *((GateKind.PHASE, (q,), (sign * t).as_integer_ratio(), controls)
          for q, t in wire_turns if t),
        *reversed(_qft_key(qs, -1)),
    ]
    if list(key) != expected:
        return None
    return qs[0], width, int(amount), controls


def _slicing_pays(num_qubits: int, free_qubits: int, calls: int, slices: int) -> bool:
    """Whether one pass to find the slices, then ``calls`` kernel calls on
    each of ``slices`` slices of 2^free_qubits amplitudes, costs less than
    the same calls on the whole state."""
    whole = calls * ((1 << num_qubits) + _CALL_COST)
    sliced = (1 << num_qubits) + slices * calls * ((1 << free_qubits) + _CALL_COST)
    return sliced < whole


def _plan(tensor: np.ndarray, qubits: list[int], static: list[int], calls: int):
    """How ``run`` cuts a tensor, whose axes are ``qubits`` (ascending), into
    slices of the ``static`` qubits among them (ascending), for a program
    of ``calls`` kernel calls per slice.

    Returns the qubits sliced on and the free qubits, both ascending, and
    the populated slices, each as the bits the sliced qubits hold there, in
    ascending order.  When slicing does not pay, no qubit is sliced on,
    every qubit is free and the one slice, with no bits fixed, is the whole
    tensor.
    """
    free = tuple(q for q in qubits if q not in static)
    if static and _slicing_pays(tensor.ndim, len(free), calls, 1):
        axes = tuple(i for i, q in enumerate(qubits) if q not in static)
        rows = np.argwhere(np.any(tensor, axis=axes)).tolist()
        if _slicing_pays(tensor.ndim, len(free), calls, len(rows)):
            return static, free, rows
    return [], tuple(qubits), [()]


def _free_controls(controls, bits: dict[int, int], pos: dict[int, int]):
    """The controls on free qubits, renumbered by ``pos``; None when a
    static control does not hold ``bits``."""
    fixed = []
    for q, pol in controls:
        if q not in bits:
            fixed.append((pos[q], pol))
        elif bits[q] != pol:
            return None
    return fixed


def _phase_fixed(g: Gate, bits: dict[int, int], pos: dict[int, int]):
    """The free (axis, bit) pairs a PHASE multiplies at on the slice, or
    None when it acts as the identity there."""
    fixed = _free_controls(g.controls, bits, pos)
    if fixed is None or g.phase_turns == 0:  # a zero turn is an exact identity
        return None
    t = g.targets[0]
    if t not in bits:
        return [(pos[t], 1), *fixed]
    return fixed if bits[t] else None


def _slice_kernels(gates, factors, bits: dict[int, int], pos: dict[int, int]):
    """``(kernel, *args)`` for each gate that acts on the slice where the
    static qubits hold ``bits``, with free qubits renumbered by ``pos``."""
    kernels = []
    for g, factor in zip(gates, factors):
        if g.kind is GateKind.PHASE:
            fixed = _phase_fixed(g, bits, pos)
            if fixed is not None:
                kernels.append((_phase, fixed, factor))
            continue
        fixed = _free_controls(g.controls, bits, pos)
        if fixed is None:
            continue
        t = g.targets[0]
        if g.kind is GateKind.HADAMARD:
            kernels.append((_hadamard, pos[t], fixed))
        elif g.kind is GateKind.X:
            kernels.append((_x, pos[t], fixed))
        else:
            kernels.append((_swap, pos[t], pos[g.targets[1]], fixed))
    return kernels


def _diagonal_kernels(gates, factors, bits: dict[int, int], pos: dict[int, int]):
    """One multiply by the product of a PHASE block's factors on the slice;
    none if no phase acts there.

    The product is tabulated over the free axes the phases depend on, then
    broadcast to every axis from the first of those to the last axis of the
    slice and laid out contiguously, so that it multiplies whole contiguous
    rows: broadcasting a short inner axis is several times slower.
    """
    kicks = [(fixed, factor) for g, factor in zip(gates, factors)
             if (fixed := _phase_fixed(g, bits, pos)) is not None]
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


def _shift_kernels(first: int, width: int, amount: int, controls,
                   bits: dict[int, int], pos: dict[int, int]):
    """The sandwich's one shift on the slice, or none where a static
    control fails."""
    fixed = _free_controls(controls, bits, pos)
    if fixed is None:
        return []
    return [(_shift, pos[first], width, amount, fixed)]


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
