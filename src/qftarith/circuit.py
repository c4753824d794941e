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
  commute, and each one whose classical controls hold is its own cyclic
  roll of the register's axis, where its other controls hold;
* a *transform* for a block that is exactly the Fourier transform on a
  register of two or more qubits, or its inverse, with no controls: one
  FFT along the register's axis, with the register's axes reversed;
* a *diagonal* for a block of PHASE gates only: one multiply by a table of
  the product of their phases;
* *gates* for anything else, one kernel call each.

The qubits that a compact state fixes stay *classical* bits until a step
moves them as amplitudes.  They are one word, ``(mask, value)`` in
basis-index bit order, as the state fixes them and ``encode_register``
places registers.  :func:`run` decides this in order, step by step: a
shift, or a block of X and SWAP gates, all of whose qubits are still
classical, rewrites the value and calls no kernel (a shift is one add on
the register's field of the word, and each X or SWAP exchanges the words
of its two patterns); any other step first expands the block to the
classical qubits it moves, and is resolved against the value of the
moment.  A forward transform on a register of classical qubits is held
back as a *frame*: the register's field keeps the value v of the state
QFT|v>, a block of kick groups on it adds their amounts to the field, and
the inverse transform closes it.  Any other use of the register, and the
end of the run, *materialise* the frame: the held transform runs then
(see :func:`run`).  So a basis-state input has amplitudes only over the
qubits that some step mixes: the decrement, the adder, the zero check and
the whole multiplier, its accumulator a frame from its transform to its
inverse, run as arithmetic on the word and hold one amplitude.  The
replay below the threshold is a program of one step that moves every
qubit, run through the same loop.  Every step calls the trusted private
kernels of :mod:`qftarith.qstate`: ``Gate`` and ``Circuit`` validated
every gate on construction.  Steps pass them axes, bits and factors, and
this module imports no numpy: arrays are built in :mod:`~qftarith.qstate`.

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

from .errors import IndexOutOfRange, QubitCountMismatch, ValueTooWide
from .qstate import (
    StateVector,
    _check_index,
    _diagonal,
    _exchange,
    _expand,
    _fourier,
    _free,
    _hadamard,
    _is_integer,
    _pair,
    _phase,
    _phase_factor,
    _phase_table,
    _shift,
    _validate_count,
    _validate_qubits,
    _validate_turns,
)

# Below this many qubits ``run`` is the gate-by-gate replay, bitwise equal to
# it for every input; from here up it agrees within rounding.  That keeps the
# 9-qubit multiplier of perfbench/test_perfbench.py bitwise equal.  The replay
# expands even a basis state to the full vector, so it imports numpy: compiled,
# a basis-state multiply on those 9 qubits calls no kernel and takes 0.017 ms,
# against 0.76 ms as the replay (2-core x86, numpy 2.4).
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
    :class:`GateKind` raises ValueError, and a ``label`` that is neither
    None nor a str raises TypeError.
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
        if self.kind is GateKind.PHASE:  # a numpy scalar is keyed and listed as Python's
            object.__setattr__(self, "phase_turns", _validate_turns(self.phase_turns))
        elif self.phase_turns is not None:
            raise ValueError(f"{self.kind.value} takes no phase")
        _validate_qubits(None, self.targets, self.controls)
        _check_label(self.label)

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
    """Immutable ordered gate sequence over a fixed number of qubits.  An
    item that is no :class:`Gate` raises TypeError, and a gate on a qubit
    past ``num_qubits`` raises IndexOutOfRange."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        _validate_count(self.num_qubits)
        for g in self.gates:
            if not isinstance(g, Gate):
                raise TypeError(f"a circuit holds Gate objects, got {g!r}")
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
    reuse its gates under many labels at the cost of a copy per gate.  A
    label that is neither None nor a str raises TypeError.
    """
    _check_label(label)
    gates = []
    for g in circuit.gates:
        copy = object.__new__(Gate)
        copy.__dict__.update(g.__dict__, label=label)
        gates.append(copy)
    return _trusted(circuit.num_qubits, tuple(gates))


def _check_label(label) -> None:
    """A label is None or a str: it is hashed with the gate and listed."""
    if label is not None and not isinstance(label, str):
        raise TypeError(f"gate label must be a str or None, got {label!r}")


def _trusted(num_qubits: int, gates: tuple[Gate, ...]) -> Circuit:
    """A circuit of gates already checked against ``num_qubits``."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "num_qubits", num_qubits)
    object.__setattr__(circuit, "gates", gates)
    return circuit


def run(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply the gates in order.  Mutates ``state`` in place and returns it.

    Below ``_FUSE_FROM_QUBITS`` qubits the program is the replay: one step
    of all the gates, which moves every qubit.  So the state is expanded to
    the full vector and gets the kernel calls of a gate-by-gate run of the
    public ``apply_*``, bitwise equal to it for every input.

    From that size up the circuit is compiled once per circuit object (see
    :func:`_compile`), and the program is kept on the circuit outside its
    fields, so not in ``==``, the hash, the repr or ``replace``.

    One loop runs either program in order, on the word ``(mask, value)``
    that the state fixes: the qubits in ``mask`` start as *classical* bits.
    A step that permutes basis states (a shift, or X and SWAP gates only),
    all of whose qubits are still in the mask, maps the value to a new
    value and calls no kernel.  Any other step first un-fixes the bits it
    moves: the value is written back to the state, and the block is
    expanded to those qubits, the one place where the amplitudes held grow.
    The step is then resolved against the value, once per value of the
    bits it uses until the next expansion, and runs on the block as one
    contiguous tensor.  A gate or kick group acts where a (qubit,
    bit) pattern holds: its controls, with a PHASE gate's target at 1.  One
    whose classical bits fail is dropped, and one whose classical bits hold
    loses them.  A sandwich is one shift per group that is left, and a
    transform is one FFT.

    A forward transform on a register whose qubits are all classical, while
    no frame is held, opens a *frame*: the transform is held back, and the
    register's field of the word keeps the value v of the state QFT|v>,
    the rest of the state untouched.  While it is held, a step that uses
    none of the register passes by.  A block that parses on the register
    as kick groups (see :func:`_fourier_block`), possibly ending with the
    inverse transform, every qubit it uses classical, adds the amounts of
    the groups whose controls hold to the field, as a sandwich does: by
    Draper's identity (arXiv:quant-ph/0008033) a group of amount c maps
    QFT|v> to QFT|v + c> exactly.  The inverse transform closes the frame
    at no cost, and v stays as bits.  Any other step that uses the
    register, and the end of the program, first *materialise* the frame:
    the held step runs as it would have, expanding the register and making
    its one FFT, and the step then runs.  What each step does to a frame
    is parsed once per circuit object.  From ``new_basis_state`` the
    multiplier, the adder and the decrement so hold one amplitude and call
    no kernel; a dense state has no classical qubit, opens no frame and
    runs whole.  The final word is the state's fixed word.

    The compiled run agrees with the replay within rounding: a phase table
    multiplies by a product of factors, a shift moves whole amplitudes that
    the gates mix through Hadamards, an FFT sums in another order than the
    gates, and a gate on a smaller array may round differently in the last
    bit.  Classical steps, and the kicks a frame adds, are exact.
    """
    n = circuit.num_qubits
    if state.num_qubits != n:
        raise QubitCountMismatch(f"circuit has {n} qubits, state has {state.num_qubits}")
    if n < _FUSE_FROM_QUBITS:
        every = (1 << n) - 1
        gates = tuple(map(_gate_key, circuit.gates))
        replay = _Step(partial(_gate_kernels, n, gates), every, every)
        steps, program, frames = [replay], [0], {}
    else:
        # Frozen, so written through vars().  Threads racing here may compile
        # twice and keep either program: both are the same.
        if "_compiled" not in vars(circuit):
            vars(circuit)["_compiled"] = (*_compile(n, circuit.gates), {})
        steps, program, frames = vars(circuit)["_compiled"]
    # ``held`` is the index of a forward transform whose register the word
    # keeps in Fourier form; ``frames`` memoises what each step does to it
    # (threads racing on one circuit may parse a step twice, to one rule).
    (mask, value), psi, held = state._fixed, None, None
    for i in chain(program, [None]):
        step, todo = (_END, ()) if i is None else (steps[i], (i,))
        if held is not None and step.used & steps[held].used:
            if (held, i) not in frames:
                frames[held, i] = _frame_rule(n, steps[held].opens, step.key)
            rule = frames[held, i]
            if rule and mask & step.used == step.used:
                value, held = rule[0](value), None if rule[1] else held
                continue
            todo, held = (held, *todo), None  # the held transform runs, then the step
        elif held is None and step.opens and mask & step.used == step.used:
            held = i
            continue
        for i in todo:
            step = steps[i]
            if step.permute and mask & step.used == step.used:
                value = step.permute(value)
                continue
            if psi is None or mask & step.moved:
                state._fixed, mask = (mask, value), mask & ~step.moved
                value &= mask
                psi = _expand(state, mask)
                pos = {q: axis for axis, q in enumerate(_free(n, mask))}
                resolved: dict[tuple, list] = {}
            key = (i, value & step.used)
            if key not in resolved:
                resolved[key] = step.resolve(value, pos)
            for kernel, *args in resolved[key]:
                kernel(psi, *args)
    state._fixed = (mask, value)
    return state


class _Step(NamedTuple):
    resolve: Callable  # (value, pos) -> [(kernel, *args), ...] on the tensor
    moved: int         # mask of the qubits an H, X or SWAP targets
    used: int          # mask of the qubits a gate targets or is controlled by
    permute: Callable | None = None  # (value) -> value: the step on the classical word
    key: tuple = ()    # the block's gate keys, which a held frame parses
    opens: tuple[int, int] | None = None  # (first, width) of a forward transform


# The end of the program reads every qubit, so it materialises a held frame.
_END = _Step(None, 0, -1)


def _mask(n: int, qubits: Iterable[int]) -> int:
    """The qubits as bits of a basis index of ``n`` qubits: q at bit n-1-q."""
    return sum(1 << (n - 1 - q) for q in set(qubits))


def _word(n: int, pattern: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """``(mask, value)`` of a (qubit, bit) pattern, as ``StateVector`` holds
    its fixed qubits."""
    return _mask(n, (q for q, _ in pattern)), _mask(n, (q for q, bit in pattern if bit))


def _compile(n: int, gates: Sequence[Gate]) -> tuple[list[_Step], list[int]]:
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
            steps.append(_block_step(n, key)._replace(key=key))
        program.append(index)
    return steps, program


def _gate_key(g: Gate) -> tuple:
    """``(kind, targets, turns, controls)`` with the turns as an exact
    integer ratio: cheap to hash, and equal for equal angles."""
    turns = None if g.phase_turns is None else g.phase_turns.as_integer_ratio()
    return g.kind, g.targets, turns, g.controls


def _block_step(n: int, key: tuple) -> _Step:
    used = _mask(n, (q for _, targets, _, controls in key
                     for q in chain(targets, (c for c, _ in controls))))
    moved = _mask(n, (q for kind, targets, _, _ in key if kind is not GateKind.PHASE
                      for q in targets))
    fourier = _fourier_block(key)
    if fourier is not None:
        first, width, head, groups, tail = fourier
        if head and tail:
            return _Step(partial(_shift_kernels, n, first, width, groups), moved, used,
                         _shift_word(n, first, width, groups))
        if not groups and width >= 2:
            return _Step(partial(_fourier_kernels, first, width, 1 if head else -1), moved, used,
                         opens=(first, width) if head else None)
    if not moved:
        return _Step(partial(_diagonal_kernels, n, key), moved, used)
    if all(kind in (GateKind.X, GateKind.SWAP) for kind, *_ in key):
        words = tuple(tuple(_word(n, p) for p in _pair(targets, controls))
                      for _, targets, _, controls in key)
        return _Step(partial(_gate_kernels, n, key), moved, used, partial(_flip_bits, words))
    return _Step(partial(_gate_kernels, n, key), moved, used)


def _frame_rule(n: int, register: tuple[int, int], key: tuple) -> tuple[Callable, bool] | None:
    """``(permute, closes)`` for a block on a register that a held frame
    keeps in Fourier form: the block's kick groups as one add on the
    register's field of the word, and whether the block ends with the
    inverse transform, which closes the frame.  None for a block that is no
    such Fourier block on the register, or that starts with a transform:
    it needs the amplitudes."""
    fourier = _fourier_block(key, register)
    if fourier is None or fourier[2]:
        return None
    first, width, _, groups, tail = fourier
    return _shift_word(n, first, width, groups), tail


def _shift_word(n: int, first: int, width: int, groups) -> Callable:
    """Kick groups on the register ``first`` .. ``first + width - 1`` as
    :func:`_shift_bits` on its field of the word: each amount shifted onto
    the field, and its controls as a word."""
    low = n - first - width
    words = tuple((amount << low, *_word(n, controls)) for amount, controls in groups)
    return partial(_shift_bits, ((1 << width) - 1) << low, words)


def _shift_bits(field: int, groups, value: int) -> int:
    """A sandwich, or kick groups on a held frame, on the classical word:
    one add, modulo the field's width, on the register's ``field`` of the
    value.  It adds the amounts of the groups whose controls hold; a group
    is ``(amount, mask, want)``, its amount shifted onto the field and its
    controls as a word."""
    amount = sum(amount for amount, mask, want in groups if value & mask == want)
    return value & ~field | (value + amount) & field


def _flip_bits(words: tuple, value: int) -> int:
    """A block of X and SWAP gates on the classical word, gate by gate:
    each exchanges the words of the two patterns that
    :func:`~qftarith.qstate._pair` gives, which share one mask."""
    for (mask, a), (_, b) in words:
        if value & mask in (a, b):
            value ^= a ^ b
    return value


def _qft_key(qs: Sequence[int], sign: int) -> list[tuple]:
    """The forward transform on ``qs`` (see :mod:`qftarith.qft`), every
    angle times ``sign``, as ``(kind, targets, turns, controls)`` tuples."""
    key = []
    for j in range(len(qs)):
        key.append((GateKind.HADAMARD, (qs[j],), None, ()))
        for k in range(2, len(qs) - j + 1):
            key.append((GateKind.PHASE, (qs[j],), (sign, 1 << k), ((qs[j + k - 1], 1),)))
    return key


def _fourier_block(key: tuple, register: tuple[int, int] | None = None
                   ) -> tuple[int, int, bool, tuple, bool] | None:
    """``(first, width, head, groups, tail)`` when the block is a Fourier
    block on the register ``first`` .. ``first + width - 1``, else None.
    The register is ``register`` if given, else the one the block's
    Hadamards span.

    A Fourier block is the transform on the register (``head``; a lone
    Hadamard at width 1), a middle of consecutive kick groups, and the
    inverse transform (``tail``).  Without ``register`` it has at least one
    of the transforms; on a given register it may have neither, and be
    kick groups alone.  ``groups`` holds one ``(amount, controls)`` pair
    per group: one phase kick of amount/2^(width-j) turns (taken mod 1
    with the amount's sign, zero kicks left out) on each wire j, all under
    the group's controls, which lie outside the register, for a nonzero
    integer amount below 2^width in magnitude.  Its kick on wire 0 is never
    zero, so every group starts there.  One group is Draper's constant
    adder, v -> v + amount mod 2^width where the controls hold; on the
    transformed register it maps QFT|v> to QFT|v + amount> exactly.
    Between the two transforms the groups commute, so the block adds the
    sum of the amounts whose controls hold: with one group per source
    qubit, controlled by it, this is the register adder.  An empty middle
    adds 0.

    The rules are written out here from the transform's definition, not
    taken from the builders, and angles are compared exactly, so a builder
    that emits a wrong angle falls back to the gates and still fails its
    tests.
    """
    hs = [targets[0] for kind, targets, _, _ in key if kind is GateKind.HADAMARD]
    if register is None and not hs:
        return None
    first, width = register or (min(hs), max(hs) - min(hs) + 1)
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


def _tensor_pattern(n: int, pattern, value: int, pos: dict[int, int]):
    """The (qubit, bit) pattern on the tensor's axes, renumbered by ``pos``,
    with its classical qubits, those outside ``pos``, left out; None when
    one of them does not hold its bit in the word's ``value``."""
    fixed = []
    for q, bit in pattern:
        if q in pos:
            fixed.append((pos[q], bit))
        elif value >> (n - 1 - q) & 1 != bit:
            return None
    return fixed


def _phase_fixed(n: int, gate: tuple, value: int, pos: dict[int, int]):
    """``(fixed, factor)`` for a PHASE gate's key: its target's 1 and its
    controls as a pattern on the tensor (see :func:`_tensor_pattern`), and
    the factor from the exact ratio; None where the pattern does not hold
    or the angle is a whole number of turns, an exact identity."""
    _, (t,), turns, controls = gate
    fixed = _tensor_pattern(n, ((t, 1), *controls), value, pos)
    factor = None if fixed is None else _phase_factor(turns)
    return None if factor is None else (fixed, factor)


def _gate_kernels(n: int, key: tuple, value: int, pos: dict[int, int]):
    """``(kernel, *args)`` for each gate of the key that acts on the tensor
    where the classical qubits hold their bits of ``value``, with its qubits
    renumbered by ``pos``.  The two patterns of
    :func:`~qftarith.qstate._pair` hold or fail together: no H, X or SWAP
    target is classical here."""
    kernels = []
    for gate in key:
        kind, targets, _, controls = gate
        if kind is GateKind.PHASE:
            kick = _phase_fixed(n, gate, value, pos)
            if kick is not None:
                kernels.append((_phase, *kick))
            continue
        a, b = (_tensor_pattern(n, pattern, value, pos) for pattern in _pair(targets, controls))
        if a is not None:
            kernels.append((_hadamard if kind is GateKind.HADAMARD else _exchange, a, b))
    return kernels


def _diagonal_kernels(n: int, key: tuple, value: int, pos: dict[int, int]):
    """One multiply by the product of a PHASE block's kicks on the tensor,
    by the table :func:`~qftarith.qstate._phase_table` builds; none if no
    phase acts there."""
    kicks = [kick for gate in key if (kick := _phase_fixed(n, gate, value, pos)) is not None]
    return [(_diagonal, _phase_table(len(pos), kicks))] if kicks else []


def _shift_kernels(n: int, first: int, width: int, groups, value: int, pos: dict[int, int]):
    """The sandwich on the tensor: one shift per kick group whose classical
    controls hold, where its other controls hold.  The groups commute and
    each roll is an exact permutation, so no two are merged."""
    return [(_shift, pos[first], width, amount, fixed) for amount, controls in groups
            if (fixed := _tensor_pattern(n, controls, value, pos)) is not None]


def _fourier_kernels(first: int, width: int, sign: int, value: int, pos: dict[int, int]):
    """The transform's one FFT on the tensor.  Its qubits are never
    classical, because it mixes them."""
    return [(_fourier, pos[first], width, sign)]


def inverse(circuit: Circuit) -> Circuit:
    """Reversed gate order with negated phases; undoes the circuit exactly.
    Each inverse gate has its gate's qubits, already checked against the
    width, so the result is not checked again."""
    return _trusted(circuit.num_qubits, tuple(g.inverse() for g in reversed(circuit.gates)))


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
