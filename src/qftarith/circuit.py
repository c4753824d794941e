"""Gate and circuit data model, register layout, execution, statistics.

A :class:`Circuit` is an immutable ordered gate list over a fixed qubit
count; :func:`run` executes it against a :class:`~qftarith.qstate.StateVector`
via the primitive kernels.  Multi-controlled gates are first class: every
gate carries a control list of ``(qubit, polarity)`` pairs of any fan-in,
so "active on |0>" needs no X sandwich.

Below ``_FUSE_FROM_QUBITS`` qubits :func:`run` is the reference: the
kernel calls of a gate-by-gate run of the public ``apply_*`` on the full
vector, bitwise equal to it for every input.  From that size up it cuts
the gate list into blocks by what the gates are, never by their labels,
compiles each distinct block into one step, once per circuit object, and
runs the program on one tensor, which agrees with the replay within
rounding.  The cut finds the paper's Fourier blocks, a transform on a
register, phase kicks read as a set, and the inverse transform, and the
step is built from what it read.  The kicks form groups, each adding a
constant c_g under its own controls, outside the register: one group is
Draper's constant adder, v -> v + c mod 2^w, and one group per source
qubit, controlled by it, is the register adder.
The steps are:

* a *shift* for a sandwich, both transforms around kick groups.  Each
  group whose classical controls hold is its own cyclic roll of the
  register's axis, where its other controls hold;
* a *transform* for the Fourier transform on a register of two or more
  qubits, or its inverse: one FFT along the register's axis, with the
  register's axes reversed;
* a *diagonal* for a run of PHASE gates: one multiply by a table of the
  product of their phases;
* *gates* for anything else, one kernel call each.

A state is one of two forms: a basis state, its index an int in
basis-index bit order as ``encode_register`` places registers, or the
dense vector.  :func:`run` keeps the index while each step is a *word
step*, which calls no kernel and maps the index by masked adds (see
:func:`_shift_bits`): a shift is one add on the register's field of the
index, and a block of X and SWAP gates is one add of 1 on a one-bit field
per X, where its controls hold, and three per SWAP.  A forward transform
on a register is held back as a *frame*: the register's field keeps the
value v of the state QFT|v>, and a block of kick groups on it adds their
amounts to the field, as a sandwich does: by Draper's identity
(arXiv:quant-ph/0008033) a group of amount c maps QFT|v> to QFT|v + c>
exactly.  The inverse transform closes the frame and adds no map.
These rules read the steps, never the index, so a circuit's *word path*
is compiled once and serves every basis input.  Where it stops, at the
first other step or at the end of the run while a frame is held, the
state is expanded to the full vector once, the held transform runs, and
every later step runs on the tensor.  So the decrement, the adder, the
zero check, their inverses, and the whole multiplier, its accumulator a
frame from its transform to its inverse, labelled or not, run from a
basis state as arithmetic on the index and allocate no vector.  Every step
calls the trusted private kernels of :mod:`qftarith.qstate`:
``Gate`` and ``Circuit`` validated every gate on construction.  Steps
pass them axes, bits and factors, and this module imports no numpy:
arrays are built in :mod:`~qftarith.qstate`.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import IndexOutOfRange, QubitCountMismatch, ValueTooWide
from .qstate import (
    StateVector,
    _check_index,
    _diagonal,
    _exchange,
    _expand,
    _fourier,
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
    ``(qubit, polarity)`` tuples, of Python ints, whatever sequences and
    integers they were given as, so equal gates compare and hash equal, and
    a numpy integer cannot overflow the wide masks of a basis-state run.
    A ``kind`` that is no :class:`GateKind` raises ValueError, and a
    ``label`` that is neither None nor a str raises TypeError.
    """

    kind: GateKind
    targets: tuple[int, ...]
    phase_turns: Fraction | float | None = None
    controls: tuple[tuple[int, int], ...] = ()
    label: str | None = None

    def __post_init__(self):
        if not isinstance(self.kind, GateKind):
            raise ValueError(f"gate kind must be a GateKind, got {self.kind!r}")
        targets, controls = tuple(self.targets), tuple(map(tuple, self.controls))
        arity = 2 if self.kind is GateKind.SWAP else 1
        if len(targets) != arity:
            raise ValueError(f"{self.kind.value} takes {arity} target(s), got {targets}")
        if self.kind is GateKind.PHASE:  # a numpy scalar is keyed and listed as Python's
            object.__setattr__(self, "phase_turns", _validate_turns(self.phase_turns))
        elif self.phase_turns is not None:
            raise ValueError(f"{self.kind.value} takes no phase")
        _validate_qubits(None, targets, controls)
        if any(type(q) is not int for q in chain(targets, *controls)):
            targets = tuple(map(int, targets))
            controls = tuple((int(q), int(pol)) for q, pol in controls)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)
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
        """H, X and SWAP are involutions; PHASE negates its angle, in a copy
        not checked again."""
        if self.kind is GateKind.PHASE:
            copy = object.__new__(type(self))
            copy.__dict__.update(self.__dict__, phase_turns=-self.phase_turns)
            return copy
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
        object.__setattr__(self, "num_qubits", _validate_count(self.num_qubits))
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
    block.  A label names gates and never changes a run: :func:`run` cuts
    blocks by what the gates are.  Neither the gates nor the circuit are
    checked again: a label cannot make a valid gate invalid.  So a builder
    can make one block and reuse its gates under many labels at the cost of
    a copy per gate.  A label that is neither None nor a str raises
    TypeError.
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
    of all the gates.  So the state is expanded to the full vector and gets
    the kernel calls of a gate-by-gate run of the public ``apply_*``,
    bitwise equal to it for every input.

    From that size up the circuit is compiled once per circuit object (see
    :func:`_compile`), and the program and word path (see
    :func:`_word_path`) are kept on the circuit outside its fields, so not
    in ``==``, the hash, the repr or ``replace``.  A basis state runs the
    path's word maps on its index.  Where the path stops the state is
    expanded to the full vector, the one place where a state grows, after
    the budget check of ``_expand``; the held transform, if any, that step
    and every later one run on the tensor, as a dense state runs every
    step.  Each step is resolved to its kernel calls once per run.

    The compiled run agrees with the replay within rounding: a phase table
    multiplies by a product of factors, a shift moves whole amplitudes that
    the gates mix through Hadamards, and an FFT sums in another order than
    the gates.  Word steps, and the kicks a frame adds, are exact.
    """
    n = circuit.num_qubits
    if state.num_qubits != n:
        raise QubitCountMismatch(f"circuit has {n} qubits, state has {state.num_qubits}")
    if n < _FUSE_FROM_QUBITS:
        replay = _Step(partial(_gate_kernels, tuple(map(_gate_key, circuit.gates))), -1)
        steps, program, path = [replay], [0], ((), 0, None)
    else:
        # Frozen, so written through vars().  Threads racing here may compile
        # twice and keep either program: both are the same.
        if "_compiled" not in vars(circuit):
            steps, program = _compile(n, circuit.gates)
            vars(circuit)["_compiled"] = steps, program, _word_path(n, steps, program)
        steps, program, path = vars(circuit)["_compiled"]
    index, todo = state._index, program
    if index is not None:
        maps, stop, held = path
        for field, groups in maps:
            index = _shift_bits(field, groups, index)
        state._index = index
        if stop is None:
            return state
        todo = program[stop:] if held is None else [held, *program[stop:]]
    psi, resolved = _expand(state), {}
    for i in todo:
        if i not in resolved:
            resolved[i] = steps[i].resolve()
        for kernel, *args in resolved[i]:
            kernel(psi, *args)
    return state


class _Step(NamedTuple):
    resolve: Callable  # () -> [(kernel, *args), ...] on the full tensor
    used: int          # mask of the qubits a gate targets or is controlled by
    permute: tuple = ()  # word maps, (field, groups) each: the step on a basis index
    key: tuple = ()    # the block's gate keys, which a held frame parses
    opens: tuple[int, int] | None = None  # (first, width) of a forward transform


def _mask(n: int, qubits: Iterable[int]) -> int:
    """The qubits as bits of a basis index of ``n`` qubits: q at bit n-1-q."""
    return sum(1 << (n - 1 - q) for q in set(qubits))


def _word(n: int, pattern: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """``(mask, want)`` of a (qubit, bit) pattern: a basis index matches it
    where ``index & mask == want``."""
    return _mask(n, (q for q, _ in pattern)), _mask(n, (q for q, bit in pattern if bit))


def _compile(n: int, gates: Sequence[Gate]) -> tuple[list[_Step], list[int]]:
    """The distinct steps and the program as indices into them.  The gates
    are cut into blocks by what they are (see :func:`_cut`), never by their
    labels; equal blocks compile to one step, built from what the cut read
    from them.  A step holds only the block's gate keys (see
    :func:`_gate_key`) and that reading, so compiling makes no numpy
    call."""
    steps, seen, program, start = [], {}, [], 0
    while start < len(gates):
        key, fourier = _cut(gates, start)
        index = seen.setdefault(key, len(steps))
        if index == len(steps):
            steps.append(_block_step(n, key, fourier)._replace(key=key))
        program.append(index)
        start += len(key)
    return steps, program


def _cut(gates: Sequence[Gate], start: int) -> tuple[tuple, tuple | None]:
    """``(key, fourier)`` of the block at ``start``: its gate keys, and what
    the match read from them for a Fourier block, ``(first, width, sign,
    groups)``, else None.  The block is the first that fits of: a sandwich
    (the transform on a register, a run of PHASE gates that are kick groups
    on it, the inverse transform; ``sign`` 0, as the transforms cancel); the
    transform on two or more qubits (``sign`` 1) or its inverse (-1), with
    no groups; a maximal run of PHASE gates, or of X and SWAP gates; the
    gate alone.  A transform's width is read from the shapes of its kicks,
    so a kick-shaped gate after an inverse makes the scan read one wire too
    many: the inverse is matched at the widest width its gates complete."""
    gate, stop = gates[start], start + 1
    q = gate.targets[0]
    if gate.kind is GateKind.HADAMARD and not gate.controls:
        width = 1  # wire q of the transform is kicked from each later wire in turn
        while _kicks(gates, start + width, q, q + width):
            width += 1
        for width in dict.fromkeys((width, 1)):  # a width-1 sandwich's kicks may read wider
            size = width * (width + 1) // 2
            middle = _run_end(gates, start + size, GateKind.PHASE)
            key = tuple(map(_gate_key, gates[start:middle + size]))
            if key[:size] == _qft_key(q, width, 1):
                if (key[middle - start:] == _qft_key(q, width, -1) and (groups := _kick_groups(
                        key[size:middle - start], (q, width))) is not None):
                    return key, (q, width, 0, groups)
                if width > 1:
                    return key[:size], (q, width, 1, ())
        width = 1  # the inverse starts on its last wire q, whose kick opens each earlier wire
        while _kicks(gates, stop, q - width, q):
            width, stop = width + 1, stop + width + 1
        key = tuple(map(_gate_key, gates[start:stop]))
        for width in range(width, 1, -1):  # each narrower inverse is a prefix of the wider
            size = width * (width + 1) // 2
            if key[:size] == _qft_key(q - width + 1, width, -1):
                return key[:size], (q - width + 1, width, -1, ())
        stop = start + 1
    elif gate.kind is not GateKind.HADAMARD:
        stop = _run_end(gates, start, gate.kind)
    return tuple(map(_gate_key, gates[start:stop])), None


def _kicks(gates: Sequence[Gate], i: int, target: int, control: int) -> bool:
    """Whether gate ``i`` acts on ``target`` under the one control ``control``."""
    return i < len(gates) and gates[i].targets == (target,) and gates[i].controls == ((control, 1),)


def _run_end(gates: Sequence[Gate], start: int, kind: GateKind) -> int:
    """The end of the run of PHASE gates, or of X and SWAP gates, from ``start``."""
    kinds = (kind,) if kind is GateKind.PHASE else (GateKind.X, GateKind.SWAP)
    return next((i for i in range(start, len(gates)) if gates[i].kind not in kinds), len(gates))


def _word_path(n: int, steps: Sequence[_Step], program: Sequence[int]
               ) -> tuple[tuple[tuple, ...], int | None, int | None]:
    """``(maps, stop, held)`` for a run from a basis state: the word maps
    (see :func:`_shift_bits`) of the program's steps up to ``stop``, the
    position of the first step that needs the tensor, None if none does,
    and the index of the forward transform whose frame is held there, or
    None.  Every decision reads the steps, never the index, so one path
    serves every input.  A frame held after the last step stops the path at
    ``len(program)``: the held transform runs at the end.  A step is parsed
    against a frame once, however often the program repeats it."""
    maps, held, rules = [], None, {}
    for stop, i in enumerate(program):
        step = steps[i]
        if held is not None and step.used & steps[held].used:
            rule = rules.get((held, i)) or _frame_rule(n, steps[held].opens, step.key)
            if rule is None:
                return tuple(maps), stop, held
            rules[held, i] = rule
            maps += rule[0]
            held = None if rule[1] else held
        elif held is None and step.opens:
            held = i
        elif step.permute:
            maps += step.permute
        else:
            return tuple(maps), stop, held
    return tuple(maps), None if held is None else len(program), held


def _gate_key(g: Gate) -> tuple:
    """``(kind, targets, turns, controls)`` with the turns as an exact
    integer ratio: cheap to hash, and equal for equal angles."""
    turns = None if g.phase_turns is None else g.phase_turns.as_integer_ratio()
    return g.kind, g.targets, turns, g.controls


def _block_step(n: int, key: tuple, fourier: tuple | None) -> _Step:
    used = _mask(n, (q for _, targets, _, controls in key
                     for q in chain(targets, (c for c, _ in controls))))
    if fourier:
        first, width, sign, groups = fourier
        if sign:
            return _Step(partial(_fourier_kernels, first, width, sign), used,
                         opens=(first, width) if sign > 0 else None)
        return _Step(partial(_shift_kernels, first, width, groups), used,
                     (_shift_word(n, first, width, groups),))
    if all(kind is GateKind.PHASE for kind, *_ in key):
        return _Step(partial(_diagonal_kernels, n, key), used)
    if all(kind in (GateKind.X, GateKind.SWAP) for kind, *_ in key):
        # X flips its target where its controls hold; SWAP(a, b) is three
        # such flips: b where a is 1, a where b is 1, b where a is 1.
        flips = [flip for _, targets, _, controls in key for flip in (
            [(targets[0], controls)] if len(targets) == 1 else
            [(b, ((a, 1), *controls)) for a, b in (targets, targets[::-1], targets)])]
        return _Step(partial(_gate_kernels, key), used,
                     tuple(_shift_word(n, t, 1, ((1, c),)) for t, c in flips))
    return _Step(partial(_gate_kernels, key), used)


def _frame_rule(n: int, register: tuple[int, int], key: tuple) -> tuple[tuple, bool] | None:
    """``(word maps, closes)`` for a block on a register that a held frame
    keeps in Fourier form: the inverse transform on the register closes the
    frame and adds no map, and kick groups (see :func:`_kick_groups`) add
    one, on the register's field of the word.  None for any other block: it
    needs the amplitudes."""
    if key == _qft_key(*register, -1):
        return (), True
    groups = _kick_groups(key, register)
    return None if groups is None else ((_shift_word(n, *register, groups),), False)


def _shift_word(n: int, first: int, width: int, groups) -> tuple[int, tuple]:
    """Kick groups on the register ``first`` .. ``first + width - 1`` as the
    word map ``(field, groups)`` that :func:`_shift_bits` applies: the
    register's field of the index, and per group its amount, reduced
    modulo 2^width and shifted onto the field, and its controls as a
    pattern's ``(mask, want)``.  A map holds non-negative ints only."""
    low = n - first - width
    return (((1 << width) - 1) << low,
            tuple(((amount % (1 << width)) << low, *_word(n, controls))
                  for amount, controls in groups))


def _shift_bits(field: int, groups, value: int) -> int:
    """One word map on a basis index: one add, modulo the field's width, on
    its ``field``, of the amounts of the groups ``(amount, mask, want)``
    whose controls hold.  Every word step is such adds: a sandwich or kick
    groups on a held frame on the register's field, and an X gate an add
    of 1 on its target's one-bit field."""
    total = 0
    for amount, mask, want in groups:
        if value & mask == want:
            total += amount
    return value & ~field | (value + total) & field


@lru_cache(maxsize=256)
def _qft_key(first: int, width: int, sign: int) -> tuple[tuple, ...]:
    """The transform on the register ``first`` .. ``first + width - 1``
    (see :mod:`qftarith.qft`), or with ``sign`` -1 its inverse, reversed
    with every angle negated, as ``(kind, targets, turns, controls)``
    tuples.  It comes from the transform's definition, not from the
    builders, and keys compare angles exactly, so a wrong builder angle
    falls back to the gates and still fails its tests."""
    key = []
    for q in range(first, first + width):
        key.append((GateKind.HADAMARD, (q,), None, ()))
        for k in range(2, first + width - q + 1):
            key.append((GateKind.PHASE, (q,), (sign, 1 << k), ((q + k - 1, 1),)))
    return tuple(key if sign > 0 else reversed(key))


@lru_cache(maxsize=256)
def _kick_groups(kicks: tuple, register: tuple[int, int]) -> tuple | None:
    """The ``(amount, controls)`` groups of the kicks ``kicks`` on the
    register ``(first, width)``, in order of first appearance, else None.
    The kicks are diagonal and commute, so they are read as a set: summed
    per wire under equal controls, outside the register, each controls
    group must be, exactly modulo 1, amount/2^(width-j) turns on each wire
    j for one integer amount.  A group is Draper's constant adder, QFT|v>
    to QFT|v + amount> where its controls hold; groups adding 0 are left
    out.  Memoised: :func:`_cut` asks it of every sandwich, and
    :func:`_frame_rule` of every block that meets a held frame."""
    first, width = register
    inside, turns = range(first, first + width), {}
    for kind, (q, *_), ratio, controls in kicks:
        if kind is not GateKind.PHASE or q not in inside or any(c in inside for c, _ in controls):
            return None  # a kick controlled from inside the register adds nothing
        turns[controls, q] = turns.get((controls, q), 0) + Fraction(*ratio)
    groups = []
    for controls in dict.fromkeys(controls for controls, _ in turns):
        amount = turns.get((controls, first), 0) * (1 << width)
        if amount % 1 or any((Fraction(amount, 1 << (first + width - q))
                              - turns.get((controls, q), 0)) % 1 for q in inside):
            return None
        if amount % (1 << width):
            groups.append((int(amount), controls))
    return tuple(groups)


def _phase_fixed(gate: tuple):
    """``(fixed, factor)`` for a PHASE gate's key: its target's 1 and its
    controls as one (qubit, bit) pattern, and the factor from the exact
    ratio; None where the angle is a whole number of turns, an exact
    identity."""
    _, (t,), turns, controls = gate
    factor = _phase_factor(turns)
    return None if factor is None else (((t, 1), *controls), factor)


def _gate_kernels(key: tuple):
    """``(kernel, *args)`` for each gate of the key: a PHASE gate's kick, or
    the two patterns of :func:`~qftarith.qstate._pair` that an H mixes and
    an X or SWAP exchanges."""
    kernels = []
    for gate in key:
        kind, targets, _, controls = gate
        if kind is not GateKind.PHASE:
            kernels.append((_hadamard if kind is GateKind.HADAMARD else _exchange,
                            *_pair(targets, controls)))
        elif (kick := _phase_fixed(gate)) is not None:
            kernels.append((_phase, *kick))
    return kernels


def _diagonal_kernels(n: int, key: tuple):
    """One multiply by the product of a PHASE block's kicks, by the table
    :func:`~qftarith.qstate._phase_table` builds; none if every angle is a
    whole number of turns."""
    kicks = [kick for gate in key if (kick := _phase_fixed(gate)) is not None]
    return [(_diagonal, _phase_table(n, kicks))] if kicks else []


def _shift_kernels(first: int, width: int, groups):
    """The sandwich on the tensor: one shift per kick group, where its
    controls hold.  The groups commute and each roll is an exact
    permutation, so no two are merged."""
    return [(_shift, first, width, amount, controls) for amount, controls in groups]


def _fourier_kernels(first: int, width: int, sign: int):
    """The transform's one FFT on the tensor."""
    return [(_fourier, first, width, sign)]


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
            width = int(width)
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
    return decode_registers(layout, index)[name]


def encode_registers(layout: RegisterLayout, values: Mapping[str, int]) -> int:
    """Full basis index from per-register values; unset registers read 0."""
    index = 0
    for name, value in values.items():
        if name not in layout:
            raise KeyError(f"unknown register {name!r}")
        index |= encode_register(layout, name, value)
    return index


def decode_registers(layout: RegisterLayout, index: int) -> dict[str, int]:
    """Per-register values decoded from a full basis index, checked once."""
    index, n = _check_index(index, layout.num_qubits), layout.num_qubits
    return {name: (index >> (n - r.stop)) & ((1 << len(r)) - 1)
            for name, r in layout._ranges.items()}


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
