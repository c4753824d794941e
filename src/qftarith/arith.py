"""Fourier-space arithmetic blocks: constant and register addition,
the decrement gate, and the standalone in-place adder.

With the register in the Fourier form of value v (wire j holding relative
phase (v / 2**(w-j)) mod 1, see :mod:`qftarith.qft`), adding a constant c
is one phase kick of c / 2**(w-j) turns per wire: no carries, the mod-1
phase arithmetic wraps exactly like mod-2**w integer arithmetic.  Adding
a register is the constant adder once per source bit: source bit p adds
the constant 2**p under its own control (Draper, arXiv:quant-ph/0008033).
:func:`qftarith.circuit._kick_groups` reads the kicks between a
transform and its inverse, or on a held frame, as a set, summed per wire
and controls, so it parses these blocks in any kick order, inverted ones
included.  All emitted angles are exact dyadic fractions with denominator
at most 2**(destination width).

All arithmetic is modulo 2**width: wraparound is forced by unitarity, so
subtracting below zero lands on 2**w - 1.

Every builder emits unlabelled gates; a caller names a block with
:func:`qftarith.circuit.labeled`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .circuit import Circuit, Gate, RegisterLayout, concat
from .errors import ConstantTooWide, OverlappingRegisters
from .qft import _widen, build_inverse_qft, build_qft
from .qstate import _is_integer

Controls = Sequence[tuple[int, int]]


@dataclass(frozen=True)
class SignedConstant:
    """A non-negative magnitude with an explicit sign."""

    magnitude: int
    sign: int = 1

    def __post_init__(self):
        if not _is_integer(self.sign) or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not _is_integer(self.magnitude) or self.magnitude < 0:
            raise ValueError(f"magnitude must be an integer >= 0, got {self.magnitude!r}")

    @classmethod
    def from_int(cls, value: int | "SignedConstant") -> "SignedConstant":
        if isinstance(value, SignedConstant):
            return value
        if not _is_integer(value):
            raise ValueError(f"constant must be an integer, got {value!r}")
        return cls(abs(value), -1 if value < 0 else 1)


def _check_disjoint(*groups: Sequence[int]) -> None:
    seen: set[int] = set()
    for group in groups:
        for q in group:
            if q in seen:
                raise OverlappingRegisters(f"qubit {q} appears in more than one register")
            seen.add(q)


def build_fourier_add_constant(
    qubits: Sequence[int] | range,
    constant: int | SignedConstant,
    controls: Controls = (),
    num_qubits: int | None = None,
) -> Circuit:
    """Phase layer adding a signed constant to a register held in Fourier form.

    At most one single-qubit phase gate per wire; a zero constant emits an
    empty circuit.  Controls gate every kick, so an unsatisfied pattern
    leaves the register's Fourier phases untouched.
    """
    c = SignedConstant.from_int(constant)
    control_qs = [q for q, _ in controls]
    qs, n = _widen(qubits, num_qubits, *control_qs)
    w = len(qs)
    if c.magnitude >= (1 << w):
        raise ConstantTooWide(
            f"constant {c.sign * c.magnitude} does not fit in width {w}"
        )
    _check_disjoint(qs, control_qs)
    gates: list[Gate] = []
    for j in range(w):
        kick = c.magnitude % (1 << (w - j))  # sign * (|c| / 2**(w-j) mod 1) turns
        if kick:
            gates.append(Gate.phase(Fraction(c.sign * kick, 1 << (w - j)), qs[j],
                                    controls=tuple(controls)))
    return Circuit(n, tuple(gates))


def build_fourier_add_register(
    src: Sequence[int] | range,
    dst: Sequence[int] | range,
    controls: Controls = (),
    num_qubits: int | None = None,
) -> Circuit:
    """Controlled-phase network adding a basis-encoded register into a
    Fourier-form destination.

    The destination must be at least as wide as the source; the source is
    treated as zero-extended.  It is the constant adder once per source bit,
    a kick group that :func:`qftarith.circuit._kick_groups` reads: the bit
    of weight 2**p adds 2**p under the controls ``((that bit, 1), *controls)``.
    The source register is left unchanged.
    """
    control_qs = [q for q, _ in controls]
    src_qs, _ = _widen(src, num_qubits)
    dst_qs, n = _widen(dst, num_qubits, *src_qs, *control_qs)
    ws, wd = len(src_qs), len(dst_qs)
    if wd < ws:
        raise ValueError(f"destination width {wd} is narrower than source width {ws}")
    _check_disjoint(src_qs, dst_qs, control_qs)
    return concat([
        build_fourier_add_constant(dst_qs, 1 << (ws - 1 - s), ((src_qs[s], 1), *controls), n)
        for s in range(ws)
    ])


def _in_fourier_frame(qubits: Sequence[int] | range, middle: Circuit) -> Circuit:
    """``middle`` between the transform on ``qubits`` and its inverse."""
    n = middle.num_qubits
    return concat([build_qft(qubits, n), middle, build_inverse_qft(qubits, n)])


def build_decrement(
    layout: RegisterLayout,
    register: str,
    controls: Controls = (),
) -> Circuit:
    """Decrement gate: |v> -> |v-1 mod 2**w> on the named register.

    Structure: Fourier transform, one negative phase kick per wire
    (-1/2**(w-j) turns), inverse transform.  Only the middle phase layer
    carries the controls: when they are unsatisfied the transform and its
    inverse cancel, so the gate acts as the identity.  The gates are
    unlabelled; :func:`~qftarith.circuit.labeled` names the block.
    """
    qs = layout[register]
    return _in_fourier_frame(qs, build_fourier_add_constant(qs, -1, controls, layout.num_qubits))


def build_adder(layout: RegisterLayout) -> Circuit:
    """In-place adder |a>|b> -> |a>|(a+b) mod 2**n>, registers 'a' and 'b'.

    The sum builds up in register b's Fourier phases; register a is read
    by controls only and comes out unchanged.  No carry ancillas.  The
    gates are unlabelled; :func:`~qftarith.circuit.labeled` names the block.
    """
    a, b = layout["a"], layout["b"]
    if len(a) != len(b):
        raise ValueError(f"register widths differ: a={len(a)}, b={len(b)}")
    return _in_fourier_frame(b, build_fourier_add_register(a, b, num_qubits=layout.num_qubits))
