"""Quantum Fourier transform builders over a sub-register, swap-free.

Convention.  For a register of width w whose qubits are listed most
significant first, applying :func:`build_qft` to basis value v leaves each
wire j (j = 0..w-1) in the single-qubit state

    (|0> + exp(2*pi*i * f_j) |1>) / sqrt(2),   f_j = (v / 2**(w-j)) mod 1,

i.e. wire j carries the binary fraction made of v's bits from position j
down.  The usual trailing bit-reversal swaps are omitted; callers that
need the plain DFT ordering read the wires in reverse.  Concretely, the
realized transform relates to the unitary DFT matrix F (omega =
exp(2*pi*i/2**w)) by

    amplitudes[i] == F[bit_reverse(i), v]   for every basis input v.

The arithmetic builders (see :mod:`qftarith.arith`) do their phase
bookkeeping directly in this wire order, and the inverse transform undoes
it, so the ordering is never observable end to end.

Like every builder, these emit unlabelled gates; a caller names a block
with :func:`qftarith.circuit.labeled`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .circuit import Circuit, Gate


def _widen(
    qubits: Sequence[int] | range, num_qubits: int | None, *others: int
) -> tuple[list[int], int]:
    """The non-empty register as a list, and the circuit width: ``num_qubits``
    if given, else one past the highest of its qubits and ``others``."""
    qs = list(qubits)
    if not qs:
        raise ValueError("register must be non-empty")
    n = (max([*qs, *others]) + 1) if num_qubits is None else num_qubits
    return qs, n


def _qft_gates(qs: list[int], sign: int) -> list[Gate]:
    """The forward transform's gates in order, every angle times ``sign``."""
    gates: list[Gate] = []
    for j in range(len(qs)):
        gates.append(Gate.hadamard(qs[j]))
        for k in range(2, len(qs) - j + 1):
            gates.append(Gate.phase(Fraction(sign, 1 << k), qs[j], controls=((qs[j + k - 1], 1),)))
    return gates


def build_qft(qubits: Sequence[int] | range, num_qubits: int | None = None) -> Circuit:
    """Fourier transform on the given qubits (most significant first).

    Emits w*(w+1)/2 gates: a Hadamard per wire plus controlled phase
    rotations by exact dyadic angles 1/2**k turns.
    """
    qs, n = _widen(qubits, num_qubits)
    return Circuit(n, tuple(_qft_gates(qs, 1)))


def build_inverse_qft(qubits: Sequence[int] | range, num_qubits: int | None = None) -> Circuit:
    """Inverse transform: the reversed, phase-negated Fourier circuit."""
    qs, n = _widen(qubits, num_qubits)
    return Circuit(n, tuple(reversed(_qft_gates(qs, -1))))
