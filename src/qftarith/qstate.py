"""State-vector storage and primitive gate kernels.

Bit order: qubit 0 is the MOST significant bit of a basis index, so the
n-qubit basis state |b1 b2 ... bn> sits at index sum(b_j * 2**(n-j)).
Reshaping the amplitude array to shape (2,)*n then puts qubit j on axis j,
and every kernel below works on numpy views obtained by fixing the target
and control axes: one pass over the affected amplitude pairs, never an
explicit 2^n x 2^n matrix.

Phase angles are expressed in *turns* (multiples of 2*pi).  The circuit
builders keep them as exact ``fractions.Fraction`` values with power-of-two
denominators; conversion to a complex exponential happens once, here, at
application time.

Controls are ``(qubit, polarity)`` pairs with polarity 1 ("active on |1>")
or 0 ("active on |0>").  Amplitudes whose control bits do not match are
never touched, so disabled gates leave them bitwise unchanged.

Each gate has two entry points.  The public ``apply_*`` functions check
their qubits, polarities and angle against the state, then call a private
kernel (``_phase``, ``_hadamard``, ``_x``, ``_swap``) that trusts its
arguments and works on a bare ``(2,)*n`` array.  Three more private
kernels apply a whole block of gates at once: ``_shift`` adds a constant to
a register of adjacent qubits with one cyclic roll, ``_diagonal``
multiplies by a table of phases that depends on the last k qubits, and
``_fourier`` runs the swap-free Fourier transform on a register of
adjacent qubits, or its inverse, as one FFT with the register's axes
reversed.
:func:`qftarith.circuit.run` calls the private kernels directly, because
``Gate`` and ``Circuit`` already validated every gate on construction;
that also lets it drive arrays that are only part of a state.

A :class:`StateVector` may be *compact*: a tuple of fixed ``(qubit, bit)``
pairs, outside which every amplitude is exactly 0, plus a block of 2^r
amplitudes over the r other qubits, in index order.  ``new_basis_state``
fixes every qubit and holds one amplitude, so it allocates nothing of size
2^n; the public constructor builds a dense state, with no qubit fixed.
``norm``, ``amplitude``, ``extract_basis_index`` and ``StateVector.copy``
read the block as it is.  Reading ``amplitudes`` expands the block into the
full 2^n vector once, and the state stays dense from then on, so every
public ``apply_*`` works on the full vector.  A compiled ``run`` keeps
*classical* the fixed qubits that its steps leave alone or only permute, a
shift or an X and SWAP block on classical qubits alone: it rewrites their
bits, expands the block only to the other qubits, and writes the final
bits back as the fixed pairs (see :func:`qftarith.circuit.run`).

All kernels mutate their amplitudes in place; the public ones return the
state.  Distinct states may be driven from distinct threads concurrently;
nothing here is global.
"""

from __future__ import annotations

import cmath
import math
import numbers
from contextlib import suppress
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateQubit, IndexOutOfRange, NotBasisState, QubitBudgetExceeded

Controls = Sequence[tuple[int, int]]

# The most qubits the CLI and ``multiply`` simulate: 2^24 amplitudes take
# 256 MiB.
MAX_QUBITS = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class StateVector:
    """2^n complex amplitudes over ``num_qubits`` qubits, unit norm.

    Stored as the fixed ``(qubit, bit)`` pairs and a block: the amplitudes
    where every fixed qubit holds its bit, over the other qubits in
    ascending order, as a flat C-contiguous array.  Every amplitude outside
    the block is exactly 0.  The constructor copies and checks a full
    vector and fixes no qubit; ``new_basis_state`` fixes every qubit.

    ``amplitudes`` is the full vector.  On a compact state the first read
    expands the block into it, allocating 2^n amplitudes once; the state is
    dense from then on, and every later read returns the same array, which
    the caller may modify in place.
    """

    __slots__ = ("num_qubits", "_fixed", "_block")

    def __init__(self, num_qubits: int, amplitudes: Iterable[complex]):
        _validate_count(num_qubits)
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        total = float(np.vdot(amps, amps).real)
        if not math.isfinite(total) and not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"state must be normalized: sum |amp|^2 = {total!r}")
        self.num_qubits = num_qubits
        self._fixed = ()
        self._block = amps

    @property
    def amplitudes(self) -> np.ndarray:
        _expand(self, ())
        return self._block

    def copy(self) -> "StateVector":
        return _compact(self.num_qubits, self._fixed, self._block.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector(num_qubits={self.num_qubits})"


def _compact(num_qubits: int, fixed: tuple, block: np.ndarray) -> StateVector:
    """A state from trusted parts, with no copy and no check: ``fixed``
    sorted by qubit, ``block`` flat with one amplitude per value of the
    other qubits."""
    state = object.__new__(StateVector)
    state.num_qubits, state._fixed, state._block = num_qubits, fixed, block
    return state


def _expand(state: StateVector, keep: Sequence[tuple[int, int]]) -> np.ndarray:
    """Widen the block to every qubit outside ``keep``, a subset of the
    fixed pairs, and return it as a ``(2,)*r`` tensor over those qubits.
    Nothing is allocated when ``keep`` is every fixed pair."""
    n = state.num_qubits
    if len(keep) < len(state._fixed):
        kept = dict(keep)
        spread = {q: bit for q, bit in state._fixed if q not in kept}
        rest = [q for q in range(n) if q not in kept]
        block = np.zeros(1 << len(rest), dtype=np.complex128)
        block.reshape((2,) * len(rest))[tuple(spread.get(q, slice(None)) for q in rest)] = (
            state._block.reshape((2,) * (len(rest) - len(spread))))
        state._fixed, state._block = tuple(keep), block
    return state._block.reshape((2,) * (n - len(keep)))


def _check_budget(total_qubits: int) -> None:
    if total_qubits > MAX_QUBITS:
        raise QubitBudgetExceeded(
            f"{total_qubits} qubits would need 2^{total_qubits} complex amplitudes "
            f"(2^{total_qubits + 4} bytes); the budget is {MAX_QUBITS} qubits"
        )


def new_basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational-basis state |index> on ``num_qubits`` qubits: compact,
    with every qubit fixed and one amplitude; the index must be an integer."""
    _validate_count(num_qubits)
    _check_index(index, num_qubits)
    fixed = tuple((q, index >> (num_qubits - 1 - q) & 1) for q in range(num_qubits))
    return _compact(num_qubits, fixed, np.ones(1, dtype=np.complex128))


def norm(state: StateVector) -> float:
    """Euclidean norm of the amplitude vector."""
    return float(np.linalg.norm(state._block))


def amplitude(state: StateVector, index: int) -> complex:
    """Amplitude at one basis index, an integer."""
    n = state.num_qubits
    _check_index(index, n)
    bits, fixed = [index >> (n - 1 - q) & 1 for q in range(n)], dict(state._fixed)
    if any(bits[q] != bit for q, bit in fixed.items()):
        return 0j
    free_bits = tuple(bit for q, bit in enumerate(bits) if q not in fixed)
    return complex(state._block.reshape((2,) * len(free_bits))[free_bits])


def extract_basis_index(state: StateVector, tol: float = 1e-9) -> int:
    """Index of the single dominant basis amplitude.

    Succeeds iff one amplitude carries probability >= 1 - tol; anything
    else means the circuit left a genuine superposition (or has a bug).
    """
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tol must lie in (0, 0.5), got {tol}")
    magnitudes = np.abs(state._block)
    position = int(np.argmax(magnitudes))
    n, bits = state.num_qubits, dict(state._fixed)
    free = [q for q in range(n) if q not in bits]
    bits.update((q, position >> (len(free) - 1 - k) & 1) for k, q in enumerate(free))
    best = sum(bit << (n - 1 - q) for q, bit in bits.items())
    prob = float(magnitudes[position]) ** 2
    if prob < 1.0 - tol:
        raise NotBasisState(
            f"no dominant basis amplitude: max |amp|^2 = {prob:.6f} "
            f"at index {best} (threshold {1.0 - tol})"
        )
    return best


def _is_integer(value) -> bool:
    """An integer, numpy's included.  A bool or a float is none, even where
    it equals one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_index(index: int, num_qubits: int) -> None:
    if not _is_integer(index) or not 0 <= index < 1 << num_qubits:
        raise IndexOutOfRange(
            f"basis index must be an integer in [0, 2^{num_qubits}), got {index!r}"
        )


def _validate_count(num_qubits: int) -> None:
    if not _is_integer(num_qubits) or num_qubits < 1:
        raise ValueError(f"need at least one qubit, got {num_qubits!r}")


def _validate_qubits(num_qubits: int | None, targets: Sequence[int], controls: Controls) -> None:
    """Distinct integer qubits in range, integer polarities 0 or 1 (see
    :func:`_is_integer`).  With ``num_qubits`` None, any non-negative qubit
    index is in range."""
    seen: set[int] = set()
    for q in (*targets, *(q for q, _ in controls)):
        if not _is_integer(q):
            raise IndexOutOfRange(f"qubit index must be an integer, got {q!r}")
        if q < 0 or num_qubits is not None and q >= num_qubits:
            bound = "" if num_qubits is None else f" for {num_qubits} qubits"
            raise IndexOutOfRange(f"qubit {q} out of range{bound}")
        if q in seen:
            raise DuplicateQubit(f"qubit {q} used more than once in one gate")
        seen.add(q)
    for _, pol in controls:
        if not _is_integer(pol) or pol not in (0, 1):
            raise ValueError(f"control polarity must be 0 or 1, got {pol!r}")


def _validate_turns(phase_turns) -> None:
    """A PHASE angle is a real number, not a bool, with a finite float value:
    None, bools, NaN, +-inf and exact numbers too large for a float raise
    ValueError, and strings, complex numbers and other non-reals TypeError.
    The messages leave out the value, whose ``repr`` fails for huge ints."""
    given = phase_turns is not None and not isinstance(phase_turns, (bool, np.bool_))
    if given and not isinstance(phase_turns, numbers.Real):
        raise TypeError(f"PHASE needs a real angle, got {type(phase_turns).__name__}")
    with suppress(OverflowError):
        if given and math.isfinite(float(phase_turns)):
            return
    raise ValueError("PHASE needs an angle that is a finite float")


def _fixed_axes(num_qubits: int, fixed: Iterable[tuple[int, int]]):
    idx: list[object] = [slice(None)] * num_qubits
    for q, bit in fixed:
        idx[q] = bit
    return tuple(idx)


def _phase_factor(phase_turns) -> complex:
    return cmath.exp(2j * math.pi * float(phase_turns))


# -- trusted kernels ---------------------------------------------------------
# Each takes the amplitudes as an array of shape (2,)*n and applies the gate
# in place.  They check nothing: callers pass distinct in-range qubits and
# 0/1 polarities.


def _phase(psi: np.ndarray, fixed: Controls, factor: complex) -> None:
    """Multiply the amplitudes whose bits match every (qubit, bit) in ``fixed``."""
    psi[_fixed_axes(psi.ndim, fixed)] *= factor


def _hadamard(psi: np.ndarray, target: int, controls: Controls) -> None:
    i0 = _fixed_axes(psi.ndim, [(target, 0), *controls])
    i1 = _fixed_axes(psi.ndim, [(target, 1), *controls])
    a, b = psi[i0], psi[i1]
    s = (a + b) * _INV_SQRT2
    d = (a - b) * _INV_SQRT2
    psi[i0] = s
    psi[i1] = d


def _x(psi: np.ndarray, target: int, controls: Controls) -> None:
    i0 = _fixed_axes(psi.ndim, [(target, 0), *controls])
    i1 = _fixed_axes(psi.ndim, [(target, 1), *controls])
    tmp = psi[i0].copy()
    psi[i0] = psi[i1]
    psi[i1] = tmp


def _swap(psi: np.ndarray, target_a: int, target_b: int, controls: Controls) -> None:
    i01 = _fixed_axes(psi.ndim, [(target_a, 0), (target_b, 1), *controls])
    i10 = _fixed_axes(psi.ndim, [(target_a, 1), (target_b, 0), *controls])
    tmp = psi[i01].copy()
    psi[i01] = psi[i10]
    psi[i10] = tmp


def _shift(psi: np.ndarray, start: int, width: int, amount: int, controls: Controls) -> None:
    """Add ``amount`` modulo 2^width to the register on axes ``start`` ..
    ``start + width - 1`` (most significant first), where ``controls`` hold.

    With the register's axes merged into one, the axes before it into L
    rows and the axes after it into R columns, value v sits at v*R + r
    (r < R) of its row, so the addition is one cyclic roll of every row by
    amount*R.
    """
    sub = psi[_fixed_axes(psi.ndim, controls)]
    lead = start - sum(1 for q, _ in controls if q < start)
    rows = sub.reshape(1 << lead, -1)
    step = (amount % (1 << width)) * (rows.shape[1] >> width)
    sub[...] = np.roll(rows, step, axis=1).reshape(sub.shape)


def _diagonal(psi: np.ndarray, table: np.ndarray) -> None:
    """Multiply by a diagonal that depends on the last k axes only: ``table``
    holds its 2^k factors in index order, and every row of 2^k amplitudes
    is multiplied by it.  ``psi`` must be C-contiguous, so the rows are a
    view of it."""
    rows = psi.reshape(-1, table.size)
    rows *= table


def _fourier(psi: np.ndarray, start: int, width: int, sign: int) -> None:
    """The swap-free Fourier transform (``sign`` 1) or its inverse (-1) on
    the register on axes ``start`` .. ``start + width - 1``.

    The transform maps value v to amplitudes[i] == F[bit_reverse(i), v]
    (see :mod:`qftarith.qft`), F the unitary DFT with omega =
    exp(2*pi*i / 2^width): an orthonormal inverse FFT along the register's
    merged axis, then the bit-reversal permutation, which on the ``(2,)*r``
    tensor is the register's axes reversed.  The inverse reverses the axes
    first and then runs the forward FFT.  ``psi`` must be C-contiguous, so
    the merged view is a view of it.
    """
    rows = psi.reshape(1 << start, 1 << width, -1)
    axes = (*range(start), *reversed(range(start, start + width)), *range(start + width, psi.ndim))
    if sign > 0:
        psi[...] = np.fft.ifft(rows, axis=1, norm="ortho").reshape(psi.shape).transpose(axes)
    else:
        rows[...] = np.fft.fft(psi.transpose(axes).reshape(rows.shape), axis=1, norm="ortho")


def apply_phase(
    state: StateVector, target: int, phase_turns, controls: Controls = ()
) -> StateVector:
    """Multiply the target's |1> component by exp(2*pi*i*phase_turns)."""
    _validate_qubits(state.num_qubits, (target,), controls)
    _validate_turns(phase_turns)
    if phase_turns == 0:
        return state  # exact identity, amplitudes untouched
    _phase(_expand(state, ()), [(target, 1), *controls], _phase_factor(phase_turns))
    return state


def apply_hadamard(state: StateVector, target: int, controls: Controls = ()) -> StateVector:
    """Standard 2x2 Hadamard on the target, subject to controls."""
    _validate_qubits(state.num_qubits, (target,), controls)
    _hadamard(_expand(state, ()), target, controls)
    return state


def apply_x(state: StateVector, target: int, controls: Controls = ()) -> StateVector:
    """NOT on the target: swaps amplitude pairs differing in the target bit."""
    _validate_qubits(state.num_qubits, (target,), controls)
    _x(_expand(state, ()), target, controls)
    return state


def apply_swap(
    state: StateVector, target_a: int, target_b: int, controls: Controls = ()
) -> StateVector:
    """Exchange two qubits: swaps amplitudes of the 01 and 10 target patterns."""
    _validate_qubits(state.num_qubits, (target_a, target_b), controls)
    _swap(_expand(state, ()), target_a, target_b, controls)
    return state
