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
application time.  ``_phase_factor`` takes whole turns off the angle's exact
ratio first, so a huge angle keeps its fraction and whole turns are no-ops.

Controls are ``(qubit, polarity)`` pairs with polarity 1 ("active on |1>")
or 0 ("active on |0>").  Amplitudes whose control bits do not match are
never touched, so disabled gates leave them bitwise unchanged.

Each gate has two entry points.  The public ``apply_*`` functions check
their qubits, polarities and angle against the state, then call a private
kernel (``_phase``, ``_hadamard``, or ``_exchange`` for X and SWAP) that
trusts its arguments and works on a bare ``(2,)*n`` array.  ``_hadamard``
mixes and ``_exchange`` swaps the amplitudes of two ``(qubit, bit)``
patterns, the two that ``_pair`` gives: the target's 0 and 1 for H and X,
01 and 10 for SWAP's targets, each with the controls.  Three more
kernels apply a whole block of gates at once: ``_shift`` adds a constant to
a register of adjacent qubits with one cyclic roll, ``_diagonal``
multiplies by a ``_phase_table`` that depends on the last k qubits, and
``_fourier`` runs the swap-free Fourier transform on a register of
adjacent qubits, or its inverse, as one FFT with the register's axes
reversed.  :func:`qftarith.circuit.run` calls the private kernels directly,
because ``Gate`` and ``Circuit`` validated every gate on construction.  No
other module of the package imports numpy, and this one imports it on first
use: ``np`` starts as a stand-in whose first attribute read imports numpy
and rebinds ``np`` to it, so a process that only runs basis states through
classical steps never loads numpy, and the kernels read the module itself.

A :class:`StateVector` has one of two forms.  A basis state, as
``new_basis_state`` makes it, is its index, a Python int: its one nonzero
amplitude is exactly 1, so it needs no array at all.  A dense state, as
the public constructor makes it, is the full 2^n vector.  ``norm``,
``amplitude``, ``extract_basis_index`` and ``StateVector.copy`` read
either form as it is.  ``_expand`` turns a basis state into the dense
vector, the one place where a state grows, after the budget check; reading
``amplitudes`` and every public ``apply_*`` go through it, so they work on
the full vector, and the state stays dense from then on.  A compiled
``run`` keeps the index while each step is arithmetic on it, and expands
the state at the first step that is not (see :func:`qftarith.circuit.run`).

All kernels mutate their amplitudes in place; the public ones return the
state.  Distinct states may be driven from distinct threads concurrently;
nothing here is global but ``np``, which is rebound once, to the same
module whichever thread reads it first.
"""

from __future__ import annotations

import cmath
import copy
import math
import numbers
import sys
from contextlib import suppress
from typing import Iterable, Sequence

from .errors import DuplicateQubit, IndexOutOfRange, NotBasisState, QubitBudgetExceeded

Controls = Sequence[tuple[int, int]]

# The most qubits the CLI and ``multiply`` simulate: 2^24 amplitudes take
# 256 MiB.
MAX_QUBITS = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class _Numpy:
    """numpy, imported on the first attribute read, which rebinds ``np`` to
    the module itself: later reads are plain global lookups."""

    def __getattr__(self, name: str):
        global np
        import numpy as np
        return getattr(np, name)


np = _Numpy()


class StateVector:
    """2^n complex amplitudes over ``num_qubits`` qubits, unit norm.

    Stored in one of two forms: a basis state, ``_index`` its index as a
    Python int and ``_block`` None, its amplitude there exactly 1 and every
    other exactly 0; or a dense state, ``_index`` None and ``_block`` the
    full vector as a flat C-contiguous array.  The constructor copies and
    checks a full vector; ``new_basis_state`` makes a basis state.

    ``amplitudes`` is the full vector.  On a basis state the first read
    expands it, allocating 2^n amplitudes once within the qubit budget; the
    state is dense from then on, and every later read returns the same
    array, which the caller may modify in place.
    """

    __slots__ = ("num_qubits", "_index", "_block")

    def __init__(self, num_qubits: int, amplitudes: Iterable[complex]):
        num_qubits = _validate_count(num_qubits)
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
        self._index = None
        self._block = amps

    @property
    def amplitudes(self) -> np.ndarray:
        _expand(self)
        return self._block

    def copy(self) -> "StateVector":
        return _compact(self.num_qubits, self._index, copy.copy(self._block))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector(num_qubits={self.num_qubits})"


def _compact(num_qubits: int, index: int | None, block: np.ndarray | None) -> StateVector:
    """A state from trusted parts, with no copy and no check: a basis state,
    ``index`` a Python int and ``block`` None, or a dense one, ``index``
    None and ``block`` the flat vector."""
    state = object.__new__(StateVector)
    state.num_qubits, state._index, state._block = num_qubits, index, block
    return state


def _expand(state: StateVector) -> np.ndarray:
    """The state as a ``(2,)*n`` tensor over every qubit.  A basis state
    becomes the dense vector here, exactly 1 at its index, the one place
    where a state grows, after ``_check_budget``: past the budget it raises
    QubitBudgetExceeded before anything of size 2^n is allocated.  A dense
    state is only reshaped."""
    n = state.num_qubits
    if state._index is not None:
        _check_budget(n)
        block = np.zeros(1 << n, dtype=np.complex128)
        block[state._index] = 1
        state._index, state._block = None, block
    return state._block.reshape((2,) * n)


def _check_budget(total_qubits: int) -> None:
    if total_qubits > MAX_QUBITS:
        raise QubitBudgetExceeded(
            f"{total_qubits} qubits would need 2^{total_qubits} complex amplitudes "
            f"(2^{total_qubits + 4} bytes); the budget is {MAX_QUBITS} qubits"
        )


def new_basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational-basis state |index> on ``num_qubits`` qubits, held as
    its index alone; the index must be an integer."""
    num_qubits = _validate_count(num_qubits)
    return _compact(num_qubits, _check_index(index, num_qubits), None)


def norm(state: StateVector) -> float:
    """Euclidean norm of the amplitude vector."""
    return 1.0 if state._index is not None else float(np.linalg.norm(state._block))


def amplitude(state: StateVector, index: int) -> complex:
    """Amplitude at one basis index, an integer."""
    index = _check_index(index, state.num_qubits)
    if state._index is not None:
        return complex(index == state._index)
    return complex(state._block[index])


def extract_basis_index(state: StateVector, tol: float = 1e-9) -> int:
    """Index of the single dominant basis amplitude.

    Succeeds iff one amplitude carries probability >= 1 - tol; anything
    else means the circuit left a genuine superposition (or has a bug).
    """
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tol must lie in (0, 0.5), got {tol}")
    if state._index is not None:
        return state._index
    magnitudes = np.abs(state._block)
    best = int(np.argmax(magnitudes))
    prob = float(magnitudes[best]) ** 2
    if prob < 1.0 - tol:
        raise NotBasisState(
            f"no dominant basis amplitude: max |amp|^2 = {prob:.6f} "
            f"at index {best} (threshold {1.0 - tol})"
        )
    return best


def _is_integer(value) -> bool:
    """An integer, numpy's included.  A bool or a float is none, even where
    it equals one.  A plain int, the common case, skips the ABC check."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _check_index(index: int, num_qubits: int) -> int:
    """Returns the index as a Python int, so a numpy integer meets the wide
    masks of a basis-state run without overflow."""
    if not _is_integer(index) or not 0 <= index < 1 << num_qubits:
        raise IndexOutOfRange(
            f"basis index must be an integer in [0, 2^{num_qubits}), got {index!r}"
        )
    return int(index)


def _validate_count(num_qubits: int) -> int:
    """Returns the count as a Python int, so that ``1 << num_qubits`` and the
    masks built from it do not overflow."""
    if not _is_integer(num_qubits) or num_qubits < 1:
        raise ValueError(f"need at least one qubit, got {num_qubits!r}")
    return int(num_qubits)


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


def _validate_turns(phase_turns):
    """A PHASE angle is a real number, not a bool, with a finite float value:
    None, bools, NaN, +-inf and exact numbers too large for a float raise
    ValueError, and strings, complex numbers and other non-reals TypeError.
    The messages leave out the value, whose ``repr`` fails for huge ints.
    Returns the angle, a numpy scalar as the Python number it holds.  numpy's
    types are looked up only if numpy is loaded: no numpy scalar exists
    before that."""
    numpy = sys.modules.get("numpy")
    bools, scalars = ((bool, numpy.bool_), numpy.generic) if numpy else (bool, ())
    given = phase_turns is not None and not isinstance(phase_turns, bools)
    if given and not isinstance(phase_turns, numbers.Real):
        raise TypeError(f"PHASE needs a real angle, got {type(phase_turns).__name__}")
    with suppress(OverflowError):
        if given and math.isfinite(float(phase_turns)):
            return phase_turns.item() if isinstance(phase_turns, scalars) else phase_turns
    raise ValueError("PHASE needs an angle that is a finite float")


def _fixed_axes(num_qubits: int, fixed: Iterable[tuple[int, int]]):
    idx: list[object] = [slice(None)] * num_qubits
    for q, bit in fixed:
        idx[q] = bit
    return tuple(idx)


def _phase_factor(ratio: tuple[int, int]) -> complex | None:
    """exp(2*pi*i*num/den) for an angle's exact ratio, den > 0, with whole
    turns taken off exactly and the sign kept; None for whole turns only."""
    num, den = ratio
    num = num % den if num >= 0 else -(-num % den)
    return cmath.exp(2j * math.pi * (num / den)) if num else None


def _pair(targets: Sequence[int], controls: Controls) -> tuple[list, list]:
    """The two (qubit, bit) patterns that H or X on one target mixes or
    exchanges, or SWAP on two targets exchanges, each with the controls."""
    target_bits = ((0,), (1,)) if len(targets) == 1 else ((0, 1), (1, 0))
    return tuple([*zip(targets, tb), *controls] for tb in target_bits)


# -- trusted kernels ---------------------------------------------------------
# Each takes the amplitudes as an array of shape (2,)*n and applies the gate
# in place.  They check nothing: callers pass distinct in-range qubits and
# 0/1 polarities.


def _phase(psi: np.ndarray, fixed: Controls, factor: complex) -> None:
    """Multiply the amplitudes whose bits match every (qubit, bit) in ``fixed``."""
    psi[_fixed_axes(psi.ndim, fixed)] *= factor


def _hadamard(psi: np.ndarray, a: Controls, b: Controls) -> None:
    """Mix the amplitudes matching pattern ``a`` with those matching ``b``."""
    ia, ib = _fixed_axes(psi.ndim, a), _fixed_axes(psi.ndim, b)
    x, y = psi[ia], psi[ib]
    s = (x + y) * _INV_SQRT2
    d = (x - y) * _INV_SQRT2
    psi[ia] = s
    psi[ib] = d


def _exchange(psi: np.ndarray, a: Controls, b: Controls) -> None:
    """Swap the amplitudes whose bits match every (qubit, bit) in ``a`` with
    those matching ``b``: X and SWAP, the patterns of :func:`_pair`."""
    ia, ib = _fixed_axes(psi.ndim, a), _fixed_axes(psi.ndim, b)
    tmp = psi[ia].copy()
    psi[ia] = psi[ib]
    psi[ib] = tmp


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


def _phase_table(ndim: int, kicks: Sequence[tuple[Controls, complex]]) -> np.ndarray:
    """The product of ``kicks``, ``(fixed, factor)`` pairs as ``_phase``
    takes them, on a ``(2,)*ndim`` tensor, as the flat table ``_diagonal``
    multiplies by.  Tabulated over the axes the kicks fix, it is broadcast
    to every axis from the first of those to the last and laid out
    contiguously, so that it multiplies whole contiguous rows; broadcasting
    a short inner axis is several times slower."""
    axes = {axis for fixed, _ in kicks for axis, _ in fixed}
    table = np.ones([2 if axis in axes else 1 for axis in range(ndim)], dtype=np.complex128)
    for fixed, factor in kicks:
        _phase(table, fixed, factor)
    first = min(axes, default=ndim)
    return np.broadcast_to(table.reshape(table.shape[first:]), (2,) * (ndim - first)).reshape(-1)


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
    factor = _phase_factor(_validate_turns(phase_turns).as_integer_ratio())
    if factor is not None:  # a whole number of turns is an exact identity
        _phase(_expand(state), [(target, 1), *controls], factor)
    return state


def apply_hadamard(state: StateVector, target: int, controls: Controls = ()) -> StateVector:
    """Standard 2x2 Hadamard on the target, subject to controls."""
    _validate_qubits(state.num_qubits, (target,), controls)
    _hadamard(_expand(state), *_pair((target,), controls))
    return state


def apply_x(state: StateVector, target: int, controls: Controls = ()) -> StateVector:
    """NOT on the target: swaps amplitude pairs differing in the target bit."""
    _validate_qubits(state.num_qubits, (target,), controls)
    _exchange(_expand(state), *_pair((target,), controls))
    return state


def apply_swap(
    state: StateVector, target_a: int, target_b: int, controls: Controls = ()
) -> StateVector:
    """Exchange two qubits: swaps amplitudes of the 01 and 10 target patterns."""
    _validate_qubits(state.num_qubits, (target_a, target_b), controls)
    _exchange(_expand(state), *_pair((target_a, target_b), controls))
    return state
