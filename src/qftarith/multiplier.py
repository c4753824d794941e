"""Repeated-addition multiplier over a Fourier-space accumulator.

Register layout: ``accumulator[m] | x[n] | y[n] | control[1]``.  The
accumulator is transformed once up front and back once at the end; in
between, each unrolled iteration adds x into the accumulator's phases and
counts the y register down by one.  Because a circuit cannot branch on
data, the loop is unrolled 2**n - 1 times (the largest possible y).

Control flow.  The y register runs as a *free-running* modular counter:
every iteration decrements it unconditionally.  A zero check (an X on the
stop qubit controlled on every y qubit being |0>) runs before the first
addition and after every decrement.  Over iterations+1 checkpoints the
counter passes through zero exactly once, so the toggle fires exactly once
and the stop qubit acts as a one-way latch: |0> ("keep adding") until the
countdown completes, |1> ("stopped") afterwards.  Each addition kick is
doubly controlled - by one x qubit and by the stop qubit still being |0> -
so exactly y copies of x land in the accumulator.  A final decrement
completes the counter's full modular cycle (2**n decrements in total at
the standard unroll count), returning y to its initial value.

The end state is ``|x*y>|x>|y>|1>``: product in the accumulator, both
inputs preserved, stop qubit set, for every input.  A variant that
instead zeroed the y register for all inputs would have to merge distinct
inputs into one final state (consider x = 0 with different y), which no
unitary can do; keeping the counter's value is what keeps the construction
reversible.  With fewer than 2**n - 1 iterations the accumulator holds
x * min(y, iterations): the unroll bound is tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .arith import build_decrement, build_fourier_add_register
from .circuit import Circuit, Gate, RegisterLayout, concat, labeled
from .errors import QuantumArithmeticError, SpecInvariantViolation
from .qft import _widen, build_inverse_qft, build_qft
from .qstate import _is_integer


@dataclass(frozen=True)
class MultiplierSpec:
    """Widths and unroll count for one multiplier circuit.

    ``m >= 2n`` guarantees the product fits.  ``iterations`` lies in
    0 <= K <= 2**n - 1.  It is required here; :meth:`for_width` and the CLI
    give it 2**n - 1, the worst-case multiplier value.  Smaller counts build
    a deliberately truncated circuit (the result becomes x * min(y, iters)),
    which is how the tightness of the bound is demonstrated.  Larger counts
    are rejected: the counter would pass through zero twice and toggle the
    stop latch back off.
    """

    n: int
    m: int
    iterations: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if not _is_integer(value):
                raise SpecInvariantViolation(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise SpecInvariantViolation(f"need n >= 1, got {self.n}")
        if self.m < 2 * self.n:
            raise SpecInvariantViolation(
                f"accumulator width {self.m} cannot hold every {self.n}-bit product; "
                f"need at least {2 * self.n}"
            )
        if self.iterations < 0 or int(self.iterations).bit_length() > self.n:
            raise SpecInvariantViolation(
                f"iterations must lie in 0 <= K <= 2**{self.n} - 1, got {self.iterations}"
            )

    @classmethod
    def for_width(cls, n: int) -> "MultiplierSpec":
        return cls(n=n, m=2 * n, iterations=(1 << n) - 1)


@lru_cache(maxsize=8)
def multiplier_layout(spec: MultiplierSpec) -> RegisterLayout:
    """The spec's registers, memoised per spec as :func:`build_multiplier` is:
    equal specs share one layout, which has no mutator."""
    return RegisterLayout(
        [("accumulator", spec.m), ("x", spec.n), ("y", spec.n), ("control", 1)]
    )


def build_zero_check(
    y_qubits: Sequence[int] | range,
    control_qubit: int,
    num_qubits: int | None = None,
) -> Circuit:
    """X on the stop qubit, active exactly when every y qubit is |0>.

    Toggle semantics: applying it twice with y still zero flips the stop
    qubit back (X is an involution).  The gate is unlabelled;
    :func:`~qftarith.circuit.labeled` names it.
    """
    qs, n = _widen(y_qubits, num_qubits, control_qubit)
    gate = Gate.x(control_qubit, controls=tuple((q, 0) for q in qs))
    return Circuit(n, (gate,))


@lru_cache(maxsize=8)
def build_multiplier(spec: MultiplierSpec) -> Circuit:
    """Full multiplication network |0>|x>|y>|0> -> |x*y>|x>|y>|1>.

    The builders emit unlabelled blocks, and :func:`labeled` names each
    one: the two transforms, and per iteration the gates of one ``add``,
    one ``dec`` and one ``check`` block, built and checked once, under the
    iteration's own label.  The result is memoised per spec in a small
    bounded cache: calls with an equal spec return the same immutable
    circuit, which ``run`` compiles once.
    """
    layout = multiplier_layout(spec)
    n = layout.num_qubits
    acc, x, y = layout["accumulator"], layout["x"], layout["y"]
    stop = layout["control"][0]
    add = build_fourier_add_register(x, acc, controls=((stop, 0),), num_qubits=n)
    dec = build_decrement(layout, "y")
    check = build_zero_check(y, stop, n)

    parts = [labeled(build_qft(acc, n), "qft[accumulator]"), labeled(check, "check[0]")]
    for i in range(1, spec.iterations + 1):
        parts += [labeled(add, f"add[iter {i}]"), labeled(dec, f"dec[iter {i}]"),
                  labeled(check, f"check[{i}]")]
    parts.append(labeled(dec, "dec[restore]"))
    parts.append(labeled(build_inverse_qft(acc, n), "iqft[accumulator]"))
    return concat(parts)


def multiply(x: int, y: int, n: int) -> int:
    """Multiply two n-bit integers on the simulator; returns x*y exactly.

    Runs the CLI's ``mul`` command in process, through the same runner as
    ``qftarith mul x y --n n``, with the same checks, in the same order,
    raising the same error types and messages: SpecInvariantViolation for
    an n that is no integer or is below 1 (``--n must be at least 1, got
    0``), QubitBudgetExceeded for a state past the budget, and ValueTooWide
    for an operand that is no integer (a bool or a float included) or does
    not fit in n bits, all before anything is built.  The circuit is the
    standard one (accumulator width 2n, 2**n - 1 iterations) from
    :func:`build_multiplier`, whose memo builds and compiles it once per
    width.  Raises NotBasisState if the circuit ever fails to produce a
    deterministic output, and QuantumArithmeticError, naming the registers
    read, if they break the register contract (either would be a bug).
    """
    from .cli import _namespace, _run  # at call time: cli imports this module

    report = _run(_namespace("mul", x=x, y=y, n=n))[0]
    if not report.verified:
        read = ", ".join(f"{name}={value}" for name, value in report.outputs.items())
        raise QuantumArithmeticError(f"mul {x} {y} --n {n} read {read}, "
                                     "which breaks the register contract")
    return report.outputs["accumulator"]
