"""Command-line front end: run add / dec / mul on the simulator and verify
every result against plain classical arithmetic.

``verified`` means the whole register contract holds: the output register
(``b``, ``v`` or ``accumulator``) equals :func:`oracle`, every other operand
register is unchanged, and for ``mul`` the stop qubit ``control`` reads 1.

Each command is declared once, in ``_COMMANDS``: its operands, help line,
oracle, layout and builder.  The parser and :func:`oracle` read that table,
and one runner, ``_run``, checks and simulates every command for both
:func:`main` and :func:`qftarith.multiplier.multiply`: the width, then the
qubit budget before anything of size 2^n, then the operands before the
build, then build, run, read out and compare with the oracle.
Operands are checked once, by :func:`~qftarith.circuit.encode_registers`,
which raises :class:`~qftarith.errors.ValueTooWide`;
:class:`~qftarith.errors.OperandTooWide` is its alias.

Exit codes: 0 result verified, 1 simulator/oracle mismatch, 2 usage error
(bad operands, a register width below 1, bad multiplier sizing, qubit budget
exceeded, unknown flags, an ``--emit-circuit`` path that cannot be written).

The ``--json`` flag prints the run report as a single JSON object::

    {"operation": str, "inputs": {str: int}, "widths": {str: int},
     "outputs": {str: int}, "gate_count": int, "wall_time": float,
     "verified": bool}

``--emit-circuit PATH`` writes the executed circuit in the text listing
format documented in :mod:`qftarith.circuit`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .arith import build_adder, build_decrement
from .circuit import (
    Circuit,
    RegisterLayout,
    circuit_listing,
    decode_registers,
    encode_registers,
    run,
)
from .errors import QubitBudgetExceeded, SpecInvariantViolation
from .multiplier import MultiplierSpec, build_multiplier, multiplier_layout
from .qstate import _check_budget, _is_integer, extract_basis_index, new_basis_state


@dataclass
class RunReport:
    """Everything one command produced, including the oracle comparison."""

    operation: str
    inputs: dict[str, int]
    widths: dict[str, int]
    outputs: dict[str, int]
    gate_count: int
    wall_time: float
    verified: bool

    def to_json(self) -> str:
        # vars, not asdict: the fields are plain JSON values, and asdict's
        # recursive deep copy costs several times the dump.
        return json.dumps(vars(self))

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))


def oracle(operation: str, operands: tuple[int, ...], n: int) -> int:
    """Classical ground truth: modular add/dec, exact multiply.  An unknown
    operation, or one given the wrong number of operands, raises ValueError."""
    command = _COMMANDS.get(operation)
    if command is None or len(operands) != len(command.operands):
        known = ", ".join(f"{name}({', '.join(c.operands)})" for name, c in _COMMANDS.items())
        raise ValueError(f"{operation!r} with {len(operands)} operands is none of {known}")
    return command.oracle(*operands, n)


def _mul_spec(args, iterations: int) -> MultiplierSpec:
    n = args.n
    return MultiplierSpec(n=n, m=args.acc_width if args.acc_width is not None else 2 * n,
                          iterations=iterations)


class _Command(NamedTuple):
    help: str                  # the subcommand's line in ``qftarith --help``
    operands: tuple[str, ...]  # registers loaded from the positional arguments, in order
    output: str                # the register oracle() predicts
    oracle: Callable           # (*operands, n) -> the output register's classical value
    layout: Callable           # args -> RegisterLayout, computing nothing of size 2^n
    spec: Callable             # args -> MultiplierSpec or None, once the budget holds
    build: Callable            # (layout, spec) -> Circuit
    ends: dict[str, int]       # required end values of the remaining registers


# _run reads this table for both main() and multiplier.multiply().  The
# builders are called through this module's globals, not bound here, so
# perfbench/worker.py can wrap them by name.  The multiplier's memo sits
# behind that name, inside build_multiplier, so every call still reaches it.
_COMMANDS = {
    "add": _Command("in-place addition (a + b) mod 2^n", ("a", "b"), "b",
                    lambda a, b, n: (a + b) % (1 << n),
                    lambda args: RegisterLayout([("a", args.n), ("b", args.n)]),
                    lambda args: None,
                    lambda layout, _: build_adder(layout), {}),
    "dec": _Command("decrement (v - 1) mod 2^n", ("v",), "v",
                    lambda v, n: (v - 1) % (1 << n),
                    lambda args: RegisterLayout([("v", args.n)]),
                    lambda args: None,
                    lambda layout, _: build_decrement(layout, "v"), {}),
    "mul": _Command("multiplication x * y (exact)", ("x", "y"), "accumulator",
                    lambda x, y, n: x * y,
                    # the unroll count does not shape the layout
                    lambda args: multiplier_layout(_mul_spec(args, 0)),
                    lambda args: _mul_spec(args, (1 << args.n) - 1 if args.iterations is None
                                           else args.iterations),
                    lambda _, spec: build_multiplier(spec), {"control": 1}),
}


def _run(args) -> tuple[RunReport, Circuit]:
    command = _COMMANDS[args.command]
    values = {name: getattr(args, name) for name in command.operands}
    if not _is_integer(args.n):  # argparse gives an int; multiply() may not
        raise SpecInvariantViolation(f"n must be an integer, got {args.n!r}")
    if args.n < 1:
        raise SpecInvariantViolation(f"--n must be at least 1, got {args.n}")
    layout = command.layout(args)
    _check_budget(layout.num_qubits)  # before anything computes 1 << n
    index = encode_registers(layout, values)  # checks every operand, before the build
    spec = command.spec(args)
    start = time.perf_counter()
    circuit = command.build(layout, spec)
    state = new_basis_state(layout.num_qubits, index)
    run(circuit, state)
    outputs = decode_registers(layout, extract_basis_index(state, tol=1e-9))
    elapsed = time.perf_counter() - start
    expected = {**values, **command.ends,
                command.output: oracle(args.command, tuple(values.values()), args.n)}
    report = RunReport(
        operation=args.command,
        inputs=values if spec is None else {**values, "iterations": spec.iterations},
        widths=layout.widths(),
        outputs=outputs,
        gate_count=len(circuit),
        wall_time=elapsed,
        verified=all(outputs[name] == value for name, value in expected.items()),
    )
    return report, circuit


def _format_report(report: RunReport) -> str:
    def pairs(d: dict[str, int]) -> str:
        return ", ".join(f"{k}={v}" for k, v in d.items())

    total = sum(report.widths.values())
    return "\n".join([
        f"operation : {report.operation}",
        f"inputs    : {pairs(report.inputs)}",
        f"widths    : {pairs(report.widths)}  ({total} qubits)",
        f"outputs   : {pairs(report.outputs)}",
        f"gates     : {report.gate_count}",
        f"wall time : {report.wall_time * 1e3:.2f} ms",
        f"verified  : {'yes' if report.verified else 'no'}",
    ])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qftarith",
        description="Simulate Fourier-transform arithmetic circuits and "
                    "verify the results against classical arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for operand in command.operands:
            p.add_argument(operand, type=int)
        p.add_argument("--n", type=int, required=True, metavar="WIDTH",
                       help="register width in qubits")
        p.add_argument("--emit-circuit", metavar="PATH",
                       help="write the executed circuit listing to PATH")
        p.add_argument("--json", action="store_true",
                       help="print the run report as JSON")

    p_mul = sub.choices["mul"]
    p_mul.add_argument("--acc-width", type=int, metavar="M",
                       help="accumulator width (default 2n)")
    p_mul.add_argument("--iterations", type=int, metavar="K",
                       help="unroll count, 0 <= K <= 2^n - 1 (default 2^n - 1); "
                            "fewer iterations truncate the product to x * min(y, K)")

    return parser


# One parser per process, built on the first main() call rather than at
# import; parse_args keeps no state between calls.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, circuit = _run(args)
        if args.emit_circuit:
            with open(args.emit_circuit, "w", encoding="utf-8") as fh:
                fh.write(circuit_listing(circuit) + "\n")
    except (QubitBudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else _format_report(report))
    return 0 if report.verified else 1


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
