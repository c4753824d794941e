"""Command-line front end: run add / dec / mul on the simulator and verify
every result against plain classical arithmetic.

``verified`` means the whole register contract holds: the output register
(``b``, ``v`` or ``accumulator``) equals :func:`oracle`, every other operand
register is unchanged, and for ``mul`` the stop qubit ``control`` reads 1.

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
from dataclasses import asdict, dataclass
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
from .errors import OperandTooWide, QubitBudgetExceeded, SpecInvariantViolation
from .multiplier import MultiplierSpec, build_multiplier, multiplier_layout
from .qstate import MAX_QUBITS, _check_budget, extract_basis_index, new_basis_state  # noqa: F401


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
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))


def oracle(operation: str, operands: tuple[int, ...], n: int) -> int:
    """Classical ground truth: modular add/dec, exact multiply."""
    if operation == "add":
        a, b = operands
        return (a + b) % (1 << n)
    if operation == "dec":
        (v,) = operands
        return (v - 1) % (1 << n)
    if operation == "mul":
        x, y = operands
        return x * y
    raise ValueError(f"unknown operation {operation!r}")


def _check_operands(n: int, **operands: int) -> None:
    for name, value in operands.items():
        if not 0 <= value < (1 << n):
            raise OperandTooWide(
                f"operand {name}={value} does not fit in {n} bits (max {(1 << n) - 1})"
            )


def _mul_spec(args, iterations: int) -> MultiplierSpec:
    n = args.n
    return MultiplierSpec(n=n, m=args.acc_width if args.acc_width is not None else 2 * n,
                          iterations=iterations)


class _Command(NamedTuple):
    operands: tuple[str, ...]  # registers loaded from the positional arguments
    output: str                # the register oracle() predicts
    layout: Callable           # args -> RegisterLayout, computing nothing of size 2^n
    spec: Callable             # args -> MultiplierSpec or None, once the budget holds
    build: Callable            # (layout, spec) -> Circuit
    ends: dict[str, int]       # required end values of the remaining registers


# The builders are called through this module's globals, not bound here, so
# perfbench/worker.py can wrap them by name.  The multiplier's memo sits
# behind that name, inside build_multiplier, so every call still reaches it.
_COMMANDS = {
    "add": _Command(("a", "b"), "b",
                    lambda args: RegisterLayout([("a", args.n), ("b", args.n)]),
                    lambda args: None,
                    lambda layout, _: build_adder(layout), {}),
    "dec": _Command(("v",), "v",
                    lambda args: RegisterLayout([("v", args.n)]),
                    lambda args: None,
                    lambda layout, _: build_decrement(layout, "v"), {}),
    "mul": _Command(("x", "y"), "accumulator",
                    # the unroll count does not shape the layout
                    lambda args: multiplier_layout(_mul_spec(args, 0)),
                    lambda args: _mul_spec(args, (1 << args.n) - 1 if args.iterations is None
                                           else args.iterations),
                    lambda _, spec: build_multiplier(spec), {"control": 1}),
}


def _run(args) -> tuple[RunReport, Circuit]:
    command = _COMMANDS[args.command]
    values = {name: getattr(args, name) for name in command.operands}
    if args.n < 1:
        raise SpecInvariantViolation(f"--n must be at least 1, got {args.n}")
    layout = command.layout(args)
    _check_budget(layout.num_qubits)  # before anything computes 1 << n
    _check_operands(args.n, **values)
    spec = command.spec(args)
    start = time.perf_counter()
    circuit = command.build(layout, spec)
    state = new_basis_state(layout.num_qubits, encode_registers(layout, values))
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, metavar="WIDTH",
                       help="register width in qubits")
        p.add_argument("--emit-circuit", metavar="PATH",
                       help="write the executed circuit listing to PATH")
        p.add_argument("--json", action="store_true",
                       help="print the run report as JSON")

    p_add = sub.add_parser("add", help="in-place addition (a + b) mod 2^n")
    p_add.add_argument("a", type=int)
    p_add.add_argument("b", type=int)
    common(p_add)

    p_dec = sub.add_parser("dec", help="decrement (v - 1) mod 2^n")
    p_dec.add_argument("v", type=int)
    common(p_dec)

    p_mul = sub.add_parser("mul", help="multiplication x * y (exact)")
    p_mul.add_argument("x", type=int)
    p_mul.add_argument("y", type=int)
    common(p_mul)
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
