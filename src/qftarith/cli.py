"""Command-line front end: run add / dec / mul on the simulator and verify
every result against plain classical arithmetic.

``verified`` means the whole register contract holds: the output register
(``b``, ``v`` or ``accumulator``) equals :func:`oracle`, every other operand
register is unchanged, and for ``mul`` the stop qubit ``control`` reads 1.

Each command is declared once, in ``_COMMANDS``: its operands, options,
help line, oracle, layout and builder.  :func:`parse_args` and
:func:`oracle` read that table, and one runner, ``_run``, checks and
simulates every command for both :func:`main` and
:func:`qftarith.multiplier.multiply`: the width, then the layout and the
qubit budget before anything of size 2^n, then the operands, then the
sizing (``--acc-width``, ``--iterations``) before the build, then build,
run, read out and compare with the command's oracle.
What the shape of a command fixes (its name, width, ``--acc-width`` and
``--iterations``) is kept per shape in a bounded plan, ``_plan``: the
layout after its budget check, the multiplier spec and the register
widths.  A repeated shape skips that work but keeps the checks' order and
messages, and nothing that depends on an operand's value is kept.
Operands are checked once, by :func:`~qftarith.circuit.encode_registers`,
which raises :class:`~qftarith.errors.ValueTooWide`;
:class:`~qftarith.errors.OperandTooWide` is its alias.

A command line is ``qftarith COMMAND OPERAND... --n WIDTH [OPTION...]``,
with the operands and options in any order.  An option's value is the next
argument or follows ``=`` (``--n 3``, ``--n=3``); a long option may be cut
to any prefix that no other option of the command shares (``--it 2``).  An
argument such as ``-3`` is a value, not an option, and every argument after
``--`` is an operand.  Operands and integer values are read by ``int``, so
``1_0`` is 10.  ``-h``, or ``--help`` or a prefix of it, anywhere before
``--`` prints the help made from ``_COMMANDS`` and exits 0, whatever else
the line holds.  A usage error prints the usage line and
``qftarith COMMAND: error: ...`` to stderr and raises ``SystemExit(2)``.

Exit codes: 0 result verified, 1 simulator/oracle mismatch, 2 usage error
(bad operands, a register width below 1, bad multiplier sizing, qubit budget
exceeded, unknown flags, an ``--emit-circuit`` path that cannot be written,
the empty path included).

The ``--json`` flag prints the run report as a single JSON object::

    {"operation": str, "inputs": {str: int}, "widths": {str: int},
     "outputs": {str: int}, "gate_count": int, "wall_time": float,
     "verified": bool}

``--emit-circuit PATH`` writes the executed circuit in the text listing
format documented in :mod:`qftarith.circuit`.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn

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


class _Option(NamedTuple):
    dest: str             # the namespace attribute it sets
    metavar: str | None   # the value's name in the help; None for a switch, which sets True
    help: str
    type: Callable = int  # reads the value
    required: bool = False


_DESCRIPTION = ("Simulate Fourier-transform arithmetic circuits and "
                "verify the results against classical arithmetic.")
_OPTIONS = {  # long flag -> option
    "--n": _Option("n", "WIDTH", "register width in qubits", required=True),
    "--emit-circuit": _Option("emit_circuit", "PATH", "write the executed circuit listing to PATH",
                              str),
    "--json": _Option("json", None, "print the run report as JSON")}
_MUL_OPTIONS = {**_OPTIONS,
                "--acc-width": _Option("acc_width", "M", "accumulator width (default 2n)"),
                "--iterations": _Option("iterations", "K", "unroll count, 0 <= K <= 2^n - 1 "
                                        "(default 2^n - 1); fewer iterations truncate the "
                                        "product to x * min(y, K)")}


class _Command(NamedTuple):
    help: str                  # the subcommand's line in ``qftarith --help``
    operands: tuple[str, ...]  # registers loaded from the positional arguments, in order
    options: dict[str, _Option]  # long flag -> option
    output: str                # the register oracle() predicts
    oracle: Callable           # (*operands, n) -> the output register's classical value
    layout: Callable           # args -> RegisterLayout, computing nothing of size 2^n
    spec: Callable             # args -> MultiplierSpec or None, once the budget holds
    build: Callable            # (layout, spec) -> Circuit
    ends: dict[str, int]       # required end values of the remaining registers


# _run reads this table for both main() and multiplier.multiply(), and
# _plan keeps what its layout and spec columns give per shape.  The
# builders are called through this module's globals, not bound here, so
# perfbench/worker.py can wrap them by name.  The multiplier's memo sits
# behind that name, inside build_multiplier, so every call still reaches it.
_COMMANDS = {
    "add": _Command("in-place addition (a + b) mod 2^n", ("a", "b"), _OPTIONS, "b",
                    lambda a, b, n: (a + b) % (1 << n),
                    lambda args: RegisterLayout([("a", args.n), ("b", args.n)]),
                    lambda args: None,
                    lambda layout, _: build_adder(layout), {}),
    "dec": _Command("decrement (v - 1) mod 2^n", ("v",), _OPTIONS, "v",
                    lambda v, n: (v - 1) % (1 << n),
                    lambda args: RegisterLayout([("v", args.n)]),
                    lambda args: None,
                    lambda layout, _: build_decrement(layout, "v"), {}),
    "mul": _Command("multiplication x * y (exact)", ("x", "y"), _MUL_OPTIONS, "accumulator",
                    lambda x, y, n: x * y,
                    # the unroll count does not shape the layout
                    lambda args: multiplier_layout(_mul_spec(args, 0)),
                    lambda args: _mul_spec(args, (1 << args.n) - 1 if args.iterations is None
                                           else args.iterations),
                    lambda _, spec: build_multiplier(spec), {"control": 1}),
}


@lru_cache(maxsize=32, typed=True)
def _plan(name: str, n: int, acc_width: int | None, iterations: int | None
          ) -> tuple[RegisterLayout, MultiplierSpec | None, dict[str, int]]:
    """``(layout, spec, widths)`` of a command's shape, made by the table's
    columns and kept for the 32 keys last used: its layout once the qubit
    budget holds, then its sizing.  A shape that fails a check raises and
    is not kept.  Typed, so an argument of another type, such as a float or
    a bool that hashes equal to an int, never reads another's plan."""
    command = _COMMANDS[name]
    args = SimpleNamespace(n=n, acc_width=acc_width, iterations=iterations)
    layout = command.layout(args)
    _check_budget(layout.num_qubits)  # before anything computes 1 << n
    return layout, command.spec(args), layout.widths()


def _run(args) -> tuple[RunReport, Circuit]:
    """Check, build, run and verify one command.  What its shape fixes comes
    from :func:`_plan`, asked first with 0 iterations, which every valid
    layout admits, so the checks keep their order: the width, the layout
    and budget, the operands, the sizing.  Operands are never memoised, and
    the builder, state, run and readout are reached through this module's
    globals on every call."""
    command = _COMMANDS[args.command]
    values = {name: getattr(args, name) for name in command.operands}
    if not _is_integer(args.n):  # parse_args gives an int; multiply() may not
        raise SpecInvariantViolation(f"n must be an integer, got {args.n!r}")
    if args.n < 1:
        raise SpecInvariantViolation(f"--n must be at least 1, got {args.n}")
    shape = args.command, args.n, getattr(args, "acc_width", None)
    index = encode_registers(_plan(*shape, 0)[0], values)  # every operand, before the sizing
    # add and dec have no unroll count, so their two lookups are one key
    layout, spec, widths = _plan(*shape, getattr(args, "iterations", 0))
    start = time.perf_counter()
    circuit = command.build(layout, spec)
    state = new_basis_state(layout.num_qubits, index)
    run(circuit, state)
    outputs = decode_registers(layout, extract_basis_index(state, tol=1e-9))
    elapsed = time.perf_counter() - start
    expected = {**values, **command.ends,
                command.output: command.oracle(*values.values(), args.n)}
    report = RunReport(
        operation=args.command,
        inputs=values if spec is None else {**values, "iterations": spec.iterations},
        widths=widths.copy(),  # the report's own: a caller may change it
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


_HELP = {"-h", "--h", "--he", "--hel", "--help"}  # -h, and --help or a prefix of it
_DEFAULTS = {name: {o.dest: None if o.metavar else False for o in command.options.values()}
             for name, command in _COMMANDS.items()}


def _namespace(name: str, **values) -> SimpleNamespace:
    """The namespace ``_run`` takes for command ``name``: each of its options
    at its default, then ``values``."""
    return SimpleNamespace(**_DEFAULTS[name] | values, command=name)


def _help(name: str | None) -> str:
    """The help of command ``name``, or of ``qftarith`` for None, from the
    tables; its first line is the usage line."""
    if name is None:
        return "\n".join([f"usage: qftarith [-h] {{{','.join(_COMMANDS)}}} ...", "", _DESCRIPTION,
                          "", *(f"  {n}  {c.help}" for n, c in _COMMANDS.items())])
    command = _COMMANDS[name]
    rows = [(f"{flag} {o.metavar}" if o.metavar else flag, o)
            for flag, o in command.options.items()]
    usage = [row if o.required else f"[{row}]" for row, o in rows]
    return "\n".join([" ".join(["usage: qftarith", name, "[-h]", *usage, *command.operands]), "",
                      command.help, "", f"  {'-h, --help':<21}show this help and exit",
                      *(f"  {row:<21}{o.help}" for row, o in rows)])


def _fail(name: str | None, message: str) -> NoReturn:
    """Print the usage line and ``message`` to stderr, and exit 2."""
    prog = f"qftarith {name}" if name else "qftarith"
    print(_help(name).partition("\n")[0], f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _option(name: str, token: str) -> tuple[str, _Option, str | None] | None:
    """``(flag, option, the value after '=' or None)`` for a token that
    names an option of command ``name``, exactly or by a unique prefix, and
    None for an operand: a token that starts with no '-', is '-' or a
    negative number, or holds a space.  Any other token is a usage error."""
    options = _COMMANDS[name].options
    head, eq, value = token.partition("=")
    matches = ([head] if head in options else
               [flag for flag in options if flag.startswith(head)] if head[:2] == "--" else [])
    if len(matches) == 1:
        return matches[0], options[matches[0]], value if eq else None
    if not matches and (token[:1] != "-" or token == "-" or token[1:].isdecimal() or " " in token):
        return None
    _fail(name, f"ambiguous option: {token} could match {', '.join(matches)}" if matches
          else f"unrecognized arguments: {token}")


def _convert(name: str, what: str, convert: Callable, token: str):
    try:
        return convert(token)
    except ValueError:
        _fail(name, f"argument {what}: invalid {convert.__name__} value: {token!r}")


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """Read a command line (``sys.argv[1:]`` by default), by the grammar in
    the module docstring, into the namespace that :func:`main` runs."""
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    cut = argv.index("--") if "--" in argv else len(argv)  # every later token is an operand
    if not _HELP.isdisjoint(argv[:cut]):
        print(_help(name))
        raise SystemExit(0)
    if name is None:
        _fail(None, f"invalid command {argv[0]!r}" if argv
              else "the following arguments are required: command")
    command, args, operands, tokens = _COMMANDS[name], _namespace(name), [], iter(argv[1:cut])
    for token in tokens:
        found = _option(name, token)
        if found is None:
            operands.append(token)
            continue
        flag, option, value = found
        if option.metavar is None and value is not None:
            _fail(name, f"argument {flag}: ignored explicit argument {value!r}")
        if option.metavar and value is None:
            value = next(tokens, None)
            if value is None or _option(name, value):
                _fail(name, f"argument {flag}: expected one argument")
        setattr(args, option.dest,
                _convert(name, flag, option.type, value) if option.metavar else True)
    operands += argv[cut + 1:]
    extra = operands[len(command.operands):]
    missing = [*command.operands[len(operands):],
               *(flag for flag, o in command.options.items()
                 if o.required and getattr(args, o.dest) is None)]
    if missing or extra:
        _fail(name, f"the following arguments are required: {', '.join(missing)}" if missing
              else f"unrecognized arguments: {' '.join(extra)}")
    for operand, token in zip(command.operands, operands):
        setattr(args, operand, _convert(name, operand, int, token))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        report, circuit = _run(args)
        if args.emit_circuit is not None:
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
