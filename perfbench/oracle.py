"""Contract oracle for benchmark operations, independent of the CLI's own check.

The CLI's ``verified`` flag compares only the output register.  This oracle
checks every register the circuit leaves behind against plain integer
arithmetic, plus the exit code and the shape of the JSON report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# ``extract_basis_index`` accepts a result whose dominant probability is at
# least 1 - 1e-9; the traced run holds the final state to the same tolerance.
ACCURACY_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI operation: ``qftarith <kind> <operands...> --n <n> --json``."""

    kind: str
    operands: tuple[int, ...]
    n: int

    def argv(self) -> list[str]:
        return [self.kind, *map(str, self.operands), "--n", str(self.n), "--json"]


def expected_registers(op: Op) -> tuple[dict[str, int], dict[str, int]]:
    """(widths, outputs) that the circuit's full register contract requires."""
    n, mask = op.n, (1 << op.n) - 1
    if op.kind == "mul":
        x, y = op.operands
        return ({"accumulator": 2 * n, "x": n, "y": n, "control": 1},
                {"accumulator": x * y, "x": x, "y": y, "control": 1})
    if op.kind == "add":
        a, b = op.operands
        return {"a": n, "b": n}, {"a": a, "b": (a + b) & mask}
    if op.kind == "dec":
        (v,) = op.operands
        return {"v": n}, {"v": (v - 1) & mask}
    raise ValueError(f"unknown operation {op.kind!r}")


def check(op: Op, returncode: int | None, stdout: str) -> list[str]:
    """Every way the run of ``op`` broke its contract; empty when it held."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["no JSON report on stdout"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    widths, outputs = expected_registers(op)
    problems = []
    if report.get("operation") != op.kind:
        problems.append(f"operation {report.get('operation')!r}, expected {op.kind!r}")
    if report.get("widths") != widths:
        problems.append(f"widths {report.get('widths')}, expected {widths}")
    if report.get("outputs") != outputs:
        problems.append(f"outputs {report.get('outputs')}, expected {outputs}")
    return problems


def check_accuracy(norm_drift: float, off_basis_mass: float) -> list[str]:
    """Problems with the final state's norm or its mass off the result state."""
    problems = []
    if not norm_drift <= ACCURACY_TOL:
        problems.append(f"norm drift {norm_drift:.3e} exceeds {ACCURACY_TOL:g}")
    if not off_basis_mass <= ACCURACY_TOL:
        problems.append(f"off-basis mass {off_basis_mass:.3e} exceeds {ACCURACY_TOL:g}")
    return problems
