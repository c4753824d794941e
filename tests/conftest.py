"""Shared oracle helpers for the test suite.

These build gates and circuits as explicit dense matrices, index by index,
on purpose: they share nothing with the view-slicing kernels under test
except the bit-order convention (qubit 0 = most significant bit), so they
serve as an independent cross-check.  :func:`run_gate_by_gate` is the
reference for ``run``: every gate through the public ``apply_*`` kernels on
the whole state, with no slicing.  :func:`build_parser` is the argparse
parser the CLI once used, kept as the reference for ``cli.parse_args``.
"""

import argparse
import math
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest
from hypothesis import strategies as st

import qftarith.circuit as circuit_module
from qftarith.circuit import Circuit, Gate, GateKind
from qftarith.qstate import StateVector, apply_hadamard, apply_phase, apply_swap, apply_x

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def bit_of(index: int, qubit: int, num_qubits: int) -> int:
    return (index >> (num_qubits - 1 - qubit)) & 1


def fixed_pairs(state: StateVector) -> tuple[tuple[int, int], ...]:
    """A state's fixed qubits as ``(qubit, bit)`` pairs in qubit order:
    every qubit of a basis state, decoded from its index, and none of a
    dense state."""
    n, index = state.num_qubits, state._index
    return () if index is None else tuple((q, bit_of(index, q, n)) for q in range(n))


def held_amplitudes(state: StateVector) -> int:
    """How many amplitudes a state holds: one for a basis state, whose one
    nonzero amplitude is the 1 at its index, else the size of its vector."""
    return 1 if state._index is not None else state._block.size


class NoNumpy:
    """A stand-in for ``qftarith.qstate.np`` that fails on any use: patched
    in, it shows that a run reads no numpy, as if numpy were not loaded."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


def bit_reverse(index: int, width: int) -> int:
    return int(format(index, f"0{width}b")[::-1], 2)


def dense_gate_matrix(gate: Gate, num_qubits: int) -> np.ndarray:
    """Explicit 2^n x 2^n matrix for one gate, built by basis enumeration."""
    dim = 1 << num_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        if any(bit_of(col, q, num_qubits) != pol for q, pol in gate.controls):
            mat[col, col] = 1.0
            continue
        if gate.kind is GateKind.PHASE:
            tbit = bit_of(col, gate.targets[0], num_qubits)
            mat[col, col] = (
                np.exp(2j * np.pi * float(Fraction(gate.phase_turns) % 1)) if tbit else 1.0
            )
        elif gate.kind is GateKind.X:
            flipped = col ^ (1 << (num_qubits - 1 - gate.targets[0]))
            mat[flipped, col] = 1.0
        elif gate.kind is GateKind.HADAMARD:
            mask = 1 << (num_qubits - 1 - gate.targets[0])
            tbit = bit_of(col, gate.targets[0], num_qubits)
            mat[col ^ mask, col] = _INV_SQRT2
            mat[col, col] = _INV_SQRT2 if tbit == 0 else -_INV_SQRT2
        elif gate.kind is GateKind.SWAP:
            a, b = gate.targets
            ba, bb = bit_of(col, a, num_qubits), bit_of(col, b, num_qubits)
            if ba == bb:
                mat[col, col] = 1.0
            else:
                swapped = col ^ (1 << (num_qubits - 1 - a)) ^ (1 << (num_qubits - 1 - b))
                mat[swapped, col] = 1.0
        else:  # pragma: no cover
            raise AssertionError(f"unhandled kind {gate.kind}")
    return mat


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a whole circuit (left-multiplying gate matrices)."""
    dim = 1 << circuit.num_qubits
    mat = np.eye(dim, dtype=np.complex128)
    for gate in circuit.gates:
        mat = dense_gate_matrix(gate, circuit.num_qubits) @ mat
    return mat


def dft_matrix(width: int) -> np.ndarray:
    """Unitary DFT with omega = exp(2*pi*i / 2**width)."""
    dim = 1 << width
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / math.sqrt(dim)


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random normalized amplitude vector."""
    amps = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return amps / np.linalg.norm(amps)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser as it was before ``cli.parse_args`` replaced
    it: the reference whose values, or exit 2, ``parse_args`` must match."""
    from qftarith.cli import _COMMANDS

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


def run_gate_by_gate(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply the gates in order, one validating public kernel call each."""
    for g in circuit.gates:
        if g.kind is GateKind.HADAMARD:
            apply_hadamard(state, g.targets[0], g.controls)
        elif g.kind is GateKind.PHASE:
            apply_phase(state, g.targets[0], g.phase_turns, g.controls)
        elif g.kind is GateKind.X:
            apply_x(state, g.targets[0], g.controls)
        else:
            apply_swap(state, g.targets[0], g.targets[1], g.controls)
    return state


@pytest.fixture
def fuse_small_circuits(monkeypatch):
    """Compile at every size, so circuits smaller than the size below which
    ``run`` is the gate-by-gate replay test the compiled steps.  Test
    modules take it through ``pytestmark``."""
    monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)


def step_kinds(circuit: Circuit) -> list[str]:
    """The resolve function's name of each block in ``circuit``'s program,
    such as ``"_shift_kernels"`` or ``"_gate_kernels"``."""
    steps, program = circuit_module._compile(circuit.num_qubits, circuit.gates)
    return [steps[i].resolve.func.__name__ for i in program]


@pytest.fixture
def kernel_calls(monkeypatch):
    """``(kernel name, psi.size)`` for every kernel call ``run`` makes."""
    calls = []
    for name in ("_phase", "_hadamard", "_exchange", "_shift", "_diagonal", "_fourier"):
        def recording(psi, *args, _kernel=getattr(circuit_module, name), _name=name):
            calls.append((_name, psi.size))
            return _kernel(psi, *args)
        monkeypatch.setattr(circuit_module, name, recording)
    return calls


def classical_by_rule(circuit: Circuit) -> list[int]:
    """The qubits a compiled ``run`` keeps as bits when it starts from a
    basis state, found from the circuit's gates: all of them while every
    label block, walked in order, is a word step, and none from the first
    block that is not.

    A permutation block (X and SWAP gates only, or a Fourier block with
    both transforms, which ``_fourier_block`` recognises and
    tests/test_run_fusion.py holds to modular addition) is a word step.  So
    is a block that is the forward transform alone, on two or more qubits,
    while no frame is held: it opens a frame on its register.  While the
    frame is held, a block that uses none of the register passes by, and
    is a word step if it is a permutation; one that parses on the register
    as kick groups, possibly followed by the inverse transform, is a word
    step, and the inverse transform closes the frame.  Any other block that
    uses the register is not a word step, and a frame still held at the
    end of the circuit expands the state too."""
    frame = None
    for _, group in groupby(circuit.gates, key=lambda g: g.label):
        gates = list(group)
        used = {q for g in gates for q in (*g.targets, *(c for c, _ in g.controls))}
        key = tuple(map(circuit_module._gate_key, gates))
        fourier = circuit_module._fourier_block(key)
        if frame is not None and used & set(frame):
            kicks = circuit_module._fourier_block(key, (frame[0], len(frame)))
            if kicks is None or kicks[2]:
                return []
            frame = None if kicks[4] else frame
        elif (frame is None and fourier is not None and fourier[2] and not fourier[3]
              and not fourier[4] and fourier[1] >= 2):
            frame = range(fourier[0], fourier[0] + fourier[1])
        elif not (all(g.kind in (GateKind.X, GateKind.SWAP) for g in gates)
                  or fourier is not None and fourier[2] and fourier[4]):
            return []
    return [] if frame is not None else list(range(circuit.num_qubits))


PHASES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 4), Fraction(3, 8)]),
    st.floats(-1, 1, allow_nan=False),
)


@st.composite
def circuits(draw):
    """A circuit on 2..7 qubits whose 'static' qubits are only ever controls
    (of either polarity) or PHASE targets; the rest may be moved too.

    Gates carry random labels, so ``run`` cuts the circuit into blocks of
    one label: some are PHASE-only and run as one diagonal, and repeated
    blocks share one compiled step."""
    n = draw(st.integers(2, 7))
    static = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    moving = [q for q in range(n) if q not in static]
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        label = draw(st.sampled_from([None, "p", "q"]))
        kind = draw(st.sampled_from(["PHASE", "PHASE", "H", "X", "SWAP"]))
        if kind == "SWAP" and len(moving) < 2:
            kind = "PHASE"
        if kind == "PHASE":
            targets = [draw(st.integers(0, n - 1))]
        else:
            targets = draw(st.lists(st.sampled_from(moving), min_size=1 + (kind == "SWAP"),
                                    max_size=1 + (kind == "SWAP"), unique=True))
        others = [q for q in range(n) if q not in targets]
        picked = draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
        controls = tuple((q, draw(st.integers(0, 1))) for q in picked)
        if kind == "PHASE":
            gates.append(Gate.phase(draw(PHASES), targets[0], controls, label))
        elif kind == "H":
            gates.append(Gate.hadamard(targets[0], controls, label))
        elif kind == "X":
            gates.append(Gate.x(targets[0], controls, label))
        else:
            gates.append(Gate.swap(targets[0], targets[1], controls, label))
    if draw(st.booleans()):  # a repeated block, compiled once
        gates += gates[-draw(st.integers(1, len(gates))):]
    return Circuit(n, tuple(gates)), sorted(static)
