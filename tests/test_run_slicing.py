"""``run`` on slices of static qubits: equal to the gate-by-gate reference
and to the dense matrices, and sized as the slicing promises.

A static qubit is one that gates only control or phase, never move; ``run``
simulates each populated value of those qubits on its own slice when its
cost model says that pays.  The equivalence tests run every input twice:
once as the cost model chooses, once with slicing forced, so the sliced
path is also checked on dense inputs where the model would refuse it.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qftarith.circuit as circuit_module
from conftest import circuit_matrix, circuits, random_state, run_gate_by_gate
from qftarith.arith import build_adder, build_decrement
from qftarith.circuit import (
    Circuit,
    Gate,
    GateKind,
    RegisterLayout,
    decode_registers,
    encode_registers,
    run,
)
from qftarith.cli import main
from qftarith.multiplier import MultiplierSpec, build_multiplier, multiplier_layout
from qftarith.qstate import StateVector, extract_basis_index, new_basis_state

ATOL = 1e-12


@pytest.fixture(autouse=True)
def fuse_small_circuits(monkeypatch):
    """Fuse at every size, so the random circuits below, all smaller than
    the size below which ``run`` keeps to the gates, test the fused steps."""
    monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)


@pytest.mark.parametrize("fuse", [False, True])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=circuits())
def test_compile_finds_the_static_qubits(fuse, case):
    """``_compile`` reads only each distinct block, yet finds the qubits
    that some gate uses and no H, X or SWAP targets, over every gate."""
    circuit, _ = case
    used = {q for g in circuit.gates for q in (*g.targets, *(c for c, _ in g.controls))}
    moved = {q for g in circuit.gates if g.kind is not GateKind.PHASE for q in g.targets}
    static = circuit_module._compile(circuit.gates, fuse)[2]
    assert static == sorted(used - moved)


@pytest.mark.parametrize("fuse", [False, True])
def test_static_qubits_of_the_paper_circuits(fuse):
    """The multiplier's x register and the adder's source register a."""
    spec = MultiplierSpec.for_width(4)
    static = circuit_module._compile(build_multiplier(spec).gates, fuse)[2]
    assert static == list(multiplier_layout(spec)["x"])
    layout = RegisterLayout([("a", 3), ("b", 3)])
    assert circuit_module._compile(build_adder(layout).gates, fuse)[2] == list(layout["a"])


def _sparse_state(draw, n, static):
    """2-3 basis states that differ in the static qubits, random weights."""
    count = min(draw(st.integers(2, 3)), 1 << len(static))
    values = draw(st.lists(st.integers(0, (1 << len(static)) - 1),
                           min_size=count, max_size=count, unique=True))
    amps = np.zeros(1 << n, dtype=complex)
    for value in values:
        index = draw(st.integers(0, (1 << n) - 1))
        for j, q in enumerate(static):
            bit = (value >> (len(static) - 1 - j)) & 1
            mask = 1 << (n - 1 - q)
            index = (index | mask) if bit else (index & ~mask)
        amps[index] += complex(draw(st.floats(0.1, 1)), draw(st.floats(-1, 1)))
    return amps / np.linalg.norm(amps)


@st.composite
def cases(draw, inputs):
    circuit, static = draw(circuits())
    n = circuit.num_qubits
    if inputs == "basis":
        amps = np.zeros(1 << n, dtype=complex)
        amps[draw(st.integers(0, (1 << n) - 1))] = 1.0
    elif inputs == "sparse":
        amps = _sparse_state(draw, n, static)
    else:
        amps = random_state(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return circuit, amps


@pytest.mark.parametrize("path", ["cost model", "forced slicing"])
@pytest.mark.parametrize("inputs", ["basis", "sparse", "dense"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_matches_gate_by_gate_and_dense_matrix(path, inputs, data):
    circuit, amps = data.draw(cases(inputs))
    expected = run_gate_by_gate(circuit, StateVector(circuit.num_qubits, amps)).amplitudes
    state = StateVector(circuit.num_qubits, amps)
    pays = (lambda *_: True) if path == "forced slicing" else circuit_module._slicing_pays
    with mock.patch.object(circuit_module, "_slicing_pays", pays):
        run(circuit, state)
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
    np.testing.assert_allclose(state.amplitudes, circuit_matrix(circuit) @ amps, rtol=0, atol=ATOL)


def _assert_run_matches_reference(circuit, index):
    state = new_basis_state(circuit.num_qubits, index)
    expected = run_gate_by_gate(circuit, new_basis_state(circuit.num_qubits, index))
    run(circuit, state)
    np.testing.assert_allclose(state.amplitudes, expected.amplitudes, rtol=0, atol=ATOL)


@pytest.mark.parametrize("n", [2, 3])
def test_multiplier_every_input_matches_reference(n):
    spec = MultiplierSpec.for_width(n)
    layout = multiplier_layout(spec)
    circuit = build_multiplier(spec)
    for x in range(1 << n):
        for y in range(1 << n):
            _assert_run_matches_reference(circuit, encode_registers(layout, {"x": x, "y": y}))


def test_small_circuit_stays_bitwise_equal_to_reference(monkeypatch):
    """Below ``_FUSE_FROM_QUBITS`` every block runs as gates, through the
    same arithmetic as the public kernels."""
    monkeypatch.undo()
    spec = MultiplierSpec.for_width(2)
    layout = multiplier_layout(spec)
    assert layout.num_qubits < circuit_module._FUSE_FROM_QUBITS
    circuit = build_multiplier(spec)
    for x, y, stop in product(range(4), range(4), range(2)):
        index = encode_registers(layout, {"x": x, "y": y, "control": stop})
        state = new_basis_state(circuit.num_qubits, index)
        run(circuit, state)
        expected = run_gate_by_gate(circuit, new_basis_state(circuit.num_qubits, index))
        np.testing.assert_array_equal(state.amplitudes, expected.amplitudes)


def test_adder_and_decrement_every_input_match_reference():
    adder_layout = RegisterLayout([("a", 3), ("b", 3)])
    adder = build_adder(adder_layout)
    for index in range(1 << 6):
        _assert_run_matches_reference(adder, index)
    decrement = build_decrement(RegisterLayout([("v", 3)]), "v")
    for index in range(1 << 3):
        _assert_run_matches_reference(decrement, index)


class TestSliceSizes:
    """Which arrays reach the kernels, and which kernels: counts, not timings."""

    @staticmethod
    def _run_in_place(circuit, state):
        amplitudes = state.amplitudes
        assert run(circuit, state) is state
        assert state.amplitudes is amplitudes

    def test_multiplier_runs_on_one_slice_per_x(self, kernel_calls):
        n = 4
        spec = MultiplierSpec.for_width(n)
        layout = multiplier_layout(spec)
        state = new_basis_state(layout.num_qubits, encode_registers(layout, {"x": 13, "y": 11}))
        self._run_in_place(build_multiplier(spec), state)
        assert kernel_calls and max(size for _, size in kernel_calls) <= 1 << (3 * n + 1)
        outputs = decode_registers(layout, extract_basis_index(state))
        assert outputs == {"accumulator": 143, "x": 13, "y": 11, "control": 1}

    def test_multiplier_fuses_every_add_and_dec_block(self, kernel_calls):
        """Each ``add[...]`` block is one diagonal and each ``dec[...]`` block
        one shift; only the accumulator's two transforms and the zero checks
        run gate by gate."""
        n = 4
        spec = MultiplierSpec.for_width(n)
        layout = multiplier_layout(spec)
        state = new_basis_state(layout.num_qubits, encode_registers(layout, {"x": 9, "y": 14}))
        self._run_in_place(build_multiplier(spec), state)
        m, blocks = spec.m, 1 << n
        assert Counter(name for name, _ in kernel_calls) == {
            "_diagonal": blocks - 1,     # add[iter 1..15]
            "_shift": blocks,            # dec[iter 1..15], dec[restore]
            "_x": blocks,                # check[0..15]
            "_hadamard": 2 * m,          # qft and iqft on the accumulator
            "_phase": m * (m - 1),
        }
        assert decode_registers(layout, extract_basis_index(state))["accumulator"] == 126

    def test_decrement_makes_no_per_gate_kernel_call(self, kernel_calls, capsys):
        """A basis input keeps the register as bits: the shift adds to them."""
        assert main(["dec", "5", "--n", "12"]) == 0
        assert "v=4" in capsys.readouterr().out
        assert kernel_calls == []

    def test_adder_runs_on_the_destination_register(self, kernel_calls):
        n = 6
        layout = RegisterLayout([("a", n), ("b", n)])
        state = new_basis_state(2 * n, encode_registers(layout, {"a": 45, "b": 30}))
        self._run_in_place(build_adder(layout), state)
        assert kernel_calls and max(size for _, size in kernel_calls) <= 1 << n
        assert decode_registers(layout, extract_basis_index(state)) == {"a": 45, "b": 11}

    def test_diagonal_circuit_on_dense_state_runs_whole(self, kernel_calls):
        n = 10
        gates = tuple(
            Gate.phase(Fraction(1, 1 << (q % 4 + 1)), q, controls=(((q + 1) % n, q % 2),))
            for q in range(n)
        )
        circuit = Circuit(n, gates)
        amps = random_state(n, np.random.default_rng(5))
        state = StateVector(n, amps)
        self._run_in_place(circuit, state)
        assert kernel_calls == [("_diagonal", 1 << n)]  # the phase-only block, once
        expected = run_gate_by_gate(circuit, StateVector(n, amps)).amplitudes
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)

    @staticmethod
    def _weighted(n, indices, seed):
        """Random complex weights on the given basis indices, normalised."""
        rng = np.random.default_rng(seed)
        amps = np.zeros(1 << n, dtype=complex)
        amps[indices] = rng.standard_normal(len(indices)) + 1j * rng.standard_normal(len(indices))
        return amps / np.linalg.norm(amps)

    @pytest.mark.parametrize("fuse_from", [1, 100])
    def test_all_static_circuit_runs_on_zero_qubit_slices(self, kernel_calls, monkeypatch,
                                                          fuse_from):
        """PHASE gates only, so every qubit is static and each slice is one
        amplitude: a 0-d view of the state."""
        monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", fuse_from)
        monkeypatch.setattr(circuit_module, "_slicing_pays", lambda *_: True)
        n = 5
        circuit = Circuit(n, (
            Gate.phase(Fraction(1, 4), 0, ((1, 1),), "a"),
            Gate.phase(Fraction(-3, 8), 2, ((0, 0), (4, 1)), "b"),
            Gate.phase(0.3, 3, (), "a"),
            Gate.phase(Fraction(1, 2), 1, ((3, 1),), "c"),
            Gate.phase(Fraction(1, 8), 4, ((2, 0),), "b"),
            Gate.phase(Fraction(1, 16), 0, (), "b"),
        ))
        amps = self._weighted(n, [0b00011, 0b01010, 0b10110, 0b11111], seed=7)
        state = StateVector(n, amps)
        self._run_in_place(circuit, state)
        assert kernel_calls and {size for _, size in kernel_calls} == {1}
        expected = run_gate_by_gate(circuit, StateVector(n, amps)).amplitudes
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)

    def test_one_slice_per_populated_value_of_split_static_qubits(self, kernel_calls,
                                                                   monkeypatch):
        """Static qubits 0, 1 and 4 form two runs apart; each of the k
        populated values of their bits runs the four H gates once, on a
        strided slice of the four free qubits."""
        monkeypatch.setattr(circuit_module, "_slicing_pays", lambda *_: True)
        n = 7
        circuit = Circuit(n, (
            *(Gate.hadamard(q, label="h") for q in (2, 3, 5, 6)),
            Gate.phase(Fraction(1, 4), 0, ((5, 1),), "p"),
            Gate.phase(Fraction(-1, 8), 4, ((1, 0), (2, 1)), "p"),
            Gate.x(6, ((1, 1),), "x"),
            Gate.phase(Fraction(3, 8), 3, ((4, 1),), "p"),
        ))
        # static bits (q0, q1, q4): 011, 100 and 111, two amplitudes each
        indices = [0b0100100, 0b0100111, 0b1001001, 0b1010000, 0b1101110, 0b1111111]
        k = 3
        amps = self._weighted(n, indices, seed=11)
        state = StateVector(n, amps)
        self._run_in_place(circuit, state)
        hadamards = [size for name, size in kernel_calls if name == "_hadamard"]
        assert hadamards == [1 << 4] * (4 * k)
        expected = run_gate_by_gate(circuit, StateVector(n, amps)).amplitudes
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
