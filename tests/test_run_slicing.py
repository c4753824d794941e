"""``run`` on one tensor: equal to the gate-by-gate reference and to the
dense matrices, and sized as the classical bits promise.

Random circuits run from basis, sparse and dense inputs.  Below the fusion
threshold ``run`` is the replay: every input, dense or compact, gets the
reference's kernel calls on the full vector, so it must agree bitwise.
Above it, from ``new_basis_state`` the
qubits that gates only control or phase stay bits, so the kernels see only
the amplitudes over the other qubits.
"""

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qftarith.circuit as circuit_module
from conftest import (
    circuit_matrix,
    circuits,
    fixed_pairs,
    held_amplitudes,
    random_state,
    run_gate_by_gate,
)
from qftarith.arith import build_adder, build_decrement
from qftarith.circuit import (
    Circuit,
    Gate,
    RegisterLayout,
    decode_registers,
    encode_registers,
    run,
)
from qftarith.cli import main
from qftarith.multiplier import MultiplierSpec, build_multiplier, multiplier_layout
from qftarith.qstate import StateVector, extract_basis_index, new_basis_state

ATOL = 1e-12
UNFUSED_BELOW = circuit_module._FUSE_FROM_QUBITS


# The random circuits below are all smaller than the size below which
# ``run`` is the gate-by-gate replay.
pytestmark = pytest.mark.usefixtures("fuse_small_circuits")


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


@pytest.mark.parametrize("inputs", ["basis", "sparse", "dense"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_matches_gate_by_gate_and_dense_matrix(inputs, data):
    circuit, amps = data.draw(cases(inputs))
    expected = run_gate_by_gate(circuit, StateVector(circuit.num_qubits, amps)).amplitudes
    state = StateVector(circuit.num_qubits, amps)
    run(circuit, state)
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
    np.testing.assert_allclose(state.amplitudes, circuit_matrix(circuit) @ amps, rtol=0, atol=ATOL)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=circuits(), seed=st.integers(0, 2**32 - 1), compact=st.booleans())
def test_dense_run_below_fusion_is_bitwise_equal_to_reference(case, seed, compact):
    """No compiled step and no classical qubit: ``run`` makes the
    reference's kernel calls on the full vector, from a dense input or from
    a compact basis state."""
    circuit, _ = case
    n = circuit.num_qubits
    assert n < UNFUSED_BELOW
    rng = np.random.default_rng(seed)
    if compact:
        prepare = partial(new_basis_state, n, int(rng.integers(1 << n)))
    else:
        prepare = partial(StateVector, n, random_state(n, rng))
    with mock.patch.object(circuit_module, "_FUSE_FROM_QUBITS", UNFUSED_BELOW):
        state = run(circuit, prepare())
    assert fixed_pairs(state) == ()
    expected = run_gate_by_gate(circuit, prepare())
    np.testing.assert_array_equal(state.amplitudes, expected.amplitudes)


def test_two_equal_phases_after_a_hadamard_are_bitwise_equal_to_reference(monkeypatch):
    """numpy rounds the phases' multiply on a strided 2-element view of
    qubit 1 differently, by 2.3e-17 at index 1, so ``run`` must keep the
    reference's contiguous array."""
    monkeypatch.undo()
    circuit = Circuit(2, (Gate.phase(0, 0), Gate.hadamard(1),
                          Gate.phase(Fraction(3, 8), 1), Gate.phase(Fraction(3, 8), 1)))
    state = run(circuit, StateVector(2, [1, 0, 0, 0]))
    expected = run_gate_by_gate(circuit, StateVector(2, [1, 0, 0, 0]))
    np.testing.assert_array_equal(state.amplitudes, expected.amplitudes)


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

    def test_multiplier_fuses_every_add_and_dec_block(self, kernel_calls):
        """Each ``add[...]`` block is one diagonal, each ``dec[...]`` block
        one shift and each accumulator transform one FFT; only the zero
        checks run gate by gate."""
        n = 4
        spec = MultiplierSpec.for_width(n)
        layout = multiplier_layout(spec)
        state = new_basis_state(layout.num_qubits, encode_registers(layout, {"x": 9, "y": 14}))
        self._run_in_place(build_multiplier(spec), state)
        blocks = 1 << n
        assert Counter(name for name, _ in kernel_calls) == {
            "_diagonal": blocks - 1,     # add[iter 1..15]
            "_shift": blocks,            # dec[iter 1..15], dec[restore]
            "_exchange": blocks,         # check[0..15]
            "_fourier": 2,               # qft and iqft on the accumulator
        }
        assert decode_registers(layout, extract_basis_index(state))["accumulator"] == 126

    def test_decrement_makes_no_per_gate_kernel_call(self, kernel_calls, capsys):
        """A basis input keeps the register as bits: the shift adds to them."""
        assert main(["dec", "5", "--n", "12"]) == 0
        assert "v=4" in capsys.readouterr().out
        assert kernel_calls == []

    def test_adder_runs_on_the_destination_register(self, kernel_calls):
        """From a basis state a, which the adder only reads, stays bits, and
        the register sandwich adds it to b's bits: no kernel call."""
        n = 6
        layout = RegisterLayout([("a", n), ("b", n)])
        state = new_basis_state(2 * n, encode_registers(layout, {"a": 45, "b": 30}))
        run(build_adder(layout), state)
        assert kernel_calls == [] and len(fixed_pairs(state)) == 2 * n
        assert decode_registers(layout, extract_basis_index(state)) == {"a": 45, "b": 11}

    def test_cli_add_makes_no_kernel_call(self, kernel_calls, capsys):
        assert main(["add", "5", "9", "--n", "10"]) == 0
        assert "b=14" in capsys.readouterr().out
        assert kernel_calls == []

    def test_n5_basis_state_multiply_makes_no_kernel_call(self, kernel_calls):
        """The accumulator's transform opens a frame, each addition adds to
        its bits and the inverse transform closes it; everything else is bit
        arithmetic too, so the state holds its one amplitude throughout."""
        spec = MultiplierSpec.for_width(5)
        layout = multiplier_layout(spec)
        index = encode_registers(layout, {"x": 31, "y": 31})
        state = run(build_multiplier(spec), new_basis_state(layout.num_qubits, index))
        assert kernel_calls == []
        assert held_amplitudes(state) == 1
        assert decode_registers(layout, extract_basis_index(state)) == {
            "accumulator": 961, "x": 31, "y": 31, "control": 1}

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

    def test_all_static_circuit_runs_on_zero_qubit_slices(self, kernel_calls):
        """PHASE gates only, so from a basis state every qubit stays a bit
        and every kernel sees the one amplitude."""
        n = 5
        circuit = Circuit(n, (
            Gate.phase(Fraction(1, 4), 0, ((1, 1),), "a"),
            Gate.phase(Fraction(-3, 8), 2, ((0, 0), (4, 1)), "b"),
            Gate.phase(0.3, 3, (), "a"),
            Gate.phase(Fraction(1, 2), 1, ((3, 1),), "c"),
            Gate.phase(Fraction(1, 8), 4, ((2, 0),), "b"),
            Gate.phase(Fraction(1, 16), 0, (), "b"),
        ))
        for index in (0b00011, 0b01010, 0b10110, 0b11111):
            state = run(circuit, new_basis_state(n, index))
            assert len(fixed_pairs(state)) == n
            expected = run_gate_by_gate(circuit, new_basis_state(n, index)).amplitudes
            np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
        assert kernel_calls and {size for _, size in kernel_calls} == {1}
