"""Compact states: fixed ``(qubit, bit)`` pairs plus a block over the other
qubits, as ``new_basis_state`` makes them and ``run`` leaves them.

``run`` from a compact basis state must agree with ``run`` from the same
basis state held densely and with the gate-by-gate reference; reading a
compact state must not expand it, except through ``amplitudes``; and a
basis-state run must hold only its populated slice in memory.
"""

import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qftarith.circuit as circuit_module
from conftest import circuits, run_gate_by_gate
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
from qftarith.errors import NotBasisState, QubitBudgetExceeded
from qftarith.multiplier import MultiplierSpec, build_multiplier, multiplier_layout, multiply
from qftarith.qstate import (
    StateVector,
    _compact,
    amplitude,
    extract_basis_index,
    new_basis_state,
    norm,
)

ATOL = 1e-12


def dense_basis_state(n: int, index: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


@pytest.mark.parametrize("fuse_from", [1, 100])
@pytest.mark.parametrize("path", ["cost model", "forced slicing"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_from_compact_matches_dense_and_reference(fuse_from, path, data):
    circuit, _ = data.draw(circuits())
    n = circuit.num_qubits
    index = data.draw(st.integers(0, (1 << n) - 1))
    pays = (lambda *_: True) if path == "forced slicing" else circuit_module._slicing_pays
    with mock.patch.object(circuit_module, "_FUSE_FROM_QUBITS", fuse_from), \
            mock.patch.object(circuit_module, "_slicing_pays", pays):
        compact = run(circuit, new_basis_state(n, index))
        dense = run(circuit, dense_basis_state(n, index))
    static = circuit_module._compile(circuit.gates, True)[2]
    assert [q for q, _ in compact._fixed] == static  # every static qubit stays fixed
    assert compact._block.size == 1 << (n - len(static))
    assert dense._fixed == ()
    expected = run_gate_by_gate(circuit, new_basis_state(n, index)).amplitudes
    np.testing.assert_allclose(compact.amplitudes, dense.amplitudes, rtol=0, atol=ATOL)
    np.testing.assert_allclose(compact.amplitudes, expected, rtol=0, atol=ATOL)


def _paper_cases(n: int):
    """(circuit, layout, inputs, expected outputs) for every input of the
    multiplier, the adder and the decrement at width n."""
    spec = MultiplierSpec.for_width(n)
    layout = multiplier_layout(spec)
    multiplier = build_multiplier(spec)
    for x, y in product(range(1 << n), repeat=2):
        yield multiplier, layout, {"x": x, "y": y}, {"accumulator": x * y, "x": x, "y": y,
                                                     "control": 1}
    layout = RegisterLayout([("a", n), ("b", n)])
    adder = build_adder(layout)
    for a, b in product(range(1 << n), repeat=2):
        yield adder, layout, {"a": a, "b": b}, {"a": a, "b": (a + b) % (1 << n)}
    layout = RegisterLayout([("v", n)])
    decrement = build_decrement(layout, "v")
    for v in range(1 << n):
        yield decrement, layout, {"v": v}, {"v": (v - 1) % (1 << n)}


@pytest.mark.parametrize("n", [2, 3])
def test_paper_circuits_every_input_from_compact_state(n):
    """Read out before anything expands the state, then compare the whole
    vector with a run from the dense basis state."""
    for circuit, layout, inputs, outputs in _paper_cases(n):
        index = encode_registers(layout, inputs)
        state = run(circuit, new_basis_state(layout.num_qubits, index))
        assert decode_registers(layout, extract_basis_index(state)) == outputs
        dense = run(circuit, dense_basis_state(layout.num_qubits, index))
        np.testing.assert_allclose(state.amplitudes, dense.amplitudes, rtol=0, atol=ATOL)


@st.composite
def compact_states(draw):
    """A compact state with random fixed pairs and a random block, and the
    same state written out index by index."""
    n = draw(st.integers(1, 6))
    qubits = draw(st.sets(st.integers(0, n - 1)))
    fixed = tuple((q, draw(st.integers(0, 1))) for q in sorted(qubits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << (n - len(fixed))
    block = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    block /= np.linalg.norm(block)
    full = np.zeros(1 << n, dtype=complex)
    position = 0
    for index in range(1 << n):
        bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
        if all(bits[q] == bit for q, bit in fixed):
            full[index] = block[position]  # the block runs in index order
            position += 1
    return _compact(n, fixed, block), full


class TestReadingCompactStates:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=compact_states())
    def test_amplitudes_expand_exactly_once(self, case):
        state, full = case
        amplitudes = state.amplitudes
        np.testing.assert_array_equal(amplitudes, full)
        assert state._fixed == ()
        assert state.amplitudes is amplitudes
        amplitudes[0] += 1.0  # the caller may write through it
        assert state.amplitudes[0] == full[0] + 1.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=compact_states())
    def test_norm_amplitude_and_copy_read_the_block(self, case):
        state, full = case
        fixed, block = state._fixed, state._block
        assert norm(state) == pytest.approx(np.linalg.norm(full), abs=ATOL)
        for index in range(full.size):
            assert amplitude(state, index) == full[index]
        duplicate = state.copy()
        assert state._fixed == fixed and state._block is block  # nothing expanded
        assert duplicate._fixed == fixed and duplicate._block is not block
        duplicate._block[0] += 1.0
        assert state._block[0] == full[np.flatnonzero(full)[0]]
        np.testing.assert_array_equal(state.amplitudes, full)

    @pytest.mark.parametrize("index", [0, 5, 11])
    def test_extract_basis_index_reads_the_block(self, index):
        state = new_basis_state(4, index)
        assert extract_basis_index(state) == index
        assert len(state._fixed) == 4 and state._block.size == 1

    def test_superposition_left_compact_is_not_a_basis_state(self):
        """A lone H on qubit 2; qubit 0 is static, so it stays fixed."""
        circuit = Circuit(3, (Gate.hadamard(2), Gate.phase(Fraction(1, 4), 0)))
        state = run(circuit, new_basis_state(3, 0b101))
        assert state._fixed == ((0, 1),)
        with pytest.raises(NotBasisState, match="max \\|amp\\|\\^2 = 0.500000"):
            extract_basis_index(state)
        assert amplitude(state, 0b100) == pytest.approx(0.5**0.5 * 1j)
        assert amplitude(state, 0b101) == pytest.approx(-(0.5**0.5) * 1j)
        assert amplitude(state, 0b001) == 0


class TestMemory:
    """tracemalloc peaks: a basis-state run holds its populated slice only."""

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_multiply_n5_holds_its_slice_not_the_state(self):
        """21 qubits: the dense state would take 32 MiB, the x slice 1 MiB."""
        spec = MultiplierSpec.for_width(5)
        layout = multiplier_layout(spec)
        circuit = build_multiplier(spec)
        result = {}

        def multiply_once():
            state = new_basis_state(layout.num_qubits,
                                    encode_registers(layout, {"x": 29, "y": 27}))
            run(circuit, state)
            result.update(decode_registers(layout, extract_basis_index(state)))

        assert self._peak(multiply_once) < 8 << 20
        assert result == {"accumulator": 783, "x": 29, "y": 27, "control": 1}

    def test_basis_state_on_24_qubits_allocates_nothing_of_size_2n(self):
        assert self._peak(lambda: new_basis_state(24, 0xABCDEF)) < 1 << 20

    def test_budget_still_counts_the_whole_register(self, capsys):
        """An n=6 multiply's slice would fit, but the budget bounds all 25
        qubits, before anything is built."""
        assert self._peak(lambda: main(["mul", "1", "1", "--n", "6"])) < 1 << 20
        assert capsys.readouterr().err == (
            "error: 25 qubits would need 2^25 complex amplitudes (2^29 bytes); "
            "the budget is 24 qubits\n"
        )
        with pytest.raises(QubitBudgetExceeded, match="budget is 24 qubits"):
            multiply(1, 1, 6)
