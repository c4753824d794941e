"""Compact states: a fixed ``(mask, value)`` word plus a block over the
other qubits, as ``new_basis_state`` makes them and ``run`` leaves them.

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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qftarith.circuit as circuit_module
from conftest import (
    circuit_matrix,
    circuits,
    classical_by_rule,
    fixed_pairs,
    fixed_word,
    held_amplitudes,
    run_gate_by_gate,
    step_kinds,
)
from qftarith.arith import build_adder, build_decrement, build_fourier_add_constant
from qftarith.circuit import (
    Circuit,
    Gate,
    RegisterLayout,
    concat,
    decode_registers,
    encode_registers,
    labeled,
    run,
)
from qftarith.cli import main
from qftarith.errors import NotBasisState, QubitBudgetExceeded
from qftarith.multiplier import MultiplierSpec, build_multiplier, multiplier_layout, multiply
from qftarith.qft import build_inverse_qft, build_qft
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
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_from_compact_matches_dense_and_reference(fuse_from, data):
    """Compiled, the compact run keeps the qubits of the rule as bits; as
    the replay, below the threshold, it keeps none and is bitwise equal."""
    circuit, _ = data.draw(circuits())
    n = circuit.num_qubits
    index = data.draw(st.integers(0, (1 << n) - 1))
    with mock.patch.object(circuit_module, "_FUSE_FROM_QUBITS", fuse_from):
        compact = run(circuit, new_basis_state(n, index))
        dense = run(circuit, dense_basis_state(n, index))
    classical = classical_by_rule(circuit) if n >= fuse_from else []
    assert [q for q, _ in fixed_pairs(compact)] == classical
    assert held_amplitudes(compact) == 1 << (n - len(classical))
    assert fixed_pairs(dense) == ()
    expected = run_gate_by_gate(circuit, new_basis_state(n, index)).amplitudes
    np.testing.assert_allclose(compact.amplitudes, dense.amplitudes, rtol=0, atol=ATOL)
    np.testing.assert_allclose(compact.amplitudes, expected, rtol=0, atol=ATOL)
    if n < fuse_from:
        np.testing.assert_array_equal(compact.amplitudes, expected)


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


class TestClassicalQubits:
    """Fixed qubits that only shifts and X or SWAP blocks move stay bits."""

    def test_multiplier_keeps_x_counter_and_stop_qubit_as_bits(self, kernel_calls):
        """n = 4: every decrement and zero check acts on the bits, and the
        accumulator is a frame from its transform to its inverse, each
        addition one add on its bits: no kernel is called."""
        n = 4
        spec = MultiplierSpec.for_width(n)
        layout = multiplier_layout(spec)
        state = new_basis_state(layout.num_qubits, encode_registers(layout, {"x": 13, "y": 11}))
        run(build_multiplier(spec), state)
        assert kernel_calls == []
        fixed = dict(fixed_pairs(state))
        assert sorted(fixed) == list(range(layout.num_qubits))
        bits = sum(bit << (layout.num_qubits - 1 - q) for q, bit in fixed.items())
        assert decode_registers(layout, bits) == {"accumulator": 143, "x": 13, "y": 11,
                                                  "control": 1}
        assert decode_registers(layout, extract_basis_index(state))["accumulator"] == 143

    @pytest.mark.parametrize("index", [0b01, 0b11])
    def test_a_later_mixing_step_takes_back_what_an_earlier_one_kept(self, monkeypatch,
                                                                     index):
        """X(1) controlled on qubit 0, H(0), X(1) again: the first X block
        uses only fixed qubits and flips a bit, but the H mixes its control,
        so the second X block cannot act on bits and qubit 1 must stop being
        a bit there too."""
        monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)
        flip = Gate.x(1, controls=((0, 1),), label="a")
        circuit = Circuit(2, (flip, Gate.hadamard(0, label="b"), flip))
        state = run(circuit, new_basis_state(2, index))
        assert fixed_pairs(state) == ()
        expected = run_gate_by_gate(circuit, new_basis_state(2, index)).amplitudes
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)

    def test_a_qubit_stays_a_bit_until_a_step_mixes_it(self, monkeypatch):
        """X(1) controlled on qubit 0, then H(0): the X acts on bits while
        both are bits, and nothing after it moves qubit 1, so only qubit 0
        is expanded and the block holds 2 amplitudes."""
        monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)
        circuit = Circuit(2, (Gate.x(1, ((0, 1),), label="a"), Gate.hadamard(0, label="b")))
        state = run(circuit, new_basis_state(2, 0b10))
        assert fixed_pairs(state) == ((1, 1),)
        assert held_amplitudes(state) == 2
        expected = run_gate_by_gate(circuit, new_basis_state(2, 0b10)).amplitudes
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)

    def test_x_and_swap_blocks_act_on_bits(self, monkeypatch, kernel_calls):
        """Controlled X and SWAP gates permute the bits, and a phase read
        after them sees the permuted bits, on every input."""
        monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)
        circuit = Circuit(4, (
            Gate.x(0, label="perm"),
            Gate.swap(0, 2, controls=((1, 0),), label="perm"),
            Gate.swap(1, 3, label="perm"),
            Gate.x(3, controls=((0, 1), (2, 0)), label="perm"),
            Gate.phase(Fraction(1, 8), 3, controls=((1, 1),), label="kick"),
        ))
        for index in range(16):
            state = run(circuit, new_basis_state(4, index))
            assert len(fixed_pairs(state)) == 4
            expected = run_gate_by_gate(circuit, new_basis_state(4, index)).amplitudes
            np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
        assert {name for name, _ in kernel_calls} == {"_diagonal"}
        assert {size for _, size in kernel_calls} == {1}

    @pytest.mark.parametrize("prepare", ["H", "X", None])
    def test_controlled_decrement(self, kernel_calls, prepare):
        """A decrement of v controlled on c.  With c in superposition the
        shift needs the amplitudes, so v is expanded; with c a bit, v stays
        one too and the decrement calls no kernel."""
        layout = RegisterLayout([("c", 1), ("v", 9)])
        gates = {"H": (Gate.hadamard(0, label="prepare"),),
                 "X": (Gate.x(0, label="prepare"),), None: ()}[prepare]
        circuit = concat([Circuit(10, gates),
                          labeled(build_decrement(layout, "v", controls=((0, 1),)), "dec")])
        index = encode_registers(layout, {"v": 5})
        state = run(circuit, new_basis_state(10, index))
        if prepare == "H":
            assert fixed_pairs(state) == ()
            assert [name for name, _ in kernel_calls] == ["_hadamard", "_shift"]
        else:
            assert kernel_calls == [] and len(fixed_pairs(state)) == 10
            outputs = {"c": 1, "v": 4} if prepare == "X" else {"c": 0, "v": 5}
            assert decode_registers(layout, extract_basis_index(state)) == outputs
        expected = run_gate_by_gate(circuit, new_basis_state(10, index)).amplitudes
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)

    def test_register_adder_rolls_once_per_classical_group_that_holds(self, kernel_calls):
        """An H on a destination qubit puts the adder's sandwich on the
        tensor while the source stays bits.  Each source bit that is 1 is
        a group whose one classical control holds, and each is its own
        roll, with the bits that are 0 dropped."""
        layout = RegisterLayout([("a", 5), ("b", 5)])
        circuit = concat([Circuit(10, (Gate.hadamard(layout["b"][2], label="prepare"),)),
                          labeled(build_adder(layout), "add")])
        index = encode_registers(layout, {"a": 0b10110, "b": 9})
        state = run(circuit, new_basis_state(10, index))
        assert [q for q, _ in fixed_pairs(state)] == list(layout["a"])
        assert [name for name, _ in kernel_calls] == ["_hadamard", "_shift", "_shift", "_shift"]
        expected = run_gate_by_gate(circuit, new_basis_state(10, index)).amplitudes
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)


@st.composite
def flip_blocks(draw):
    """Blocks of X and SWAP gates on 2..8 qubits, each gate under up to
    three controls of either polarity, one label per block."""
    n = draw(st.integers(2, 8))
    gates = []
    for block in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(1, 5))):
            swap = draw(st.booleans())
            targets = draw(st.lists(st.integers(0, n - 1), min_size=1 + swap,
                                    max_size=1 + swap, unique=True))
            others = [q for q in range(n) if q not in targets]
            picked = (draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
                      if others else [])
            controls = tuple((q, draw(st.integers(0, 1))) for q in picked)
            make = Gate.swap if swap else Gate.x
            gates.append(make(*targets, controls, f"block {block}"))
    return Circuit(n, tuple(gates))


class TestWordSteps:
    """Bit steps on the classical word permute basis indices as the dense
    matrix of their gates does, and call no kernel."""

    @staticmethod
    def _assert_permutes_like_the_matrix(circuit, kernel_calls):
        n = circuit.num_qubits
        matrix = circuit_matrix(circuit)
        for index in range(1 << n):
            state = run(circuit, new_basis_state(n, index))
            image = int(np.argmax(np.abs(matrix[:, index])))
            assert abs(matrix[image, index]) == pytest.approx(1, abs=ATOL)
            assert extract_basis_index(state) == image
            assert len(fixed_pairs(state)) == n
        assert kernel_calls == []

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(circuit=flip_blocks())
    def test_x_and_swap_blocks_match_the_dense_matrix(self, monkeypatch, kernel_calls, circuit):
        monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)
        self._assert_permutes_like_the_matrix(circuit, kernel_calls)

    def test_a_negative_shift_wraps_inside_its_field(self, monkeypatch, kernel_calls):
        """v - 5 on qubits 2..5 of 8, where qubit 0 is 0 and qubit 7 is 1:
        below 5 it wraps modulo 16, and no borrow reaches qubits 0 and 1."""
        monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)
        register = range(2, 6)
        sandwich = concat([build_qft(register, 8),
                           build_fourier_add_constant(register, -5, ((0, 0), (7, 1)), 8),
                           build_inverse_qft(register, 8)])
        assert step_kinds(sandwich) == ["_shift_kernels"]
        self._assert_permutes_like_the_matrix(sandwich, kernel_calls)


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
    return _compact(n, fixed_word(n, fixed), block), full


class TestReadingCompactStates:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=compact_states())
    def test_amplitudes_expand_exactly_once(self, case):
        state, full = case
        amplitudes = state.amplitudes
        np.testing.assert_array_equal(amplitudes, full)
        assert fixed_pairs(state) == ()
        assert state.amplitudes is amplitudes
        amplitudes[0] += 1.0  # the caller may write through it
        assert state.amplitudes[0] == full[0] + 1.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=compact_states())
    def test_norm_amplitude_and_copy_read_the_block(self, case):
        state, full = case
        fixed, block = fixed_pairs(state), state._block
        assert norm(state) == pytest.approx(np.linalg.norm(full), abs=ATOL)
        for index in range(full.size):
            assert amplitude(state, index) == full[index]
        duplicate = state.copy()
        assert fixed_pairs(state) == fixed and state._block is block  # nothing expanded
        assert fixed_pairs(duplicate) == fixed and duplicate._block is not block
        duplicate._block[0] += 1.0
        assert state._block[0] == full[np.flatnonzero(full)[0]]
        np.testing.assert_array_equal(state.amplitudes, full)

    @pytest.mark.parametrize("index", [0, 5, 11])
    def test_extract_basis_index_reads_the_block(self, index):
        state = new_basis_state(4, index)
        assert extract_basis_index(state) == index
        assert len(fixed_pairs(state)) == 4 and held_amplitudes(state) == 1

    def test_superposition_left_compact_is_not_a_basis_state(self, monkeypatch):
        """A lone H on qubit 2; qubit 0 is static and qubit 1 untouched, so
        both stay fixed."""
        monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)
        circuit = Circuit(3, (Gate.hadamard(2), Gate.phase(Fraction(1, 4), 0)))
        state = run(circuit, new_basis_state(3, 0b101))
        assert fixed_pairs(state) == ((0, 1), (1, 0)) and held_amplitudes(state) == 2
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

    def test_decrement_on_20_qubits_runs_on_bits(self):
        """The full state would take 16 MiB, and its roll 16 MiB more."""
        layout = RegisterLayout([("v", 20)])
        circuit = build_decrement(layout, "v")
        result = []

        def decrement_once():
            state = run(circuit, new_basis_state(20, 0x12345))
            result.append(extract_basis_index(state))

        assert self._peak(decrement_once) < 1 << 20
        assert result == [0x12344]

    def test_empty_circuit_on_24_qubits_expands_nothing(self):
        """No gate touches a qubit, so every qubit stays fixed."""
        circuit = Circuit(24, ())
        result = []

        def run_once():
            state = run(circuit, new_basis_state(24, 0xABCDEF))
            result.append(extract_basis_index(state))

        assert self._peak(run_once) < 1 << 20
        assert result == [0xABCDEF]

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
