"""Kernel-level tests: basis states, phase/Hadamard/X/swap application,
norm preservation, and readout."""

import cmath
import enum
import math
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import dense_gate_matrix, random_state
from qftarith.circuit import Gate
from qftarith.errors import DuplicateQubit, IndexOutOfRange, NotBasisState
from qftarith.qstate import (
    StateVector,
    _is_integer,
    amplitude,
    apply_hadamard,
    apply_phase,
    apply_swap,
    apply_x,
    extract_basis_index,
    new_basis_state,
    norm,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestBasisStates:
    def test_two_qubit_three_is_one_one(self):
        # 3 in binary is 11, so the amplitude sits on |11>
        state = new_basis_state(2, 3)
        np.testing.assert_array_equal(state.amplitudes, [0, 0, 0, 1])

    def test_single_qubit_zero(self):
        np.testing.assert_array_equal(new_basis_state(1, 0).amplitudes, [1, 0])

    def test_three_qubit_five_encodes_101(self):
        state = new_basis_state(3, 5)
        assert amplitude(state, 5) == 1 + 0j
        assert norm(state) == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            new_basis_state(2, 4)

    @pytest.mark.parametrize("bad", [2.0, 1.5, True, np.float64(2)], ids=repr)
    def test_index_that_is_no_integer_is_rejected(self, bad):
        with pytest.raises(IndexOutOfRange, match="must be an integer"):
            new_basis_state(3, bad)

    def test_numpy_integer_index_accepted(self):
        np.testing.assert_array_equal(new_basis_state(2, np.int64(1)).amplitudes, [0, 1, 0, 0])
        index = extract_basis_index(new_basis_state(8, np.int64(5)))
        assert index == 5 and type(index) is int
        wide = new_basis_state(70, np.int64(5))  # past 64 bits, as a compact state
        assert amplitude(wide, np.int64(5)) == 1 and amplitude(wide, np.int64(4)) == 0

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            new_basis_state(0, 0)

    def test_constructor_checks_length_and_norm(self):
        with pytest.raises(ValueError):
            StateVector(2, [1, 0])
        with pytest.raises(ValueError):
            StateVector(1, [0.5, 0.5])
        with pytest.raises(ValueError):
            StateVector(1, [np.nan, 0])


class TestApplyPhase:
    def test_negative_quarter_turn_on_one(self):
        # phase -1/4 turn multiplies the |1> component by e^{-i pi/2} = -i
        state = new_basis_state(1, 1)
        apply_phase(state, 0, Fraction(-1, 4))
        assert cmath.isclose(amplitude(state, 1), -1j, abs_tol=1e-15)

    def test_zero_component_untouched(self):
        state = new_basis_state(1, 0)
        apply_phase(state, 0, 0.8173)
        np.testing.assert_array_equal(state.amplitudes, [1, 0])

    def test_controlled_half_turn_matches_dense_matrix(self):
        # hand-check: diag(1,1,1,e^{i pi}) applied to |11> flips its sign
        gate = Gate.phase(Fraction(1, 2), 1, controls=((0, 1),))
        oracle = dense_gate_matrix(gate, 2)
        state = new_basis_state(2, 3)
        apply_phase(state, 1, Fraction(1, 2), controls=((0, 1),))
        expected = oracle @ np.eye(4)[:, 3]
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)
        assert cmath.isclose(amplitude(state, 3), -1.0, abs_tol=1e-15)

    def test_zero_phase_is_bitwise_identity(self):
        rng = np.random.default_rng(7)
        amps = random_state(3, rng)
        state = StateVector(3, amps)
        before = state.amplitudes.copy()
        apply_phase(state, 1, Fraction(0, 1))
        apply_phase(state, 2, 0.0)
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_duplicate_control_rejected(self):
        state = new_basis_state(2, 0)
        with pytest.raises(DuplicateQubit):
            apply_phase(state, 0, Fraction(1, 2), controls=((0, 1),))

    def test_nonfinite_phase_rejected(self):
        state = new_basis_state(1, 0)
        with pytest.raises(ValueError):
            apply_phase(state, 0, float("inf"))


class TestApplyHadamard:
    def test_plus_state(self):
        state = new_basis_state(1, 0)
        apply_hadamard(state, 0)
        np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_self_inverse(self):
        state = new_basis_state(1, 0)
        apply_hadamard(state, 0)
        apply_hadamard(state, 0)
        np.testing.assert_allclose(state.amplitudes, [1, 0], atol=1e-12)

    def test_on_upper_qubit_matches_dense_matrix(self):
        # |10> -> (|00> - |10>)/sqrt(2)
        gate = Gate.hadamard(0)
        expected = dense_gate_matrix(gate, 2) @ np.eye(4)[:, 2]
        np.testing.assert_allclose(expected, [INV_SQRT2, 0, -INV_SQRT2, 0], atol=1e-15)
        state = new_basis_state(2, 2)
        apply_hadamard(state, 0)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


class TestApplyX:
    def test_flip(self):
        state = new_basis_state(1, 0)
        apply_x(state, 0)
        np.testing.assert_array_equal(state.amplitudes, [0, 1])

    def test_zero_pattern_check_fires(self):
        # y = 00, stop qubit flips 0 -> 1 when controlled on both y qubits at 0
        state = new_basis_state(3, 0b000)
        apply_x(state, 2, controls=((0, 0), (1, 0)))
        assert extract_basis_index(state) == 0b001

    def test_unsatisfied_pattern_leaves_state_alone(self):
        state = new_basis_state(3, 0b010)
        before = state.amplitudes.copy()
        apply_x(state, 2, controls=((0, 0), (1, 0)))
        np.testing.assert_array_equal(state.amplitudes, before)


class TestApplySwap:
    def test_swaps_bits(self):
        state = new_basis_state(2, 0b01)
        apply_swap(state, 0, 1)
        assert extract_basis_index(state) == 0b10

    def test_matches_dense_matrix_on_random_state(self):
        rng = np.random.default_rng(3)
        amps = random_state(3, rng)
        gate = Gate.swap(0, 2, controls=((1, 1),))
        expected = dense_gate_matrix(gate, 3) @ amps
        state = StateVector(3, amps)
        apply_swap(state, 0, 2, controls=((1, 1),))
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_same_qubit_rejected(self):
        with pytest.raises(DuplicateQubit):
            apply_swap(new_basis_state(2, 0), 1, 1)


class TestReadout:
    def test_extract_exact_basis_state(self):
        assert extract_basis_index(new_basis_state(2, 2)) == 2

    def test_decrement_output_is_deterministic(self):
        # composed elsewhere; here just the readout contract on a clean state
        state = new_basis_state(2, 2)
        assert extract_basis_index(state, tol=1e-9) == 2

    def test_superposition_raises(self):
        state = new_basis_state(1, 0)
        apply_hadamard(state, 0)
        with pytest.raises(NotBasisState):
            extract_basis_index(state)

    def test_tol_domain(self):
        state = new_basis_state(1, 0)
        for bad in (0.0, 0.5, 1.0, -0.1):
            with pytest.raises(ValueError):
                extract_basis_index(state, tol=bad)

    def test_amplitude_bounds(self):
        with pytest.raises(IndexOutOfRange):
            amplitude(new_basis_state(2, 0), 4)

    @pytest.mark.parametrize("bad", [2.0, 1.5, True, np.float64(2)], ids=repr)
    def test_amplitude_index_that_is_no_integer_is_rejected(self, bad):
        with pytest.raises(IndexOutOfRange, match="must be an integer"):
            amplitude(new_basis_state(3, 1), bad)

    def test_amplitude_numpy_integer_index_accepted(self):
        assert amplitude(new_basis_state(3, 1), np.int64(1)) == 1

    def test_norm_of_fresh_basis_state(self):
        assert norm(new_basis_state(4, 9)) == 1.0


class TestNormAndInversion:
    """Per-gate unitarity and exact reversibility."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_kernel_preserves_norm(self, seed):
        rng = np.random.default_rng(seed)
        state = StateVector(4, random_state(4, rng))
        apply_hadamard(state, 1)
        assert abs(norm(state) - 1.0) < 1e-12
        apply_phase(state, 2, Fraction(-3, 8), controls=((0, 1),))
        assert abs(norm(state) - 1.0) < 1e-12
        apply_x(state, 3, controls=((1, 0),))
        assert abs(norm(state) - 1.0) < 1e-12
        apply_swap(state, 0, 3)
        assert abs(norm(state) - 1.0) < 1e-12
        apply_phase(state, 0, 0.2137)  # non-dyadic angle
        assert abs(norm(state) - 1.0) < 1e-12

    def test_inverse_phase_restores_input(self):
        rng = np.random.default_rng(11)
        amps = random_state(3, rng)
        state = StateVector(3, amps)
        apply_phase(state, 1, Fraction(5, 16), controls=((2, 0),))
        apply_phase(state, 1, Fraction(-5, 16), controls=((2, 0),))
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-12)

    def test_involutions_restore_input(self):
        rng = np.random.default_rng(13)
        amps = random_state(3, rng)
        state = StateVector(3, amps)
        for _ in range(2):
            apply_hadamard(state, 0)
        for _ in range(2):
            apply_x(state, 2, controls=((0, 1),))
        for _ in range(2):
            apply_swap(state, 1, 2)
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-12)

    def test_unsatisfied_controls_change_nothing(self):
        rng = np.random.default_rng(17)
        # support only on basis states whose qubit 0 is |0>; control on 1 never fires
        amps = np.zeros(8, dtype=complex)
        amps[:4] = random_state(2, rng)
        state = StateVector(3, amps)
        before = state.amplitudes.copy()
        apply_hadamard(state, 1, controls=((0, 1),))
        apply_phase(state, 2, Fraction(1, 2), controls=((0, 1),))
        apply_x(state, 1, controls=((0, 1),))
        np.testing.assert_array_equal(state.amplitudes, before)


def test_distinct_states_safe_across_threads():
    """Identical gate sequences on distinct states give identical results
    whether run serially or from a thread pool."""
    def workload(index: int) -> np.ndarray:
        state = new_basis_state(4, index)
        apply_hadamard(state, 0)
        apply_phase(state, 1, Fraction(1, 4), controls=((0, 1),))
        apply_x(state, 2, controls=((1, 0),))
        apply_hadamard(state, 0)
        return state.amplitudes

    serial = [workload(i) for i in range(16)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(workload, range(16)))
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


class _Level(enum.IntEnum):
    HIGH = 3


class _Count(int):
    pass


@pytest.mark.parametrize("value, integer", [
    (3, True), (-(1 << 80), True), (_Level.HIGH, True), (_Count(3), True),
    (np.int64(3), True), (np.uint8(3), True),
    (True, False), (np.bool_(True), False), (3.0, False), (Fraction(3), False),
    (Decimal(3), False), ("3", False), (None, False),
])
def test_is_integer_takes_ints_of_any_type_and_no_bool(value, integer):
    """The plain-int fast path changes no answer: int subclasses and numpy
    integers are integers, bools and numbers that merely equal one are not."""
    assert _is_integer(value) is integer
