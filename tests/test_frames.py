"""Frames: a forward transform on a register of classical qubits, held back.

From a basis state, ``run`` keeps the register's field of the word as the
value v of the state QFT|v>.  Kick groups on it add to the field, the
inverse transform closes the frame, and any other use of the register, or
the end of the run, materialises it as the transform it held back.  These
tests hold every such run to the gate-by-gate reference, from compact and
dense inputs, and count the kernels a frame saves.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    classical_by_rule,
    fixed_pairs,
    held_amplitudes,
    random_state,
    run_gate_by_gate,
)
from qftarith.arith import build_fourier_add_constant, build_fourier_add_register
from qftarith.circuit import Circuit, Gate, concat, labeled, run
from qftarith.qft import build_inverse_qft, build_qft
from qftarith.qstate import StateVector, extract_basis_index, new_basis_state

ATOL = 1e-12


def _blocks(*circuits) -> Circuit:
    """The circuits in order, each its own labelled block."""
    return concat([labeled(c, f"block {k}") for k, c in enumerate(circuits)])


def _controls(draw, qubits):
    picked = draw(st.lists(st.sampled_from(qubits), unique=True, max_size=3))
    return tuple((q, draw(st.integers(0, 1))) for q in picked)


def _unrelated(draw, n, others) -> Circuit:
    """H, X and PHASE gates on qubits outside the register: an H here may
    put a later kick group's control in superposition."""
    gates = []
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(others))
        controls = _controls(draw, [q for q in others if q != target])
        kind = draw(st.sampled_from(["H", "X", "PHASE"]))
        if kind == "PHASE":
            gates.append(Gate.phase(draw(st.sampled_from([Fraction(1, 8), Fraction(-3, 4)])),
                                    target, controls))
        else:
            gates.append((Gate.hadamard if kind == "H" else Gate.x)(target, controls))
    return Circuit(n, tuple(gates))


@st.composite
def frame_circuits(draw):
    """A forward transform on a register of 2..5 qubits among 10..12,
    perhaps after unrelated gates, then up to five blocks: constant or
    register adders under random controls, unrelated gates, and gates that
    use the register otherwise; then, sometimes, the inverse transform."""
    n = draw(st.integers(10, 12))
    width = draw(st.integers(2, 5))
    first = draw(st.integers(0, n - width))
    register = range(first, first + width)
    others = [q for q in range(n) if q not in register]
    blocks = [_unrelated(draw, n, others)] if draw(st.booleans()) else []
    blocks.append(build_qft(register, n))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["constant", "register", "unrelated", "touch"]))
        controls = _controls(draw, others)
        if kind == "constant":
            constant = draw(st.integers(-(1 << width) + 1, (1 << width) - 1))
            blocks.append(build_fourier_add_constant(register, constant, controls, n))
        elif kind == "register":
            free = [q for q in others if q not in dict(controls)]
            source = draw(st.lists(st.sampled_from(free), unique=True, min_size=1,
                                   max_size=min(width, len(free))))
            blocks.append(build_fourier_add_register(source, register, controls, n))
        elif kind == "unrelated":
            blocks.append(_unrelated(draw, n, others))
        else:
            q = draw(st.sampled_from(register))
            blocks.append(Circuit(n, (draw(st.sampled_from([
                Gate.hadamard(q), Gate.x(q, controls), Gate.phase(Fraction(1, 3), q),
                Gate.phase(Fraction(1, 4), others[0], ((q, 1),)),
            ])),)))
    if draw(st.booleans()):
        blocks.append(build_inverse_qft(register, n))
    return _blocks(*(b for b in blocks if len(b)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(circuit=frame_circuits(), data=st.data())
def test_frames_match_the_reference_from_compact_and_dense_inputs(circuit, data):
    """From a basis state the run keeps the qubits of the frame rule as
    bits; from either input it equals the replay."""
    n = circuit.num_qubits
    index = data.draw(st.integers(0, (1 << n) - 1))
    compact = run(circuit, new_basis_state(n, index))
    classical = classical_by_rule(circuit)
    assert [q for q, _ in fixed_pairs(compact)] == classical
    assert held_amplitudes(compact) == 1 << (n - len(classical))
    expected = run_gate_by_gate(circuit, new_basis_state(n, index)).amplitudes
    np.testing.assert_allclose(compact.amplitudes, expected, rtol=0, atol=ATOL)
    amps = random_state(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    dense = run(circuit, StateVector(n, amps))
    expected = run_gate_by_gate(circuit, StateVector(n, amps)).amplitudes
    np.testing.assert_allclose(dense.amplitudes, expected, rtol=0, atol=ATOL)


class TestFrameKernels:
    """What a frame saves, counted in kernel calls."""

    N, REGISTER = 10, range(2, 7)  # a 5-qubit register among 10

    def _check(self, circuit, index):
        state = run(circuit, new_basis_state(self.N, index))
        expected = run_gate_by_gate(circuit, new_basis_state(self.N, index)).amplitudes
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
        return state

    def test_kicks_and_the_inverse_transform_are_word_arithmetic(self, kernel_calls):
        """Constant and register adders under classical controls add to the
        register's bits, and the inverse transform closes the frame: no
        kernel call, one amplitude, and the sum as bits."""
        n, reg = self.N, self.REGISTER
        circuit = _blocks(build_qft(reg, n),
                          build_fourier_add_constant(reg, -7, ((0, 1),), n),
                          build_fourier_add_register([8, 9], reg, ((1, 0),), n),
                          build_inverse_qft(reg, n))
        for v, control, source in [(3, 1, 2), (30, 1, 3), (5, 0, 1), (0, 1, 0)]:
            index = control << 9 | v << 3 | source
            state = run(circuit, new_basis_state(n, index))
            assert kernel_calls == [] and held_amplitudes(state) == 1
            total = (v - 7 * control + source) % 32
            assert extract_basis_index(state) == control << 9 | total << 3 | source
            self._check(circuit, index)
            kernel_calls.clear()

    def test_a_frame_open_at_the_end_is_materialised(self, kernel_calls):
        """No inverse transform: the end of the run expands the register
        and makes the held transform's one FFT, on the sum."""
        n, reg = self.N, self.REGISTER
        circuit = _blocks(build_qft(reg, n), build_fourier_add_constant(reg, 11, (), n))
        state = run(circuit, new_basis_state(n, 0b1000101101))
        assert kernel_calls == [("_fourier", 1 << len(reg))]
        assert held_amplitudes(state) == 1 << len(reg)
        self._check(circuit, 0b1000101101)

    def test_a_block_that_reads_the_register_materialises_the_frame(self, kernel_calls):
        """A kick controlled from inside the register needs the amplitudes:
        the held transform runs first, and every later block on the
        register runs on the amplitudes."""
        n, reg = self.N, self.REGISTER
        circuit = _blocks(build_qft(reg, n),
                          build_fourier_add_constant(reg, 5, (), n),
                          Circuit(n, (Gate.phase(Fraction(1, 4), 0, ((reg[0], 1),)),)),
                          build_fourier_add_constant(reg, 3, (), n),
                          build_inverse_qft(reg, n))
        self._check(circuit, 0b1001100011)
        assert [name for name, _ in kernel_calls] == ["_fourier", "_diagonal", "_diagonal",
                                                      "_fourier"]

    def test_a_superposed_control_materialises_the_frame(self, kernel_calls):
        """An H on a kick group's control passes the frame by, but the group
        then holds on one branch only: the frame is materialised, and the
        kicks run as a diagonal."""
        n, reg = self.N, self.REGISTER
        circuit = _blocks(build_qft(reg, n), Circuit(n, (Gate.hadamard(0),)),
                          build_fourier_add_constant(reg, 9, ((0, 1),), n),
                          build_inverse_qft(reg, n))
        self._check(circuit, 0b0001010000)
        assert [name for name, _ in kernel_calls] == ["_hadamard", "_fourier", "_diagonal",
                                                      "_fourier"]
