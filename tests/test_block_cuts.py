"""Blocks cut by what the gates are, and kick groups read as a set.

``run`` compiles a circuit into blocks found from its gates: a Fourier
sandwich, a lone transform, a run of PHASE gates, a run of X and SWAP
gates, or one other gate.  So a label names gates and changes no step, and
the paper's circuits run as word arithmetic from a basis state however
they are labelled.  The kicks between a transform and its inverse commute,
so the matcher reads them as a set: an inverted block, its kicks in
reverse, and a block whose kicks are shuffled, compile to the same word
map as the block the builders emit.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qftarith.circuit as circuit_module
import qftarith.qstate as qstate_module
from conftest import NoNumpy, circuits, run_gate_by_gate, step_kinds
from qftarith.arith import (
    build_adder,
    build_decrement,
    build_fourier_add_constant,
    build_fourier_add_register,
)
from qftarith.circuit import (
    Circuit,
    Gate,
    RegisterLayout,
    concat,
    decode_registers,
    encode_registers,
    inverse,
    labeled,
    run,
)
from qftarith.multiplier import (
    MultiplierSpec,
    build_multiplier,
    build_zero_check,
    multiplier_layout,
)
from qftarith.qft import build_inverse_qft, build_qft
from qftarith.qstate import extract_basis_index, new_basis_state
from test_frames import frame_circuits

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _relabelled(circuit: Circuit) -> list[Circuit]:
    """The circuit as given, with every label cleared, and with a label of
    its own on every gate."""
    distinct = Circuit(circuit.num_qubits, tuple(
        Gate(g.kind, g.targets, g.phase_turns, g.controls, f"gate {i}")
        for i, g in enumerate(circuit.gates)))
    return [circuit, labeled(circuit, None), distinct]


def _compiled(circuit: Circuit):
    steps, program = circuit_module._compile(circuit.num_qubits, circuit.gates)
    return [step.key for step in steps], program


def _assert_labels_change_nothing(circuit: Circuit, index: int) -> None:
    """Equal step keys and program for every labelling, and from a basis
    state the same result: the same index, or the same amplitudes where
    the run expanded the state."""
    variants = _relabelled(circuit)
    assert all(_compiled(c) == _compiled(circuit) for c in variants[1:])
    n = circuit.num_qubits
    states = [run(c, new_basis_state(n, index)) for c in variants]
    assert len({state._index for state in states}) == 1
    if states[0]._index is None:
        for state in states[1:]:
            np.testing.assert_array_equal(state.amplitudes, states[0].amplitudes)


@pytest.mark.usefixtures("fuse_small_circuits")
@SETTINGS
@given(case=circuits(), data=st.data())
def test_labels_change_no_step_of_random_circuits(case, data):
    circuit, _ = case
    _assert_labels_change_nothing(
        circuit, data.draw(st.integers(0, (1 << circuit.num_qubits) - 1)))


@SETTINGS
@given(circuit=frame_circuits(), data=st.data())
def test_labels_change_no_step_of_frame_circuits(circuit, data):
    _assert_labels_change_nothing(
        circuit, data.draw(st.integers(0, (1 << circuit.num_qubits) - 1)))


def _paper_circuits():
    layout = RegisterLayout([("a", 5), ("b", 5)])
    yield "adder", build_adder(layout)
    yield "decrement", build_decrement(RegisterLayout([("c", 1), ("v", 10)]), "v", ((0, 0),))
    yield "zero check", build_zero_check(range(10), 10)
    yield "transform", build_qft(range(2, 8), 11)
    yield "inverse transform", build_inverse_qft(range(3, 10), 10)
    yield "register add", build_fourier_add_register(range(4), range(4, 10), ((10, 1),))
    for width in (1, 2, 3):
        yield f"multiplier n={width}", build_multiplier(MultiplierSpec.for_width(width))


@pytest.mark.usefixtures("fuse_small_circuits")
@pytest.mark.parametrize("name, circuit", list(_paper_circuits()),
                         ids=[name for name, _ in _paper_circuits()])
def test_labels_change_no_step_of_the_paper_circuits(name, circuit):
    n = circuit.num_qubits
    for index in (0, (1 << n) - 1, 0x5A5A5A5A5A & ((1 << n) - 1)):
        _assert_labels_change_nothing(circuit, index)


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _words_without_numpy(circuit, layout, inputs, monkeypatch):
    """The registers after a basis-state run from each input, run with
    numpy patched out of :mod:`qftarith.qstate`, each run's tracemalloc
    peak under 1 MiB."""
    monkeypatch.setattr(qstate_module, "np", NoNumpy())
    outputs = []
    for values in inputs:
        def run_once():
            state = new_basis_state(layout.num_qubits, encode_registers(layout, values))
            outputs.append(decode_registers(layout, extract_basis_index(run(circuit, state))))

        assert _peak(run_once) < 1 << 20
    return outputs


class TestInvertedBlocks:
    """The inverse of an arithmetic block, its kicks reversed and negated,
    runs on 26 qubits, where the dense state would take 1 GiB, as word
    arithmetic: subtraction and increment."""

    INPUTS = (0, 1, 4321, (1 << 13) - 1)

    def test_inverted_adder_subtracts(self, monkeypatch):
        layout = RegisterLayout([("a", 13), ("b", 13)])
        circuit = inverse(build_adder(layout))
        inputs = [{"a": a, "b": b} for a in self.INPUTS for b in self.INPUTS]
        for values, out in zip(inputs, _words_without_numpy(circuit, layout, inputs,
                                                            monkeypatch)):
            assert out == {"a": values["a"], "b": (values["b"] - values["a"]) % (1 << 13)}

    def test_inverted_decrement_increments(self, monkeypatch):
        layout = RegisterLayout([("v", 26)])
        circuit = inverse(build_decrement(layout, "v"))
        inputs = [{"v": v} for v in (0, 1, 0x2ABCDEF, (1 << 26) - 1)]
        for values, out in zip(inputs, _words_without_numpy(circuit, layout, inputs,
                                                            monkeypatch)):
            assert out == {"v": (values["v"] + 1) % (1 << 26)}


class TestUnlabelledMultiplier:
    """The n=6 multiplier has 25 qubits, one past the dense budget, so it
    runs only as words: with its labels cleared, with a label on every
    gate, and inverted, which takes the product back out."""

    SPEC = MultiplierSpec.for_width(6)
    INPUTS = ((0, 0), (63, 63), (45, 22), (1, 60))

    @pytest.mark.parametrize("relabel", [1, 2], ids=["cleared", "one per gate"])
    def test_multiplier_runs_as_words(self, relabel, monkeypatch):
        layout = multiplier_layout(self.SPEC)
        circuit = _relabelled(build_multiplier(self.SPEC))[relabel]
        inputs = [{"x": x, "y": y} for x, y in self.INPUTS]
        for (x, y), out in zip(self.INPUTS, _words_without_numpy(circuit, layout, inputs,
                                                                 monkeypatch)):
            assert out == {"accumulator": x * y, "x": x, "y": y, "control": 1}

    def test_inverted_multiplier_undoes_the_product(self, monkeypatch):
        layout = multiplier_layout(self.SPEC)
        circuit = labeled(inverse(build_multiplier(self.SPEC)), None)
        inputs = [{"accumulator": x * y, "x": x, "y": y, "control": 1} for x, y in self.INPUTS]
        for (x, y), out in zip(self.INPUTS, _words_without_numpy(circuit, layout, inputs,
                                                                 monkeypatch)):
            assert out == {"accumulator": 0, "x": x, "y": y, "control": 0}


@st.composite
def fourier_blocks(draw):
    """``(circuit, middle, first)``: a register of 1..6 qubits among up to
    10, its transform, the kicks of up to four constant or register adders
    under controls outside it, and its inverse; ``middle`` holds the kick
    gates and ``first`` the position of the first.  Sometimes an X on
    another qubit follows the transform, so the kicks run on a held frame
    instead of in a sandwich."""
    n = draw(st.integers(2, 10))
    width = draw(st.integers(1, min(6, n - 1)))
    start = draw(st.integers(0, n - width))
    register = range(start, start + width)
    others = [q for q in range(n) if q not in register]
    middle = []
    for _ in range(draw(st.integers(1, 4))):
        picked = draw(st.lists(st.sampled_from(others), unique=True, max_size=2))
        controls = tuple((q, draw(st.integers(0, 1))) for q in picked)
        free = [q for q in others if q not in picked]
        if free and draw(st.booleans()):
            source = draw(st.lists(st.sampled_from(free), unique=True, min_size=1,
                                   max_size=min(width, len(free))))
            middle += build_fourier_add_register(source, register, controls, n).gates
        else:
            constant = draw(st.integers(-(1 << width) + 1, (1 << width) - 1))
            middle += build_fourier_add_constant(register, constant, controls, n).gates
    head = list(build_qft(register, n).gates)
    if width > 1 and draw(st.booleans()):
        head.append(Gate.x(others[0]))
    tail = list(build_inverse_qft(register, n).gates)
    return Circuit(n, (*head, *middle, *tail)), middle, len(head)


def _word_maps(circuit):
    """The word path's maps, each with its groups as a sorted list: the
    groups of one map add together, so their order is no part of it."""
    steps, program = circuit_module._compile(circuit.num_qubits, circuit.gates)
    maps, stop, held = circuit_module._word_path(circuit.num_qubits, steps, program)
    assert (stop, held) == (None, None)
    return [(field, sorted(groups)) for field, groups in maps]


@pytest.mark.usefixtures("fuse_small_circuits")
@SETTINGS
@given(case=fourier_blocks(), data=st.data())
def test_permuted_kicks_compile_to_the_same_word_map(case, data):
    """Every order of a Fourier block's kicks is one word map, and runs
    equal to the gates."""
    circuit, middle, first = case
    expected = _word_maps(circuit)
    for _ in range(3):
        shuffled = data.draw(st.permutations(middle))
        gates = circuit.gates[:first] + tuple(shuffled) + circuit.gates[first + len(middle):]
        permuted = Circuit(circuit.num_qubits, gates)
        assert _word_maps(permuted) == expected
    n = circuit.num_qubits
    index = data.draw(st.integers(0, (1 << n) - 1))
    expected_state = run_gate_by_gate(permuted, new_basis_state(n, index))
    assert extract_basis_index(run(permuted, new_basis_state(n, index))) == \
        extract_basis_index(expected_state)


def test_equal_controls_merge_into_one_group():
    """Two constant adders under equal controls, back to back, are one run
    of PHASE gates: summed per wire they are one group of the sum."""
    n, register = 10, range(2, 7)
    circuit = concat([build_qft(register, n),
                      build_fourier_add_constant(register, 7, ((0, 1),), n),
                      build_fourier_add_constant(register, -12, ((0, 1),), n),
                      build_inverse_qft(register, n)])
    steps, program = circuit_module._compile(n, circuit.gates)
    assert len(program) == 1
    assert steps[0].resolve.args == (2, 5, ((-5, ((0, 1),)),))
    for v, control in ((3, 1), (20, 1), (9, 0)):
        state = run(circuit, new_basis_state(n, control << 9 | v << 3))
        assert extract_basis_index(state) == control << 9 | (v - 5 * control) % 32 << 3


def test_a_wrong_kick_angle_is_no_group():
    """One kick of a constant adder off by 1/2^w, anywhere in the middle,
    leaves no integer amount: the block falls back to the gates."""
    n, register = 8, range(1, 5)
    kicks = list(build_fourier_add_constant(register, 5, ((0, 1),), n).gates)
    for position, kick in enumerate(kicks):
        wrong = list(kicks)
        wrong[position] = Gate.phase(kick.phase_turns + Fraction(1, 16), kick.targets[0],
                                     kick.controls)
        key = tuple(map(circuit_module._gate_key, wrong[::-1]))
        assert circuit_module._kick_groups(key, (1, 4)) is None


def _kick_shaped_phase(n: int) -> Circuit:
    """A 1/3-turn PHASE on qubit 0 under qubit 3: right after an inverse
    transform on qubits 1 .. 3, it has the shape of the kick that would
    open one more wire of a wider inverse."""
    return Circuit(n, (Gate.phase(Fraction(1, 3), 0, ((3, 1),)),))


def test_an_inverse_transform_matches_at_its_widest_complete_width():
    """The inverse's width is read from its kicks' shapes, so the gate after
    it reads as a fourth wire; the match tries each narrower width, and the
    three-wire inverse is one FFT."""
    circuit = build_inverse_qft(range(1, 4), 5) + _kick_shaped_phase(5)
    assert step_kinds(circuit) == ["_fourier_kernels", "_diagonal_kernels"]


def test_an_inverse_before_a_kick_shaped_gate_closes_its_frame(kernel_calls):
    """A frame on qubits 1 .. 3, with an X elsewhere and a controlled
    constant adder inside, is closed by its inverse transform: the word
    path stops only at the PHASE gate, which is the one kernel call."""
    n, register = 10, range(1, 4)
    circuit = concat([build_qft(register, n), Circuit(n, (Gate.x(7),)),
                      build_fourier_add_constant(register, 3, ((5, 1),), n),
                      build_inverse_qft(register, n), _kick_shaped_phase(n)])
    for index in (0b0101010000, 0b1001110101, 0b0000000000):
        expected = run_gate_by_gate(circuit, new_basis_state(n, index)).amplitudes
        kernel_calls.clear()
        state = run(circuit, new_basis_state(n, index))
        assert [name for name, _ in kernel_calls] == ["_diagonal"]
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)
