"""``run``'s fused steps on the paper's building blocks.

A Fourier sandwich (transform, constant kick, inverse transform on one
register) runs as one cyclic shift, a PHASE-only block as one diagonal.
These tests drive the builders at random widths, constants and controls
and hold ``run`` to modular arithmetic, to the gate-by-gate reference and,
on up to 7 qubits, to the dense matrix.  Broken sandwiches must not be
recognised: they fall back to the gates and fail the arithmetic.  The
multiplier is built once per spec and compiled once per circuit object.
"""

import json
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qftarith.circuit as circuit_module
from conftest import circuit_matrix, random_state, run_gate_by_gate, step_kinds
from qftarith import cli
from qftarith.arith import build_adder, build_decrement, build_fourier_add_constant
from qftarith.circuit import (
    Circuit,
    Gate,
    GateKind,
    RegisterLayout,
    concat,
    decode_registers,
    encode_registers,
    labeled,
    run,
)
from qftarith.multiplier import MultiplierSpec, build_multiplier, multiplier_layout
from qftarith.qft import build_inverse_qft, build_qft
from qftarith.qstate import StateVector, _phase_table, extract_basis_index, new_basis_state

ATOL = 1e-12
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# These circuits are smaller than the size below which ``run`` is the
# gate-by-gate replay.
pytestmark = pytest.mark.usefixtures("fuse_small_circuits")


def _check_against_references(circuit, amps):
    """``run`` on ``amps`` equals the gate-by-gate run and, on up to 7
    qubits, the dense matrix; returns the final amplitudes.  A basis input
    also runs from the compact basis state, where shifts and X blocks on
    fixed qubits act on bits."""
    n = circuit.num_qubits
    state = StateVector(n, amps)
    run(circuit, state)
    expected = run_gate_by_gate(circuit, StateVector(n, amps)).amplitudes
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
    if np.count_nonzero(amps) == 1:
        compact = run(circuit, new_basis_state(n, int(np.flatnonzero(amps)[0])))
        np.testing.assert_allclose(compact.amplitudes, expected, rtol=0, atol=ATOL)
    if n <= 7:
        np.testing.assert_allclose(state.amplitudes, circuit_matrix(circuit) @ amps,
                                   rtol=0, atol=ATOL)
    return state.amplitudes


def _basis(n, index):
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return amps


def _bit(index, q, n):
    return (index >> (n - 1 - q)) & 1


@st.composite
def sandwiches(draw):
    """A controlled constant adder on a width-1..8 register inside up to 10
    qubits, and the facts needed to predict it.

    The register starts at a random offset.  Up to 2 other qubits control
    the kicks, with either polarity; a control that an X also targets is
    expanded, one that only controls stays a bit from a basis state, so
    the shift is resolved both ways.
    """
    width = draw(st.integers(1, 8))
    extra = draw(st.integers(0, min(2, 10 - width)))
    n = width + extra
    first = draw(st.integers(0, extra))
    qs = list(range(first, first + width))
    others = [q for q in range(n) if q not in qs]
    controls = tuple((q, draw(st.integers(0, 1))) for q in others if draw(st.booleans()))
    flipped = [q for q, _ in controls if draw(st.booleans())]
    constant = draw(st.integers(-(1 << width) + 1, (1 << width) - 1))
    label = draw(st.sampled_from([None, "kick"]))
    sandwich = labeled(concat([
        build_qft(qs, n),
        build_fourier_add_constant(qs, constant, controls, n),
        build_inverse_qft(qs, n),
    ]), label)
    prepare = Circuit(n, tuple(Gate.x(q, label="prepare") for q in flipped))
    return concat([prepare, sandwich]), qs, constant, controls, flipped


@SETTINGS
@given(case=sandwiches(), data=st.data())
def test_constant_sandwich_is_modular_addition(case, data):
    circuit, qs, constant, controls, flipped = case
    n, width = circuit.num_qubits, len(qs)
    assert step_kinds(circuit).count("_shift_kernels") == 1
    index = data.draw(st.integers(0, (1 << n) - 1))
    out = _check_against_references(circuit, _basis(n, index))
    for q in flipped:
        index ^= 1 << (n - 1 - q)
    value = sum(_bit(index, q, n) << (width - 1 - j) for j, q in enumerate(qs))
    if all(_bit(index, q, n) == pol for q, pol in controls):
        low = n - 1 - qs[-1]
        index += (((value + constant) % (1 << width)) - value) << low
    assert abs(out[index]) == pytest.approx(1.0, abs=ATOL)
    dense = random_state(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    _check_against_references(circuit, dense)


@SETTINGS
@given(width=st.integers(1, 8), data=st.data())
def test_decrement_is_minus_one(width, data):
    layout = RegisterLayout([("v", width)])
    circuit = build_decrement(layout, "v")
    assert step_kinds(circuit).count("_shift_kernels") == 1
    v = data.draw(st.integers(0, (1 << width) - 1))
    out = _check_against_references(circuit, _basis(width, v))
    assert abs(out[(v - 1) % (1 << width)]) == pytest.approx(1.0, abs=ATOL)


@SETTINGS
@given(n=st.integers(1, 4), data=st.data())
def test_adder_is_modular_addition(n, data):
    layout = RegisterLayout([("a", n), ("b", n)])
    circuit = build_adder(layout)
    a = data.draw(st.integers(0, (1 << n) - 1))
    b = data.draw(st.integers(0, (1 << n) - 1))
    index = encode_registers(layout, {"a": a, "b": b})
    out = _check_against_references(circuit, _basis(2 * n, index))
    expected = encode_registers(layout, {"a": a, "b": (a + b) % (1 << n)})
    assert abs(out[expected]) == pytest.approx(1.0, abs=ATOL)


def _decrement_gates(width):
    return list(build_decrement(RegisterLayout([("v", width)]), "v").gates)


def _kick_positions(gates, width):
    edge = width * (width + 1) // 2
    return range(edge, len(gates) - edge)


@pytest.mark.parametrize("width", [2, 3, 5])
def test_kick_off_by_one_step_is_not_a_shift(width):
    """A kick angle moved by 1/2^w is no constant adder: ``run`` falls back
    to the gates, agrees with the reference, and is no longer v - 1."""
    for position in _kick_positions(_decrement_gates(width), width):
        gates = _decrement_gates(width)
        kick = gates[position]
        gates[position] = Gate.phase(kick.phase_turns + Fraction(1, 1 << width),
                                     kick.targets[0], kick.controls)
        _assert_falls_back_and_breaks(Circuit(width, tuple(gates)))


@pytest.mark.parametrize("width", [2, 3, 4])
def test_transform_missing_a_phase_is_not_a_shift(width):
    gates = _decrement_gates(width)
    for position, g in enumerate(gates):
        if g.kind is GateKind.PHASE and g.controls:
            dropped = gates[:position] + gates[position + 1:]
            _assert_falls_back_and_breaks(Circuit(width, tuple(dropped)))


def _assert_falls_back_and_breaks(circuit):
    """No shift step; ``run`` equals the references on every input; and the
    exhaustive v - 1 check fails on at least one input."""
    width = circuit.num_qubits
    assert "_shift_kernels" not in step_kinds(circuit)
    hits = []
    for v in range(1 << width):
        out = _check_against_references(circuit, _basis(width, v))
        hits.append(abs(out[(v - 1) % (1 << width)]) ** 2 > 1 - 1e-9)
    assert not all(hits)


def test_control_inside_the_register_is_not_a_shift():
    """A kick controlled by one of the register's own qubits is a phase,
    not an addition; it must run as gates."""
    qs, n = [0, 1], 2
    circuit = concat([
        build_qft(qs, n),
        Circuit(n, (Gate.phase(Fraction(1, 2), 0, controls=((1, 1),)),)),
        build_inverse_qft(qs, n),
    ])
    assert "_shift_kernels" not in step_kinds(circuit)
    for index in range(1 << n):
        _check_against_references(circuit, _basis(n, index))


def test_controlled_sandwich_inside_a_wider_state():
    """Sandwich with controls of both polarities, on a register that is
    not at the edge of the state, from a dense state and from a basis
    state, where the control that nothing moves (qubit 1) stays a bit."""
    n = 7
    qs = [2, 3, 4]
    circuit = concat([
        Circuit(n, (Gate.hadamard(0, label="mix"), Gate.x(6, label="mix"))),
        labeled(concat([
            build_qft(qs, n),
            build_fourier_add_constant(qs, -3, ((0, 1), (1, 0), (6, 0)), n),
            build_inverse_qft(qs, n),
        ]), "dec"),
    ])
    assert step_kinds(circuit).count("_shift_kernels") == 1
    _check_against_references(circuit, random_state(n, np.random.default_rng(11)))
    _check_against_references(circuit, new_basis_state(n, 0b0100101).amplitudes)


_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)


@st.composite
def phase_kicks(draw):
    """``(ndim, kicks)``: a scalar kick, up to six kicks on random axes
    from 1 up, and a kick on axis 0 when drawn, in a random order.  Kick i's
    factor is a unit times 2**(2**i), so every product is exact and names
    the kicks it holds."""
    ndim = draw(st.integers(0, 8))
    bits = st.sampled_from([0, 1])
    fixings = [[]]
    if ndim > 1:
        fixings += draw(st.lists(st.lists(st.tuples(st.integers(1, ndim - 1), bits),
                                          unique_by=lambda pair: pair[0], min_size=1),
                                 max_size=6))
    if ndim and draw(st.booleans()):
        fixings.append([(0, draw(bits))])
    fixings = draw(st.permutations(fixings))
    return ndim, [(fixed, _UNITS[draw(st.integers(0, 3))] * 2.0 ** (1 << i))
                  for i, fixed in enumerate(fixings)]


@SETTINGS
@given(case=phase_kicks())
def test_phase_table_is_the_product_of_the_kicks_index_by_index(case):
    """The diagonal's table holds one row over the axes from the first one
    a kick fixes to the last, and on the trailing axes equals, at every
    index, the product of the kicks whose bits match it."""
    ndim, kicks = case
    table = _phase_table(ndim, kicks)
    first = min((axis for fixed, _ in kicks for axis, _ in fixed), default=ndim)
    assert table.shape == (1 << (ndim - first),)
    expected = np.ones((2,) * ndim, dtype=np.complex128)
    for index in np.ndindex(expected.shape):
        for fixed, factor in kicks:
            if all(index[axis] == bit for axis, bit in fixed):
                expected[index] *= factor
    assert np.array_equal(np.broadcast_to(table.reshape((2,) * (ndim - first)), expected.shape),
                          expected)


class TestBuildAndCompileOnce:
    """The multiplier is built once per spec and compiled once per circuit
    object, however many inputs run through it."""

    def test_every_n3_input_through_the_cli_builds_and_compiles_once(self, monkeypatch,
                                                                     capsys):
        build_multiplier.cache_clear()
        compiles, builds = [0], [0]
        compile_, post_init = circuit_module._compile, Gate.__post_init__

        def counting_compile(*args):
            compiles[0] += 1
            return compile_(*args)

        def counting_post_init(gate):
            builds[0] += 1
            post_init(gate)

        monkeypatch.setattr(circuit_module, "_compile", counting_compile)
        monkeypatch.setattr(Gate, "__post_init__", counting_post_init)
        inputs = list(product(range(8), repeat=2))
        random.Random(7).shuffle(inputs)
        built_after = []
        for x, y in inputs:
            assert cli.main(["mul", str(x), str(y), "--n", "3", "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["verified"] and report["outputs"]["accumulator"] == x * y
            built_after.append(builds[0])
        assert compiles[0] == 1
        assert built_after[0] > 0 and set(built_after) == {built_after[0]}  # first call only

    def test_a_second_basis_state_run_replays_the_word_path(self, monkeypatch, kernel_calls):
        """The first basis-state run compiles the circuit and its word path,
        parsing each distinct step that a held frame meets once, however
        often the program repeats it.  A second run of the same circuit,
        from another input, calls none of the parsers; nor does one whose
        path stops early, at a frame still held at the end."""
        calls = {name: [] for name in ("_compile", "_frame_rule", "_kick_groups")}
        for name, found in calls.items():
            def counting(*args, _real=getattr(circuit_module, name), _found=found):
                _found.append(args)
                return _real(*args)
            monkeypatch.setattr(circuit_module, name, counting)

        def counts():
            return {name: len(found) for name, found in calls.items()}

        spec = MultiplierSpec.for_width(3)
        layout = multiplier_layout(spec)
        circuit = build_multiplier.__wrapped__(spec)  # a fresh object, not yet compiled

        def product(x, y):
            index = encode_registers(layout, {"x": x, "y": y})
            state = run(circuit, new_basis_state(layout.num_qubits, index))
            return decode_registers(layout, extract_basis_index(state))["accumulator"]

        assert product(5, 6) == 30
        first = counts()
        # seven adds, then the inverse transform: two distinct steps, each parsed once
        assert first["_compile"] == 1 and first["_frame_rule"] == 2
        assert product(7, 3) == 21 and counts() == first
        assert kernel_calls == []

        register = range(2, 7)
        held_at_end = labeled(build_qft(register, 10), "qft") + build_fourier_add_constant(
            register, 11, (), 10)
        for index in (0b1000101101, 0b0011100110):
            first = counts()
            expected = run_gate_by_gate(held_at_end, new_basis_state(10, index)).amplitudes
            state = run(held_at_end, new_basis_state(10, index))
            np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
        assert counts() == first
        assert [name for name, _ in kernel_calls] == ["_fourier", "_fourier"]

    def test_the_fuse_setting_keys_the_compiled_program(self, monkeypatch, kernel_calls):
        """The same memoised circuit runs compiled (shifts, diagonals and FFTs)
        and then, when the threshold moves above it, as the gate-by-gate
        replay, matching the reference both times: the program kept on the
        circuit must not run below the threshold."""
        spec = MultiplierSpec.for_width(3)
        layout = multiplier_layout(spec)
        n = layout.num_qubits
        amps = np.zeros(1 << n, dtype=complex)
        for x, y in [(5, 6), (3, 7)]:  # dense, so no qubit stays a classical bit
            amps[encode_registers(layout, {"x": x, "y": y})] = np.sqrt(0.5)
        expected = run_gate_by_gate(build_multiplier(spec), StateVector(n, amps)).amplitudes
        kernels = {}
        for fuse_from in (1, 100):
            monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", fuse_from)
            kernel_calls.clear()
            state = run(build_multiplier(spec), StateVector(n, amps))
            np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
            kernels[fuse_from] = {name for name, _ in kernel_calls}
        assert kernels[1] >= {"_shift", "_diagonal", "_fourier"}
        assert not kernels[100] & {"_shift", "_diagonal", "_fourier"}
        assert build_multiplier(spec) is build_multiplier(spec)
