"""``run``'s fused steps on the paper's building blocks.

A Fourier sandwich (transform, constant kick, inverse transform on one
register) runs as one cyclic shift, a PHASE-only block as one diagonal.
These tests drive the builders at random widths, constants and controls
and hold ``run`` to modular arithmetic, to the gate-by-gate reference and,
on up to 7 qubits, to the dense matrix.  Broken sandwiches must not be
recognised: they fall back to the gates and fail the arithmetic.  The
multiplier is built once per spec and compiled once per circuit object and
fuse setting.
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
from conftest import circuit_matrix, random_state, run_gate_by_gate
from qftarith import cli
from qftarith.arith import build_adder, build_decrement, build_fourier_add_constant
from qftarith.circuit import (
    Circuit,
    Gate,
    GateKind,
    RegisterLayout,
    concat,
    encode_registers,
    run,
)
from qftarith.multiplier import MultiplierSpec, build_multiplier, multiplier_layout
from qftarith.qft import build_inverse_qft, build_qft
from qftarith.qstate import StateVector, new_basis_state

ATOL = 1e-12
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@pytest.fixture(autouse=True)
def fuse_small_circuits(monkeypatch):
    """Fuse at every size: these circuits are smaller than the size below
    which ``run`` keeps to the gates."""
    monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)


def _shift_steps(circuit):
    """The block indices of ``circuit``'s program that compiled to a shift."""
    steps, program, _ = circuit_module._compile(circuit.gates, True)
    return [i for i in program if steps[i].resolve.func is circuit_module._shift_kernels]


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
    free, one that only controls is static, so both slice paths run.
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
    sandwich = concat([
        build_qft(qs, n, label),
        build_fourier_add_constant(qs, constant, controls, n, label),
        build_inverse_qft(qs, n, label),
    ])
    prepare = Circuit(n, tuple(Gate.x(q, label="prepare") for q in flipped))
    return concat([prepare, sandwich]), qs, constant, controls, flipped


@SETTINGS
@given(case=sandwiches(), data=st.data())
def test_constant_sandwich_is_modular_addition(case, data):
    circuit, qs, constant, controls, flipped = case
    n, width = circuit.num_qubits, len(qs)
    assert len(_shift_steps(circuit)) == 1
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
    assert len(_shift_steps(circuit)) == 1
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
    assert _shift_steps(circuit) == []
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
    assert _shift_steps(circuit) == []
    for index in range(1 << n):
        _check_against_references(circuit, _basis(n, index))


def test_controlled_sandwich_inside_a_wider_state():
    """Sandwich with static and free controls of both polarities, on a
    register that is not at the edge of the state, from a dense state."""
    n = 7
    qs = [2, 3, 4]
    circuit = concat([
        Circuit(n, (Gate.hadamard(0, label="mix"), Gate.x(6, label="mix"))),
        build_qft(qs, n, "dec"),
        build_fourier_add_constant(qs, -3, ((0, 1), (1, 0), (6, 0)), n, "dec"),
        build_inverse_qft(qs, n, "dec"),
    ])
    assert len(_shift_steps(circuit)) == 1
    _check_against_references(circuit, random_state(n, np.random.default_rng(11)))
    _check_against_references(circuit, new_basis_state(n, 0b0100101).amplitudes)


class TestBuildAndCompileOnce:
    """The multiplier is built once per spec and compiled once per circuit
    object and fuse setting, however many inputs run through it."""

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

    def test_the_fuse_setting_keys_the_compiled_program(self, monkeypatch, kernel_calls):
        """The same memoised circuit runs fused (shifts and diagonals) and
        then gate by gate when the threshold moves, matching the reference
        both times: a program cached by circuit alone would run fused twice."""
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
        assert kernels[1] >= {"_shift", "_diagonal"}
        assert not kernels[100] & {"_shift", "_diagonal"}
        assert build_multiplier(spec) is build_multiplier(spec)
