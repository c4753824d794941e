"""``run``'s Fourier-register steps: a transform block as one FFT, and a
sandwich of kick groups, the register adder among them, as shifts.

The tests build transforms and register adders of width 2-6 at random
offsets and hold ``run`` to the gate-by-gate reference within 1e-12 on
dense, basis and compact inputs, and on up to 6 qubits to the dense
matrix.  The transform is also held to the DFT identity of
:mod:`qftarith.qft`, which shares no code with the FFT step.  Blocks that
differ from the definitions by one angle, one wire or one control must
not be recognised: they fall back to the gates.  The FFT kernel is held
bitwise to an FFT plus a bit-reversal gather, and compiling the paper's
circuits keeps gate keys only, with no numpy call.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bit_reverse,
    circuit_matrix,
    dft_matrix,
    random_state,
    run_gate_by_gate,
    step_kinds,
)
import qftarith.circuit as circuit_module
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
    encode_registers,
    labeled,
    run,
)
from qftarith.multiplier import MultiplierSpec, build_multiplier
from qftarith.qft import build_inverse_qft, build_qft
from qftarith.qstate import StateVector, _compact, _fourier, new_basis_state

ATOL = 1e-12
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# Most circuits here have fewer qubits than the size below which ``run`` is
# the gate-by-gate replay.
pytestmark = pytest.mark.usefixtures("fuse_small_circuits")


def _prepare(draw, n, qubits):
    """A block of H and X gates on some of ``qubits``: a control that an H
    mixes is on the tensor, one that an X flips stays a bit."""
    gates = []
    for q in qubits:
        kind = draw(st.sampled_from([None, None, "H", "X"]))
        if kind == "H":
            gates.append(Gate.hadamard(q, label="prepare"))
        elif kind == "X":
            gates.append(Gate.x(q, label="prepare"))
    return Circuit(n, tuple(gates))


@st.composite
def inputs(draw, n):
    """A dense random state, a basis state, or a compact state with random
    fixed pairs and a random block."""
    kind = draw(st.sampled_from(["dense", "basis", "compact"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        return StateVector(n, random_state(n, rng))
    if kind == "basis":
        return new_basis_state(n, draw(st.integers(0, (1 << n) - 1)))
    qubits = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    fixed = tuple((q, draw(st.integers(0, 1))) for q in qubits)
    return _compact(n, fixed, random_state(n - len(fixed), rng))


def _assert_run_matches_reference(circuit, state):
    """``run`` equals the gate-by-gate run and, on up to 6 qubits, the
    dense matrix."""
    before = state.copy().amplitudes
    expected = run_gate_by_gate(circuit, state.copy()).amplitudes
    run(circuit, state)
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
    if circuit.num_qubits <= 6:
        np.testing.assert_allclose(state.amplitudes, circuit_matrix(circuit) @ before,
                                   rtol=0, atol=ATOL)


@st.composite
def transforms(draw):
    """The transform or its inverse on a width-2..6 register at a random
    offset inside up to 9 qubits, after a block that prepares the others."""
    width = draw(st.integers(2, 6))
    n = width + draw(st.integers(0, 3))
    first = draw(st.integers(0, n - width))
    qs = range(first, first + width)
    build = draw(st.sampled_from([build_qft, build_inverse_qft]))
    prepare = _prepare(draw, n, [q for q in range(n) if q not in qs])
    return concat([prepare, labeled(build(qs, n), "qft")]), draw(inputs(n))


@SETTINGS
@given(case=transforms())
def test_transform_runs_as_one_fft_and_matches_the_gates(case):
    circuit, state = case
    assert step_kinds(circuit)[-1] == "_fourier_kernels"
    _assert_run_matches_reference(circuit, state)


@pytest.mark.parametrize("width", range(2, 7))
def test_transform_is_the_bit_reversed_dft(width):
    """amplitudes[i] == F[bit_reverse(i), v], the identity in the
    :mod:`qftarith.qft` docstring, and the inverse undoes it."""
    dft = dft_matrix(width)
    forward, backward = build_qft(range(width)), build_inverse_qft(range(width))
    for v in range(1 << width):
        state = run(forward, new_basis_state(width, v))
        expected = [dft[bit_reverse(i, width), v] for i in range(1 << width)]
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=ATOL)
        run(backward, state)
        np.testing.assert_allclose(state.amplitudes, np.eye(1 << width)[v], rtol=0, atol=ATOL)


@st.composite
def register_adders(draw):
    """A register sandwich on a width-2..6 destination at a random offset:
    a source of width 1..wd on random other qubits, an optional extra
    control of either polarity, and an optional constant group under its
    own control, all in one block after a block that prepares them."""
    wd = draw(st.integers(2, 6))
    ws = draw(st.integers(1, min(wd, 4)))
    extras = draw(st.integers(0, 2))
    n = wd + ws + extras
    first = draw(st.integers(0, n - wd))
    dst = list(range(first, first + wd))
    others = draw(st.permutations([q for q in range(n) if q not in dst]))
    src, spare = others[:ws], others[ws:]
    controls = ((spare[0], draw(st.integers(0, 1))),) if spare and draw(st.booleans()) else ()
    middle = [build_fourier_add_register(src, dst, controls, n)]
    if len(spare) == 2:
        constant = draw(st.integers(-(1 << wd) + 1, (1 << wd) - 1))
        middle.append(build_fourier_add_constant(dst, constant, ((spare[1], 1),), n))
    sandwich = labeled(concat([build_qft(dst, n), *middle, build_inverse_qft(dst, n)]), "add")
    return concat([_prepare(draw, n, others), sandwich]), draw(inputs(n))


@SETTINGS
@given(case=register_adders())
def test_register_adder_runs_as_shifts_and_matches_the_gates(case):
    circuit, state = case
    assert step_kinds(circuit)[-1] == "_shift_kernels"
    _assert_run_matches_reference(circuit, state)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_adder_from_a_basis_state_is_bit_arithmetic(n, kernel_calls):
    layout = RegisterLayout([("a", n), ("b", n)])
    circuit = build_adder(layout)
    for a in range(1 << n):
        for b in range(1 << n):
            state = run(circuit, new_basis_state(2 * n, encode_registers(layout, {"a": a, "b": b})))
            assert len(state._fixed) == 2 * n
            expected = encode_registers(layout, {"a": a, "b": (a + b) % (1 << n)})
            assert state.amplitudes[expected] == 1
    assert kernel_calls == []


def _adder_gates(width):
    return list(build_adder(RegisterLayout([("a", width), ("b", width)])).gates)


def _assert_falls_back_and_breaks(circuit, kind):
    """No ``kind`` step; ``run`` equals the reference on every basis input;
    and the circuit is no longer the adder on at least one of them."""
    assert kind not in step_kinds(circuit)
    n = circuit.num_qubits
    adder = build_adder(RegisterLayout([("a", n // 2), ("b", n // 2)]))
    differs = False
    for index in range(1 << n):
        state = new_basis_state(n, index)
        _assert_run_matches_reference(circuit, state)
        differs |= not np.allclose(state.amplitudes,
                                   run_gate_by_gate(adder, new_basis_state(n, index)).amplitudes,
                                   rtol=0, atol=1e-9)
    assert differs


@pytest.mark.parametrize("width", [2, 3, 4])
def test_register_kick_moved_to_the_next_wire_is_not_a_shift(width):
    edge = width * (width + 1) // 2
    for position in range(edge, len(_adder_gates(width)) - edge):
        gates = _adder_gates(width)
        kick = gates[position]
        target = kick.targets[0] + 1
        if target > 2 * width - 1:
            continue
        gates[position] = Gate.phase(kick.phase_turns, target, kick.controls)
        _assert_falls_back_and_breaks(Circuit(2 * width, tuple(gates)), "_shift_kernels")


@pytest.mark.parametrize("width", [2, 3])
def test_register_kick_off_by_one_step_is_not_a_shift(width):
    edge = width * (width + 1) // 2
    for position in range(edge, len(_adder_gates(width)) - edge):
        gates = _adder_gates(width)
        kick = gates[position]
        gates[position] = Gate.phase(kick.phase_turns + Fraction(1, 1 << width),
                                     kick.targets[0], kick.controls)
        _assert_falls_back_and_breaks(Circuit(2 * width, tuple(gates)), "_shift_kernels")


def _transform_variants(width):
    """Transforms on ``width`` qubits, each one gate away from the
    definition: an angle off, a controlled Hadamard, a phase dropped."""
    gates = list(build_qft(range(width), width + 1).gates)
    for position, g in enumerate(gates):
        changed = list(gates)
        if g.controls:
            changed[position] = Gate.phase(g.phase_turns * 2, g.targets[0], g.controls)
            yield changed
            yield changed[:position] + changed[position + 1:]
        else:
            changed[position] = Gate.hadamard(g.targets[0], ((width, 0),))
            yield changed


@pytest.mark.parametrize("width", [2, 3, 4])
def test_transform_one_gate_off_is_not_an_fft(width):
    n = width + 1
    dft = dft_matrix(width)
    for gates in _transform_variants(width):
        circuit = Circuit(n, tuple(gates))
        assert "_fourier_kernels" not in step_kinds(circuit)
        matches = True
        for v in range(1 << width):
            state = new_basis_state(n, (v << 1) | 1)
            _assert_run_matches_reference(circuit, state)
            amps = state.amplitudes.reshape(1 << width, 2)[:, 1]
            expected = [dft[bit_reverse(i, width), v] for i in range(1 << width)]
            matches &= np.allclose(amps, expected, rtol=0, atol=1e-9)
        assert not matches


def test_transform_on_non_adjacent_qubits_runs_as_gates():
    circuit = build_qft([0, 2, 3], 4)
    assert step_kinds(circuit) == ["_gate_kernels"]
    for index in range(16):
        _assert_run_matches_reference(circuit, new_basis_state(4, index))


def _gathered_fourier(psi, start, width, sign):
    """The transform as an FFT and a gather through a bit-reversal table."""
    reverse = np.array([bit_reverse(i, width) for i in range(1 << width)])
    rows = psi.reshape(1 << start, 1 << width, -1)
    if sign > 0:
        rows[...] = np.fft.ifft(rows, axis=1, norm="ortho")[:, reverse]
    else:
        rows[...] = np.fft.fft(rows[:, reverse], axis=1, norm="ortho")


@SETTINGS
@given(data=st.data(), n=st.integers(2, 10))
def test_fourier_kernel_is_bitwise_the_bit_reversal_gather(data, n):
    """Reversing the register's axes is the bit-reversal permutation, to
    the last bit."""
    width = data.draw(st.integers(2, n))
    start = data.draw(st.integers(0, n - width))
    sign = data.draw(st.sampled_from([1, -1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)).reshape((2,) * n)
    expected = psi.copy()
    _gathered_fourier(expected, start, width, sign)
    _fourier(psi, start, width, sign)
    assert np.array_equal(psi, expected)


def _held(value):
    """Every object inside nested tuples and lists."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _held(item)
    else:
        yield value


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


@pytest.mark.parametrize("circuit", [
    build_multiplier(MultiplierSpec.for_width(3)),
    build_adder(RegisterLayout([("a", 4), ("b", 4)])),
    build_decrement(RegisterLayout([("v", 5)]), "v"),
], ids=["multiplier", "adder", "decrement"])
def test_compile_keeps_gate_keys_only_and_makes_no_numpy_call(circuit, monkeypatch):
    """A step holds the block's gate keys and what the matcher read from
    them: no Gate, no precomputed factor table and no permutation array."""
    monkeypatch.setattr(circuit_module, "np", _NoNumpy())
    steps, _ = circuit_module._compile(circuit.gates)
    for step in steps:
        held = list(_held([step.resolve.args, step.permute.args if step.permute else ()]))
        assert not any(isinstance(item, (Gate, np.ndarray)) for item in held)
