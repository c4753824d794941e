"""Circuit data model: execution, inversion, register codecs, statistics,
and the text listing format."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import qftarith.circuit as circuit_module
from conftest import circuit_matrix, random_state, run_gate_by_gate
from qftarith.arith import (
    build_adder,
    build_decrement,
    build_fourier_add_constant,
    build_fourier_add_register,
)
from qftarith.circuit import (
    Circuit,
    CircuitStats,
    Gate,
    GateKind,
    RegisterLayout,
    circuit_listing,
    concat,
    decode_register,
    decode_registers,
    encode_register,
    encode_registers,
    format_gate,
    inverse,
    labeled,
    run,
    stats,
)
from qftarith.errors import (
    DuplicateQubit,
    IndexOutOfRange,
    QubitCountMismatch,
    ValueTooWide,
)
from qftarith.multiplier import MultiplierSpec, build_multiplier, build_zero_check
from qftarith.qft import build_inverse_qft, build_qft
from qftarith.qstate import (
    StateVector,
    apply_hadamard,
    apply_phase,
    apply_swap,
    apply_x,
    extract_basis_index,
    new_basis_state,
    norm,
)

# Each reads a basis index from a run whose qubits, qubit count or register
# width are of the integer type given.
NUMPY_INTEGER_CASES = {
    "x_target": lambda i: extract_basis_index(
        run(Circuit(70, [Gate.x(i(0))]), new_basis_state(70, 0))),
    "x_control": lambda i: extract_basis_index(
        run(Circuit(70, [Gate.x(1, controls=((i(0), 1),))]), new_basis_state(70, 1 << 69))),
    "fourier_register": lambda i: extract_basis_index(run(concat([
        build_qft(list(map(i, range(4))), 12),
        build_fourier_add_constant(list(map(i, range(4))), 3, num_qubits=12),
        build_inverse_qft(list(map(i, range(4))), 12)]), new_basis_state(12, 5 << 8))),
    "basis_state_count": lambda i: extract_basis_index(new_basis_state(i(64), 5)),
    "layout_width": lambda i: extract_basis_index(run(
        build_decrement(RegisterLayout([("v", i(70))]), "v"), new_basis_state(70, 0))),
}

# Each builds one of the package's circuits at register width n, with a
# float angle in the last.
BUILDERS = {
    "build_qft": lambda n: build_qft(range(n)),
    "build_inverse_qft": lambda n: build_inverse_qft(range(1, n + 1)),
    "build_fourier_add_constant": lambda n: build_fourier_add_constant(
        range(n), 1 - (1 << n), ((n, 0),)),
    "build_fourier_add_register": lambda n: build_fourier_add_register(
        range(n), range(n, 2 * n), ((2 * n, 1),)),
    "build_adder": lambda n: build_adder(RegisterLayout([("a", n), ("b", n)])),
    "build_decrement": lambda n: build_decrement(RegisterLayout([("v", n)]), "v"),
    "build_zero_check": lambda n: build_zero_check(range(n), n),
    "build_multiplier": lambda n: build_multiplier(MultiplierSpec.for_width(n)),
    "float angles": lambda n: Circuit(n + 1, tuple(
        Gate.phase(0.1 * k - 0.3, k, ((n, 1),), label="f") for k in range(n))),
}

# Each takes a target and controls, with qubits 0 and 2 free for a second
# target or a control.
QUBIT_TAKERS = {
    "Gate.hadamard": lambda t, c: Gate.hadamard(t, c),
    "Gate.phase": lambda t, c: Gate.phase(Fraction(1, 4), t, c),
    "Gate.x": lambda t, c: Gate.x(t, c),
    "Gate.swap": lambda t, c: Gate.swap(t, 0, c),
    "apply_hadamard": lambda t, c: apply_hadamard(new_basis_state(3, 0), t, c),
    "apply_phase": lambda t, c: apply_phase(new_basis_state(3, 0), t, Fraction(1, 4), c),
    "apply_x": lambda t, c: apply_x(new_basis_state(3, 0), t, c),
    "apply_swap": lambda t, c: apply_swap(new_basis_state(3, 0), t, 0, c),
}


class TestGateModel:
    def test_swap_needs_two_targets(self):
        with pytest.raises(ValueError):
            Gate(GateKind.SWAP, (1,))

    def test_phase_needs_angle(self):
        with pytest.raises(ValueError):
            Gate(GateKind.PHASE, (0,))

    def test_angle_too_large_for_a_float_is_a_value_error(self):
        """Gate and apply_phase share one angle check: an exact angle that
        overflows a float is a ValueError, not an OverflowError, while a
        value that is no number is a TypeError."""
        with pytest.raises(ValueError, match="finite"):
            Gate.phase(10**400, 0)
        with pytest.raises(ValueError, match="finite"):
            Gate.phase(Fraction(10**400, 3), 0)
        with pytest.raises(ValueError, match="finite"):
            apply_phase(new_basis_state(1, 1), 0, 10**400)
        with pytest.raises(TypeError):
            Gate.phase(object(), 0)

    @pytest.mark.parametrize("bad", [True, False, np.True_], ids=repr)
    def test_bool_angle_is_rejected(self, bad):
        """Gate and apply_phase share the angle check, which takes no bool,
        as the qubit and polarity checks take none."""
        with pytest.raises(ValueError, match="finite float"):
            Gate.phase(bad, 0)
        with pytest.raises(ValueError, match="finite float"):
            apply_phase(new_basis_state(1, 1), 0, bad)

    @pytest.mark.parametrize("bad", ["0.5", b"0.5", np.complex128(0.5)], ids=repr)
    def test_angle_that_is_no_real_number_is_rejected(self, bad):
        """``float`` reads each of these, with a warning for the complex one,
        but no exact angle key can."""
        with pytest.raises(TypeError, match="real angle"):
            Gate.phase(bad, 0)
        with pytest.raises(TypeError, match="real angle"):
            apply_phase(new_basis_state(1, 1), 0, bad)

    @pytest.mark.parametrize("angle, listed", [(np.int64(-1), "-1"), (np.float32(0.25), "0.25"),
                                               (np.float64(0.125), "0.125")], ids=repr)
    def test_numpy_angle_lists_as_a_python_number(self, angle, listed):
        gate = Gate.phase(angle, 1, ((0, 1),))
        assert gate == Gate.phase(angle.item(), 1, ((0, 1),))
        assert type(gate.phase_turns) is type(angle.item())
        assert format_gate(gate) == f"GATE PHASE({listed}) target=1 controls=0:1"

    def test_non_phase_rejects_angle(self):
        with pytest.raises(ValueError):
            Gate(GateKind.X, (0,), phase_turns=Fraction(1, 2))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(DuplicateQubit):
            Gate.hadamard(0, controls=((0, 1),))

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError):
            Gate.x(0, controls=((1, 2),))

    def test_negative_index_rejected_and_no_upper_bound_before_a_circuit(self):
        with pytest.raises(IndexOutOfRange):
            Gate.phase(Fraction(1, 2), 0, controls=((-1, 1),))
        assert Gate.x(1000).max_qubit() == 1000

    @pytest.mark.parametrize("take", QUBIT_TAKERS.values(), ids=QUBIT_TAKERS)
    @pytest.mark.parametrize("bad", [1.5, 1.0, True], ids=repr)
    @pytest.mark.parametrize("where", ["target", "control"])
    def test_qubit_index_that_is_no_integer_is_rejected(self, take, bad, where):
        """A float equal to an integer, or a bool, is no qubit index either."""
        target, controls = (bad, ((2, 1),)) if where == "target" else (1, ((bad, 1),))
        with pytest.raises(IndexOutOfRange, match="must be an integer"):
            take(target, controls)

    @pytest.mark.parametrize("take", QUBIT_TAKERS.values(), ids=QUBIT_TAKERS)
    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, 0.5], ids=repr)
    def test_polarity_that_is_no_integer_is_rejected(self, take, bad):
        """A bool or a float equal to 0 or 1 is no polarity: the listing
        would print it as ``1:True`` or ``1:1.0``."""
        with pytest.raises(ValueError, match="polarity must be 0 or 1"):
            take(1, ((2, bad),))

    @pytest.mark.parametrize("take", QUBIT_TAKERS.values(), ids=QUBIT_TAKERS)
    def test_numpy_integer_qubit_index_is_accepted(self, take):
        take(np.int64(1), ((np.int64(2), 1),))

    def test_numpy_integer_qubits_list_as_integers_and_run(self):
        gate = Gate.x(np.int64(1), ((np.int64(0), 1),))
        assert gate == Gate.x(1, ((0, 1),))
        assert format_gate(gate) == "GATE X target=1 controls=0:1"
        assert extract_basis_index(run(Circuit(2, (gate,)), new_basis_state(2, 0b10))) == 0b11

    @pytest.mark.parametrize("case", NUMPY_INTEGER_CASES.values(), ids=NUMPY_INTEGER_CASES)
    def test_numpy_integers_run_as_the_python_ints_they_hold(self, case):
        """Qubits, counts and widths are kept as Python ints where they enter:
        past 64 qubits a numpy integer's shifts overflowed, and a numpy bool
        broke the Fourier matcher."""
        assert case(np.int64) == case(int)

    @pytest.mark.parametrize("bad", [2.0, 1.5, True, 0, -1], ids=repr)
    @pytest.mark.parametrize("make", [
        lambda n: Circuit(n, ()),
        lambda n: StateVector(n, [1, 0, 0, 0]),
        lambda n: new_basis_state(n, 1),
    ], ids=["Circuit", "StateVector", "new_basis_state"])
    def test_qubit_count_that_is_no_positive_integer_is_rejected(self, make, bad):
        """A float or a bool qubit count fails like a count below 1, before
        anything computes ``1 << n``."""
        with pytest.raises(ValueError, match="need at least one qubit"):
            make(bad)

    def test_circuit_rejects_out_of_range_gate(self):
        with pytest.raises(IndexOutOfRange):
            Circuit(2, (Gate.x(2),))

    def test_circuit_item_that_is_no_gate_is_rejected_by_name(self):
        """It failed with AttributeError on ``max_qubit``."""
        with pytest.raises(TypeError, match="holds Gate objects, got 'foo'"):
            Circuit(2, (Gate.x(0), "foo"))

    def test_gate_built_from_lists_equals_and_hashes_like_one_built_from_tuples(self):
        """The fields are stored as tuples, so the gate can key the compile
        memo of a circuit wide enough to be compiled."""
        gate = Gate(GateKind.X, [0], controls=[[1, 1]])
        assert gate == Gate.x(0, ((1, 1),))
        assert hash(gate) == hash(Gate.x(0, ((1, 1),)))
        assert gate.targets == (0,) and gate.controls == ((1, 1),)
        for n in (3, 12):  # qubit 0 is the most significant bit
            state = run(Circuit(n, (gate,)), new_basis_state(n, 0b01 << n - 2))
            assert extract_basis_index(state) == 0b11 << n - 2

    @pytest.mark.parametrize("kind, targets", [("H", (0,)), ("SWAP", (0, 1))], ids=repr)
    def test_kind_that_is_no_gate_kind_is_rejected(self, kind, targets):
        with pytest.raises(ValueError, match="must be a GateKind"):
            Gate(kind, targets)

    @pytest.mark.parametrize("bad", [["a"], 5, b"a"], ids=repr)
    def test_label_that_is_no_str_is_rejected(self, bad):
        """A list label made a gate that could not be hashed, and ``labeled``
        listed an int label as ``# 5``: a label is None or a str, checked
        where a gate is built and where ``labeled`` sets one."""
        with pytest.raises(TypeError, match="label must be a str or None"):
            Gate(GateKind.X, (0,), label=bad)
        with pytest.raises(TypeError, match="label must be a str or None"):
            labeled(Circuit(1, (Gate.x(0),)), bad)
        assert labeled(Circuit(1, (Gate.x(0, label="a"),)), None).gates == (Gate.x(0),)


class TestRun:
    def test_empty_circuit_is_identity(self):
        state = new_basis_state(3, 0b101)
        run(Circuit(3), state)
        assert extract_basis_index(state) == 0b101

    def test_double_hadamard_is_identity(self):
        circuit = Circuit(1, (Gate.hadamard(0), Gate.hadamard(0)))
        state = run(circuit, new_basis_state(1, 0))
        np.testing.assert_allclose(state.amplitudes, [1, 0], atol=1e-12)

    def test_decrement_circuit_three_to_two(self):
        # 3 - 1 = 2: |11> -> |10>
        layout = RegisterLayout([("v", 2)])
        state = run(build_decrement(layout, "v"), new_basis_state(2, 3))
        assert extract_basis_index(state) == 2

    def test_qubit_count_mismatch(self):
        with pytest.raises(QubitCountMismatch):
            run(Circuit(2), new_basis_state(3, 0))

    def test_run_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        circuit = Circuit(3, (
            Gate.hadamard(0),
            Gate.phase(Fraction(1, 8), 2, controls=((0, 1), (1, 0))),
            Gate.x(1, controls=((2, 1),)),
            Gate.swap(0, 2),
        ))
        amps = random_state(3, rng)
        expected = circuit_matrix(circuit) @ amps
        got = run(circuit, StateVector(3, amps))
        np.testing.assert_allclose(got.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("angle", [np.int64(1), np.int32(-2), np.uint8(0)], ids=repr)
    def test_numpy_integer_angle_runs_equal_to_the_reference(self, angle):
        """On 10 qubits ``run`` compiles, which keys every angle as an exact
        ratio; the integer-angle run of PHASE gates also equals a run of
        Python ints, so the two runs, cut apart by an X gate, compile to
        one step."""
        n = 10
        circuit = Circuit(n, (
            Gate.x(1), Gate.phase(angle, 3, ((0, 1),)), Gate.phase(Fraction(1, 8), 5), Gate.x(1),
            Gate.phase(int(angle), 3, ((0, 1),)), Gate.phase(Fraction(1, 8), 5), Gate.x(1),
            Gate.phase(angle, 9, ((4, 0),)), Gate.hadamard(9),
        ))
        amps = random_state(n, np.random.default_rng(3))
        state = run(circuit, StateVector(n, amps))
        expected = run_gate_by_gate(circuit, StateVector(n, amps))
        np.testing.assert_allclose(state.amplitudes, expected.amplitudes, rtol=0, atol=1e-12)
        program = circuit_module._compile(circuit.num_qubits, circuit.gates)[1]
        assert program == [0, 1, 0, 1, 0, 2, 3]

    def test_run_is_linear_on_superpositions(self):
        rng = np.random.default_rng(23)
        circuit = build_qft(range(3))
        for _ in range(5):
            i, j = rng.choice(8, size=2, replace=False)
            theta = rng.uniform(0, 2 * np.pi)
            alpha, beta = np.cos(theta), np.sin(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            amps = np.zeros(8, dtype=complex)
            amps[i], amps[j] = alpha, beta
            combined = run(circuit, StateVector(3, amps)).amplitudes
            s_i = run(circuit, new_basis_state(3, int(i))).amplitudes
            s_j = run(circuit, new_basis_state(3, int(j))).amplitudes
            np.testing.assert_allclose(combined, alpha * s_i + beta * s_j, atol=1e-9)

    @pytest.mark.parametrize("angle", [1e308, 3e307, -1e308, 10**307, Fraction(10**308)],
                             ids=["1e308", "3e307", "-1e308", "10**307", "Fraction(10**308)"])
    @pytest.mark.parametrize("path", ["apply_phase", "replay", "compiled"])
    def test_a_huge_whole_turn_angle_is_an_exact_identity(self, monkeypatch, path, angle):
        """Every float from 2^53 up is a whole number of turns.  Taken off
        exactly, it leaves no factor; exp(2*pi*i*angle) in floats overflows
        from about 2.9e307 and gives a wrong factor below that."""
        if path == "compiled":
            monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)
        amps = random_state(2, np.random.default_rng(11))
        state = StateVector(2, amps)
        if path == "apply_phase":
            apply_phase(state, 1, angle, ((0, 1),))
        else:
            run(Circuit(2, (Gate.phase(angle, 1, ((0, 1),)),)), state)
        np.testing.assert_array_equal(state.amplitudes, amps)

    @pytest.mark.parametrize("whole, part", [(10**307, Fraction(1, 4)), (-(10**307), Fraction(-3, 8)),
                                             (2, 0.5), (-7, -0.125)],
                             ids=["10**307+1/4", "-10**307-3/8", "2+0.5", "-7-0.125"])
    @pytest.mark.parametrize("path", ["apply_phase", "replay", "compiled"])
    def test_whole_turns_come_off_an_angle_exactly_with_its_sign(self, monkeypatch, path,
                                                                 whole, part):
        """An angle of whole turns plus a part multiplies by the part's own
        factor, bit for bit, whatever the size of the whole."""
        if path == "compiled":
            monkeypatch.setattr(circuit_module, "_FUSE_FROM_QUBITS", 1)
        amps = random_state(2, np.random.default_rng(12))
        states = [StateVector(2, amps), StateVector(2, amps)]
        for state, angle in zip(states, (Fraction(whole) + Fraction(part), part)):
            if path == "apply_phase":
                apply_phase(state, 1, angle)
            else:
                run(Circuit(2, (Gate.phase(angle, 1),)), state)
        np.testing.assert_array_equal(states[0].amplitudes, states[1].amplitudes)
        assert not np.array_equal(states[0].amplitudes, amps)

    @pytest.mark.parametrize("angle", [10**307 + Fraction(1, 4), 1e308],
                             ids=["10**307+1/4", "1e308"])
    def test_dense_oracle_takes_whole_turns_off_exactly(self, angle):
        """``circuit_matrix``, the tests' independent oracle, agrees with
        ``run`` from 2^53 turns up: a factor of i for 10**307 + 1/4 turns,
        and none for 1e308, a whole number of turns."""
        circuit = Circuit(1, (Gate.phase(angle, 0),))
        amps = random_state(1, np.random.default_rng(13))
        got = run(circuit, StateVector(1, amps.copy())).amplitudes
        np.testing.assert_allclose(got, circuit_matrix(circuit) @ amps, rtol=0, atol=1e-12)

    def test_norm_survives_a_hundred_thousand_gates(self):
        rng = np.random.default_rng(41)
        gates = []
        for _ in range(100_000):
            kind = rng.integers(3)
            q = int(rng.integers(4))
            if kind == 0:
                gates.append(Gate.hadamard(q))
            elif kind == 1:
                gates.append(Gate.x(q))
            else:
                gates.append(Gate.phase(float(rng.uniform(-1, 1)), q))
        state = run(Circuit(4, tuple(gates)), new_basis_state(4, 0))
        assert abs(norm(state) - 1.0) < 1e-9


class TestInverse:
    def test_phase_negated(self):
        circuit = Circuit(1, (Gate.phase(Fraction(1, 4), 0),))
        assert inverse(circuit).gates == (Gate.phase(Fraction(-1, 4), 0),)

    def test_hadamard_self_inverse(self):
        circuit = Circuit(1, (Gate.hadamard(0),))
        assert inverse(circuit) == circuit

    def test_structural_involution(self):
        circuit = build_qft(range(3)) + Circuit(3, (Gate.x(1, controls=((0, 0),)),))
        assert inverse(inverse(circuit)) == circuit

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_inverse_equals_the_checked_copy(self, builder, n):
        """``inverse`` copies each PHASE gate without checking it again; the
        result equals, gate for gate and angle type for angle type, the
        reverse built through ``dataclasses.replace``, which checks every
        gate."""
        circuit = BUILDERS[builder](n)
        reference = Circuit(circuit.num_qubits, tuple(
            dataclasses.replace(g, phase_turns=-g.phase_turns) if g.kind is GateKind.PHASE
            else g for g in reversed(circuit.gates)))
        assert inverse(circuit) == reference
        assert circuit_listing(inverse(circuit)) == circuit_listing(reference)

    def test_inverse_undoes_run(self):
        circuit = build_qft(range(3))
        inv = inverse(circuit)
        for b in range(8):
            state = run(inv, run(circuit, new_basis_state(3, b)))
            expected = np.zeros(8)
            expected[b] = 1.0
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-9)


class TestRegisterLayout:
    def test_encode_places_bits_in_slots(self):
        # value 3 in a width-2 register: bits 11 land in the register's qubits
        layout = RegisterLayout([("acc", 2), ("y", 2)])
        frag = encode_register(layout, "y", 3)
        assert frag == 0b0011
        assert decode_register(layout, "y", frag) == 3
        assert encode_register(layout, "acc", 3) == 0b1100

    def test_zero_round_trip(self):
        layout = RegisterLayout([("a", 3)])
        assert decode_register(layout, "a", encode_register(layout, "a", 0)) == 0

    def test_exhaustive_round_trip_width_four(self):
        layout = RegisterLayout([("pad", 2), ("r", 4), ("tail", 1)])
        for v in range(16):
            idx = encode_register(layout, "r", v)
            assert decode_register(layout, "r", idx) == v

    @pytest.mark.parametrize("index", [-1, 1 << 2, 1.0, True], ids=repr)
    def test_decode_rejects_an_index_outside_the_layout(self, index):
        with pytest.raises(IndexOutOfRange, match="basis index"):
            decode_register(RegisterLayout([("a", 2)]), "a", index)

    def test_value_too_wide(self):
        layout = RegisterLayout([("r", 2)])
        with pytest.raises(ValueTooWide):
            encode_register(layout, "r", 4)

    @pytest.mark.parametrize("bad", [2.0, 1.5, True, np.float64(2)], ids=repr)
    def test_value_that_is_no_integer_is_rejected(self, bad):
        with pytest.raises(ValueTooWide, match="is no integer"):
            encode_register(RegisterLayout([("r", 3)]), "r", bad)

    def test_numpy_integer_value_accepted_past_64_bits(self):
        """The value is shifted as a Python int: np.int64(3) << 70 reads 0."""
        index = encode_register(RegisterLayout([("r", 2), ("s", 70)]), "r", np.int64(3))
        assert index == 3 << 70 and type(index) is int

    def test_encode_decode_many(self):
        layout = RegisterLayout([("a", 2), ("b", 3), ("control", 1)])
        idx = encode_registers(layout, {"a": 2, "b": 5, "control": 1})
        assert decode_registers(layout, idx) == {"a": 2, "b": 5, "control": 1}

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            RegisterLayout([])
        with pytest.raises(ValueError):
            RegisterLayout([("a", 0)])
        with pytest.raises(ValueError):
            RegisterLayout([("a", 1), ("a", 2)])
        with pytest.raises(ValueError):
            RegisterLayout([("control", 2)])

    @pytest.mark.parametrize("bad", [True, 2.0, 1.5], ids=repr)
    def test_width_that_is_no_integer_is_rejected(self, bad):
        with pytest.raises(ValueError, match="needs an integer width"):
            RegisterLayout([("a", bad)])

    def test_numpy_integer_width_accepted(self):
        layout = RegisterLayout([("a", np.int64(2)), ("b", np.int32(3))])
        assert layout.widths() == {"a": 2, "b": 3} and layout.num_qubits == 5

    def test_ranges_partition_the_qubits(self):
        layout = RegisterLayout([("a", 2), ("b", 3), ("c", 1)])
        seen = [q for name in layout.names() for q in layout[name]]
        assert seen == list(range(layout.num_qubits))


class TestStats:
    def test_empty(self):
        assert stats(Circuit(1)) == CircuitStats(0, {}, 0, 0)

    def test_decrement_snapshot(self):
        # frozen regression values for the width-2 decrement
        layout = RegisterLayout([("v", 2)])
        assert stats(build_decrement(layout, "v")) == CircuitStats(
            gate_count_total=8,
            gate_count_by_kind={"H": 4, "PHASE": 4},
            controlled_gate_count=2,
            max_control_fanin=1,
        )

    def test_multiplier_fanin_covers_whole_y_register(self):
        st = stats(build_multiplier(MultiplierSpec.for_width(2)))
        assert st.max_control_fanin >= 2
        assert st.gate_count_total == sum(st.gate_count_by_kind.values())


class TestListing:
    def test_format_lines(self):
        circuit = Circuit(4, (
            Gate.hadamard(0),
            Gate.phase(Fraction(-1, 4), 1, controls=((0, 1),)),
            Gate.x(3, controls=((1, 0), (2, 0)), label="check[0]"),
            Gate.swap(1, 2),
        ))
        assert circuit_listing(circuit).splitlines() == [
            "GATE H target=0",
            "GATE PHASE(-1/4) target=1 controls=0:1",
            "GATE X target=3 controls=1:0,2:0 # check[0]",
            "GATE SWAP target=1,2",
        ]

    def test_float_phase_renders(self):
        assert format_gate(Gate.phase(0.125, 0)) == "GATE PHASE(0.125) target=0"

    def test_labeled_replaces_labels(self):
        circuit = labeled(Circuit(1, (Gate.hadamard(0),)), "stage[1]")
        assert circuit.gates[0].label == "stage[1]"

    def test_labeled_without_label_is_the_same_circuit(self):
        circuit = build_decrement(RegisterLayout([("x", 2), ("y", 3)]), "y")
        cleared = labeled(labeled(circuit, "a"), None)
        assert cleared == circuit
        assert all(g.label is None for g in cleared.gates)


class TestConcat:
    def test_widths_must_match(self):
        with pytest.raises(QubitCountMismatch):
            Circuit(2) + Circuit(3)

    def test_concat_orders_gates(self):
        c = concat([Circuit(1, (Gate.hadamard(0),)), Circuit(1, (Gate.x(0),))])
        assert [g.kind for g in c.gates] == [GateKind.HADAMARD, GateKind.X]

    def test_iterating_a_circuit_yields_its_gates(self):
        gates = (Gate.hadamard(0), Gate.x(1, ((0, 0),)))
        assert list(Circuit(2, gates)) == list(gates)

    @pytest.mark.parametrize("call, error, match", [
        (lambda: concat([]), ValueError, "nothing to concatenate"),
        (lambda: Circuit(1) + 1, TypeError, "unsupported operand"),
        (lambda: encode_registers(RegisterLayout([("a", 2)]), {"z": 1}), KeyError,
         "unknown register 'z'"),
    ], ids=["concat_nothing", "add_a_non_circuit", "encode_unknown_register"])
    def test_misuse_raises_a_typed_error(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestLinearAssembly:
    """Building a circuit checks each gate's qubit range a bounded number of
    times, so assembly stays linear in the gate count."""

    @pytest.fixture
    def max_qubit_calls(self, monkeypatch):
        calls = [0]
        original = Gate.max_qubit

        def counting(gate):
            calls[0] += 1
            return original(gate)

        monkeypatch.setattr(Gate, "max_qubit", counting)
        return calls

    def test_concat_checks_no_gate_again(self, max_qubit_calls):
        """Its parts checked their gates against the same width."""
        parts = [Circuit(1, (Gate.hadamard(0),)) for _ in range(2000)]
        max_qubit_calls[0] = 0
        assert len(concat(parts)) == 2000
        assert max_qubit_calls[0] == 0

    def test_inverse_qft_checks_each_gate_once(self, max_qubit_calls):
        circuit = build_inverse_qft(range(3))
        assert len(circuit) == 6
        assert max_qubit_calls[0] == 6

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_multiplier_build_is_linear(self, max_qubit_calls, n):
        """Only the distinct blocks (qft, iqft, add, dec and check) are
        checked, the same count at every unroll count K, while the circuit
        grows by one add, dec and check per iteration.  An equal spec comes
        from the memo and checks nothing."""
        build_multiplier.cache_clear()
        # gates in: the distinct blocks, the blocks outside the loop, one iteration
        distinct, fixed, per_iteration = {3: (73, 58, 31), 5: (186, 146, 76),
                                          6: (262, 205, 106)}[n]
        for k in (1, 3, (1 << n) - 1):
            max_qubit_calls[0] = 0
            circuit = build_multiplier(MultiplierSpec(n, 2 * n, k))
            assert max_qubit_calls[0] == distinct
            assert len(circuit) == fixed + k * per_iteration
        max_qubit_calls[0] = 0
        assert build_multiplier(MultiplierSpec.for_width(n)) is circuit
        assert max_qubit_calls[0] == 0
