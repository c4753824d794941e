"""Circuit data model: execution, inversion, register codecs, statistics,
and the text listing format."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import circuit_matrix, random_state
from qftarith.arith import build_adder, build_decrement
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
from qftarith.multiplier import MultiplierSpec, build_multiplier
from qftarith.qft import build_inverse_qft, build_qft
from qftarith.qstate import (
    StateVector,
    apply_phase,
    extract_basis_index,
    new_basis_state,
    norm,
)


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
        value that is no number still fails in ``float``."""
        with pytest.raises(ValueError, match="finite"):
            Gate.phase(10**400, 0)
        with pytest.raises(ValueError, match="finite"):
            Gate.phase(Fraction(10**400, 3), 0)
        with pytest.raises(ValueError, match="finite"):
            apply_phase(new_basis_state(1, 1), 0, 10**400)
        with pytest.raises(TypeError):
            Gate.phase(object(), 0)

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

    def test_circuit_rejects_out_of_range_gate(self):
        with pytest.raises(IndexOutOfRange):
            Circuit(2, (Gate.x(2),))


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

    def test_value_too_wide(self):
        layout = RegisterLayout([("r", 2)])
        with pytest.raises(ValueTooWide):
            encode_register(layout, "r", 4)

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
        circuit = Circuit(1, (Gate.hadamard(0),))
        assert labeled(circuit, None) is circuit

    def test_decrement_label_matches_relabelled_circuit(self):
        layout = RegisterLayout([("x", 2), ("y", 3)])
        assert (build_decrement(layout, "y", label="dec[t]")
                == labeled(build_decrement(layout, "y"), "dec[t]"))

    def test_adder_label_matches_relabelled_circuit(self):
        layout = RegisterLayout([("a", 3), ("b", 3)])
        assert build_adder(layout, label="add") == labeled(build_adder(layout), "add")


class TestConcat:
    def test_widths_must_match(self):
        with pytest.raises(QubitCountMismatch):
            Circuit(2) + Circuit(3)

    def test_concat_orders_gates(self):
        c = concat([Circuit(1, (Gate.hadamard(0),)), Circuit(1, (Gate.x(0),))])
        assert [g.kind for g in c.gates] == [GateKind.HADAMARD, GateKind.X]


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
