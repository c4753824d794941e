"""Fourier-space arithmetic: constant addition, the decrement gate,
register-into-register addition, and the in-place adder -- all checked
against classical modular arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from qftarith.arith import (
    SignedConstant,
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
    decode_register,
    encode_registers,
    inverse,
    run,
)
from qftarith.errors import ConstantTooWide, OverlappingRegisters
from qftarith.multiplier import build_zero_check
from qftarith.qft import build_inverse_qft, build_qft
from qftarith.qstate import extract_basis_index, new_basis_state, norm


def add_constant_in_basis(width: int, constant: int) -> Circuit:
    """Transform, kick, transform back: |v> -> |(v + c) mod 2**w>."""
    return concat([
        build_qft(range(width)),
        build_fourier_add_constant(range(width), constant),
        build_inverse_qft(range(width)),
    ])


class TestFourierAddConstant:
    def test_subtract_one_from_three_phase_by_phase(self):
        # Fourier(3) has wire phases 3/4 and 1/2; kicking by -1/4 and -1/2
        # leaves 1/2 and 1 (= 0 mod 1): amplitudes (1/2)[1, 1, -1, -1].
        circuit = build_qft(range(2)) + build_fourier_add_constant(range(2), -1)
        state = run(circuit, new_basis_state(2, 3))
        np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, -0.5, -0.5], atol=1e-12)
        # and the inverse transform reads out 2
        run(build_inverse_qft(range(2)), state)
        assert extract_basis_index(state) == 2

    def test_zero_constant_is_empty_circuit(self):
        assert len(build_fourier_add_constant(range(3), 0)) == 0

    def test_plus_three_matches_modular_oracle(self):
        circuit = add_constant_in_basis(3, 3)
        for v in range(8):
            state = run(circuit, new_basis_state(3, v))
            assert extract_basis_index(state) == (v + 3) % 8

    def test_signed_constant_object_accepted(self):
        circuit = concat([
            build_qft(range(3)),
            build_fourier_add_constant(range(3), SignedConstant(2, -1)),
            build_inverse_qft(range(3)),
        ])
        state = run(circuit, new_basis_state(3, 1))
        assert extract_basis_index(state) == (1 - 2) % 8

    @pytest.mark.parametrize("magnitude, sign", [(2.5, 1), (2.0, 1), (True, 1), (2, True),
                                                 (2, -1.0)], ids=repr)
    def test_signed_constant_parts_must_be_integers(self, magnitude, sign):
        with pytest.raises(ValueError, match="must be"):
            SignedConstant(magnitude, sign)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "1", None], ids=repr)
    def test_constant_that_is_no_integer_is_rejected(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            SignedConstant.from_int(bad)
        with pytest.raises(ValueError, match="must be an integer"):
            build_fourier_add_constant(range(2), bad)

    def test_numpy_integer_from_int_keeps_its_sign(self):
        assert SignedConstant.from_int(np.int64(-3)) == SignedConstant(3, -1)

    def test_numpy_integer_constant_accepted(self):
        circuit = add_constant_in_basis(3, np.int64(-3))
        assert extract_basis_index(run(circuit, new_basis_state(3, 1))) == (1 - 3) % 8

    def test_constant_too_wide(self):
        with pytest.raises(ConstantTooWide):
            build_fourier_add_constant(range(2), 4)
        with pytest.raises(ConstantTooWide):
            build_fourier_add_constant(range(2), -4)

    def test_at_most_one_gate_per_wire(self):
        for c in range(-7, 8):
            assert len(build_fourier_add_constant(range(3), c)) <= 3

    def test_phase_layers_commute_to_a_single_sum(self):
        # adding c1 then c2 equals adding (c1 + c2) mod 2**w
        for width in (1, 2, 3):
            mod = 1 << width
            for c1 in range(mod):
                for c2 in range(mod):
                    combined = concat([
                        build_qft(range(width)),
                        build_fourier_add_constant(range(width), c1),
                        build_fourier_add_constant(range(width), c2),
                        build_inverse_qft(range(width)),
                    ])
                    for v in (0, mod - 1):
                        state = run(combined, new_basis_state(width, v))
                        assert extract_basis_index(state) == (v + c1 + c2) % mod

    def test_all_angles_are_dyadic_within_register_width(self):
        for width in (2, 3, 4):
            for c in (-(1 << width) + 1, -1, 1, (1 << width) - 1):
                for gate in build_fourier_add_constant(range(width), c).gates:
                    assert isinstance(gate.phase_turns, Fraction)
                    assert (1 << width) % gate.phase_turns.denominator == 0

    @pytest.mark.parametrize("width", range(1, 6))
    def test_kicks_are_the_exact_reduced_turns(self, width):
        """Wire j gets sign * (|c| / 2**(w-j) mod 1) turns, zero kicks left
        out, each an exact Fraction, for every constant that fits."""
        for c in range(1 - (1 << width), 1 << width):
            sign = -1 if c < 0 else 1
            turns = [sign * (Fraction(abs(c), 1 << (width - j)) % 1) for j in range(width)]
            expected = tuple(Gate.phase(t, j) for j, t in enumerate(turns) if t)
            gates = build_fourier_add_constant(range(width), c).gates
            assert gates == expected
            assert all(type(g.phase_turns) is Fraction for g in gates)


class TestDecrement:
    def test_three_to_two(self):
        layout = RegisterLayout([("v", 2)])
        state = run(build_decrement(layout, "v"), new_basis_state(2, 3))
        assert extract_basis_index(state) == 2

    def test_zero_wraps_to_all_ones(self):
        layout = RegisterLayout([("v", 2)])
        state = run(build_decrement(layout, "v"), new_basis_state(2, 0))
        assert extract_basis_index(state) == 3

    def test_unsatisfied_control_disables_the_gate(self):
        layout = RegisterLayout([("v", 2), ("enable", 1)])
        circuit = build_decrement(layout, "v", controls=((layout["enable"][0], 1),))
        # enable qubit is |0>: the value 01 must come through unchanged
        state = run(circuit, new_basis_state(3, 0b010))
        assert extract_basis_index(state) == 0b010
        # enable qubit |1>: now it decrements
        state = run(circuit, new_basis_state(3, 0b011))
        assert extract_basis_index(state) == 0b001

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_decrement_then_increment_is_identity(self, width):
        layout = RegisterLayout([("v", width)])
        increment = concat([
            build_qft(range(width)),
            build_fourier_add_constant(range(width), 1),
            build_inverse_qft(range(width)),
        ])
        circuit = build_decrement(layout, "v") + increment
        for v in range(1 << width):
            state = run(circuit, new_basis_state(width, v))
            assert extract_basis_index(state) == v

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_matches_modular_oracle(self, width):
        layout = RegisterLayout([("v", width)])
        circuit = build_decrement(layout, "v")
        for v in range(1 << width):
            state = run(circuit, new_basis_state(width, v))
            assert extract_basis_index(state) == (v - 1) % (1 << width)


class TestFourierAddRegister:
    def layout(self, ws: int, wd: int) -> RegisterLayout:
        return RegisterLayout([("src", ws), ("dst", wd)])

    def sum_circuit(self, layout: RegisterLayout, controls=()) -> Circuit:
        src, dst = layout["src"], layout["dst"]
        n = layout.num_qubits
        return concat([
            build_qft(dst, n),
            build_fourier_add_register(src, dst, controls, num_qubits=n),
            build_inverse_qft(dst, n),
        ])

    def test_loads_source_into_empty_accumulator(self):
        layout = self.layout(3, 3)
        circuit = self.sum_circuit(layout)
        for x in range(8):
            state = run(circuit, new_basis_state(6, encode_registers(layout, {"src": x})))
            out = extract_basis_index(state)
            assert decode_register(layout, "dst", out) == x
            assert decode_register(layout, "src", out) == x  # source preserved

    def test_double_application_doubles(self):
        layout = self.layout(3, 3)
        src, dst = layout["src"], layout["dst"]
        n = layout.num_qubits
        circuit = concat([
            build_qft(dst, n),
            build_fourier_add_register(src, dst, num_qubits=n),
            build_fourier_add_register(src, dst, num_qubits=n),
            build_inverse_qft(dst, n),
        ])
        for x in range(8):
            state = run(circuit, new_basis_state(n, encode_registers(layout, {"src": x})))
            assert decode_register(layout, "dst", extract_basis_index(state)) == (2 * x) % 8

    def test_zero_source_is_identity_on_destination(self):
        layout = self.layout(2, 2)
        circuit = self.sum_circuit(layout)
        state = run(circuit, new_basis_state(4, encode_registers(layout, {"dst": 2})))
        assert decode_register(layout, "dst", extract_basis_index(state)) == 2

    def test_exhaustive_modular_sums(self):
        layout = self.layout(3, 3)
        circuit = self.sum_circuit(layout)
        for x in range(8):
            for a in range(8):
                idx = encode_registers(layout, {"src": x, "dst": a})
                state = run(circuit, new_basis_state(6, idx))
                out = extract_basis_index(state)
                assert decode_register(layout, "dst", out) == (a + x) % 8
                assert decode_register(layout, "src", out) == x

    def test_wider_destination_zero_extends(self):
        layout = self.layout(2, 4)
        circuit = self.sum_circuit(layout)
        for x in range(4):
            for a in (0, 5, 15):
                idx = encode_registers(layout, {"src": x, "dst": a})
                state = run(circuit, new_basis_state(6, idx))
                out = extract_basis_index(state)
                assert decode_register(layout, "dst", out) == (a + x) % 16

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingRegisters):
            build_fourier_add_register(range(0, 3), range(2, 5))
        with pytest.raises(OverlappingRegisters):
            build_fourier_add_register(range(0, 2), range(2, 4), controls=((1, 0),))

    def test_narrow_destination_rejected(self):
        with pytest.raises(ValueError):
            build_fourier_add_register(range(0, 3), range(3, 5))

    def test_gate_budget_and_fanin(self):
        circuit = build_fourier_add_register(range(0, 3), range(3, 9))
        assert len(circuit) <= 3 * 6
        assert all(len(g.controls) == 1 for g in circuit.gates)

    def test_angles_dyadic_within_destination_width(self):
        circuit = build_fourier_add_register(range(0, 3), range(3, 9))
        for gate in circuit.gates:
            assert (1 << 6) % gate.phase_turns.denominator == 0

    @pytest.mark.parametrize("ws,wd", [(ws, wd) for wd in range(1, 5) for ws in range(1, wd + 1)])
    def test_kicks_are_the_constant_adder_per_source_bit(self, ws, wd):
        """Source qubit s, of weight 2**p with p = ws-1-s, kicks destination
        wire j by 2**p / 2**(wd-j) turns where that is below one turn, under
        the controls ((source qubit, 1), *controls), in source then wire order."""
        src, dst, extra = range(ws), range(ws, ws + wd), ((ws + wd, 0),)
        expected = tuple(
            Gate.phase(Fraction(1 << (ws - 1 - s), 1 << (wd - j)), dst[j],
                       controls=((src[s], 1), *extra))
            for s in range(ws) for j in range(wd) if (1 << (ws - 1 - s)) < 1 << (wd - j)
        )
        gates = build_fourier_add_register(src, dst, extra).gates
        assert gates == expected
        assert all(type(g.phase_turns) is Fraction for g in gates)


class TestAdder:
    def adder(self, width: int):
        layout = RegisterLayout([("a", width), ("b", width)])
        return layout, build_adder(layout)

    def test_add_zero(self):
        layout, circuit = self.adder(3)
        state = run(circuit, new_basis_state(6, encode_registers(layout, {"a": 0, "b": 5})))
        out = extract_basis_index(state)
        assert decode_register(layout, "b", out) == 5

    def test_wraparound(self):
        layout, circuit = self.adder(3)
        state = run(circuit, new_basis_state(6, encode_registers(layout, {"a": 3, "b": 6})))
        out = extract_basis_index(state)
        assert decode_register(layout, "b", out) == 1  # 9 mod 8
        assert decode_register(layout, "a", out) == 3

    def test_exhaustive_width_four(self):
        layout, circuit = self.adder(4)
        for a in range(16):
            for b in range(16):
                idx = encode_registers(layout, {"a": a, "b": b})
                state = run(circuit, new_basis_state(8, idx))
                out = extract_basis_index(state)
                assert decode_register(layout, "b", out) == (a + b) % 16
                assert decode_register(layout, "a", out) == a
                assert abs(norm(state) - 1.0) < 1e-9

    def test_inverse_adder_subtracts(self):
        layout, circuit = self.adder(3)
        state = run(inverse(circuit), new_basis_state(6, encode_registers(layout, {"a": 2, "b": 1})))
        out = extract_basis_index(state)
        assert decode_register(layout, "b", out) == (1 - 2) % 8

    def test_width_mismatch_rejected(self):
        layout = RegisterLayout([("a", 2), ("b", 3)])
        with pytest.raises(ValueError):
            build_adder(layout)


@pytest.mark.parametrize("build", [
    lambda: build_qft([]),
    lambda: build_inverse_qft([]),
    lambda: build_fourier_add_constant([], 0),
    lambda: build_fourier_add_register([], range(2)),
    lambda: build_fourier_add_register(range(2), []),
    lambda: build_zero_check([], 0),
], ids=["qft", "inverse_qft", "add_constant", "add_register_empty_source",
        "add_register_empty_destination", "zero_check"])
def test_every_builder_rejects_an_empty_register(build):
    with pytest.raises(ValueError, match="must be non-empty"):
        build()
