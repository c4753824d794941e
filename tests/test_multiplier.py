"""Multiplier network: zero checks, the one-way latch control flow,
exhaustive products against the classical oracle, and the unroll bound."""

import dataclasses
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest

from qftarith.arith import build_adder, build_decrement, build_fourier_add_register
from qftarith.circuit import (
    Circuit,
    RegisterLayout,
    concat,
    decode_register,
    decode_registers,
    encode_registers,
    run,
)
from qftarith.errors import (
    QuantumArithmeticError,
    QubitBudgetExceeded,
    SpecInvariantViolation,
    ValueTooWide,
)
from qftarith.multiplier import (
    MultiplierSpec,
    build_multiplier,
    build_zero_check,
    multiplier_layout,
    multiply,
)
from qftarith.qft import build_inverse_qft, build_qft
from qftarith.qstate import (
    StateVector,
    extract_basis_index,
    new_basis_state,
    norm,
)


class TestZeroCheck:
    def test_fires_on_all_zeros(self):
        # |y=00, c=0> -> |y=00, c=1>
        circuit = build_zero_check(range(0, 2), 2)
        state = run(circuit, new_basis_state(3, 0b000))
        assert extract_basis_index(state) == 0b001

    def test_silent_on_nonzero(self):
        circuit = build_zero_check(range(0, 2), 2)
        state = run(circuit, new_basis_state(3, 0b010))
        assert extract_basis_index(state) == 0b010

    def test_toggle_semantics(self):
        # a second firing flips the stop qubit back: X is an involution
        circuit = build_zero_check(range(0, 2), 2)
        state = run(circuit, new_basis_state(3, 0b001))
        assert extract_basis_index(state) == 0b000

    def test_one_gate_with_full_fanin(self):
        circuit = build_zero_check(range(0, 3), 3)
        assert len(circuit) == 1
        assert circuit.gates[0].controls == ((0, 0), (1, 0), (2, 0))


class TestSpec:
    def test_accumulator_must_hold_product(self):
        with pytest.raises(SpecInvariantViolation):
            MultiplierSpec(n=2, m=3, iterations=3)

    def test_width_below_one_rejected(self):
        with pytest.raises(SpecInvariantViolation, match="need n >= 1, got 0"):
            MultiplierSpec(n=0, m=0, iterations=0)

    def test_negative_iterations_rejected(self):
        with pytest.raises(SpecInvariantViolation):
            MultiplierSpec(n=2, m=4, iterations=-1)

    def test_iterations_capped_at_largest_multiplier(self):
        # a fourth pass would take the n=2 counter through zero a second time
        with pytest.raises(SpecInvariantViolation):
            MultiplierSpec(n=2, m=4, iterations=4)
        assert MultiplierSpec(n=2, m=4, iterations=3).iterations == 3

    def test_float_accumulator_width_rejected(self):
        with pytest.raises(SpecInvariantViolation, match="m must be an integer"):
            MultiplierSpec(2, 4.0, 3)

    def test_bool_width_rejected(self):
        with pytest.raises(SpecInvariantViolation, match="n must be an integer"):
            MultiplierSpec(True, 2, 1)

    def test_numpy_integers_accepted(self):
        """The unroll bound is checked on a numpy integer too."""
        spec = MultiplierSpec(np.int64(2), np.int64(4), np.int64(3))
        assert spec == MultiplierSpec.for_width(2)
        with pytest.raises(SpecInvariantViolation, match="iterations must lie"):
            MultiplierSpec(2, 4, np.int64(4))

    def test_default_sizing(self):
        spec = MultiplierSpec.for_width(3)
        assert (spec.n, spec.m, spec.iterations) == (3, 6, 7)

    def test_layout_registers(self):
        layout = multiplier_layout(MultiplierSpec.for_width(2))
        assert layout.widths() == {"accumulator": 4, "x": 2, "y": 2, "control": 1}
        assert layout.num_qubits == 9


def run_multiplier(spec: MultiplierSpec, x: int, y: int) -> tuple[dict, float]:
    layout = multiplier_layout(spec)
    circuit = build_multiplier(spec)
    state = new_basis_state(layout.num_qubits, encode_registers(layout, {"x": x, "y": y}))
    run(circuit, state)
    return decode_registers(layout, extract_basis_index(state, tol=1e-9)), norm(state)


class TestMultiplierCircuit:
    def test_zero_multiplier_stops_immediately(self):
        # y = 0: the very first check latches the stop qubit, no additions run
        for x in range(4):
            out, _ = run_multiplier(MultiplierSpec.for_width(2), x, 0)
            assert out == {"accumulator": 0, "x": x, "y": 0, "control": 1}

    def test_one_times_one(self):
        out, _ = run_multiplier(MultiplierSpec(n=2, m=4, iterations=3), 1, 1)
        assert out["accumulator"] == 1

    def test_three_times_two(self):
        out, _ = run_multiplier(MultiplierSpec.for_width(2), 3, 2)
        assert out["accumulator"] == 6

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_products_and_register_contract(self, n):
        """Every pair: product exact, inputs preserved, stop qubit set,
        final state a single basis vector at unit norm."""
        spec = MultiplierSpec.for_width(n)
        for x in range(1 << n):
            for y in range(1 << n):
                out, final_norm = run_multiplier(spec, x, y)
                assert out["accumulator"] == x * y
                assert out["x"] == x
                assert out["y"] == y
                assert out["control"] == 1
                assert abs(final_norm - 1.0) < 1e-9

    def test_wide_accumulator_also_works(self):
        out, _ = run_multiplier(MultiplierSpec(n=2, m=6, iterations=3), 3, 3)
        assert out["accumulator"] == 9

    def test_undersized_unroll_truncates_product(self):
        # iterations < y: the stop qubit never latches and the accumulator
        # holds x * iterations -- the 2**n - 1 bound is tight
        out, _ = run_multiplier(MultiplierSpec(n=2, m=4, iterations=2), 1, 3)
        assert out["accumulator"] == 2
        out, _ = run_multiplier(MultiplierSpec(n=2, m=4, iterations=3), 1, 3)
        assert out["accumulator"] == 3

    def test_superposed_multiplier_branches_stay_coherent(self):
        # y in (|1> + |2>)/sqrt(2) with x = 2 splits into two basis branches
        # with the respective products, each with amplitude 1/sqrt(2)
        spec = MultiplierSpec.for_width(2)
        layout = multiplier_layout(spec)
        n = layout.num_qubits
        amps = np.zeros(1 << n, dtype=complex)
        amps[encode_registers(layout, {"x": 2, "y": 1})] = 2**-0.5
        amps[encode_registers(layout, {"x": 2, "y": 2})] = 2**-0.5
        state = run(build_multiplier(spec), StateVector(n, amps))
        branch1 = encode_registers(layout, {"accumulator": 2, "x": 2, "y": 1, "control": 1})
        branch2 = encode_registers(layout, {"accumulator": 4, "x": 2, "y": 2, "control": 1})
        assert abs(abs(state.amplitudes[branch1]) - 2**-0.5) < 1e-9
        assert abs(abs(state.amplitudes[branch2]) - 2**-0.5) < 1e-9
        # nothing leaked anywhere else
        rest = np.delete(state.amplitudes, [branch1, branch2])
        assert np.max(np.abs(rest)) < 1e-9


class TestMultiplyFunction:
    def test_zero(self):
        assert multiply(0, 7, 3) == 0

    def test_small(self):
        assert multiply(3, 2, 2) == 6

    def test_full_width_product(self):
        assert multiply(7, 7, 3) == 49

    def test_operand_validation(self):
        with pytest.raises(ValueError):
            multiply(4, 0, 2)
        with pytest.raises(ValueError):
            multiply(0, -1, 2)

    @pytest.mark.parametrize("bad", [2.0, 1.5, True, np.float64(2)], ids=repr)
    @pytest.mark.parametrize("operand", ["x", "y"])
    def test_operand_that_is_no_integer_is_rejected(self, bad, operand):
        x, y = (bad, 3) if operand == "x" else (3, bad)
        with pytest.raises(ValueTooWide, match="is no integer"):
            multiply(x, y, 2)

    def test_numpy_integer_operands_accepted(self):
        assert multiply(np.int64(3), np.int64(2), 2) == 6

    def test_width_below_one_is_rejected(self):
        with pytest.raises(SpecInvariantViolation):
            multiply(0, 0, 0)

    def test_float_width_is_rejected(self):
        with pytest.raises(SpecInvariantViolation, match="n must be an integer"):
            multiply(3, 2, 2.0)

    @pytest.mark.parametrize("bad", [None, "3"], ids=repr)
    def test_width_that_is_no_number_is_rejected(self, bad):
        with pytest.raises(SpecInvariantViolation, match="n must be an integer"):
            multiply(1, 1, bad)

    def test_multiply_runs_through_the_cli_runner(self, monkeypatch):
        """One simulate-and-read path: the run goes through the name that
        the CLI's runner calls, once."""
        import qftarith.cli as cli_module

        calls = []
        real_run = cli_module.run

        def counting_run(circuit, state):
            calls.append(circuit)
            return real_run(circuit, state)

        monkeypatch.setattr(cli_module, "run", counting_run)
        assert multiply(3, 2, 2) == 6
        assert len(calls) == 1

    def test_a_wrong_product_raises_and_names_the_registers_read(self, monkeypatch):
        """With the simulation skipped the registers still hold the input,
        whose accumulator reads 0: multiply() refuses it, as the CLI's
        ``verified`` does, instead of returning 0 for 3 * 2."""
        import qftarith.cli as cli_module

        monkeypatch.setattr(cli_module, "run", lambda circuit, state: state)
        with pytest.raises(QuantumArithmeticError) as excinfo:
            multiply(3, 2, 2)
        assert excinfo.type is QuantumArithmeticError
        assert "accumulator=0, x=3, y=2, control=0" in str(excinfo.value)

    def test_budget_is_checked_before_building(self):
        """n = 6 needs 25 qubits, one past the budget: nothing is built."""
        tracemalloc.start()
        try:
            with pytest.raises(QubitBudgetExceeded):
                multiply(1, 1, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_parallel_runs_agree_with_serial(self):
        pairs = [(x, y) for x in range(4) for y in range(4)]
        serial = [multiply(x, y, 2) for x, y in pairs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda p: multiply(*p, 2), pairs))
        assert serial == threaded == [x * y for x, y in pairs]

    def test_threads_racing_to_build_and_compile_agree(self):
        """More threads than cores start on an empty memo with a short
        switch interval; a lost race may build or compile twice, but every
        product is right."""
        build_multiplier.cache_clear()
        pairs = [(x, y) for x in range(8) for y in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                products = list(pool.map(lambda p: multiply(*p, 3), pairs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert products == [x * y for x, y in pairs]


class TestClosedFormGateCounts:
    """Gate counts by formula, so a budget can refuse a circuit before it
    is built.  The transform on w qubits has w(w+1)/2 gates, the constant
    adder of -1 one kick per wire, and the register adder from n qubits
    into m has m - p kicks for the source bit of weight 2^p."""

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5, 6, 10, 20])
    def test_adder_and_decrement(self, w):
        adder = build_adder(RegisterLayout([("a", w), ("b", w)]))
        assert len(adder) == 3 * w * (w + 1) // 2
        assert len(build_decrement(RegisterLayout([("v", w)]), "v")) == w * (w + 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_multiplier(self, n):
        for m, k in product((2 * n, 2 * n + 3), (0, 1, (1 << n) - 1)):
            per_iteration = n * m - n * (n - 1) // 2 + n * (n + 2) + 1
            expected = m * (m + 1) + 1 + k * per_iteration + n * (n + 2)
            assert len(build_multiplier.__wrapped__(MultiplierSpec(n, m, k))) == expected

    def test_hand_checked_counts(self):
        assert len(build_multiplier(MultiplierSpec.for_width(5))) == 2502
        assert len(build_decrement(RegisterLayout([("v", 20)]), "v")) == 440
        assert len(build_adder(RegisterLayout([("a", 10), ("b", 10)]))) == 165


class TestStructure:
    def test_iteration_labels_present(self):
        circuit = build_multiplier(MultiplierSpec.for_width(2))
        labels = {g.label for g in circuit.gates}
        assert "qft[accumulator]" in labels
        assert "check[0]" in labels and "check[3]" in labels
        assert "add[iter 1]" in labels and "dec[iter 3]" in labels
        assert "dec[restore]" in labels
        assert "iqft[accumulator]" in labels

    def test_addition_kicks_are_doubly_controlled(self):
        circuit = build_multiplier(MultiplierSpec.for_width(2))
        adds = [g for g in circuit.gates if g.label and g.label.startswith("add")]
        assert adds and all(len(g.controls) == 2 for g in adds)
        stop = multiplier_layout(MultiplierSpec.for_width(2))["control"][0]
        assert all((stop, 0) in g.controls for g in adds)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_shared_blocks_equal_blocks_built_one_by_one(self, n):
        """The build reuses one add, dec and check block under each label;
        the circuit equals one whose every block is built afresh and whose
        every gate is labelled through ``dataclasses.replace``, which checks
        it again, not through ``labeled``, which the build uses."""
        spec = MultiplierSpec.for_width(n)
        layout = multiplier_layout(spec)
        nq = layout.num_qubits
        acc, x, y = layout["accumulator"], layout["x"], layout["y"]
        stop = layout["control"][0]

        def named(block, label):
            return Circuit(nq, tuple(dataclasses.replace(g, label=label) for g in block.gates))

        parts = [named(build_qft(acc, nq), "qft[accumulator]"),
                 named(build_zero_check(y, stop, nq), "check[0]")]
        for i in range(1, spec.iterations + 1):
            parts += [
                named(build_fourier_add_register(x, acc, ((stop, 0),), nq), f"add[iter {i}]"),
                named(build_decrement(layout, "y"), f"dec[iter {i}]"),
                named(build_zero_check(y, stop, nq), f"check[{i}]"),
            ]
        parts += [named(build_decrement(layout, "y"), "dec[restore]"),
                  named(build_inverse_qft(acc, nq), "iqft[accumulator]")]
        assert build_multiplier(spec) == concat(parts)
