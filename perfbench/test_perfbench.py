"""Self-tests of the benchmark: the contract oracle, span self time, the tail
percentile, and the worker's stage split and kernel replay.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json

import pytest

from oracle import Op, check, check_accuracy
from run import tail
from spans import Span, Tracer, self_times, totals


def report(operation, widths, outputs):
    return json.dumps({"operation": operation, "inputs": {}, "widths": widths,
                       "outputs": outputs, "gate_count": 1, "wall_time": 0.1,
                       "verified": True})


MUL = Op("mul", (5, 6), 3)
MUL_WIDTHS = {"accumulator": 6, "x": 3, "y": 3, "control": 1}
MUL_OUT = {"accumulator": 30, "x": 5, "y": 6, "control": 1}


class TestOracle:
    def test_accepts_the_full_multiplier_contract(self):
        assert check(MUL, 0, report("mul", MUL_WIDTHS, MUL_OUT)) == []

    @pytest.mark.parametrize("corruption", [
        {"y": 7},             # y not restored (off by one)
        {"y": 5},
        {"control": 0},       # stop qubit never latched
        {"accumulator": 31},  # wrong product
        {"x": 4},             # x not preserved
    ])
    def test_rejects_a_corrupted_multiplier_report(self, corruption):
        assert check(MUL, 0, report("mul", MUL_WIDTHS, {**MUL_OUT, **corruption}))

    def test_rejects_a_missing_register(self):
        outputs = {k: v for k, v in MUL_OUT.items() if k != "control"}
        assert check(MUL, 0, report("mul", MUL_WIDTHS, outputs))

    def test_rejects_exit_code_one_even_with_a_good_report(self):
        assert check(MUL, 1, report("mul", MUL_WIDTHS, MUL_OUT)) == ["exit code 1"]

    def test_rejects_a_crash_and_unparseable_output(self):
        assert check(MUL, None, "") == ["exit code None"]
        assert check(MUL, 0, "") == ["no JSON report on stdout"]
        assert check(MUL, 0, "operation : mul") == ["no JSON report on stdout"]

    def test_add_keeps_a_and_wraps_b(self):
        op = Op("add", (3, 6), 3)
        widths = {"a": 3, "b": 3}
        assert check(op, 0, report("add", widths, {"a": 3, "b": 1})) == []
        assert check(op, 0, report("add", widths, {"a": 0, "b": 1}))
        assert check(op, 0, report("add", widths, {"a": 3, "b": 9}))

    def test_dec_wraps_below_zero(self):
        op = Op("dec", (0,), 4)
        assert check(op, 0, report("dec", {"v": 4}, {"v": 15})) == []
        assert check(op, 0, report("dec", {"v": 4}, {"v": 0}))

    def test_rejects_the_wrong_operation(self):
        assert check(MUL, 0, report("add", MUL_WIDTHS, MUL_OUT))

    def test_argv_is_what_the_cli_takes(self):
        assert Op("dec", (7,), 20).argv() == ["dec", "7", "--n", "20", "--json"]

    def test_accuracy_gate_is_inclusive_at_the_tolerance(self):
        assert check_accuracy(1e-9, 0.0) == []
        assert len(check_accuracy(2e-9, 2e-9)) == 2
        assert check_accuracy(float("nan"), 0.0)


class TestSelfTime:
    def test_synthetic_span_tree(self):
        spans = [
            Span("op", 0.0, 10.0, None),
            Span("build", 1.0, 3.0, 0),
            Span("inner", 1.5, 2.5, 1),      # grandchild: only counts against build
            Span("run", 2.0, 5.0, 0),        # overlaps build: [1, 5] covered once
            Span("readout", 9.0, 12.0, 0),   # overhangs op: only [9, 10] counts
        ]
        assert self_times(spans) == pytest.approx([5.0, 1.0, 1.0, 3.0, 3.0])
        assert totals(spans, self_times(spans))["op"] == pytest.approx(5.0)

    def test_totals_sum_by_name(self):
        spans = [Span("a", 0.0, 1.0, None), Span("b", 0.0, 0.5, 0),
                 Span("b", 0.5, 0.75, 0)]
        assert totals(spans) == pytest.approx({"a": 1.0, "b": 0.75})

    def test_tracer_nests_and_closes_spans(self):
        tracer = Tracer()
        with tracer.span("op"):
            with tracer.span("child"):
                pass
        with tracer.span("next"):
            pass
        op, child, nxt = tracer.spans
        assert (op.parent, child.parent, nxt.parent) == (None, 0, None)
        assert op.start <= child.start <= child.end <= op.end <= nxt.start


class TestTail:
    def test_needs_more_than_ten_samples(self):
        assert tail([1.0] * 10) is None

    def test_highest_percentile_with_ten_beyond(self):
        t = tail([float(i) for i in range(100, 0, -1)])
        assert t == {"value": 90.0, "percentile": 90.0, "samples": 100}


class TestWorker:
    @pytest.fixture(scope="class")
    def worker(self):
        return pytest.importorskip("worker")

    @pytest.mark.parametrize("kind, n", [("mul", 2), ("add", 3), ("dec", 4)])
    def test_stages_rebuild_the_circuit(self, worker, kind, n):
        from qftarith import RegisterLayout, MultiplierSpec, build_adder, build_decrement
        from qftarith import build_multiplier

        if kind == "mul":
            circuit = build_multiplier(MultiplierSpec.for_width(n))
            expected = {"qft", "add", "dec", "check", "iqft"}
        elif kind == "add":
            circuit = build_adder(RegisterLayout([("a", n), ("b", n)]))
            expected = {"qft", "add", "iqft"}
        else:
            circuit = build_decrement(RegisterLayout([("v", n)]), "v")
            expected = {"qft", "add", "iqft"}
        stages = worker.split_stages(kind, circuit)
        assert sum((part.gates for _, part in stages), ()) == circuit.gates
        assert {name for name, _ in stages} == expected

    def test_replay_matches_run_and_counts_every_gate(self, worker):
        import numpy as np
        from qftarith import MultiplierSpec, build_multiplier, new_basis_state, run

        circuit = build_multiplier(MultiplierSpec.for_width(2))
        reference = run(circuit, new_basis_state(9, 0b000011101))
        replayed = new_basis_state(9, 0b000011101)
        kernels = {}
        worker.replay(circuit, replayed, kernels)
        np.testing.assert_array_equal(replayed.amplitudes, reference.amplitudes)
        assert sum(k[1] for k in kernels.values()) == len(circuit)
        assert set(kernels) == {"H.c0", "PHASE.c0", "PHASE.c1", "PHASE.c2", "X.cN"}

    def test_accuracy_of_a_basis_state_is_exact(self, worker):
        import numpy as np

        amps = np.zeros(8, dtype=complex)
        amps[5] = 1.0
        assert worker.accuracy(amps) == {"norm_drift": 0.0, "off_basis_mass": 0.0}
        amps[5], amps[2] = np.sqrt(0.75), 0.5
        assert worker.accuracy(amps)["off_basis_mass"] == pytest.approx(0.25)
