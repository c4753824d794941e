"""Command-line interface: reports, oracle verification, exit codes,
JSON round-trips, and circuit listings."""

import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qftarith import errors
from qftarith.cli import _COMMANDS, RunReport, _run, build_parser, main, oracle
from qftarith.errors import SpecInvariantViolation, ValueTooWide
from qftarith.multiplier import multiply


class TestOracle:
    def test_add_wraps(self):
        assert oracle("add", (3, 6), 3) == 1

    def test_dec_wraps(self):
        assert oracle("dec", (0,), 2) == 3

    def test_mul_exact(self):
        assert oracle("mul", (7, 7), 3) == 49

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            oracle("div", (1, 1), 2)

    @pytest.mark.parametrize("operation, operands", [("add", (1,)), ("mul", (1, 2, 3))])
    def test_wrong_operand_count_names_the_operands(self, operation, operands):
        with pytest.raises(ValueError, match=r"add\(a, b\), dec\(v\), mul\(x, y\)"):
            oracle(operation, operands, 3)


class TestCommands:
    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    def test_positionals_are_the_table_operands_in_order(self, name):
        operands = _COMMANDS[name].operands
        args = build_parser().parse_args([name, *map(str, range(len(operands))), "--n", "3"])
        assert tuple(getattr(args, operand) for operand in operands) == tuple(range(len(operands)))

    def test_dec_worked_example(self, capsys):
        assert main(["dec", "3", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "v=2" in out
        assert "verified  : yes" in out

    def test_mul(self, capsys):
        assert main(["mul", "3", "2", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "accumulator=6" in out
        assert "verified  : yes" in out

    def test_add_smallest(self, capsys):
        assert main(["add", "0", "0", "--n", "1"]) == 0
        assert "b=0" in capsys.readouterr().out

    def test_add_wraparound(self, capsys):
        assert main(["add", "3", "6", "--n", "3"]) == 0
        assert "b=1" in capsys.readouterr().out

    def test_truncated_multiplier_exits_one(self, capsys):
        # 2 iterations cannot absorb y = 3: output 2, oracle 6/2... mismatch
        assert main(["mul", "1", "3", "--n", "2", "--iterations", "2"]) == 1
        out = capsys.readouterr().out
        assert "accumulator=2" in out
        assert "verified  : no" in out

    def test_unrestored_y_is_not_verified(self, capsys):
        # the product is right, but two iterations leave the y counter at 2
        assert main(["mul", "3", "1", "--n", "2", "--iterations", "2"]) == 1
        out = capsys.readouterr().out
        assert "accumulator=3" in out and "y=2" in out
        assert "verified  : no" in out

    def test_acc_width_flag(self, capsys):
        assert main(["mul", "3", "3", "--n", "2", "--acc-width", "6"]) == 0
        assert "accumulator=9" in capsys.readouterr().out


class TestUsageErrors:
    def test_operand_too_wide(self, capsys):
        assert main(["add", "9", "0", "--n", "2"]) == 2
        assert "does not fit" in capsys.readouterr().err

    def test_operand_error_is_the_type_multiply_raises(self):
        with pytest.raises(ValueTooWide):
            _run(build_parser().parse_args(["add", "9", "0", "--n", "2"]))
        with pytest.raises(ValueTooWide):
            multiply(4, 0, 2)

    def test_operand_too_wide_is_an_alias(self):
        assert errors.OperandTooWide is errors.ValueTooWide

    def test_dec_budget(self, capsys):
        assert main(["dec", "0", "--n", "25"]) == 2
        err = capsys.readouterr().err
        assert "2^25" in err and "budget" in err

    def test_mul_budget(self, capsys):
        # 4n + 1 qubits: n = 6 needs 25, one past the cap
        assert main(["mul", "0", "0", "--n", "6"]) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mul", "0", "0", "--n", "100000000"],
        ["mul", "0", "0", "--n", "4000"],
        ["dec", "0", "--n", "20000"],
    ])
    def test_huge_width_is_rejected_by_budget_before_allocating(self, capsys, argv):
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert "budget" in err and "2^" in err
        assert peak < 1 << 20

    def test_undersized_accumulator_is_usage_error(self, capsys):
        assert main(["mul", "1", "1", "--n", "2", "--acc-width", "3"]) == 2

    def test_iterations_past_largest_multiplier_is_usage_error(self, capsys):
        assert main(["mul", "3", "1", "--n", "2", "--iterations", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "verified" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["add", "0", "0", "--n", "-1"],
        ["mul", "0", "0", "--n", "-2"],
        ["dec", "0", "--n", "0"],
    ])
    def test_width_below_one_is_typed_usage_error(self, capsys, argv):
        bad = argv[-1]
        with pytest.raises(SpecInvariantViolation):
            _run(build_parser().parse_args(argv))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --n must be at least 1, got {bad}\n"

    def test_unwritable_listing_path_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "dec.txt"
        assert main(["dec", "3", "--n", "2", "--emit-circuit", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert "verified" not in captured.out

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestJson:
    def test_report_round_trips(self):
        report = RunReport(
            operation="mul",
            inputs={"x": 3, "y": 2, "iterations": 3},
            widths={"accumulator": 4, "x": 2, "y": 2, "control": 1},
            outputs={"accumulator": 6, "x": 3, "y": 2, "control": 1},
            gate_count=77,
            wall_time=0.00123,
            verified=True,
        )
        assert RunReport.from_json(report.to_json()) == report

    def test_json_flag_emits_parseable_report(self, capsys):
        assert main(["mul", "3", "2", "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = RunReport(**payload)
        assert report.operation == "mul"
        assert report.outputs["accumulator"] == 6
        assert report.verified is True
        assert report.gate_count == 77
        # round trip through the dataclass again
        assert RunReport.from_json(report.to_json()) == report

    @pytest.mark.parametrize("argv", [
        ["mul", "5", "6", "--n", "3"],
        ["add", "3", "4", "--n", "4"],
        ["dec", "0", "--n", "2"],
    ])
    def test_to_json_is_byte_identical_to_asdict(self, argv):
        """``to_json`` dumps the fields without ``asdict``'s deep copy, and
        the text is the same, key order included."""
        report, _ = _run(build_parser().parse_args(argv))
        assert report.to_json() == json.dumps(dataclasses.asdict(report))

    def test_json_dec(self, capsys):
        assert main(["dec", "0", "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"] == {"v": 3}
        assert payload["verified"] is True

    def test_python_dash_m_runs_the_cli(self):
        """``python -m qftarith`` reaches ``main`` through ``__main__.py``
        and exits with its code."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "qftarith", "dec", "5", "--n", "4", "--json"],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["outputs"] == {"v": 4}
        assert payload["verified"] is True


class TestEmitCircuit:
    def test_listing_file_matches_documented_format(self, tmp_path, capsys):
        path = tmp_path / "dec.txt"
        assert main(["dec", "3", "--n", "2", "--emit-circuit", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 8
        assert all(line.startswith("GATE ") for line in lines)
        assert "GATE PHASE(-1/4) target=0" in lines
        assert "GATE PHASE(-1/2) target=1" in lines

    def test_multiplier_listing_carries_labels(self, tmp_path, capsys):
        path = tmp_path / "mul.txt"
        assert main(["mul", "1", "1", "--n", "2", "--emit-circuit", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert "# check[0]" in text
        assert "# add[iter 1]" in text
        assert "# dec[restore]" in text


class TestParserReuse:
    """main() parses with one parser per process; no call may see another's
    options."""

    def test_successive_calls_keep_their_own_options(self, capsys):
        assert main(["mul", "5", "6", "--n", "3", "--iterations", "2", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"] == {"x": 5, "y": 6, "iterations": 2}
        assert report["outputs"]["accumulator"] == 10
        assert main(["mul", "5", "6", "--n", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"] == {"x": 5, "y": 6, "iterations": 7}
        assert report["outputs"] == {"accumulator": 30, "x": 5, "y": 6, "control": 1}
        assert report["verified"] is True
        with pytest.raises(SystemExit) as exc:
            main(["mul", "5", "--n", "3"])
        assert exc.value.code == 2
        assert main(["add", "9", "0", "--n", "2"]) == 2
        capsys.readouterr()
        assert main(["dec", "0", "--n", "4", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["operation"] == "dec"
        assert report["inputs"] == {"v": 0} and report["outputs"] == {"v": 15}
        assert report["widths"] == {"v": 4} and report["verified"] is True

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestListingsAreStable:
    """The ``--emit-circuit`` listings, byte for byte."""

    @pytest.mark.parametrize("argv, md5", [
        (["mul", "5", "6", "--n", "3"], "73bac7208bc91b8022c84f996033b1f8"),
        (["add", "3", "4", "--n", "4"], "219bdcf410ef5ef3ceb5fc57bf7f526e"),
        (["dec", "3", "--n", "5"], "47bf7cec8d64a02cdd8005ae47cb9cab"),
    ])
    def test_listing_md5(self, tmp_path, capsys, argv, md5):
        path = tmp_path / "circuit.txt"
        assert main([*argv, "--emit-circuit", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.md5(path.read_bytes()).hexdigest() == md5


class TestBenchmarkHooks:
    """perfbench/worker.py wraps names that qftarith.cli calls; a successful
    run that bypasses them makes the worker raise BenchmarkBroken."""

    @pytest.fixture
    def worker(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module("worker")

    @pytest.mark.parametrize("mode, argv", [
        ("trace", ["add", "3", "4", "--n", "3", "--json"]),
        ("trace", ["dec", "3", "--n", "4", "--json"]),
        ("trace", ["mul", "3", "2", "--n", "2", "--json"]),
        ("replay", ["mul", "3", "2", "--n", "2", "--json"]),
    ])
    def test_worker_reaches_every_hook(self, worker, mode, argv):
        assert worker.serve({"mode": mode, "argv": argv})["rc"] == 0
