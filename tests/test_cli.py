"""Command-line interface: reports, oracle verification, exit codes,
JSON round-trips, and circuit listings."""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import build_parser
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qftarith import errors
from qftarith.cli import _COMMANDS, RunReport, _namespace, _run, main, oracle, parse_args
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
        args = parse_args([name, *map(str, range(len(operands))), "--n", "3"])
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
            _run(parse_args(["add", "9", "0", "--n", "2"]))
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
            _run(parse_args(argv))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --n must be at least 1, got {bad}\n"

    def test_unwritable_listing_path_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "dec.txt"
        assert main(["dec", "3", "--n", "2", "--emit-circuit", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert "verified" not in captured.out

    def test_empty_listing_path_is_usage_error(self, capsys):
        assert main(["dec", "3", "--n", "2", "--emit-circuit", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "verified" not in captured.out

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, err", [
        ([], "usage: qftarith [-h] {add,dec,mul} ...\n"
             "qftarith: error: the following arguments are required: command\n"),
        (["mul", "5", "--n", "3"],
         "usage: qftarith mul [-h] --n WIDTH [--emit-circuit PATH] [--json] [--acc-width M] "
         "[--iterations K] x y\nqftarith mul: error: the following arguments are required: y\n"),
        (["dec", "x", "--n", "3"], "usage: qftarith dec [-h] --n WIDTH [--emit-circuit PATH] "
         "[--json] v\nqftarith dec: error: argument v: invalid int value: 'x'\n"),
    ])
    def test_usage_error_prints_usage_and_the_command(self, capsys, argv, err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == err and captured.out == ""


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
        report, _ = _run(parse_args(argv))
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
    """main() keeps no parse state between calls; no call may see another's
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

    def test_parse_args_returns_a_fresh_namespace(self):
        argv = ["mul", "5", "6", "--n", "3"]
        first, second = parse_args(argv), parse_args(argv)
        assert first is not second and vars(first) == vars(second)


_FLAGS = sorted({flag for command in _COMMANDS.values() for flag in command.options})
_VALUES = ["3", "-3", "1_0", " 3", "0", "x", "-", ""]


def _parsed(parse, argv):
    """``vars`` of the namespace ``parse`` returns, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


@st.composite
def _argvs(draw):
    """A command, or an operand-like token in its place, then about as many
    operands as it takes and options, mostly its own and ``--n`` most often
    among them, in any order: each option spelled in full or by a prefix,
    its value (a flag, at times) in the next token or after '=', or
    missing.  Valid tokens and forms are drawn more often, so that many
    argvs parse.  Neither ``-h``
    nor ``--`` is drawn; each has its own test."""
    head = draw(st.sampled_from([*_COMMANDS] * 6 + _VALUES + _FLAGS))
    count = len(_COMMANDS[head].operands) if head in _COMMANDS else 1
    values = st.sampled_from(_VALUES[:5] * 3 + _VALUES)
    size = draw(st.sampled_from([count] * 4 + [max(count - 1, 0), count + 1]))
    groups = [[value] for value in draw(st.lists(values, min_size=size, max_size=size))]
    own = [*_COMMANDS[head].options] if head in _COMMANDS else []
    flags = draw(st.lists(st.sampled_from(own * 3 + _FLAGS), max_size=3))
    for flag in flags + ["--n"] * draw(st.sampled_from([0, 1, 1, 1])):
        spelled = flag[:draw(st.integers(3, len(flag)))]
        value = draw(st.sampled_from(_VALUES[:5] * 3 + _VALUES + _FLAGS))  # a flag as a value too
        forms = [[spelled, value], [f"{spelled}={value}"], [spelled]]
        groups.append(draw(st.sampled_from(forms[2:] * 4 + forms if flag == "--json" else
                                           forms[:2] * 4 + forms)))
    return [head, *(token for group in draw(st.permutations(groups)) for token in group)]


class TestParser:
    """``parse_args`` reads argv as the argparse parser it replaced did
    (``conftest.build_parser``): the same values, or exit 2 from both."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_argvs())
    @example(["mul", "5", "6", "--n", "3", "--it", "2", "--acc=8", "--js"])
    @example(["add", "--n=-2", "1", "2", "--emit", "-3"])
    @example(["add", "1", "2", "--n", "3", "--e", "--json"])
    def test_agrees_with_argparse(self, argv):
        assert _parsed(parse_args, argv) == _parsed(build_parser().parse_args, argv)

    def test_generated_argvs_often_parse(self):
        """Enough drawn argvs succeed that the property compares values."""
        results = []

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(_argvs())
        def collect(argv):
            results.append(_parsed(parse_args, argv))

        collect()
        assert sum(isinstance(result, dict) for result in results) >= 20

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--he"], ["mul", "--help"], ["add", "1", "-h"], ["dec", "--hel"],
        # help wins over a bad value or an unknown option before it; argparse
        # stopped at the bad value and exited 2
        ["dec", "--n", "x", "-h"], ["add", "--bogus", "--help"],
    ])
    def test_help_anywhere_prints_help_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        name = argv[0] if argv[0] in _COMMANDS else None
        if name is None:
            assert out.startswith("usage: qftarith [-h] {add,dec,mul} ...\n")
            assert all(f"{n}  {c.help}" in out for n, c in _COMMANDS.items())
        else:
            assert out.startswith(f"usage: qftarith {name} [-h] --n WIDTH ")
            assert "-h, --help" in out
            assert all(o.help in out for o in _COMMANDS[name].options.values())
            assert _COMMANDS[name].help in out

    def test_double_dash_makes_every_later_token_an_operand(self):
        assert parse_args(["dec", "--n", "3", "--", "5"]).v == 5
        assert parse_args(["dec", "--n", "3", "--", "-1_0"]).v == -10
        # argparse read this as b == [], through its handling of "--"
        assert _parsed(parse_args, ["add", "--n=-2", "--", "4", "--"]) == 2
        # after "--", neither "-h" nor an option is one
        assert _parsed(parse_args, ["dec", "--", "-h", "--n", "3"]) == 2
        assert _parsed(parse_args, ["dec", "7", "--", "--n", "3"]) == 2

    def test_multiply_namespace_has_every_option_default(self):
        parsed = parse_args(["mul", "5", "6", "--n", "3"])
        assert vars(_namespace("mul", x=5, y=6, n=3)) == vars(parsed)


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


_NUMPY_FREE = """
import json, sys
import qftarith.cli as cli
assert "numpy" not in sys.modules, "importing qftarith.cli loaded numpy"
assert "argparse" not in sys.modules, "importing qftarith.cli loaded argparse"
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, f"{argv} loaded numpy"
    assert "argparse" not in sys.modules, f"{argv} loaded argparse"
import qftarith.qstate as qstate
from qftarith import StateVector, apply_hadamard
state = apply_hadamard(StateVector(1, [0, 1]), 0)  # a dense state imports numpy
assert qstate.np is sys.modules["numpy"], "np was not rebound to numpy"
assert qstate.np.allclose(state.amplitudes, [0.5 ** 0.5, -(0.5 ** 0.5)])
"""


class TestNumpyFree:
    """A basis-state command at 10 qubits or more loads no numpy: ``run``
    keeps its qubits as bits, and the multiplier's accumulator as a frame,
    and ``qftarith.qstate`` imports numpy only when an array is needed.
    Below ``_FUSE_FROM_QUBITS`` (10 qubits) ``run`` is the gate-by-gate
    replay, which expands the state and so imports numpy; the threshold
    stays, because perfbench/test_perfbench.py holds the 9-qubit
    multiplier's run bitwise equal to that replay."""

    COMMANDS = (["add", "5", "9", "--n", "10"], ["dec", "5", "--n", "12"],
                ["mul", "5", "6", "--n", "3"], ["mul", "31", "31", "--n", "5"])

    def test_basis_state_commands_never_import_numpy(self, tmp_path):
        argvs = [[*argv, *flags] for argv in self.COMMANDS
                 for flags in (["--json"], ["--emit-circuit", str(tmp_path / "listing.txt")])]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", _NUMPY_FREE, json.dumps(argvs)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.count('"verified": true') == len(self.COMMANDS)
        assert result.stdout.count("verified  : yes") == len(self.COMMANDS)
