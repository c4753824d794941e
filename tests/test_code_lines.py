"""``tools/code_lines.py`` counts the lines that hold code: not comments,
docstrings, blank lines or indentation, but every line of a multi-line
string that is part of a statement.  It prints each module's physical
lines beside them."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""Module docstring,
on two lines."""
# a comment

import os  # counted


def f(x):
    """Docstring."""

    return os.path.join(
        """a string argument
        on two lines""",
        x,
    )
'''


def test_counts_code_lines_per_module_and_in_total(tmp_path):
    """Code lines beside the lines ``wc -l`` counts, one per newline."""
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n')
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["module", "code", "lines"], ["a.py", "7", "15"], ["b.py", "0", "1"],
        ["total", "7", "16"]]


def test_a_directory_with_no_module_exits_2(tmp_path):
    """A mistyped path printed ``total 0 0`` and exited 0."""
    for path in (tmp_path, tmp_path / "no_such_dir"):
        done = subprocess.run([sys.executable, str(SCRIPT), str(path)], capture_output=True,
                              text=True)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == f"no module in {path}\n"
