"""Every script in ``demos/`` runs to the end and prints its result.

Each demo runs in its own interpreter with ``src`` on the path, as a reader
would run it from a clone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = {
    "01_fourier_phases.py": [
        "wire 0 phase: 0.7500 turns",
        "wire 1 phase: 0.5000 turns",
        "back to basis state 3",
    ],
    "02_subtract_one.py": [
        "full gate on |11>:  ->  |10>  (the number 2)",
        "decrement 2 -> 1",
        "decrement 1 -> 0",
        "decrement 0 -> 3",
    ],
    "03_inplace_adder.py": [
        "7 + 7 = 6  (mod 8, register a still 7)",
        "exhaustive sweep: 0 mismatches out of 64 pairs",
    ],
    "04_multiplier.py": [
        "{'accumulator': 6, 'x': 3, 'y': 2, 'control': 1}",
        "0  7 14 21 28 35 42 49",  # 7 x 0 .. 7 x 7
        "iterations=3: accumulator=3",
    ],
}


def test_every_demo_has_an_expected_result():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs_and_prints_its_result(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    for line in EXPECTED[name]:
        assert line in result.stdout
