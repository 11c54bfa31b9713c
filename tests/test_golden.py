"""Byte-for-byte comparison of CLI output against committed golden files.

Each case is one CLI invocation at a small replication count and a fixed
seed; its stdout is stored under ``tests/golden/<name>``.  Any change to the
numbers, the row order, the seeds or the formatting shows up here.  After a
deliberate change of output (for example a new stream layout), regenerate
the files with ``PYTHONPATH=src python tests/test_golden.py``, which prints
``unchanged`` or ``rewritten`` for each file, and say so in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from archcredit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DESK = str(GOLDEN / "desk.json")  # 12 x (1, 0.5) + 8 x (2, 0.8), f = 0.3, b = 0.5
MIXED = str(GOLDEN / "mixed.json")  # 30 x (1, 0.5) + 20 x (2, 0.8), f = 1/n

CASES = {
    "table2.csv": ["table", "2", "--m", "200", "--seed", "3"],
    "table3.csv": ["table", "3", "--m", "200", "--seed", "3"],
    "table4.csv": ["table", "4", "--m", "200", "--seed", "3"],
    "table5.csv": ["table", "5", "--m", "1500", "--seed", "6"],
    "table5_alpha2.csv": ["table", "5", "--alpha", "2.0", "--m", "1500", "--seed", "6"],
    "desk_estimate.csv": [
        "estimate", "--config", DESK, "--method", "naive", "--method", "importance",
        "--method", "conditional", "--asymptotic", "--m", "500", "--seed", "11",
    ],
    "mixed_es.csv": ["es", "--config", MIXED, "--m", "2000", "--seed", "7"],
    "mixed_asymptotic.csv": ["asymptotic", "--config", MIXED, "--es"],
    "estimate.md": [
        "estimate", "--n", "100", "--b", "0.5", "--b", "0.8", "--asymptotic",
        "--m", "300", "--seed", "5", "--format", "markdown",
    ],
}


def run_case(argv, capsys) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys):
    code, out = run_case(CASES[name], capsys)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":  # regenerate the golden files
    import contextlib
    import io

    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        path, data = GOLDEN / name, buf.getvalue().encode()
        if path.exists() and path.read_bytes() == data:
            print(f"unchanged {name}")
        else:
            path.write_bytes(data)
            print(f"rewritten {name}")
