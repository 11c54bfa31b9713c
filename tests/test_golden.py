"""Byte-for-byte comparison of CLI output against committed golden files.

Each case is one CLI invocation at a small replication count and a fixed
seed; its stdout is stored under ``tests/golden/<name>``.  Any change to the
numbers, the row order, the seeds or the formatting shows up here.  After a
deliberate change of output (for example a new stream layout), regenerate
the files with ``PYTHONPATH=src python tests/test_golden.py``, which prints
``unchanged`` or ``rewritten`` for each file, with the columns whose fields
changed and the largest relative change in each, and say so in CHANGES.md.
"""

import csv
import io
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


def _fields(text: str) -> list[list[str]]:
    """The rows of a CSV or markdown report, header included, as field lists."""
    if text.startswith("|"):
        lines = [ln for ln in text.splitlines() if not ln.startswith("|-")]
        return [[f.strip() for f in ln.strip("|").split("|")] for ln in lines]
    return list(csv.reader(io.StringIO(text)))


def describe_change(old: str, new: str) -> str:
    """The columns whose fields differ, each with its largest relative change
    (numeric fields) or ``text`` (any other difference)."""
    old_rows, new_rows = _fields(old), _fields(new)
    if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
        return f"rows or header changed ({len(old_rows)} -> {len(new_rows)} lines)"
    worst: dict[str, float | str] = {}
    for before, after in zip(old_rows[1:], new_rows[1:]):
        for col, a, b in zip(new_rows[0], before, after):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
                rel = abs(y - x) / abs(x) if x else abs(y - x)
            except ValueError:
                worst[col] = "text"
                continue
            if worst.get(col) != "text":
                worst[col] = max(rel, worst.get(col, 0.0))
    return ", ".join(
        f"{col} {v:.2g}" if isinstance(v, float) else f"{col} {v}" for col, v in worst.items()
    )


if __name__ == "__main__":  # regenerate the golden files
    import contextlib

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
            change = describe_change(path.read_text(), data.decode()) if path.exists() else "new"
            path.write_bytes(data)
            print(f"rewritten {name}: {change}")
