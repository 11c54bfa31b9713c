"""Every case of ``contracts.py``, run through ``cli.main`` in-process.

Here pytest turns a ``RuntimeWarning`` into an error, and each run has
``IN_PROCESS_SECONDS`` of wall time.  Run as a script,
``python tests/test_contracts.py EXE`` runs the same cases through the
executable ``EXE`` (an installed ``archcredit`` entry point), each in a
subprocess with ``SUBPROCESS_SECONDS`` of wall time; it prints each broken
case with what broke and exits 1 if any case broke.
"""

import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from archcredit.cli import main
from contracts import CASES, time_limit

IN_PROCESS_SECONDS = 10
SUBPROCESS_SECONDS = 60


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``archcredit argv`` through ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), time_limit(IN_PROCESS_SECONDS):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def executable(exe: str):
    """A runner of ``exe argv`` in a subprocess, like ``run_in_process``."""
    def run(argv: list[str]) -> tuple[int, str, str]:
        try:
            done = subprocess.run([exe, *argv], capture_output=True, text=True,
                                  timeout=SUBPROCESS_SECONDS)
        except subprocess.TimeoutExpired:
            raise TimeoutError(f"still running after {SUBPROCESS_SECONDS} s") from None
        return done.returncode, done.stdout, done.stderr

    return run


def _argv(argv: list, folder: Path) -> list[str]:
    """argv with each config dict written to a file in ``folder`` and replaced by its path."""
    args = []
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = folder / f"config{i}.json"
            path.write_text(json.dumps(arg), encoding="utf-8")
            arg = str(path)
        args.append(arg)
    return args


def _finite(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def _stderr_problems(err: str) -> list[str]:
    return [f"stderr holds {text!r}" for text in ("RuntimeWarning", "Traceback") if text in err]


def problems(case: dict, run, folder: Path) -> list[str]:
    """What ``run`` breaks of the contract of ``case``; empty if it holds."""
    code, out, err = run(_argv(case["argv"], folder))
    found = _stderr_problems(err)
    if code != case["code"]:
        found.append(f"exit {code}, expected {case['code']}")
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != case["rows"] or (case["rows"] == 0 and out):
        found.append(f"{len(rows)} rows on stdout, expected {case['rows']}: {out!r}")
    for text, count in case.get("err", {}).items():
        if err.count(text) != count:
            found.append(f"stderr holds {text!r} {err.count(text)} times, expected {count}")
    for i, row in enumerate(rows):
        for name, value in row.items():
            if name != "method" and value and not _finite(value):
                found.append(f"row {i}: {name} = {value!r} is not a finite number")
    for i, (spec, row) in enumerate(zip(case.get("fields", []), rows)):
        for name, want in spec.items():
            if not (bool(row[name]) if want is True else row[name] == want):
                found.append(f"row {i}: {name} = {row[name]!r}, expected "
                             f"{'a value' if want is True else repr(want)}")
    if "ends_with" in case:
        alone_code, alone, alone_err = run(_argv(case["ends_with"], folder))
        found += _stderr_problems(alone_err)
        tail = alone.splitlines()[1:]
        if alone_code != 0 or not tail or out.splitlines()[-len(tail):] != tail:
            found.append(f"the last rows differ from those of {case['ends_with']} alone "
                         f"(exit {alone_code})")
    return found


@pytest.mark.parametrize("case", CASES, ids=lambda case: case["id"])
def test_contract_holds_in_process(case, tmp_path):
    assert problems(case, run_in_process, tmp_path) == []


if __name__ == "__main__":  # run every case through the executable named by the one argument
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/test_contracts.py EXE")
    run = executable(sys.argv[1])
    broken = 0
    with tempfile.TemporaryDirectory() as folder:
        for case in CASES:
            try:
                found = problems(case, run, Path(folder))
            except OSError as exc:  # a timeout, or an executable that cannot start
                found = [str(exc)]
            broken += bool(found)
            for problem in found:
                print(f"{case['id']}: {problem}")
    print(f"{len(CASES) - broken} of {len(CASES)} cases hold")
    sys.exit(1 if broken else 0)
