"""The README's library quick start runs as written and prints what its comments say."""

import contextlib
import io
import re
from decimal import Decimal
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_matches_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    # the printed values the block states in a trailing comment, in print order
    claimed = re.findall(r"^print\(.*\)\s+#\s*(\S+)$", block, re.M)
    assert claimed == ["2.718e-4", "476.95"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == 4  # two asymptotics, the conditional report, the shortfall
    for line, text in zip(printed, claimed):
        want = Decimal(text)
        half_unit = Decimal(5).scaleb(want.as_tuple().exponent - 1)  # half the last digit
        assert abs(Decimal(line) - want) <= half_unit, (line, text)
