"""The CLI's option inventory and its one row path.

Every setting is declared once, in ``cli._OPTIONS``, and the parser, the
config loader and the flag overrides are all built from that table.  The
inventory below is written out by hand, so a table edit that drops, adds or
moves a flag or a config key fails here.  Every command, ``asymptotic``
included, runs through ``_plan`` and ``_execute``, so a failure while
computing one row leaves only that row empty.
"""

import csv
import io

import archcredit.cli as cli
from archcredit.errors import NumericalError

COMMON = [
    "--config", "--alpha", "--n", "--l", "--c", "--scale", "--f", "--b", "--m", "--seed",
    "--x0", "--format", "--output", "-o", "--timings",
]
CONFIG_KEYS = [
    "alpha", "asymptotic", "b", "c", "format", "groups", "l", "m", "methods", "n", "output",
    "scale", "seed", "timings", "x0",
]


def _flags(command: str) -> tuple[list[str], list[str]]:
    """The option strings and the positional names of one subcommand, in order."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    flags = [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
    positionals = [a.dest for a in sub._actions if not a.option_strings]
    return flags, positionals


def test_option_inventory():
    before_m = COMMON.index("--m")
    assert _flags("estimate") == (
        COMMON[:before_m] + ["--method"] + COMMON[before_m:] + ["--asymptotic"], []
    )
    assert _flags("es") == (COMMON, [])
    assert _flags("asymptotic") == (COMMON + ["--es"], [])
    assert _flags("table") == (COMMON, ["table"])
    assert sorted(opt.key for opt in cli._OPTIONS if opt.key) == CONFIG_KEYS


def test_underflowing_model_is_a_config_error(capsys):
    for method in ("naive", "conditional"):
        argv = ["estimate", "--alpha", "100", "--n", "1000", "--method", method, "--m", "100"]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "underflows" in err
    code = cli.main(["estimate", "--alpha", "100", "--n", "50", "--method", "naive",
                     "--method", "conditional", "--m", "200"])
    capsys.readouterr()
    assert code == 0


def test_asymptotic_failure_fails_only_its_row(capsys, monkeypatch):
    real = cli.expected_shortfall_asymptotic
    calls = []

    def fail_first(inputs):
        calls.append(inputs.portfolio.n)
        if len(calls) == 1:
            raise NumericalError("injected failure")
        return real(inputs)

    monkeypatch.setattr(cli, "expected_shortfall_asymptotic", fail_first)
    code = cli.main(["asymptotic", "--n", "100", "--n", "500", "--b", "0.8", "--es"])
    out, err = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 3
    assert [(r["method"], r["n"]) for r in rows] == [
        ("asymptotic_tail", "100"), ("asymptotic_es", "100"),
        ("asymptotic_tail", "500"), ("asymptotic_es", "500"),
    ]
    assert [r["asymptotic"] == "" for r in rows] == [False, True, False, False]
    assert all(r["seed"] == "" for r in rows)
    assert "injected failure" in err
