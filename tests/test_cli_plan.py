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

import pytest

import archcredit.cli as cli
import archcredit.portfolio as portfolio
from archcredit import homogeneous_shortfall_asymptotic, homogeneous_tail_asymptotic
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
    # the asymptotics never evaluate phi: the same model is a valid point for them
    code = cli.main(["asymptotic", "--alpha", "100", "--n", "1000", "--es"])
    out, _ = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0
    assert [r["method"] for r in rows] == ["asymptotic_tail", "asymptotic_es"]
    tail, es = (float(r["asymptotic"]) for r in rows)
    assert tail == pytest.approx(homogeneous_tail_asymptotic(100.0, 1e-3, 0.8, 0.5, 1.0), rel=1e-12)
    assert es == pytest.approx(homogeneous_shortfall_asymptotic(100.0, 0.8, 1.0, 1000), rel=1e-12)


def _count_solves(monkeypatch) -> list:
    calls = []
    real = portfolio.solve_vstar
    monkeypatch.setattr(portfolio, "solve_vstar", lambda *a: calls.append(a) or real(*a))
    return calls


def test_one_vstar_solve_per_curve(capsys, monkeypatch):
    # the rows of one (alpha, n, b) point share its model, and the models of
    # one group mix and alpha share its curve at every n: one solve takes
    # all its levels
    calls = _count_solves(monkeypatch)
    code = cli.main(["asymptotic", "--n", "100", "--n", "500", "--b", "0.5", "--b", "0.8", "--es"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 8
    assert [(alpha, b) for _, alpha, b in calls] == [(1.5, [0.5, 0.8])]
    # a preset's n grid too, and its alpha grid solves once per alpha
    for command, solves in (("table 4", [(1.5, [0.8])]), ("table 5", [(1.5, [0.8])]),
                            ("table 2", [(a, [0.8]) for a in (1.1, 1.5, 2.0, 5.0)])):
        calls.clear()
        for task in cli._plan(cli.Settings(), command, set()):
            task.point.vstar
        assert [(alpha, b) for _, alpha, b in calls] == solves, command


def test_no_curve_outlives_a_command(capsys, monkeypatch):
    # the curve store lives in one plan: a second identical command solves again
    calls = _count_solves(monkeypatch)
    argv = ["asymptotic", "--n", "100", "--n", "500", "--b", "0.5", "--b", "0.8", "--es"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert [(alpha, b) for _, alpha, b in calls] == [(1.5, [0.5, 0.8])] * 2


@pytest.mark.parametrize("alpha,extra,code", [
    ("1.1", (), 0), ("1.5", (), 0), ("5", (), 0), ("30", (), 0),
    # v* at b = 1e-320 is subnormal: that level fails at every n, alone
    ("5", ("--l", "50", "--b", "1e-320"), 3),
])
def test_n_grid_rows_equal_each_n_alone(capsys, alpha, extra, code):
    # the sizes of a grid share one curve; each n prints, byte for byte, the
    # rows it prints alone
    sizes = ["100", "250", "1000"]
    argv = ["asymptotic", "--alpha", alpha, *extra, "--b", "0.5", "--b", "0.8", "--es"]
    assert cli.main(argv + [a for n in sizes for a in ("--n", n)]) == code
    grid, err = capsys.readouterr()
    lines = grid.splitlines()
    alone = []
    for n in sizes:
        assert cli.main(argv + ["--n", n]) == code
        alone += capsys.readouterr().out.splitlines()[1:]
    assert lines[1:] == alone
    assert len(alone) == len(sizes) * (6 if extra else 4)
    if extra:
        rows = list(csv.DictReader(io.StringIO(grid)))
        failed = [r for r in rows if float(r["b"]) == 1e-320]
        assert len(failed) == 2 * len(sizes)
        assert all(r["asymptotic"] == "" for r in failed)
        assert err.count("Newton solve for v* at b=1e-320 stalled") == 2 * len(sizes)
        assert all(r["asymptotic"] for r in rows if float(r["b"]) != 1e-320)


def test_one_model_build_per_point(capsys, monkeypatch):
    # a Monte Carlo row runs the model of its point: one validation per
    # (alpha, n, b) point, however many rows the point has
    calls = []
    real = portfolio.check_model
    monkeypatch.setattr(portfolio, "check_model", lambda *a: calls.append(a) or real(*a))
    code = cli.main(["estimate", "--method", "importance", "--method", "conditional",
                     "--asymptotic", "--n", "100", "--b", "0.5", "--b", "0.8", "--m", "64"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 4
    assert [b for *_, b in calls] == [0.5, 0.8]
    tasks = cli._plan(cli.Settings(n=[100], b=[0.5, 0.8]), "estimate", set())
    assert len(tasks) == 4
    assert all(task.config.model is task.point for task in tasks)


def test_asymptotic_failure_fails_only_its_row(capsys, monkeypatch):
    real = cli.expected_shortfall_asymptotic
    calls = []

    def fail_first(model):
        calls.append(model.portfolio.n)
        if len(calls) == 1:
            raise NumericalError("injected failure")
        return real(model)

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
