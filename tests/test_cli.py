import csv
import io
import json
import math
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

import archcredit.cli as cli
from archcredit.cli import COLUMNS, main


DESK = str(Path(__file__).resolve().parent / "golden" / "desk.json")  # 12 + 8 obligors


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


@contextmanager
def time_limit(seconds):
    """A TimeoutError in the block once ``seconds`` of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestAsymptoticCommand:
    def test_size_sweep_matches_tail_approximation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "asymptotic",
            "--alpha", "1.5",
            "--n", "100", "--n", "250", "--n", "500", "--n", "1000",
            "--b", "0.8",
        )
        assert code == 0
        rows = parse_csv(out)
        got = [float(r["asymptotic"]) for r in rows]
        want = [1.359e-3, 5.436e-4, 2.718e-4, 1.359e-4]
        for g, w in zip(got, want):
            assert float(f"{g:.4g}") == w

    def test_es_flag_adds_shortfall_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotic", "--n", "500", "--b", "0.8", "--es"
        )
        assert code == 0
        rows = parse_csv(out)
        methods = [r["method"] for r in rows]
        assert methods == ["asymptotic_tail", "asymptotic_es"]
        assert float(rows[1]["asymptotic"]) == pytest.approx(476.95021, abs=1e-3)


class TestOverflowingModel:
    # alpha = 200, l = 100, n = 1000, b = 0.5: l**alpha = 100**200 overflows
    # and phi(1 - f_n) = (-log1p(-1e-3))**200 underflows, but the model is
    # valid and the conditional estimator reads it
    POINT = ("--alpha", "200", "--l", "100", "--n", "1000", "--b", "0.5")

    def test_asymptotic_exits_3_naming_the_rate(self, capsys):
        # the v* solve used to loop forever on r = nan
        with time_limit(10):
            code, out, err = run_cli(capsys, "asymptotic", *self.POINT, "--es")
        assert code == 3
        assert len(parse_csv(out)) == 2
        assert err.count("largest l_j**alpha = 100**200 is not finite") == 2

    def test_importance_exits_2_naming_phi(self, capsys):
        # RunContext used to take math.log(0.0): exit 3, "math domain error"
        code, out, err = run_cli(capsys, "estimate", "--method", "importance", *self.POINT,
                                 "--m", "100")
        assert (code, out) == (2, "")
        assert "phi(1 - f_n) underflows to 0" in err
        code, out, _ = run_cli(capsys, "estimate", "--method", "conditional", *self.POINT,
                               "--m", "100")
        assert code == 0
        assert float(parse_csv(out)[0]["estimate"]) == pytest.approx(0.0999, rel=1e-3)

    def test_estimate_kept_when_asymptotic_fails(self, capsys):
        # the asymptotic column fails on l**alpha, and the row used to lose
        # its conditional estimate with it
        argv = ("estimate", "--method", "conditional", *self.POINT, "--m", "100", "--seed", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        alone = parse_csv(out)[0]
        code, out, err = run_cli(capsys, *argv, "--asymptotic")
        assert code == 3
        row = parse_csv(out)[0]
        assert "largest l_j**alpha = 100**200 is not finite" in err
        values = ("estimate", "std_error", "rel_error_pct", "var_reduction")
        assert [row[k] for k in values] == [alone[k] for k in values]
        assert all(row[k] != "" for k in values)
        assert (row["asymptotic"], row["discrepancy_pct"]) == ("", "")


class TestWideRates:
    # l**alpha = 1e300 and 1e-300 at alpha = 100: past v*, v l**alpha of the
    # fast group passes the float range, where its terms are exact limits
    GROUPS = [{"exposure": 1, "pd_scale": 1000, "count": 5},
              {"exposure": 1, "pd_scale": 0.001, "count": 5}]

    def test_shortfall_is_finite_without_warning(self, capsys, tmp_path):
        # the shortfall row used to fail on GammaUpper(s, inf) after two
        # overflow warnings
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"groups": self.GROUPS,
                                   "scale": {"kind": "constant", "value": 1e-4}}))
        with time_limit(10):
            code, out, _ = run_cli(capsys, "asymptotic", "--config", str(cfg), "--alpha", "100",
                                   "--b", "0.6", "--es")
        assert code == 0
        es = float(parse_csv(out)[1]["asymptotic"])
        # only the slow group is left beyond v*, at v* l**alpha = log 1.25
        from scipy.special import gamma, gammaincc

        s, x = 0.99, math.log(1.25)
        vstar = x / 0.001**100
        want = 10 * (0.6 + vstar**0.01 * 0.5 * 0.001 * gamma(s) * gammaincc(s, x))
        assert es == pytest.approx(want, rel=1e-9)


class TestEstimateCommand:
    def test_columns_fixed(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--m", "300", "--method", "conditional", "--seed", "4"
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == ",".join(COLUMNS)

    def test_rows_per_method_and_level(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--m", "200",
            "--method", "conditional", "--method", "naive",
            "--b", "0.5", "--b", "0.8",
            "--seed", "4",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"conditional", "naive"}

    def test_asymptotic_column_on_request(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--m", "200", "--method", "conditional", "--asymptotic", "--seed", "4",
        )
        rows = parse_csv(out)
        assert code == 0
        assert float(rows[0]["asymptotic"]) == pytest.approx(2.718031e-4, rel=1e-6)
        assert rows[0]["discrepancy_pct"] != ""

    @pytest.mark.parametrize("key", ["methods", "n", "b"])
    def test_empty_method_set_is_usage_error(self, capsys, tmp_path, key):
        # an empty list would silently run the default values
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: []}))
        code, out, err = run_cli(capsys, "estimate", "--config", str(cfg), "--m", "64")
        assert (code, out) == (2, "")
        assert f"config key {key!r}: expected at least one value" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for key in ("alhpa", "threads"):  # there is no thread-count setting
            cfg.write_text(json.dumps({key: 1}))
            code, _, err = run_cli(capsys, "estimate", "--config", str(cfg))
            assert code == 2
            assert key in err

    def test_size_grid_with_groups_config_rejected(self, capsys, tmp_path):
        # the groups fix n = 20; an n grid used to repeat the n = 20 row silently
        code, out, err = run_cli(capsys, "asymptotic", "--config", DESK, "--n", "100", "--n", "500")
        assert (code, out) == (2, "")
        assert "groups" in err
        for argv in (["table", "2", "--config", DESK], ["table", "5", "--config", DESK]):
            code, out, err = run_cli(capsys, *argv, "--m", "10")
            assert (code, out) == (2, "")
            assert "groups" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(Path(DESK).read_text()), "n": [100]}))
        code, out, err = run_cli(capsys, "estimate", "--config", str(cfg), "--m", "10")
        assert (code, out) == (2, "")
        assert "groups" in err
        # the groups set each pd_scale and exposure; l and c used to be ignored (exit 0)
        for key, value in (("l", 0.9), ("c", 5)):
            cfg.write_text(json.dumps({**json.loads(Path(DESK).read_text()), key: value}))
            for argv in (["--config", str(cfg)], ["--config", DESK, f"--{key}", str(value)]):
                code, out, err = run_cli(capsys, "asymptotic", *argv)
                assert (code, out) == (2, "")
                assert "groups" in err

    def test_setting_fixed_by_preset_rejected(self, capsys, tmp_path):
        # presets used to override these without a word (exit 0)
        code, out, err = run_cli(capsys, "table", "2", "--n", "100", "--b", "0.5",
                                 "--alpha", "3", "--m", "10")
        assert (code, out) == (2, "")
        assert "table 2 fixes alpha, b, n" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["naive"]}))
        code, out, err = run_cli(capsys, "es", "--config", str(cfg), "--m", "10")
        assert (code, out) == (2, "")
        assert "es fixes methods" in err
        # table 5 brings no alpha grid, so --alpha stays a setting of its own
        settings, given = cli._apply_flags(
            cli.build_parser().parse_args(["table", "5", "--alpha", "2.0"]), cli.Settings()
        )
        assert {t.point.alpha for t in cli._plan(settings, "table 5", given)} == {2.0}

    def test_run_setting_of_asymptotic_rejected(self, capsys, tmp_path):
        # the asymptotics run no replications: m and x0 used to be ignored (exit 0)
        cfg = tmp_path / "cfg.json"
        for es in ([], ["--es"]):
            for key, value in (("m", 1), ("x0", -5)):
                cfg.write_text(json.dumps({key: value}))
                for argv in ([f"--{key}", str(value)], ["--config", str(cfg)]):
                    code, out, err = run_cli(capsys, "asymptotic", *argv, *es)
                    assert (code, out) == (2, "")
                    assert f"fixes {key};" in err
        # the seed is still taken, and the rows do not read it
        code, out, _ = run_cli(capsys, "asymptotic", "--seed", "3", "--es")
        assert code == 0 and out == run_cli(capsys, "asymptotic", "--es")[1]

    def test_invalid_level_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--b", "1.5", "--m", "100")
        assert code == 2
        assert "loss level" in err

    def test_checks_of_the_run_inputs_are_config_errors(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scale": {"kind": "reciprocal", "value": 0.3}}))
        for argv, what in (
            (["--seed", "-1"], "seed"),
            (["--method", "importance", "--n", "20", "--l", "0.2", "--scale", "constant",
              "--f", "0.95", "--b", "0.1"], "splice"),
            (["--scale", "constant"], "--f"),
            # a value beside a scale that takes none used to be dropped (exit 0)
            (["--n", "100", "--b", "0.8", "--f", "0.3"], "--f"),
            (["--config", str(cfg)], "scale.value"),
            # 1/ln n at n = 1 used to end in a ZeroDivisionError traceback (exit 1)
            (["--n", "1", "--scale", "log-reciprocal", "--b", "0.5"], "default scale"),
        ):
            code, out, err = run_cli(capsys, "estimate", "--m", "10", *argv)
            assert code == 2
            assert out == ""
            assert what in err
        for argv, what in (
            (["--n", "1", "--scale", "log-reciprocal", "--b", "0.5"], "default scale"),
            # the asymptotic rows share the model's gate: its loss event cannot
            # exceed a level this close to the total exposure
            (["--n", "100", "--b", "0.99999999999999"], "unattainable"),
        ):
            code, out, err = run_cli(capsys, "asymptotic", *argv)
            assert (code, out) == (2, "")
            assert what in err

    def test_two_replication_row_fills_every_value(self, capsys):
        # the first mc-mix row cut to m = 2, as perfbench/run.py runs it for
        # its warm-up and its fresh-interpreter set-up probe
        code, out, _ = run_cli(
            capsys, "estimate", "--method", "conditional", "--alpha", "1.1", "--n", "500",
            "--b", "0.8", "--m", "2", "--seed", "0",
        )
        assert code == 0
        (row,) = parse_csv(out)
        for field in ("estimate", "std_error", "rel_error_pct", "var_reduction"):
            assert math.isfinite(float(row[field])), field

    def test_value_error_fails_only_its_row(self, capsys, monkeypatch):
        real = cli.run_tail_estimate
        calls = []

        def fail_first(config):
            calls.append(config.seed)
            if len(calls) == 1:
                raise ValueError("injected failure")
            return real(config)

        monkeypatch.setattr(cli, "run_tail_estimate", fail_first)
        code, out, err = run_cli(
            capsys, "estimate", "--method", "conditional", "--b", "0.5", "--b", "0.8",
            "--m", "50", "--seed", "4",
        )
        assert code == 3
        assert [r["estimate"] == "" for r in parse_csv(out)] == [True, False]
        assert "injected failure" in err

    @pytest.mark.parametrize("key, value", [
        ("m", 300.9), ("m", True), ("seed", 1.7), ("seed", False), ("n", [100, 100.4]),
        ("n", True), ("timings", "false"), ("asymptotic", "no"), ("asymptotic", 1),
    ])
    def test_config_value_of_the_wrong_type_rejected(self, capsys, tmp_path, key, value):
        # each used to be coerced: m = 300, seed 1, a repeated n = 100 row, a
        # filled runtime_ms column, an asymptotic column (exit 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, "estimate", "--method", "conditional", "--m", "20",
                                 "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"config key {key!r}" in err

    @pytest.mark.parametrize("argv, what", [
        (["estimate", "--c", "inf", "--method", "conditional", "--method", "importance",
          "--asymptotic", "--m", "200"], "exposure"),
        (["asymptotic", "--c", "inf", "--n", "100", "--b", "0.8", "--es"], "exposure"),
        (["estimate", "--l", "inf", "--m", "100"], "pd_scale"),
        (["estimate", "--method", "importance", "--x0", "inf", "--m", "100"], "x0"),
        (["asymptotic", "--alpha", "inf"], "tail index"),
    ])
    def test_non_finite_model_input_is_config_error(self, capsys, argv, what):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert what in err and "finite" in err

    def test_config_file_with_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "alpha": 1.5,
                    "groups": [{"exposure": 1.0, "pd_scale": 0.5, "count": 50}],
                    "scale": {"kind": "constant", "value": 0.3},
                    "b": [0.4],
                    "methods": ["conditional"],
                    "m": 500,
                    "seed": 9,
                }
            )
        )
        code, out, _ = run_cli(capsys, "estimate", "--config", str(cfg), "--m", "250")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["n"] == "50"
        assert rows[0]["seed"] == "9"
        est = float(rows[0]["estimate"])
        assert 0.0 < est < 1.0

    def test_heterogeneous_groups_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "groups": [
                        {"exposure": 1.0, "pd_scale": 0.5, "count": 12},
                        {"exposure": 3.0, "pd_scale": 0.7, "count": 8},
                    ],
                    "scale": {"kind": "constant", "value": 0.3},
                    "b": [0.6],
                    "methods": ["conditional"],
                    "m": 400,
                    "seed": 2,
                }
            )
        )
        code, out, _ = run_cli(capsys, "estimate", "--config", str(cfg))
        assert code == 0
        assert float(parse_csv(out)[0]["estimate"]) > 0.0


class TestEsCommand:
    def test_row_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "es", "--n", "50", "--m", "2000", "--seed", "6"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["method"] == "es_importance"
        assert float(row["asymptotic"]) == pytest.approx(47.69502, abs=1e-3)
        assert row["discrepancy_pct"] != ""
        assert float(row["estimate"]) == pytest.approx(47.7, rel=0.02)

    def test_zero_exceedance_row_fails_with_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "es", "--n", "500", "--m", "2", "--seed", "13"
        )
        assert code == 3
        rows = parse_csv(out)
        assert rows[0]["estimate"] == ""
        assert "increase m" in err

    def test_index_near_one_row_ends_in_a_value_or_exit_3(self, capsys):
        # the splice evaluates the stable law's quadrature at beta = 1/1.001
        code, out, _ = run_cli(
            capsys, "estimate", "--method", "importance", "--alpha", "1.001", "--n", "50",
            "--b", "0.3", "--m", "500", "--seed", "1",
        )
        assert code in (0, 3)
        assert len(parse_csv(out)) == 1


class TestOutputContracts:
    def test_csv_round_trips_at_full_precision(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--m", "300", "--method", "conditional",
            "--asymptotic", "--seed", "8",
        )
        assert code == 0
        for row in parse_csv(out):
            for col in COLUMNS:
                field = row[col]
                if col == "method" or field == "":
                    continue
                value = float(field)
                assert f"{value:.17g}" == field

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotic", "--n", "500", "--b", "0.8", "--format", "markdown"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| method |")
        assert lines[1].startswith("|---")

    def test_output_file_and_repeat_runs_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["table", "2", "--m", "200", "--seed", "3"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_output_fails_before_any_row(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "estimate", "--m", "20", "--method", "conditional",
                                 "--output", str(target))
        assert (code, out) == (2, "")
        assert "output" in err and "running" not in err
        assert not target.exists()

    def test_timings_column_filled_on_request(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--m", "200", "--method", "conditional",
            "--timings", "--seed", "4",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["runtime_ms"]) > 0.0


class TestTablePresets:
    def test_table_4_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table", "4", "--m", "200", "--seed", "5")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8  # 4 sizes x 2 estimators
        assert [r["n"] for r in rows[:2]] == ["100", "100"]
        asym = sorted({float(r["asymptotic"]) for r in rows})
        want = sorted([1.359016e-3, 5.436062e-4, 2.718031e-4, 1.359016e-4])
        for g, w in zip(asym, want):
            assert g == pytest.approx(w, rel=1e-6)

    def test_table_5_is_shortfall(self, capsys):
        code, out, _ = run_cli(capsys, "table", "5", "--m", "1500", "--seed", "6")
        assert code == 0
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["50", "100", "250", "500"]
        assert all(r["method"] == "es_importance" for r in rows)
