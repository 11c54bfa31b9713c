"""Command-line front end: configure experiments, dispatch estimators, and
emit CSV or markdown report tables.

Data rows go to stdout (or ``--output``); progress and diagnostics go to
stderr.  Exit codes: 0 success, 2 configuration error, 3 numerical or
estimation failure in at least one row.

Every row carries a fixed column set::

    method, alpha, n, b, estimate, std_error, rel_error_pct, var_reduction,
    asymptotic, discrepancy_pct, runtime_ms, seed

Numeric fields are emitted with 17 significant digits so parsing the CSV
recovers them exactly.  ``runtime_ms`` is left empty unless ``--timings`` is
given, keeping re-runs with the same seed byte-identical.

The Monte Carlo commands (``estimate``, ``es`` and the ``table`` presets) all
plan one task per (alpha, n, b, method) with seed ``seed + i`` for row i, then
run the tasks in order; a row whose run fails leaves its value fields empty.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
from dataclasses import dataclass

from .asymptotics import (
    AsymptoticInputs,
    expected_shortfall_asymptotic,
    tail_probability_asymptotic,
)
from .errors import EstimationError, NumericalError
from .estimators import EstimatorConfig, is_expected_shortfall, run_tail_estimate
from .portfolio import DefaultScale, Portfolio, SubPortfolio

COLUMNS = (
    "method",
    "alpha",
    "n",
    "b",
    "estimate",
    "std_error",
    "rel_error_pct",
    "var_reduction",
    "asymptotic",
    "discrepancy_pct",
    "runtime_ms",
    "seed",
)

_ESTIMATORS = ("naive", "importance", "conditional")
_SCALE_NAMES = {"reciprocal": "reciprocal", "log-reciprocal": "log_reciprocal", "constant": "constant"}


class ConfigError(ValueError):
    pass


@dataclass
class Settings:
    alpha: float = 1.5
    n: list[int] | None = None
    l: float = 0.5
    c: float = 1.0
    groups: list[dict] | None = None
    scale_kind: str = "reciprocal"
    scale_value: float | None = None
    b: list[float] | None = None
    methods: list[str] | None = None
    m: int = 50_000
    seed: int = 20240
    x0: float = 1.0
    fmt: str = "csv"
    output: str | None = None
    asymptotic: bool = False
    timings: bool = False


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.17g}"


def _sizes(settings: Settings) -> list[int | None]:
    """The portfolio sizes of the grid; a groups config fixes its own size."""
    if settings.groups is None:
        return settings.n or [500]
    if settings.n is not None:
        raise ConfigError(
            "a groups config fixes the portfolio size through its counts; it cannot be "
            "combined with an n grid (--n, a config n or a table preset)"
        )
    return [None]


def _portfolio(settings: Settings, n: int | None) -> Portfolio:
    if settings.groups is not None:
        groups = []
        for g in settings.groups:
            extra = set(g) - {"exposure", "pd_scale", "count"}
            if extra:
                raise ConfigError(f"unknown group keys: {sorted(extra)}")
            try:
                groups.append(SubPortfolio(g["exposure"], g["pd_scale"], g["count"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad group {g}: {exc}") from exc
        return Portfolio(groups)
    return Portfolio.homogeneous(n, exposure=settings.c, pd_scale=settings.l)


def _scale(settings: Settings) -> DefaultScale:
    if settings.scale_kind == "constant":
        if settings.scale_value is None:
            raise ConfigError("constant scale requires --f (or scale.value in the config)")
        return DefaultScale.constant(settings.scale_value)
    return DefaultScale(settings.scale_kind)


def _listed(convert):
    return lambda x: [convert(v) for v in (x if isinstance(x, list) else [x])]


def _methods(raw) -> list[str]:
    methods = [str(x) for x in raw]
    if not methods:
        raise ConfigError("estimator set is empty; pass at least one --method")
    unknown = [x for x in methods if x not in _ESTIMATORS]
    if unknown:
        raise ConfigError(f"unknown estimator {unknown[0]!r}")
    return methods


def _scale_entry(sc) -> tuple[str, float | None]:
    if not isinstance(sc, dict) or "kind" not in sc or set(sc) - {"kind", "value"}:
        raise ConfigError('config "scale" must be {"kind": ..., "value"?: ...}')
    kind = str(sc["kind"]).replace("-", "_")
    if kind not in _SCALE_NAMES.values():
        raise ConfigError(f"unknown scale kind {sc['kind']!r}")
    return kind, float(sc["value"]) if "value" in sc else None


# config key: (Settings attributes it sets, converter of its value)
_CONFIG_FIELDS = {
    "alpha": ("alpha", float),
    "groups": ("groups", list),
    "scale": (("scale_kind", "scale_value"), _scale_entry),
    "b": ("b", _listed(float)),
    "n": ("n", _listed(int)),
    "l": ("l", float),
    "c": ("c", float),
    "methods": ("methods", _methods),
    "m": ("m", int),
    "seed": ("seed", int),
    "x0": ("x0", float),
    "format": ("fmt", str),
    "output": ("output", str),
    "asymptotic": ("asymptotic", bool),
    "timings": ("timings", bool),
}
_CONFIG_KEYS = frozenset(_CONFIG_FIELDS)


def _load_config_file(path: str, settings: Settings) -> Settings:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        attrs, convert = _CONFIG_FIELDS[key]
        value = convert(value)
        if isinstance(attrs, tuple):
            for attr, part in zip(attrs, value):
                setattr(settings, attr, part)
        else:
            setattr(settings, attrs, value)
    return settings


def _apply_flags(args, settings: Settings) -> Settings:
    if args.config:
        settings = _load_config_file(args.config, settings)
    for name, attr in (
        ("alpha", "alpha"),
        ("l", "l"),
        ("c", "c"),
        ("f", "scale_value"),
        ("m", "m"),
        ("seed", "seed"),
        ("x0", "x0"),
        ("output", "output"),
        ("n", "n"),
        ("b", "b"),
        ("method", "methods"),
        ("format", "fmt"),
    ):
        val = getattr(args, name, None)
        if val is not None:
            setattr(settings, attr, val)
    if getattr(args, "scale", None) is not None:
        settings.scale_kind = _SCALE_NAMES[args.scale]
    if getattr(args, "asymptotic", False):
        settings.asymptotic = True
    if getattr(args, "timings", False):
        settings.timings = True
    if settings.fmt not in ("csv", "markdown"):
        raise ConfigError(f"unknown output format {settings.fmt!r}")
    return settings


def _row(method, alpha, n, b, seed, report=None, asym=None, timings=False):
    est = se = rel = vr = disc = runtime = None
    if report is not None:
        est = report.estimate
        se = report.std_error
        rel = report.rel_error_pct
        vr = report.variance_reduction
        if timings:
            runtime = report.runtime_s * 1000.0
        if asym is not None and asym > 0.0:
            disc = 100.0 * (report.estimate - asym) / asym
    return {
        "method": method,
        "alpha": _fmt(alpha),
        "n": _fmt(n),
        "b": _fmt(b),
        "estimate": _fmt(est),
        "std_error": _fmt(se),
        "rel_error_pct": _fmt(rel),
        "var_reduction": _fmt(vr),
        "asymptotic": _fmt(asym),
        "discrepancy_pct": _fmt(disc),
        "runtime_ms": _fmt(runtime),
        "seed": _fmt(seed),
    }


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class _Task:
    """One planned report row: its method, validated config and asymptotic column."""

    method: str
    config: EstimatorConfig
    asym: float | None


def _make_task(method, pf, settings, alpha, b, seed, asym) -> _Task:
    kind = "importance" if method == "es_importance" else method
    try:
        cfg = EstimatorConfig(
            portfolio=pf,
            alpha=alpha,
            scale=_scale(settings),
            b=b,
            m=settings.m,
            seed=seed,
            x0=settings.x0,
            kind=kind,
        )
    except ValueError as exc:
        raise ConfigError(f"{method} (alpha={alpha}, n={pf.n}, b={b}): {exc}") from exc
    return _Task(method, cfg, asym)


_PAIR = ["importance", "conditional"]
_ES = ["es_importance"]
# per command: the alpha grid (None keeps the configured alpha) and the settings it fixes
_PRESETS = {
    "estimate": (None, {}),
    "es": (None, dict(methods=_ES, asymptotic=True)),
    "2": ([1.1, 1.5, 2.0, 5.0], dict(n=[500], b=[0.8], methods=_PAIR, asymptotic=False)),
    "3": ([1.5], dict(n=[500], b=[0.3, 0.5, 0.7, 0.9], methods=_PAIR, asymptotic=False)),
    "4": ([1.5], dict(n=[100, 250, 500, 1000], b=[0.8], methods=_PAIR, asymptotic=True)),
    "5": (None, dict(n=[50, 100, 250, 500], b=[0.8], methods=_ES, asymptotic=True)),
}


def _plan(settings: Settings, command: str) -> list[_Task]:
    """One task per (alpha, n, b, method) of the command's grid, in row order.

    The asymptotic column holds the shortfall approximation for shortfall
    rows and the tail approximation otherwise.
    """
    alphas, fixed = _PRESETS[command]
    settings = dataclasses.replace(settings, **fixed)
    methods = settings.methods or _PAIR
    tasks: list[_Task] = []
    for alpha in alphas or [settings.alpha]:
        for n in _sizes(settings):
            pf = _portfolio(settings, n)
            for b in settings.b or [0.8]:
                asym = None
                if settings.asymptotic:
                    inputs = AsymptoticInputs(pf, alpha, _scale(settings), b)
                    if methods == _ES:
                        asym = expected_shortfall_asymptotic(inputs)
                    else:
                        asym = tail_probability_asymptotic(inputs)
                for method in methods:
                    seed = settings.seed + len(tasks)
                    tasks.append(_make_task(method, pf, settings, alpha, b, seed, asym))
    return tasks


def _execute(tasks: list[_Task], settings: Settings) -> tuple[list[dict], bool]:
    rows: list[dict] = []
    failed = False
    for task in tasks:
        cfg = task.config
        where = f"alpha={cfg.alpha} n={cfg.portfolio.n} b={cfg.b}"
        _log(f"running {task.method}: {where} m={cfg.m}")
        # looked up at call time, so a wrapper installed on this module (as the
        # benchmark's tracer does) is the one called
        runner = is_expected_shortfall if task.method == "es_importance" else run_tail_estimate
        report = None
        try:
            report = runner(cfg)
        except (NumericalError, EstimationError, ValueError) as exc:
            _log(f"row failed ({task.method}: {where}): {exc}")
            failed = True
        rows.append(
            _row(task.method, cfg.alpha, cfg.portfolio.n, cfg.b, cfg.seed, report, task.asym,
                 settings.timings)
        )
    return rows, failed


def _run_asymptotic_rows(settings: Settings, want_es: bool) -> tuple[list[dict], bool]:
    bs = settings.b or [0.8]
    rows: list[dict] = []
    scale = _scale(settings)
    for n in _sizes(settings):
        pf = _portfolio(settings, n)
        for b in bs:
            inputs = AsymptoticInputs(pf, settings.alpha, scale, b)
            tail = tail_probability_asymptotic(inputs)
            rows.append(_row("asymptotic_tail", settings.alpha, pf.n, b, None, asym=tail))
            if want_es:
                es = expected_shortfall_asymptotic(inputs)
                rows.append(_row("asymptotic_es", settings.alpha, pf.n, b, None, asym=es))
    return rows, False


def _emit(rows: list[dict], settings: Settings) -> None:
    if settings.fmt == "csv":
        text = _render_csv(rows)
    else:
        text = _render_markdown(rows)
    if settings.output:
        with open(settings.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([row[c] for c in COLUMNS])
    return buf.getvalue()


def _render_markdown(rows: list[dict]) -> str:
    lines = ["| " + " | ".join(COLUMNS) + " |", "|" + "---|" * len(COLUMNS)]
    for row in rows:
        lines.append("| " + " | ".join(row[c] for c in COLUMNS) + " |")
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and only read by ``main``.

    A parser is a web of reference cycles: one built per call would leave
    about 230 objects of cyclic garbage per ``main`` call, and the resident
    memory of a caller that runs many commands in one process would grow
    with the number of calls.
    """
    parser = argparse.ArgumentParser(
        prog="archcredit",
        description="Large-loss probabilities and expected shortfall for "
        "Gumbel-copula credit portfolios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_methods=False, with_es_flag=False):
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--alpha", type=float, help="copula tail-dependence index (> 1)")
        p.add_argument("--n", type=int, action="append", help="portfolio size (repeatable)")
        p.add_argument("--l", type=float, help="default-probability multiplier per obligor")
        p.add_argument("--c", type=float, help="exposure at default per obligor")
        p.add_argument(
            "--scale",
            choices=sorted(_SCALE_NAMES),
            help="default-probability scale rule f_n",
        )
        p.add_argument("--f", type=float, help="value for the constant scale")
        p.add_argument("--b", type=float, action="append", help="loss level (repeatable)")
        if with_methods:
            p.add_argument(
                "--method",
                action="append",
                choices=_ESTIMATORS,
                help="estimator to run (repeatable; default: importance and conditional)",
            )
        p.add_argument("--m", type=int, help="number of replications")
        p.add_argument("--seed", type=int, help="base seed; row i uses seed + i")
        p.add_argument("--x0", type=float, help="importance-sampling tail splice point")
        p.add_argument("--format", choices=["csv", "markdown"], help="output format")
        p.add_argument("--output", "-o", help="output path (default: stdout)")
        p.add_argument("--timings", action="store_true", help="fill the runtime_ms column")
        if with_es_flag:
            p.add_argument("--es", action="store_true", help="also emit shortfall asymptotics")

    p_est = sub.add_parser("estimate", help="tail-probability estimators")
    add_common(p_est, with_methods=True)
    p_est.add_argument(
        "--asymptotic", action="store_true", help="include the deterministic asymptotic column"
    )

    p_es = sub.add_parser("es", help="expected shortfall via importance sampling")
    add_common(p_es)

    p_asym = sub.add_parser("asymptotic", help="deterministic approximations only")
    add_common(p_asym, with_es_flag=True)

    p_table = sub.add_parser("table", help="preset experiment grids")
    p_table.add_argument("table", choices=["2", "3", "4", "5"])
    add_common(p_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _apply_flags(args, Settings())
        if args.command == "asymptotic":
            rows, failed = _run_asymptotic_rows(settings, args.es)
        else:
            command = args.table if args.command == "table" else args.command
            rows, failed = _execute(_plan(settings, command), settings)
    except (ConfigError, ValueError) as exc:
        _log(f"configuration error: {exc}")
        return 2
    except (NumericalError, EstimationError) as exc:
        _log(f"numerical failure: {exc}")
        return 3
    _emit(rows, settings)
    return 3 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
