"""Command-line front end: configure experiments, plan report rows, and emit
CSV or markdown report tables.

Data rows go to stdout (or ``--output``); progress and diagnostics go to
stderr.  Exit codes: 0 success, 2 configuration error, 3 numerical or
estimation failure in at least one row.

Every row carries a fixed column set::

    method, alpha, n, b, estimate, std_error, rel_error_pct, var_reduction,
    asymptotic, discrepancy_pct, runtime_ms, seed

Numeric fields are emitted with 17 significant digits so parsing the CSV
recovers them exactly.  ``runtime_ms`` is left empty unless ``--timings`` is
given, keeping re-runs with the same seed byte-identical.

Every command (``estimate``, ``es``, ``asymptotic`` and the ``table``
presets) plans one row per (alpha, n, b, method) of its grid, the rows of one
(alpha, n, b) point sharing its one validated ``LossModel`` and a Monte Carlo
row i with seed ``seed + i``, and then computes the rows in order.  A bad
configuration, an output file that cannot be opened included, fails before any
row runs (exit 2); a row whose computation fails leaves the value fields it
could not compute empty, and the other rows are still emitted (exit 3).  Each
setting is declared once, in ``_OPTIONS``: its config key, its flag, the
converter that checks its config value and the ``Settings`` attributes it sets.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import sys
from dataclasses import dataclass
from types import SimpleNamespace

from .asymptotics import expected_shortfall_asymptotic, tail_probability_asymptotic
from .errors import EstimationError, NumericalError
from .estimators import _KINDS, EstimatorConfig, is_expected_shortfall, run_tail_estimate
from .portfolio import DefaultScale, LossModel, Portfolio, SubPortfolio

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

_SCALE_KINDS = ("constant", "log-reciprocal", "reciprocal")


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
                groups.append(SubPortfolio(_real(g["exposure"]), _real(g["pd_scale"]),
                                           _whole(g["count"])))
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"bad group {g}: {exc}") from exc
        return Portfolio(groups)
    return Portfolio.homogeneous(n, exposure=settings.c, pd_scale=settings.l)


def _scale(settings: Settings) -> DefaultScale:
    kind = settings.scale_kind.replace("-", "_")
    return _checked("--f (scale.value in the config)", DefaultScale, kind, settings.scale_value)


# converters of config values: each checks the JSON type and never coerces
def _whole(x) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not float(x).is_integer():
        raise ConfigError(f"expected a whole number, got {x!r}")
    return int(x)


def _real(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"expected a number, got {x!r}")
    return float(x)


def _flag(x) -> bool:
    if not isinstance(x, bool):
        raise ConfigError(f"expected true or false, got {x!r}")
    return x


def _text(x) -> str:
    if not isinstance(x, str):
        raise ConfigError(f"expected a string, got {x!r}")
    return x


def _groups(x) -> list[dict]:
    if not isinstance(x, list) or not all(isinstance(g, dict) for g in x):
        raise ConfigError(f"expected a list of group objects, got {x!r}")
    return x


def _listed(convert):
    def convert_list(x):
        if x == []:  # would silently run the default
            raise ConfigError("expected at least one value, got an empty list")
        return [convert(v) for v in (x if isinstance(x, list) else [x])]

    return convert_list


def _methods(raw) -> list[str]:
    methods = _listed(_text)(raw)
    unknown = [x for x in methods if x not in _KINDS]
    if unknown:
        raise ConfigError(f"unknown estimator {unknown[0]!r}")
    return methods


def _scale_entry(sc) -> tuple[str, float | None]:
    if not isinstance(sc, dict) or "kind" not in sc or set(sc) - {"kind", "value"}:
        raise ConfigError('expected {"kind": ..., "value"?: ...}')
    kind = _text(sc["kind"]).replace("_", "-")
    if kind not in _SCALE_KINDS:
        raise ConfigError(f"unknown scale kind {sc['kind']!r}")
    return kind, _real(sc["value"]) if "value" in sc else None


def _opt(key, attrs, convert, *flags, commands=None, **options) -> SimpleNamespace:
    """One setting: its config key, the ``Settings`` attribute(s) it sets, the
    converter of a config value, its flags, the commands that take the flags
    (None: all four) and their argparse options.  A flag stores into the first
    of ``attrs`` and reads None when it is not given."""
    if attrs and flags:
        options["dest"] = attrs if isinstance(attrs, str) else attrs[0]
    return SimpleNamespace(key=key, attrs=attrs, convert=convert, flags=flags,
                           commands=commands, kwargs={"default": None, **options})


# every setting, in the order of the flags in --help
_OPTIONS = (
    _opt(None, None, None, "--config", help="JSON config file; flags override its entries"),
    _opt("alpha", "alpha", _real, "--alpha", type=float, help="copula tail-dependence index (> 1)"),
    _opt("n", "n", _listed(_whole), "--n", type=int, action="append",
         help="portfolio size (repeatable)"),
    _opt("l", "l", _real, "--l", type=float, help="default-probability multiplier per obligor"),
    _opt("c", "c", _real, "--c", type=float, help="exposure at default per obligor"),
    _opt("scale", ("scale_kind", "scale_value"), _scale_entry, "--scale", choices=_SCALE_KINDS,
         help="default-probability scale rule f_n"),
    _opt(None, "scale_value", None, "--f", type=float, metavar="F",
         help="value for the constant scale"),
    _opt("b", "b", _listed(_real), "--b", type=float, action="append",
         help="loss level (repeatable)"),
    _opt("methods", "methods", _methods, "--method", commands=("estimate",), action="append",
         choices=_KINDS,
         help="estimator to run (repeatable; default: importance and conditional)"),
    _opt("m", "m", _whole, "--m", type=int, help="number of replications"),
    _opt("seed", "seed", _whole, "--seed", type=int, help="base seed; row i uses seed + i"),
    _opt("x0", "x0", _real, "--x0", type=float, help="importance-sampling tail splice point"),
    _opt("format", "fmt", _text, "--format", choices=["csv", "markdown"], help="output format"),
    _opt("output", "output", _text, "--output", "-o", help="output path (default: stdout)"),
    _opt("timings", "timings", _flag, "--timings", action="store_true",
         help="fill the runtime_ms column"),
    _opt(None, None, None, "--es", commands=("asymptotic",), action="store_true",
         help="also emit shortfall asymptotics"),
    _opt("asymptotic", "asymptotic", _flag, "--asymptotic", commands=("estimate",),
         action="store_true", help="include the deterministic asymptotic column"),
    _opt("groups", "groups", _groups),
)


def _load_config_file(path: str, settings: Settings) -> set[str]:
    """Set the entries of a config file on ``settings``; the attributes they set."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    options = {opt.key: opt for opt in _OPTIONS if opt.key}
    unknown = set(raw) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    given = set()
    for key, value in raw.items():
        attrs = options[key].attrs
        try:
            value = options[key].convert(value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        if not isinstance(attrs, tuple):
            attrs, value = (attrs,), (value,)
        for attr, part in zip(attrs, value):
            setattr(settings, attr, part)
        given.update(attrs)
    return given


def _apply_flags(args, settings: Settings) -> tuple[Settings, set[str]]:
    """The settings after the config file and the flags, and the names of the
    ``Settings`` attributes that either of them set."""
    given = _load_config_file(args.config, settings) if args.config else set()
    for opt in _OPTIONS:
        dest = opt.kwargs.get("dest")
        value = getattr(args, dest, None) if dest else None
        if value is not None:
            setattr(settings, dest, value)
            given.add(dest)
    if settings.fmt not in ("csv", "markdown"):
        raise ConfigError(f"unknown output format {settings.fmt!r}")
    return settings, given


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class _Task:
    """One planned report row: its method, the model of its (alpha, n, b)
    point, the run config of a Monte Carlo row, and whether the row carries
    the asymptotic column."""

    method: str
    point: LossModel
    config: EstimatorConfig | None
    asymptotic: bool


def _row(task: _Task, report=None, asym=None, timings=False) -> dict:
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
        "method": task.method,
        "alpha": _fmt(task.point.alpha),
        "n": _fmt(task.point.portfolio.n),
        "b": _fmt(task.point.b),
        "estimate": _fmt(est),
        "std_error": _fmt(se),
        "rel_error_pct": _fmt(rel),
        "var_reduction": _fmt(vr),
        "asymptotic": _fmt(asym),
        "discrepancy_pct": _fmt(disc),
        "runtime_ms": _fmt(runtime),
        "seed": _fmt(task.config.seed if task.config else None),
    }


def _checked(what: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError raised as a ConfigError about ``what``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


_PAIR = ["importance", "conditional"]
_ES = ["es_importance"]
_SHORTFALL = ("es_importance", "asymptotic_es")  # rows whose asymptotic column is the shortfall
# no Monte Carlo row: the run settings are fixed at their defaults, so giving one is an error
_NO_RUN = dict(asymptotic=True, m=Settings.m, x0=Settings.x0)
# per command: the alpha grid (None keeps the configured alpha) and the settings it fixes
_PRESETS = {
    "estimate": (None, {}),
    "es": (None, dict(methods=_ES, asymptotic=True)),
    "asymptotic": (None, dict(methods=["asymptotic_tail"], **_NO_RUN)),
    "asymptotic --es": (None, dict(methods=["asymptotic_tail", "asymptotic_es"], **_NO_RUN)),
    "table 2": ([1.1, 1.5, 2.0, 5.0], dict(n=[500], b=[0.8], methods=_PAIR, asymptotic=False)),
    "table 3": ([1.5], dict(n=[500], b=[0.3, 0.5, 0.7, 0.9], methods=_PAIR, asymptotic=False)),
    "table 4": ([1.5], dict(n=[100, 250, 500, 1000], b=[0.8], methods=_PAIR, asymptotic=True)),
    "table 5": (None, dict(n=[50, 100, 250, 500], b=[0.8], methods=_ES, asymptotic=True)),
}


def _plan(settings: Settings, command: str, given: set[str]) -> list[_Task]:
    """One task per (alpha, n, b, method) of the command's grid, in row order.

    The rows of one (alpha, n, b) point share its validated LossModel, and
    so its one v*; a Monte Carlo row also gets a validated run config of that
    model, with seed ``seed + row index``.  Nothing is computed here.  A
    setting in ``given`` (set by a flag or a config key) that the command's
    preset or a groups config fixes is a ConfigError.
    """
    alphas, fixed = _PRESETS[command]
    if settings.groups is not None and given & {"l", "c"}:
        raise ConfigError(
            "a groups config sets each group's pd_scale and exposure; it cannot be combined "
            "with l or c (--l, --c or a config key)"
        )
    settings = dataclasses.replace(settings, **fixed)
    methods = settings.methods or _PAIR
    scale = _scale(settings)
    tasks: list[_Task] = []
    for alpha in alphas or [settings.alpha]:
        for n in _sizes(settings):
            pf = _portfolio(settings, n)
            for b in settings.b or [0.8]:
                where = f"alpha={alpha}, n={pf.n}, b={b}"
                point = _checked(where, LossModel, pf, alpha, scale, b)
                for method in methods:
                    config = None
                    if not method.startswith("asymptotic_"):
                        config = _checked(
                            f"{method} ({where})", EstimatorConfig, point, m=settings.m,
                            seed=settings.seed + len(tasks), x0=settings.x0,
                            kind="importance" if method in _ES else method,
                        )
                    tasks.append(_Task(method, point, config, settings.asymptotic))
    fixed_given = sorted(given & ({*fixed, "alpha"} if alphas else set(fixed)))
    if fixed_given:
        raise ConfigError(f"{command} fixes {', '.join(fixed_given)}; drop the flag or config key")
    return tasks


def _execute(tasks: list[_Task], settings: Settings) -> tuple[list[dict], bool]:
    """Compute the rows in order; a row that fails leaves its values empty."""
    rows: list[dict] = []
    failed = False
    for task in tasks:
        cfg, point = task.config, task.point
        where = f"alpha={point.alpha} n={point.portfolio.n} b={point.b}"
        if cfg is not None:
            _log(f"running {task.method}: {where} m={cfg.m}")
        es = task.method in _SHORTFALL
        report = asym = None
        # looked up at call time, so a wrapper installed on this module (as the
        # benchmark's tracer does) is the one called; each part fails alone, so
        # a row keeps its estimate when its asymptotic column fails
        if task.asymptotic:
            try:
                asym = (expected_shortfall_asymptotic if es else tail_probability_asymptotic)(point)
            except (NumericalError, ValueError) as exc:
                _log(f"row failed ({task.method} asymptotic: {where}): {exc}")
                failed = True
        if cfg is not None:
            try:
                report = (is_expected_shortfall if es else run_tail_estimate)(cfg)
            except (NumericalError, EstimationError, ValueError) as exc:
                _log(f"row failed ({task.method}: {where}): {exc}")
                failed = True
        rows.append(_row(task, report, asym, settings.timings))
    return rows, failed


def _open_output(settings: Settings):
    """The output stream, opened before any row runs: a path that cannot be
    written is a ConfigError rather than an error after the last row."""
    if not settings.output:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(settings.output, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {settings.output}: {exc}") from exc


def _render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
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
    commands = {
        name: sub.add_parser(name, help=text)
        for name, text in (
            ("estimate", "tail-probability estimators"),
            ("es", "expected shortfall via importance sampling"),
            ("asymptotic", "deterministic approximations only"),
            ("table", "preset experiment grids"),
        )
    }
    commands["table"].add_argument("table", choices=["2", "3", "4", "5"])
    for opt in _OPTIONS:
        for name in (opt.commands or commands) if opt.flags else ():
            commands[name].add_argument(*opt.flags, **opt.kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = f"table {args.table}" if args.command == "table" else args.command
    if getattr(args, "es", None):
        command += " --es"
    try:
        settings, given = _apply_flags(args, Settings())
        tasks = _plan(settings, command, given)
        sink = _open_output(settings)
    except ValueError as exc:  # a ConfigError or a check of the model inputs
        _log(f"configuration error: {exc}")
        return 2
    with sink as out:
        rows, failed = _execute(tasks, settings)
        out.write((_render_csv if settings.fmt == "csv" else _render_markdown)(rows))
    return 3 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
