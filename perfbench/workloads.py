"""Workload definitions and correctness gates for the archcredit benchmark.

A workload is a fixed list of CLI invocations (``Row``).  One *pass* runs every
row once, in order, through ``archcredit.cli.main`` in the benchmark process.
Pass ``p`` of a run with benchmark seed ``s`` gives row ``i`` the CLI seed
``cli_seed(s, p, i)``, so the inputs are a function of the seed alone.

Two workloads: ``mc-mix`` runs every Monte Carlo estimator (the conditional
Table 2 grid, the importance-sampling Table 4 sweep, the Table 5 shortfall
rows and naive, importance and conditional on a small two-group desk), and
``asym-surface`` runs the asymptotic approximations over a grid.

Every row names its gate (``Row.gate``).  Monte Carlo rows, pooled over the
passes of a run, are checked within 4 standard errors against values from
``refs.json`` (written by ``make_refs.py`` from the program at large m),
against published values or against the other desk estimators of the same
run; deterministic asymptotic rows of every pass against closed forms or
golden values at 1e-9 relative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from archcredit.asymptotics import homogeneous_shortfall_asymptotic, homogeneous_tail_asymptotic

HERE = Path(__file__).resolve().parent

# Published values of the reference grid (homogeneous, exposure 1, pd_scale 0.5,
# f_n = 1/n, b = 0.8), as quoted in tests/test_acceptance.py.
TABLE2_CONDMC = {1.1: 6.208e-5, 1.5: 2.726e-4, 2.0: 4.457e-4, 5.0: 7.815e-4}
TABLE5_ES = {50: 47.886, 100: 95.573, 250: 238.873, 500: 477.558}
# criterion 3 of the acceptance gate: conditional estimates within 1 % of Table 2
TABLE2_REL_TOL = 0.01
SIGMAS = 4.0
ASYM_REL_TOL = 1e-9

DESK_CONFIG = {
    "alpha": 1.5,
    "groups": [
        {"exposure": 1.0, "pd_scale": 0.5, "count": 12},
        {"exposure": 2.0, "pd_scale": 0.8, "count": 8},
    ],
    "scale": {"kind": "constant", "value": 0.3},
    "b": 0.5,
}

ASYM_ALPHAS = (1.1, 1.25, 1.5, 2.0, 3.0, 5.0)
ASYM_SIZES = (50, 100, 250, 500, 1000)
ASYM_LEVELS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def mixed_config(n: int) -> dict:
    """Two-group portfolio of size n: 60 % exposure 1, 40 % exposure 2."""
    return {
        "groups": [
            {"exposure": 1.0, "pd_scale": 0.5, "count": 3 * n // 5},
            {"exposure": 2.0, "pd_scale": 0.8, "count": 2 * n // 5},
        ]
    }


# gates a row can name
REFERENCE = "reference"  # conditional refs.json; conditional n=500 rows also Table 2
TABLE5 = "table5"  # published expected shortfall
PAIRWISE = "pairwise"  # the desk estimators agree with each other
EXACT = "exact"  # asymptotic closed form or golden value


@dataclass(frozen=True)
class Row:
    """One CLI invocation; ``args`` omit ``--seed``, which each pass supplies."""

    key: str
    kind: str  # conditional | importance | naive | es | asymptotic | asymptotic-mixed
    gate: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    rows: tuple[Row, ...]


def cli_seed(seed: int, pass_index: int, row_index: int) -> int:
    return (seed % 2**31) * 10**7 + pass_index * 100 + row_index


def _flags(flag: str, values) -> tuple[str, ...]:
    out: list[str] = []
    for v in values:
        out += [flag, str(v)]
    return tuple(out)


def build(name: str, config_dir: Path) -> Workload:
    """The workload called ``name``; config files it needs go to ``config_dir``."""
    if name == "mc-mix":
        m = "3000"
        rows = [
            Row(f"conditional a={a} n=500", "conditional", REFERENCE,
                ("estimate", "--method", "conditional", "--alpha", str(a), "--n", "500",
                 "--b", "0.8", "--m", m))
            for a in (1.1, 1.5, 2.0, 5.0)
        ] + [
            Row(f"conditional a=1.5 n={n}", "conditional", REFERENCE,
                ("estimate", "--method", "conditional", "--alpha", "1.5", "--n", str(n),
                 "--b", "0.8", "--m", m))
            for n in (100, 1000)
        ] + [
            Row(f"importance a=1.5 n={n}", "importance", REFERENCE,
                ("estimate", "--method", "importance", "--alpha", "1.5", "--n", str(n),
                 "--b", "0.8", "--m", m, "--asymptotic"))
            for n in (100, 250, 500, 1000)
        ] + [
            Row(f"es a=1.5 n={n}", "es", TABLE5,
                ("es", "--alpha", "1.5", "--n", str(n), "--b", "0.8", "--m", m))
            for n in TABLE5_ES
        ]
        path = _write_config(config_dir, "desk.json", DESK_CONFIG)
        rows += [
            Row(f"{meth} desk", meth, PAIRWISE,
                ("estimate", "--config", str(path), "--method", meth, "--m", "8000"))
            for meth in ("naive", "importance", "conditional")
        ]
    elif name == "asym-surface":
        levels = _flags("--b", ASYM_LEVELS)
        rows = [
            Row(f"asymptotic a={a} homogeneous", "asymptotic", EXACT,
                ("asymptotic", "--alpha", str(a), *_flags("--n", ASYM_SIZES), *levels, "--es"))
            for a in ASYM_ALPHAS
        ]
        for n in ASYM_SIZES:
            path = _write_config(config_dir, f"mixed-{n}.json", mixed_config(n))
            rows += [
                Row(f"asymptotic a={a} mixed n={n}", "asymptotic-mixed", EXACT,
                    ("asymptotic", "--config", str(path), "--alpha", str(a), *levels, "--es"))
                for a in ASYM_ALPHAS
            ]
    else:
        raise KeyError(name)
    return Workload(name, tuple(rows))


NAMES = ("mc-mix", "asym-surface")


def _write_config(config_dir: Path, name: str, content: dict) -> Path:
    config_dir.mkdir(parents=True, exist_ok=True)
    path = config_dir / name
    path.write_text(json.dumps(content), encoding="utf-8")
    return path


# parsing -------------------------------------------------------------------

VALUE_FIELDS = ("estimate", "std_error", "rel_error_pct")


def row_problem(kind: str, records: list[dict]) -> str | None:
    """Why a row's CSV records are unusable, or None if every value is present."""
    if not records:
        return "no CSV rows"
    for rec in records:
        fields = ("asymptotic",) if kind.startswith("asymptotic") else VALUE_FIELDS
        for f in fields:
            try:
                v = float(rec[f])
            except (KeyError, ValueError):
                return f"field {f} empty or missing"
            if not math.isfinite(v):
                return f"field {f} is {rec[f]}"
    return None


# gates ---------------------------------------------------------------------


@dataclass
class Check:
    key: str
    ok: bool
    detail: str


def _pooled(samples: list[dict]) -> tuple[float, float]:
    """Mean of equal-size runs and its standard error."""
    k = len(samples)
    est = sum(float(r["estimate"]) for r in samples) / k
    se = math.sqrt(sum(float(r["std_error"]) ** 2 for r in samples)) / k
    return est, se


def _band_check(key: str, est: float, se: float, ref: float, ref_se: float, what: str,
                slack: float = 0.0) -> Check:
    band = SIGMAS * math.hypot(se, ref_se) + slack
    gap = abs(est - ref)
    return Check(key, gap <= band, f"{est:.6g} vs {what} {ref:.6g}: gap/band {gap / band:.3f}")


def load_refs() -> dict:
    with open(HERE / "refs.json", encoding="utf-8") as fh:
        return json.load(fh)


def statistical_checks(workload: Workload, first_records: dict[str, list[dict]],
                       refs: dict) -> list[Check]:
    """Check the Monte Carlo rows, pooled over passes.

    ``first_records[key]`` holds the CSV record of row ``key`` from every pass
    that produced one.  Pooling makes one check per row (or pair) per run
    instead of one per pass.
    """
    cond_refs = refs["conditional"]
    pooled = {key: _pooled(recs) for key, recs in first_records.items()}
    checks: list[Check] = []
    for row in workload.rows:
        if row.key not in pooled:
            continue
        est, se = pooled[row.key]
        rec = first_records[row.key][0]
        alpha, n = float(rec["alpha"]), int(rec["n"])
        if row.gate == REFERENCE:
            ref = cond_refs[cond_key(alpha, n)]
            what = "reference" if row.kind == "conditional" else "conditional reference"
            checks.append(_band_check(row.key, est, se, ref["estimate"], ref["std_error"], what))
            if row.kind == "conditional" and n == 500:
                pub = TABLE2_CONDMC[alpha]
                dev = abs(est / pub - 1.0)
                checks.append(Check(row.key, dev <= TABLE2_REL_TOL,
                                    f"{est:.6g} vs Table 2 {pub}: deviation {100 * dev:.3f}%"))
        elif row.gate == TABLE5:
            # Table 5 prints three decimals
            checks.append(_band_check(row.key, est, se, TABLE5_ES[n], 0.0, "Table 5",
                                      slack=0.0005))
    keys = [row.key for row in workload.rows if row.gate == PAIRWISE and row.key in pooled]
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            (ea, sa), (eb, sb) = pooled[a], pooled[b]
            checks.append(_band_check(f"{a} ~ {b}", ea, sa, eb, sb, b))
    return checks


def exact_checks(row: Row, records: list[dict], refs: dict) -> list[Check]:
    """Deterministic rows of one pass: closed forms (homogeneous) or golden values."""
    if row.gate != EXACT:
        return []
    out = []
    for rec in records:
        key = asym_key(rec)
        if row.kind == "asymptotic":
            alpha, n, b = float(rec["alpha"]), int(rec["n"]), float(rec["b"])
            if rec["method"] == "asymptotic_tail":
                want = homogeneous_tail_asymptotic(alpha, 1.0 / n, b, 0.5, 1.0)
            else:
                want = homogeneous_shortfall_asymptotic(alpha, b, 1.0, n)
        else:
            want = refs["asymptotic_mixed"].get(key)
            if want is None:
                out.append(Check(key, False, "no golden value"))
                continue
        got = float(rec["asymptotic"])
        rel = abs(got - want) / abs(want)
        out.append(Check(key, rel <= ASYM_REL_TOL, f"{got:.17g} vs {want:.17g}: relative {rel:.2e}"))
    return out


def cond_key(alpha: float, n: int) -> str:
    return f"alpha={alpha:g} n={n} b=0.8"


def asym_key(rec: dict) -> str:
    return f"{rec['method']} alpha={float(rec['alpha']):g} n={rec['n']} b={float(rec['b']):g}"
