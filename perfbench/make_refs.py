"""Regenerate perfbench/refs.json, the reference values the workload gates use.

    python3 perfbench/make_refs.py

* ``conditional``: conditional Monte Carlo at m = REF_M for every (alpha, n)
  the gates compare against (b = 0.8, exposure 1, pd_scale 0.5, f_n = 1/n),
  with its standard error.  Seeds lie far outside the range the benchmark uses.
* ``asymptotic_mixed``: the CLI's asymptotic tail and shortfall values for
  every mixed-portfolio row of the ``asym-surface`` workload; they are
  deterministic, so the gate compares them at 1e-9 relative.

Run it only when the program's results are meant to change, and say so.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from archcredit import DefaultScale, EstimatorConfig, Portfolio, run_tail_estimate  # noqa: E402
from archcredit.cli import main as cli_main  # noqa: E402

COND_POINTS = [(1.1, 500), (1.5, 500), (2.0, 500), (5.0, 500), (1.5, 100), (1.5, 250), (1.5, 1000)]
REF_SEED = 2**62
# the reference standard error widens the 4-sigma bands of the mc-mix reference gate
REF_M = 200_000


def conditional_refs() -> dict:
    out = {}
    for i, (alpha, n) in enumerate(COND_POINTS):
        cfg = EstimatorConfig(
            portfolio=Portfolio.homogeneous(n, exposure=1.0, pd_scale=0.5),
            alpha=alpha,
            scale=DefaultScale.reciprocal(),
            b=0.8,
            m=REF_M,
            seed=REF_SEED + i,
            kind="conditional",
        )
        rep = run_tail_estimate(cfg)
        out[workloads.cond_key(alpha, n)] = {
            "estimate": rep.estimate,
            "std_error": rep.std_error,
            "m": REF_M,
            "seed": REF_SEED + i,
        }
        print(f"{alpha} {n}: {rep.estimate:.6g} +- {rep.std_error:.3g}", file=sys.stderr)
    return out


def mixed_golden() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build("asym-surface", Path(tmp))
        for row in wl.rows:
            if row.kind != "asymptotic-mixed":
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli_main(list(row.args))
            if rc != 0:
                raise SystemExit(f"{row.key}: exit {rc}")
            for rec in csv.DictReader(io.StringIO(buf.getvalue())):
                out[workloads.asym_key(rec)] = float(rec["asymptotic"])
    return out


def main() -> int:
    refs = {"conditional": conditional_refs(), "asymptotic_mixed": mixed_golden()}
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
