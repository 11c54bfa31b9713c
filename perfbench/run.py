"""archcredit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory.  Workloads (see ``workloads.py``): ``mc-mix`` and
``asym-surface``.  Each is a closed loop of CLI invocations
("rows") through ``archcredit.cli.main`` in this single-threaded process,
one after another, with the CLI's default ``threads=1``.

``--trace 0`` (end to end, no instrumentation) repeats passes over the rows for
about S seconds (it stops at the pass end nearest to S, after at least three
passes), pass p using CLI seeds derived from (N, p), and reports:

* ``setup_s``: median over fresh interpreters of the cold import of
  ``archcredit.cli`` plus the first row cut to one cheap evaluation
  (``setup_probe.py``, ``probe_args``);
* ``wall_s``: median over passes of the summed wall time of the rows, in
  calibrated seconds (below);
* ``t1pct_s``: calibrated seconds to reach a 1 % relative error.  Per row,
  the median over passes of ``row seconds x rel_error_pct**2``; per estimator
  (row kind), ``t1pct_s.<kind>``, the geometric mean over its rows;
  ``t1pct_s`` is the geometric mean over the estimators, so each weighs the
  same however many rows it has.  A deterministic asymptotic row reaches its accuracy in one
  evaluation, so its term is its time per grid point;
* ``peak_rss_mb``: peak resident memory of this process.

The speed of the shared machine drifts by up to about 30 % over tens of
seconds to minutes, so after every CALIBRATE_EVERY_S of row time the run times
``calibration_seconds()``, a fixed computation that uses nothing of the
program.  A calibrated second is a measured second times CALIBRATION_REF_S
over the median of those samples: the time on a machine as fast as the
reference one.  A change to the program does not change the calibration, so
it moves calibrated times as it moves measured ones.  The measured median pass
time is printed as ``wall_measured_s``.

It also prints, as plain lines, ``t1pct_s.<kind>``, ``reps_per_s`` (per
calibrated second) and ``rows_failed_frac``.

``--trace 1`` alternates traced and untraced passes over the rows of pass 0
for about S seconds (at least two traced), checks that every pass prints the same
CSV bytes and that the traced passes repeat their counts exactly, and reports
per-layer calls, points or values, self time (median over traced passes) and
``trace.overhead_frac``.  Spans are written to ``.bench_out/`` at the end.

Every run gates its rows (``workloads.py``).  A row fails if the CLI exits
non-zero, leaves a value field empty or fails a check.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` (rows)
and ``metrics``; the exit code is 1 when anything failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PROBE_M = "2"  # replications of a Monte Carlo row in the set-up probe
CHILD_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.5  # row time between two calibration samples
# median calibration_seconds() between the rows of a run on the reference
# machine (2 vCPUs of a shared x86-64 virtual machine, Python 3.11, numpy 2.4,
# scipy 1.17); reported times are in seconds of a machine that runs this fast
CALIBRATION_REF_S = 0.028

# per-layer metric name: (layer, field of tracing.summarize)
PER_LAYER_COUNTS = {
    "rng.substream.calls": ("rng.substream", "calls"),
    "rng.draw.calls": ("rng.draw", "calls"),
    "rng.draw.values": ("rng.draw", "amount"),
    "stable.sf.calls": ("stable.sf", "calls"),
    "stable.sf.points": ("stable.sf", "amount"),
    "stable.pdf.calls": ("stable.pdf", "calls"),
    "stable.pdf.points": ("stable.pdf", "amount"),
    "stable.sample.calls": ("stable.sample", "calls"),
    "estimators.setup.calls": ("estimators.setup", "calls"),
    "estimators.is_sample_v.calls": ("estimators.is_sample_v", "calls"),
    "portfolio.solve_vstar.calls": ("portfolio.solve_vstar", "calls"),
    "asymptotics.tail.calls": ("asymptotics.tail", "calls"),
    "asymptotics.es.calls": ("asymptotics.es", "calls"),
}
PER_LAYER_SELF = {
    "rng.substream.self_s": "rng.substream",
    "rng.draw.self_s": "rng.draw",
    "stable.sf.self_s": "stable.sf",
    "stable.pdf.self_s": "stable.pdf",
    "stable.sample.self_s": "stable.sample",
    "estimators.setup.self_s": "estimators.setup",
    "estimators.self_s": "estimators",
    "estimators.is_sample_v.self_s": "estimators.is_sample_v",
    "estimators.aggregate.self_s": "estimators.aggregate",
    "portfolio.solve_vstar.self_s": "portfolio.solve_vstar",
    "asymptotics.tail.self_s": "asymptotics.tail",
    "asymptotics.es.self_s": "asymptotics.es",
    "cli.self_s": "cli",
}


@dataclass
class RowRun:
    """What a run keeps of one CLI invocation; nothing here grows with m."""

    seconds: float
    n_records: int
    first: dict | None  # first CSV record of a Monte Carlo row, for the pooled checks
    problem: str | None
    checked: int  # values checked exactly in this invocation
    text: str  # CSV output, kept only when the run compares bytes


def calibration_seconds() -> float:
    """Seconds of a fixed computation that uses nothing of the program but
    works as its layers do: a seeded generator per replication, small draws,
    a broadcast series over a few dozen terms, a partition, a root solve and a
    quadrature with Python integrands.  Taken between rows, it samples how
    fast the shared machine runs at the time; the garbage collector is off,
    so the program's heap does not change it."""
    import numpy as np
    from scipy import integrate, optimize, special

    k = np.arange(60.0)
    sign = (-1.0) ** k
    log_mag = -special.gammaln(k + 1.0)
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    total = 0.0
    for i in range(300):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(i,))))
        xs = 1.0 + gen.standard_exponential(40)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = sign * np.exp(log_mag - 0.5 * k * np.log(xs)[:, None])
        total += float(np.where(np.isfinite(terms), terms, 0.0).sum(axis=1).max())
        total += float(np.partition(xs, 10)[10]) + float(gen.uniform())
    for j in range(1, 21):
        total += optimize.brentq(lambda v, j=j: v ** 1.5 - j, 0.0, 10.0)
        total += integrate.quad(lambda t, j=j: math.exp(-j * t) * math.sqrt(t), 0.0, 10.0)[0]
    seconds = time.perf_counter() - t0
    if gc_was_on:
        gc.enable()
    return seconds


def probe_args(args) -> list[str]:
    """The row cut to one cheap evaluation that still pays its lazy set-up:
    ``--m`` becomes PROBE_M, and only the first ``--n`` and ``--b`` are kept,
    so an asymptotic row evaluates one grid point."""
    out: list[str] = []
    seen = set()
    pairs = iter(args)
    for arg in pairs:
        if arg not in ("--m", "--n", "--b"):
            out.append(arg)
            continue
        value = next(pairs)
        if arg not in seen:
            seen.add(arg)
            out += [arg, PROBE_M if arg == "--m" else value]
    return out


def replications(row) -> int:
    return int(row.args[row.args.index("--m") + 1]) if "--m" in row.args else 0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quiet_call(cli, argv: list[str]) -> tuple[int, str, float]:
    """``cli.main(argv)`` with its output captured; ``cli.main`` is looked up
    at call time, so an installed tracer applies."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), seconds


class Runner:
    """Runs passes of one workload and keeps the tally of failed rows."""

    def __init__(self, cli, workloads, wl, seed: int, calibrate: bool = False):
        self.cli = cli
        self.workloads = workloads
        self.wl = wl
        self.seed = seed
        self.refs = workloads.load_refs()
        self.attempted = 0
        self.checked = 0
        self.failed_rows: set[tuple[int, int]] = set()
        self.notes: list[str] = []
        self.calibrate = calibrate
        self.calibration: list[float] = []
        self.row_seconds_since_calibration = 0.0

    def fail(self, pass_index: int, row_index: int, note: str) -> None:
        self.failed_rows.add((pass_index, row_index))
        self.notes.append(note)

    def call(self, row, seed_value: int, keep_text: bool) -> RowRun:
        rc, text, seconds = quiet_call(self.cli, list(row.args) + ["--seed", str(seed_value)])
        records = list(csv.DictReader(io.StringIO(text)))
        problem = f"exit code {rc}" if rc != 0 else self.workloads.row_problem(row.kind, records)
        checks = [] if problem else self.workloads.exact_checks(row, records, self.refs)
        bad = [c for c in checks if not c.ok]
        if bad:
            problem = f"{len(bad)} values failed, first {bad[0].key}: {bad[0].detail}"
        # only pooled rows keep a record, so memory does not grow with the pass count
        first = records[0] if records and row.gate != self.workloads.EXACT else None
        return RowRun(seconds, len(records), first, problem, len(checks),
                      text if keep_text else "")

    def run_pass(self, pass_index: int, seed_pass: int, tracer=None,
                 keep_text: bool = False) -> list[RowRun]:
        """Every row once, with the CLI seeds of pass ``seed_pass``."""
        runs = []
        for i, row in enumerate(self.wl.rows):
            if tracer is not None:
                tracer.row = i
            run = self.call(row, self.workloads.cli_seed(self.seed, seed_pass, i), keep_text)
            self.attempted += 1
            self.checked += run.checked
            if run.problem is not None:
                self.fail(pass_index, i, f"{row.key} (pass {pass_index}): {run.problem}")
            runs.append(run)
            self.row_seconds_since_calibration += run.seconds
            if self.calibrate and self.row_seconds_since_calibration >= CALIBRATE_EVERY_S:
                self.calibration.append(calibration_seconds())
                self.row_seconds_since_calibration = 0.0
        return runs

    def statistical_gate(self, passes: list[list[RowRun]]) -> None:
        """Pool each Monte Carlo row over the passes where it produced values."""
        usable = {
            row.key: [(p, runs[i]) for p, runs in enumerate(passes) if runs[i].problem is None]
            for i, row in enumerate(self.wl.rows)
            if not row.kind.startswith("asymptotic")
        }
        first = {key: [r.first for _, r in got] for key, got in usable.items() if got}
        index = {row.key: i for i, row in enumerate(self.wl.rows)}
        for chk in self.workloads.statistical_checks(self.wl, first, self.refs):
            print(f"check {'ok  ' if chk.ok else 'FAIL'} {chk.key}: {chk.detail}")
            if chk.ok:
                continue
            # a check names one row, or two joined by " ~ " for a pairwise check
            for key in chk.key.split(" ~ "):
                for p, _ in usable[key]:
                    self.fail(p, index[key], f"check failed: {chk.key}: {chk.detail}")
        print(f"values checked exactly: {self.checked}")


def pass_seconds(runs: list[RowRun]) -> float:
    return sum(r.seconds for r in runs)


def measure_setup(wl) -> list[float]:
    """Set-up time of fresh interpreters, each importing the program cold."""
    argv = json.dumps(probe_args(wl.rows[0].args) + ["--seed", "0"])
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["rc"] != 0:
            raise RuntimeError(f"set-up probe row exited {result['rc']}")
        samples.append(result["setup_s"])
    return samples


def row_t1pct(row, runs: list[RowRun]) -> float:
    """Median over passes of this row's seconds to a 1 % relative error."""
    if row.kind.startswith("asymptotic"):
        return statistics.median(r.seconds / r.n_records for r in runs)
    return statistics.median(r.seconds * float(r.first["rel_error_pct"]) ** 2 for r in runs)


def more(done: int, least: int, start: float, seconds: float) -> bool:
    """Whether to start another round: until ``least`` are done, then while
    its end, at the mean round time so far, lies nearer to ``seconds`` than
    stopping now."""
    elapsed = time.perf_counter() - start
    return done < least or elapsed + 0.5 * elapsed / done < seconds


def end_to_end(runner: Runner, seconds: float) -> dict:
    wl = runner.wl
    setup = measure_setup(wl)
    passes: list[list[RowRun]] = []
    start = time.perf_counter()
    while more(len(passes), MIN_PASSES, start, seconds):
        passes.append(runner.run_pass(len(passes), len(passes)))
    runner.statistical_gate(passes)

    good = [runs for runs in passes if all(r.problem is None for r in runs)]
    if not good:
        return {}
    calibration = statistics.median(runner.calibration or [calibration_seconds()])
    speed = CALIBRATION_REF_S / calibration  # reference seconds per measured second
    raw_wall = statistics.median(pass_seconds(runs) for runs in good)
    print(f"calibration_s {calibration!r} s over {len(runner.calibration)} samples; "
          f"wall_measured_s {raw_wall!r} s")
    walls = [speed * pass_seconds(runs) for runs in good]
    per_row = {row.key: speed * row_t1pct(row, [runs[i] for runs in good])
               for i, row in enumerate(wl.rows)}
    per_kind = {kind: geomean(per_row[row.key] for row in wl.rows if row.kind == kind)
                for kind in dict.fromkeys(row.kind for row in wl.rows)}
    for kind, value in per_kind.items():
        print(f"t1pct_s.{kind} {value!r} s")
    mc = [i for i, row in enumerate(wl.rows) if replications(row)]
    if mc:
        reps = sum(replications(wl.rows[i]) for i in mc)
        rate = statistics.median(reps / sum(runs[i].seconds for i in mc) for runs in good) / speed
        print(f"reps_per_s {rate!r} 1/s")
    print(f"passes {len(passes)}; pass wall min {min(walls):.4f} s, max {max(walls):.4f} s; "
          f"setup samples {[round(s, 4) for s in setup]}")
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "t1pct_s": {"value": geomean(per_kind.values()), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def traced(runner: Runner, tracing, seconds: float) -> tuple[dict, bool]:
    """Per-layer metrics; the flag is False if tracing changed output or counts."""
    wl = runner.wl
    reference = runner.run_pass(0, 0, keep_text=True)
    untraced_walls = [pass_seconds(reference)]
    traced_walls: list[float] = []
    summaries: list[dict] = []
    spans = []
    consistent = True
    start = time.perf_counter()
    while more(len(summaries), MIN_TRACED_PASSES, start, seconds):
        tracer = tracing.Tracer()
        index = 1 + 2 * len(summaries)
        with tracer.installed():
            runs = runner.run_pass(index, 0, tracer, keep_text=True)
        if tracer.missing:
            print(f"entry points not found: {', '.join(tracer.missing)}")
        traced_walls.append(pass_seconds(runs))
        spans.append(tracer.spans())
        summaries.append(tracing.summarize(spans[-1]))
        plain = runner.run_pass(index + 1, 0, keep_text=True)
        untraced_walls.append(pass_seconds(plain))
        for offset, label, other in ((0, "traced", runs), (1, "untraced", plain)):
            for i, (a, b) in enumerate(zip(reference, other)):
                if a.text != b.text:
                    runner.fail(index + offset, i,
                                f"{wl.rows[i].key}: {label} CSV differs from the first pass")
                    consistent = False
    runner.statistical_gate([reference])

    counts = [{layer: (s[layer]["calls"], s[layer]["amount"]) for layer in tracing.LAYERS}
              for s in summaries]
    if any(c != counts[0] for c in counts[1:]):
        runner.notes.append("traced passes at one seed gave different counts")
        consistent = False
    first = summaries[0]
    metrics = {name: {"value": int(first[layer][field]), "unit": "count"}
               for name, (layer, field) in PER_LAYER_COUNTS.items()}
    for name, layer in PER_LAYER_SELF.items():
        metrics[name] = {"value": statistics.median(s[layer]["self_s"] for s in summaries),
                         "unit": "s"}
    metrics["estimators.is_sample_v.accept_ratio"] = {
        "value": first["estimators.is_sample_v"]["accept_ratio"], "unit": "ratio"}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        "unit": "ratio",
    }
    print(f"traced passes {len(traced_walls)}, untraced passes {len(untraced_walls)}, "
          f"spans per pass {len(spans[0])}; output and counts identical: {consistent}")
    tracing.save(OUT / f"spans-{wl.name}-seed{runner.seed}.npz", spans)
    return metrics, consistent


def main(argv=None) -> int:
    if not (SRC / "archcredit" / "cli.py").is_file():
        print(f"archcredit sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import archcredit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"archcredit imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    ap = argparse.ArgumentParser(description="Run one archcredit benchmark workload.")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, OUT / "configs")
    runner = Runner(cli, workloads, wl, args.seed, calibrate=not args.trace)
    # pay the lazy set-up of the first row before anything is timed
    rc, _, _ = quiet_call(cli, probe_args(wl.rows[0].args) + ["--seed", "0"])
    if rc != 0:
        print(f"warm-up row exited {rc}", file=sys.stderr)
        return 1
    consistent = True
    if args.trace:
        metrics, consistent = traced(runner, tracing, args.seconds)
    else:
        metrics = end_to_end(runner, args.seconds)

    for note in runner.notes[:50]:
        print(f"FAILED {note}")
    failed = len(runner.failed_rows)
    print(f"rows attempted {runner.attempted}, failed {failed}, "
          f"rows_failed_frac {failed / runner.attempted!r}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    correct = failed == 0 and consistent and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
