"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/sweep.py [--seeds 1-10] [--workloads mc-mix]
                               [--seconds 15] [--out FILE]

For each workload: one end-to-end run per seed, then TRACE_REPEATS traced
runs at the first seed.  Prints, per end-to-end metric, the median,
the quartiles (``statistics.quantiles(n=4)``) and their distance as a share
of the median, against the bound in BENCHMARK.json; checks that the traced
runs repeat every count exactly.  ``--out`` writes the whole summary as JSON
(a trajectory point).  Exits 1 if a run failed or counts did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_REPEATS = 2  # the exact-count check compares these runs, so at least 2


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit_code"] = proc.returncode
    result["elapsed_s"] = elapsed
    if proc.returncode != 0:
        result["log"] = (proc.stdout[-2000:] + proc.stderr[-2000:])
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Run every workload over several seeds.")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in args.seeds:  # round robin, so slow drift of the machine hits every workload
        for w in names:
            r = run_once(w, seed, args.seconds, 0)
            runs[w].append(r)
            print(f"{w} seed {seed}: exit {r['exit_code']} correct {r['correct']} "
                  f"{r['elapsed_s']:.1f} s " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
            if "log" in r:
                print(r["log"], flush=True)

    ok = True
    out = {
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "processor": platform.processor()},
        "workloads": {},
    }
    for w in names:
        good = [r for r in runs[w] if r["exit_code"] == 0 and r["correct"]]
        ok &= len(good) == len(runs[w])
        e2e = {}
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in good if metric in r["metrics"]]
            if not vals:
                continue
            e2e[metric] = summary(vals) | {"bound": bound}
            s = e2e[metric]
            flag = "" if metric == "setup_s" or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{w:13s} {metric:12s} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f} (bound {bound}){flag}")
        traced = [run_once(w, args.seeds[0], args.seconds, 1) for _ in range(TRACE_REPEATS)]
        ok &= all(r["exit_code"] == 0 and r["correct"] for r in traced)
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in traced]
        repeat = all(c == counts[0] for c in counts[1:])
        ok &= repeat
        print(f"{w:13s} traced runs: {len(traced)}, counts repeat exactly: {repeat}")
        out["workloads"][w] = {
            "end_to_end": e2e,
            "runs": [{k: r[k] for k in ("correct", "attempted", "failed", "exit_code")}
                     for r in runs[w]],
            "per_layer": [r["metrics"] for r in traced],
            "counts_repeat": repeat,
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
