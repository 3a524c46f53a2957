"""Run-to-run spread of the benchmark, and the baseline record.

    python3 perfbench/spread.py --workloads train_matrix,theory_check --seeds 0-9
    python3 perfbench/spread.py --seeds 0-9 --traced --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed) at the ``run_seconds`` of
BENCHMARK.json and prints, per bounded end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  A spread at or above a third
of the bound is flagged.  The record also holds the same summary for every
metric the workload prints.  With ``--traced`` it also makes one traced run per workload and
reports the tracing overhead: traced ``trace.cycle_s`` over the untraced
median ``cycle_s``.  ``--out`` writes all of it, with the machine
description, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full = ROOT / ".perfbench-out" / ("%s-s%d-t%d" % (workload, seed, trace)) / "result.json"
    return {"line": result, "full": json.loads(full.read_text())}


def summarize(values: list[float], bound: float | None = None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else None
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out.update(bound=bound, steady=spread is not None and spread < bound / 3)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            run = bench(workload, seed, seconds, 0)
            runs.append(run)
            line = run["line"]
            print("%s seed %d correct=%s failed=%d/%d %s" % (
                workload, seed, line["correct"], line["failed"], line["attempted"],
                " ".join("%s=%.4f" % (k, v["value"]) for k, v in line["metrics"].items())),
                flush=True)
        entry = {
            "correct": all(r["line"]["correct"] for r in runs),
            "failed": sum(r["line"]["failed"] for r in runs),
            "attempted": sum(r["line"]["attempted"] for r in runs),
            "end_to_end": {},
            "owned": {},
        }
        for m in spec["end_to_end"]:
            values = [r["line"]["metrics"][m["name"]]["value"] for r in runs]
            entry["end_to_end"][m["name"]] = summarize(values, m["bound"])
        for name, m in runs[0]["full"]["metrics"].items():
            values = [r["full"]["metrics"][name]["value"] for r in runs]
            entry["owned"][name] = dict(summarize(values), unit=m["unit"])
        for name, s in entry["end_to_end"].items():
            print("  %-10s median %.4f  q1 %.4f  q3 %.4f  spread %.4f  bound %.2f%s" % (
                name, s["median"], s["q1"], s["q3"], s["spread"], s["bound"],
                "" if s["steady"] else "  <-- not below bound/3"))
        if args.traced:
            traced = bench(workload, _seeds(args.seeds)[0], seconds, 1)
            layers = traced["full"]["layers"]
            untraced = entry["end_to_end"]["cycle_s"]["median"]
            entry["trace"] = {
                "correct": traced["line"]["correct"],
                "trace.cycle_s": layers["trace.cycle_s"],
                "overhead": layers["trace.cycle_s"] / untraced - 1.0,
                "coverage": layers["trace.coverage"],
                "steps_check": traced["full"]["steps_check"],
                "shares": {k: v for k, v in layers.items() if k.startswith("share.") and v},
            }
            print("  traced cycle_s %.4f vs untraced median %.4f: overhead %+.1f%%" % (
                layers["trace.cycle_s"], untraced, 100 * entry["trace"]["overhead"]))
        report["workloads"][workload] = entry
        report["machine"] = runs[-1]["full"]["machine"]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
