"""mcsda benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in a fresh
single-threaded process (``worker.py``) with the BLAS and OpenMP thread
counts pinned to 1.  With ``--trace 0`` the command first starts several
set-up-only processes, so ``setup_s`` is a median, then measures the
workload and prints every end-to-end metric with its unit and sample
count.  With ``--trace 1`` it runs the workload with spans around the
library's public functions and prints the per-layer metrics.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (exactly the names BENCHMARK.json lists for the mode).
A full result with the machine description and every operation is
written to ``.perfbench-out/<workload>-s<seed>-t<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
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
SETUP_SAMPLES = 5
TIMEOUT_S = 170.0
COVERAGE_MIN = 0.95  # span self times must account for the traced wall time
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(msg: str) -> int:
    print("perfbench: %s" % msg, file=sys.stderr)
    return 2


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_worker(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + (["--setup-only"] if setup_only else [])
    started = time.monotonic()
    proc = subprocess.run(
        cmd, env=_worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - started, 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision() -> dict:
    """Git revision when the checkout is a repository, and always a digest
    of the library sources, which identifies the code in any checkout."""
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git": rev, "src_sha256": digest.hexdigest()[:16]}


def machine(worker_result: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": worker_result.get("numpy"),
        "blas": worker_result.get("blas"),
        "threads": dict(PINNED_ENV),
        "revision": _revision(),
    }


def _metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n, "median": None, "tail_pct": None, "tail": None}


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def print_report(args, result: dict, wanted: list[str]) -> None:
    print("workload %s  seed %d  trace %d  closed loop, 1 client, %d cycles, %d ops, %d failed"
          % (args.workload, args.seed, args.trace, result["cycles"], result["attempted"],
             result["failed"]))
    mach = result["machine"]
    print("machine: %d cpus (%s), python %s, numpy %s, %s, threads %s, rev %s src %s"
          % (mach["nproc"], mach["cpu"], mach["python"], mach["numpy"], mach["blas"],
             ",".join("%s=%s" % kv for kv in mach["threads"].items()),
             mach["revision"]["git"], mach["revision"]["src_sha256"]))
    if args.trace:
        for name in wanted:
            print("  %-44s %s" % (name, _fmt(result["layers"][name])))
        sc = result["steps_check"]
        print("step-count cross-check: expected %d, sgd_step calls %d -> %s"
              % (sc["expected"], sc["sgd_step_calls"],
                 "ok" if sc["expected"] == sc["sgd_step_calls"] else "MISMATCH"))
        return
    print("  %-22s %-12s %-6s %-5s %-12s %s" % ("metric", "value", "unit", "n", "median", "tail"))
    for name, m in result["metrics"].items():
        tail = "-" if m["tail"] is None else "p%d %s" % (m["tail_pct"], _fmt(m["tail"]))
        print("  %-22s %-12s %-6s %-5s %-12s %s"
              % (name, _fmt(m["value"]), m["unit"], m["n"], _fmt(m["median"]), tail))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mcsda benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail("cannot read BENCHMARK.json: %s" % exc)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return _fail("unknown workload %r" % args.workload)
    if not (ROOT / "src" / "mcsda" / "__init__.py").is_file():
        return _fail("no mcsda sources under %s" % (ROOT / "src"))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    workdir = ROOT / ".perfbench-out" / ("%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runs = []
        if not args.trace:
            runs = [_run_worker(args, workdir, deadline, True) for _ in range(SETUP_SAMPLES - 1)]
        result = _run_worker(args, workdir, deadline, False)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        return _fail("workload %s did not complete: %s" % (args.workload, exc))
    runs.append(result)
    setups = [r["setup_s"] for r in runs]
    result["machine"] = machine(result)
    result["setup_samples"] = setups
    correct = result["failed"] == 0
    if args.trace:
        sc = result["steps_check"]
        correct = (correct and sc["expected"] == sc["sgd_step_calls"]
                   and COVERAGE_MIN <= result["layers"]["trace.coverage"] <= 1.0 + 1e-9)
        metrics = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        result["metrics"] = {
            "setup_s": _metric(statistics.median(setups), "s", len(setups)),
            "failed_frac": _metric(result["failed"] / result["attempted"], "ratio",
                                   result["attempted"]),
            **result["metrics"],
        }
        metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result["correct"] = correct
    (workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print_report(args, result, wanted)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
