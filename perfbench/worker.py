"""One benchmark workload in one fresh process.

Sets the workload up from its seed, then runs the workload's operation
cycle as a closed loop with one client (one operation at a time, the next
one only after the previous returns) until the measuring time is up and at
least one whole cycle has run.  Every result is checked and fingerprinted;
a repeat whose fingerprint differs from the first run of the same operation
counts as failed.  Prints one JSON object on its last stdout line.

Started by ``run.py``, which pins the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mcsda import divergence, synthdata
from mcsda.harness import cli, trainers
from mcsda.harness.config import ExperimentConfig
from mcsda.neural import Schedules

BATCH_SIZE = 32
MOONS_METHODS = (
    "source_only",
    "mcdal_l1",
    "mcdal_kl",
    "mcdal_ce",
    "mcdal_mdd_variant",
    "mcdal_dann",
    "symmnets_v2",
    "symmnets_v2_no_Lt",
    "symmnets_v2_no_adv",
)
ASCENT_RHO = 1.0
BOUND_DRAWS = 3
MONOTONE_TOL = 1e-12


class OpFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    name: str
    metric: str  # the end-to-end metric this operation's time goes into
    call: Callable[[], object]  # the timed part
    check: Callable[[object], tuple[object, dict]]  # -> (fingerprint payload, info)
    steps: int = 0  # SGD steps of a training run, from its config


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_report(path: Path) -> dict:
    report = json.loads(path.read_text())
    path.unlink()  # a later failed run must not find this one's report
    return report


def expected_steps(pair, cfg: ExperimentConfig) -> int:
    """SGD steps a run takes, from the trainers' batching rule: one full batch
    per epoch when both domains fit under the full-batch limit (never in
    open-set mode), otherwise one step per chunk of the longer domain."""
    n_s, n_t = pair.source.n, pair.target.n
    if pair.mode != "openset" and max(n_s, n_t) <= cfg.full_batch_limit:
        per_epoch = 1
    else:
        per_epoch = max(math.ceil(n_s / cfg.batch_size), math.ceil(n_t / cfg.batch_size))
    return per_epoch * cfg.epochs


def _train_op(name: str, metric: str, pair, cfg: ExperimentConfig) -> Op:
    def call():
        return trainers.run_experiment(pair, cfg)

    def check(res):
        if any(r.nan_flag for r in res.metrics):
            raise OpFailed("nan_flag set in epoch %d"
                           % next(r.epoch for r in res.metrics if r.nan_flag))
        accs = [res.final_source_acc, res.final_target_acc]
        if res.unknown_acc is not None:
            accs.append(res.unknown_acc)
        if not all(math.isfinite(a) for a in accs):
            raise OpFailed("non-finite accuracies %r" % (accs,))
        omega = None if res.omega is None else [float(w) for w in res.omega]
        payload = [
            res.final_source_acc, res.final_target_acc, res.converged, omega, res.unknown_acc
        ]
        info = {
            "moons": pair.mode == "closed",
            "target_acc": res.final_target_acc,
            "converged": res.converged,
        }
        return payload, info

    return Op(name, metric, call, check, expected_steps(pair, cfg))


def setup_train_matrix(seed: int, workdir: Path) -> list[Op]:
    """Criterion-6/7 design (nine methods on rotated moons, 120 epochs) plus
    the criterion-8 partial and criterion-9 open-set symmnets_v2 runs."""
    pairs = {
        "moons": synthdata.gen_rotated_moons(600, 600, 30.0, noise_sd=0.05, seed=seed),
        "partial": synthdata.make_partial(
            synthdata.gen_gauss_blobs(4, 150, (1.0, 0.5), seed=seed), [1, 2]
        ),
        "openset": synthdata.make_openset(
            synthdata.gen_gauss_blobs(6, 150, (1.0, 0.5), seed=seed, std=1.5),
            [1, 2, 3],
            [4],
            [5, 6],
        ),
    }
    for key, pair in pairs.items():  # the trainers see only what the files hold
        path = workdir / ("%s.csv" % key)
        synthdata.write_csv(pair, path)
        pairs[key] = synthdata.read_csv(path)

    def cfg(method, epochs, **extra):
        return ExperimentConfig(
            method=method,
            epochs=epochs,
            batch_size=BATCH_SIZE,
            seed=seed,
            schedules=Schedules(eta0=0.05),
            **extra,
        )

    ops = []
    for method in MOONS_METHODS:
        group = method if method == "source_only" else method.split("_")[0]
        ops.append(_train_op(method, "run_s." + group, pairs["moons"], cfg(method, 120)))
    modes = "run_s.symmnets_modes"
    ops.append(_train_op("partial", modes, pairs["partial"], cfg("symmnets_v2", 60)))
    ops.append(_train_op("openset", modes, pairs["openset"], cfg("symmnets_v2", 60, nu=6.0)))
    return ops


def _pac_op(name: str, metric: str, data: Path, extra: list[str]) -> Op:
    report = data.with_suffix(".report.json")
    argv = ["pac-report", "--data", str(data), "--out", str(report)] + extra

    def call():
        return _quiet_cli(argv)

    def check(out):
        code, text = out
        if code != 0:
            raise OpFailed("pac-report exit %d: %s" % (code, text.strip()))
        rep = _read_report(report)
        payload = [rep["divergence"], rep["rhs_total"]]
        if not all(math.isfinite(v) for v in payload):
            raise OpFailed("non-finite bound terms %r" % (payload,))
        return payload, {}

    return Op(name, metric, call, check)


def _ascent_op(name: str, pair) -> Op:
    def call():
        return divergence.mcsd_divergence_adversarial(
            pair.source.points, pair.target.points, k=pair.k, rho=ASCENT_RHO
        )

    def check(res):
        traj = np.asarray(res.trajectory)
        if not math.isfinite(res.value) or not np.all(np.isfinite(traj)):
            raise OpFailed("non-finite ascent value %r" % res.value)
        drop = float(np.min(np.diff(traj), initial=0.0))
        if drop < -MONOTONE_TOL:
            raise OpFailed("smoothed trajectory fell by %.3g" % -drop)
        return [res.value], {"warning": res.warning}

    return Op(name, "ascent_s.k10", call, check)


def setup_bound_reports(seed: int, workdir: Path) -> list[Op]:
    """pac-report on the default moons file (K = 2) and on a 10-class blobs
    file, plus the adversarial ascent on that 10-class pair, for each of
    BOUND_DRAWS data draws: the ascent's line search costs a different
    amount on every draw, and several draws per run average that out."""
    ops = []
    for j in range(BOUND_DRAWS):
        data_seed = str(BOUND_DRAWS * seed + j)
        k2, k10 = workdir / ("moons%d.csv" % j), workdir / ("blobs10_%d.csv" % j)
        for argv in (
            ["gen-data", "--out", str(k2), "--seed", data_seed],
            ["gen-data", "--out", str(k10), "--generator", "blobs", "--k", "10",
             "--n-per-class", "60", "--seed", data_seed],
        ):
            code, text = _quiet_cli(argv)
            if code != 0:
                raise RuntimeError("gen-data failed: %s" % text)
        ops += [
            _pac_op("pac_report.k2/%d" % j, "pac_report_s.k2", k2, []),
            _pac_op("pac_report.k10/%d" % j, "pac_report_s.k10", k10, ["--grid-size", "32"]),
            _ascent_op("ascent.k10/%d" % j, synthdata.read_csv(k10)),
        ]
    return ops


def setup_theory_check(seed: int, workdir: Path) -> list[Op]:
    """The brute-force theory suite at CLI defaults, seeded by the workload."""
    report = workdir / "theory.json"
    argv = ["theory-check", "--seed", str(seed), "--out", str(report)]

    def call():
        return _quiet_cli(argv)

    def check(out):
        code, text = out
        if code != 0:
            raise OpFailed("theory-check exit %d: %s" % (code, text.strip()))
        rep = _read_report(report)
        return [[c["name"], c["passed"], c["details"]] for c in rep["checks"]], {}

    return [Op("theory_check", "theory_check_s", call, check)]


def setup_bounds_theory(seed: int, workdir: Path) -> list[Op]:
    """The bound reports, then the theory suite: the divergence and margin
    layers used in large batches and in single vectors; no trainer code."""
    return setup_bound_reports(seed, workdir) + setup_theory_check(seed, workdir)


WORKLOADS = {
    "train_matrix": setup_train_matrix,
    "bounds_theory": setup_bounds_theory,
}


def _fingerprint(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_loop(ops: list[Op], seconds: float, tracer=None) -> tuple[list[dict], int]:
    """Closed loop over the cycle until ``seconds`` have passed and at least
    one cycle is complete.  A traced loop stops only at a cycle boundary, so
    its per-cycle counts repeat exactly."""

    def op_span():
        return tracer.span("bench.op") if tracer is not None else contextlib.nullcontext()

    first_fp: dict[str, str] = {}
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.run_id = i
        out, err = None, None
        t0 = time.perf_counter()
        try:
            with op_span():
                out = op.call()
        except Exception:
            err = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        rec = {"name": op.name, "s": t1 - t0, "steps": op.steps,
               "ok": False, "fp": None, "info": {}}
        if err is None:
            try:
                payload, rec["info"] = op.check(out)
                rec["fp"] = _fingerprint(payload)
                if first_fp.setdefault(op.name, rec["fp"]) != rec["fp"]:
                    raise OpFailed("fingerprint %s differs from first run %s"
                                   % (rec["fp"], first_fp[op.name]))
                rec["ok"] = True
            except Exception:
                err = traceback.format_exc(limit=3)
        if err is not None:
            rec["err"] = err
            print("operation %s failed:\n%s" % (op.name, err), file=sys.stderr)
        records.append(rec)
        i += 1
        cycles = i // len(ops)
        if t1 - start >= seconds and cycles >= 1 and (i % len(ops) == 0 or tracer is None):
            return records, cycles


def _tail(values: list[float]) -> tuple[int | None, float | None]:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 10:
        return None, None
    rank = n - 10
    return int(100 * rank / n), sorted(values)[rank - 1]


def metric(value: float, unit: str, n: int, samples: list[float] | None = None) -> dict:
    """A reported metric with its sample count; a timing also carries the
    median and tail of its samples."""
    pct, tail = _tail(samples or [])
    return {
        "value": value,
        "unit": unit,
        "n": n,
        "median": statistics.median(samples) if samples else None,
        "tail_pct": pct,
        "tail": tail,
    }


def workload_metrics(workload: str, records: list[dict], cycle: list[Op]) -> dict:
    """The end-to-end metrics this workload owns, plus ``cycle_s``: the time
    of one pass over the cycle, summed from each operation's median."""
    by_name: dict[str, list[float]] = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r["s"])
    per_op = {name: statistics.median(v) for name, v in by_name.items()}
    out = {"cycle_s": metric(sum(per_op[op.name] for op in cycle), "s", len(records))}
    groups: dict[str, list[str]] = {}
    for op in cycle:
        groups.setdefault(op.metric, []).append(op.name)
    for name, members in groups.items():
        samples = [s for m in members for s in by_name[m]]
        # several operations: the median over them of each one's median
        value = statistics.median(per_op[m] for m in members)
        out[name] = metric(value, "s", len(samples), samples)
    if workload == "train_matrix":
        done = [r for r in records if r["ok"]]
        steps = sum(r["steps"] for r in done)
        busy = sum(r["s"] for r in done)
        out["train_steps_per_s"] = metric(steps / busy if busy else 0.0, "1/s", len(done))
        first = {}
        for r in done:
            if r["info"]["moons"]:
                first.setdefault(r["name"], r["info"]["target_acc"])
        accs = list(first.values())
        out["target_acc_mean"] = metric(
            float(np.mean(accs)) if accs else float("nan"), "ratio", len(accs)
        )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)

    tracer = None
    if args.trace:
        from spans import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer, full_rows=BATCH_SIZE + 1)
    wall_start = time.perf_counter()
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        ops = WORKLOADS[args.workload](args.seed, workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    records, cycles = run_loop(ops, args.seconds, tracer)
    wall = time.perf_counter() - wall_start
    result = {
        "ready": ready,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "cycles": cycles,
        "metrics": workload_metrics(args.workload, records, ops),
        "ops": records,
        "numpy": np.__version__,
        "blas": _blas(),
    }
    if tracer is not None:
        steps = sum(r["steps"] for r in records)
        layers = layer_metrics(tracer, wall, cycles, steps)
        tracer.save(workdir / "spans.npz")
        result["layers"] = layers
        span_names = np.frombuffer(tracer.name, dtype=np.intc)
        sgd_calls = np.count_nonzero(span_names == tracer.name_id("neural.sgd_step"))
        result["steps_check"] = {"expected": steps, "sgd_step_calls": int(sgd_calls)}
    print(json.dumps(result))
    return 0


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (deps.get("name"), deps.get("version"))
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
