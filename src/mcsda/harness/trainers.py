"""Training loops for every method in the run matrix.

All trainers share the same skeleton: seeded model + SGD momentum with
heads at 10x the feature-map rate, the annealed learning-rate and
adversarial-weight schedules driven by completed-epochs / total-epochs,
full-batch steps when both domains fit under the full-batch limit and
shuffled mini-batches otherwise, and one metrics record per epoch appended
to a JSON Lines stream.  Target labels are touched only through the
evaluation accessor.

Methods:

* ``source_only``        task head on source data, nothing else;
* ``mcdal_*``            minimax surrogate trainers: the task head and two
  auxiliary heads (or one scalar domain head for the binary surrogate),
  coupled through one simultaneous gradient-reversal update per step;
* ``symmnets_v2``        the symmetric two-head trainer plus its two
  ablations (no target-path task loss / no adversarial part).

A run that produces a non-finite loss, or whose target accuracy stays
below 1.5x chance over the second half of training (second-half mean or
final epoch), is marked not converged; callers map that onto the CLI
exit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..divergence import mcsd_rows
from ..neural import (
    MlpScorer,
    SgdMomentum,
    center_scores,
    grad_reversal_step,
    lambda_schedule,
    lr_schedule,
)
from ..surrogates import (
    ce_with_grads,
    dann_with_grads,
    kl_with_grads,
    l1_with_grads,
    log_loss_with_grads,
    mdd_variant_with_grads,
    reset_clamp_count,
)
from ..symmnets import (
    HEAD_S,
    HEAD_T,
    eval_openset,
    openset_adapt,
    openset_sampler,
    partial_weights,
    symmnets_step,
)
from ..synthdata import DomainPair
from .config import ExperimentConfig, MetricsRecord

__all__ = ["RunResult", "run_experiment", "run_source_only", "run_mcdalnet", "run_symmnets"]

from ..losses import PAIRWISE_SURROGATES as _PAIRWISE_SURROGATES


@dataclass
class RunResult:
    method: str
    seed: int
    converged: bool
    final_source_acc: float
    final_target_acc: float
    metrics: list[MetricsRecord]
    model: MlpScorer
    omega: np.ndarray | None = None
    os_all: float | None = None
    os_shared: float | None = None
    unknown_acc: float | None = None
    notes: list[str] = field(default_factory=list)


def _seeds(cfg: ExperimentConfig) -> tuple[int, int, int]:
    """Derive independent integer seeds for init, shuffling and sampling."""
    state = np.random.SeedSequence(cfg.seed).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _accuracy(raw_scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(raw_scores, axis=1) + 1 == labels))


def _epoch_batches(
    rng: np.random.Generator, n_src: int, n_tgt: int, cfg: ExperimentConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Index pairs for one epoch: single full batch on small data, otherwise
    shuffled chunks with the shorter stream cycled."""
    if n_src <= cfg.full_batch_limit and n_tgt <= cfg.full_batch_limit:
        return [(np.arange(n_src), np.arange(n_tgt))]
    bs = cfg.batch_size
    chunks_s = [c for c in np.array_split(rng.permutation(n_src), math.ceil(n_src / bs))]
    chunks_t = [c for c in np.array_split(rng.permutation(n_tgt), math.ceil(n_tgt / bs))]
    steps = max(len(chunks_s), len(chunks_t))
    return [(chunks_s[i % len(chunks_s)], chunks_t[i % len(chunks_t)]) for i in range(steps)]


def _mean_losses(step_losses: list[dict[str, float]]) -> dict[str, float]:
    if not step_losses:
        return {}
    keys = step_losses[0].keys()
    return {k: float(np.mean([d[k] for d in step_losses])) for k in keys}


def _mcsd_gap(model: MlpScorer, pair: DomainPair, head_a: str, head_b: str, rho: float) -> float:
    """Target-minus-source mean disagreement of two heads, exact ramp."""
    def mean_disagreement(points):
        cache = model.forward(points, heads=(head_a, head_b))
        a, b = center_scores(cache.raw[head_a]), center_scores(cache.raw[head_b])
        return float(mcsd_rows(a, b, rho).mean())

    return mean_disagreement(pair.target.points) - mean_disagreement(pair.source.points)


class _Recorder:
    """Collects MetricsRecords and mirrors them to a JSONL file."""

    def __init__(self, path: Path | None) -> None:
        self.records: list[MetricsRecord] = []
        self._fh = open(path, "w") if path is not None else None

    def add(self, record: MetricsRecord) -> None:
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(record.to_json_line() + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _run_dir(cfg: ExperimentConfig) -> Path | None:
    if cfg.outdir is None:
        return None
    d = Path(cfg.outdir) / ("%s_seed%d" % (cfg.method, cfg.seed))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _finalize(
    cfg: ExperimentConfig,
    pair: DomainPair,
    model: MlpScorer,
    recorder: _Recorder,
    run_dir: Path | None,
    **extra,
) -> RunResult:
    recorder.close()
    records = recorder.records
    bar = 1.5 / pair.k
    converged = bool(records) and not any(r.nan_flag for r in records)
    if records:
        # sustained failure only; single-epoch dips while the adversarial
        # weight ramps up are normal
        half = [r.target_acc for r in records if r.epoch >= math.ceil(cfg.epochs / 2)]
        tail = half if half else [records[-1].target_acc]
        if float(np.mean(tail)) < bar or records[-1].target_acc < bar:
            converged = False
    result = RunResult(
        method=cfg.method,
        seed=cfg.seed,
        converged=converged,
        final_source_acc=records[-1].source_acc if records else float("nan"),
        final_target_acc=records[-1].target_acc if records else float("nan"),
        metrics=records,
        model=model,
        **extra,
    )
    if run_dir is not None:
        cfg.dump(run_dir / "config.json")
        model.save(run_dir / "model.ckpt")
        with open(run_dir / "result.json", "w") as fh:
            json.dump(
                {
                    "method": result.method,
                    "seed": result.seed,
                    "converged": result.converged,
                    "final_source_acc": result.final_source_acc,
                    "final_target_acc": result.final_target_acc,
                    "os_all": result.os_all,
                    "os_shared": result.os_shared,
                    "unknown_acc": result.unknown_acc,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
    return result


def _eval_raw(model: MlpScorer, points: np.ndarray, head: str) -> np.ndarray:
    return model.forward(points, heads=(head,)).raw[head]


def run_source_only(pair: DomainPair, cfg: ExperimentConfig) -> RunResult:
    """Task head trained on source labels only; the adaptation baseline."""
    init_seed, shuffle_seed, _ = _seeds(cfg)
    d = pair.source.points.shape[1]
    model = MlpScorer(
        d, {"f": (pair.k, True)}, hidden=cfg.hidden, feature_dim=cfg.feature_dim, seed=init_seed
    )
    opt = SgdMomentum(model.params(), cfg.schedules.momentum, model.lr_multipliers())
    rng = np.random.default_rng(shuffle_seed)
    xs, ys = pair.source.points, pair.source.labels
    xt, yt = pair.target.points, pair.eval_target_labels()
    run_dir = _run_dir(cfg)
    recorder = _Recorder(run_dir / "metrics.jsonl" if run_dir else None)
    reset_clamp_count()
    for epoch in range(cfg.epochs):
        p = epoch / cfg.epochs
        lr = lr_schedule(p, cfg.schedules)
        lam = lambda_schedule(p, cfg.schedules)
        step_losses = []
        nan_flag = False
        for idx_s, _ in _epoch_batches(rng, xs.shape[0], xt.shape[0], cfg):
            cache = model.forward(xs[idx_s], heads=("f",))
            value, g = log_loss_with_grads(cache.raw["f"], ys[idx_s])
            if not np.isfinite(value):
                nan_flag = True
                break
            opt.step(model.backward(cache, {"f": g}), lr)
            step_losses.append({"task": value})
        recorder.add(
            MetricsRecord(
                epoch=epoch,
                method=cfg.method,
                seed=cfg.seed,
                lr=lr,
                lambda_p=lam,
                zeta=None,
                xi=None,
                losses=_mean_losses(step_losses),
                source_acc=_accuracy(_eval_raw(model, xs, "f"), ys),
                target_acc=_accuracy(_eval_raw(model, xt, "f"), yt),
                divergence_proxy=None,
                clamp_events=reset_clamp_count(),
                nan_flag=nan_flag,
            )
        )
        if nan_flag:
            break
    return _finalize(cfg, pair, model, recorder, run_dir)


def run_mcdalnet(pair: DomainPair, cfg: ExperimentConfig) -> RunResult:
    """Minimax surrogate trainer with one simultaneous reversal update per step.

    The task head and (for the pairwise surrogates) both auxiliary heads
    minimize source log loss; the auxiliary side additionally descends the
    source-minus-target surrogate disagreement while the feature map
    receives that gradient reversed and scaled by the annealed weight.
    """
    surrogate = cfg.surrogate
    if surrogate is None:
        raise ValueError("run_mcdalnet needs an mcdal_* method, got %r" % cfg.method)
    init_seed, shuffle_seed, _ = _seeds(cfg)
    d = pair.source.points.shape[1]
    k = pair.k
    if surrogate == "dann":
        heads = {"f": (k, True), "d": (1, False)}
        adversary = ("d",)
    else:
        heads = {"f": (k, True), "f1": (k, True), "f2": (k, True)}
        adversary = ("f1", "f2")
    model = MlpScorer(d, heads, hidden=cfg.hidden, feature_dim=cfg.feature_dim, seed=init_seed)
    opt = SgdMomentum(model.params(), cfg.schedules.momentum, model.lr_multipliers())
    rng = np.random.default_rng(shuffle_seed)
    xs, ys = pair.source.points, pair.source.labels
    xt, yt = pair.target.points, pair.eval_target_labels()
    run_dir = _run_dir(cfg)
    recorder = _Recorder(run_dir / "metrics.jsonl" if run_dir else None)
    reset_clamp_count()
    for epoch in range(cfg.epochs):
        p = epoch / cfg.epochs
        lr = lr_schedule(p, cfg.schedules)
        lam = lambda_schedule(p, cfg.schedules)
        zeta = lam if cfg.zeta is None else cfg.zeta
        step_losses = []
        nan_flag = False
        for idx_s, idx_t in _epoch_batches(rng, xs.shape[0], xt.shape[0], cfg):
            bs_x, bs_y, bt_x = xs[idx_s], ys[idx_s], xt[idx_t]
            cache_s = model.forward(bs_x)
            cache_t = model.forward(bt_x, heads=tuple(n for n in model.head_names if n != "f"))

            task_val, g_f = log_loss_with_grads(cache_s.raw["f"], bs_y)
            task_score_grads = {"f": g_f}
            aux_val = 0.0
            if surrogate != "dann" and cfg.aux_task_weight > 0:
                v1, g1 = log_loss_with_grads(cache_s.raw["f1"], bs_y)
                v2, g2 = log_loss_with_grads(cache_s.raw["f2"], bs_y)
                aux_val = cfg.aux_task_weight * (v1 + v2)
                task_score_grads["f1"] = cfg.aux_task_weight * g1
                task_score_grads["f2"] = cfg.aux_task_weight * g2
            task_grads = model.backward(cache_s, task_score_grads)

            if surrogate in _PAIRWISE_SURROGATES:
                fn = _PAIRWISE_SURROGATES[surrogate]
                v_s, a1s, a2s = fn(cache_s.raw["f1"], cache_s.raw["f2"])
                v_t, a1t, a2t = fn(cache_t.raw["f1"], cache_t.raw["f2"])
                disagreement = v_s - v_t
                disc_grads = model.backward(cache_s, {"f1": a1s, "f2": a2s})
                for name, g in model.backward(
                    cache_t, {"f1": -a1t, "f2": -a2t}
                ).items():
                    disc_grads[name] = disc_grads[name] + g if name in disc_grads else g
            elif surrogate == "mdd_variant":
                src_term, tgt_term, g_aux_s, g_aux_t = mdd_variant_with_grads(
                    cache_s.raw["f1"], cache_s.raw["f2"], cache_t.raw["f1"], cache_t.raw["f2"]
                )
                disagreement = src_term - tgt_term
                disc_grads = model.backward(cache_s, {"f2": g_aux_s})
                for name, g in model.backward(cache_t, {"f2": -g_aux_t}).items():
                    disc_grads[name] = disc_grads[name] + g if name in disc_grads else g
            else:  # dann
                src_term, tgt_term, g_d_s, g_d_t = dann_with_grads(
                    cache_s.raw["d"][:, 0], cache_t.raw["d"][:, 0]
                )
                disagreement = src_term - tgt_term
                disc_grads = model.backward(cache_s, {"d": g_d_s[:, None]})
                for name, g in model.backward(cache_t, {"d": -g_d_t[:, None]}).items():
                    disc_grads[name] = disc_grads[name] + g if name in disc_grads else g

            if not (np.isfinite(task_val) and np.isfinite(disagreement)):
                nan_flag = True
                break
            grad_reversal_step(
                model, opt, task_grads, disc_grads, zeta, lr, adversary, cfg.zeta_on_adversary
            )
            step_losses.append(
                {"task": task_val, "aux_task": aux_val, "disagreement": disagreement}
            )
        proxy = (
            None
            if surrogate == "dann"
            else _mcsd_gap(model, pair, "f1", "f2", cfg.rho)
        )
        recorder.add(
            MetricsRecord(
                epoch=epoch,
                method=cfg.method,
                seed=cfg.seed,
                lr=lr,
                lambda_p=lam,
                zeta=zeta,
                xi=None,
                losses=_mean_losses(step_losses),
                source_acc=_accuracy(_eval_raw(model, xs, "f"), ys),
                target_acc=_accuracy(_eval_raw(model, xt, "f"), yt),
                divergence_proxy=proxy,
                clamp_events=reset_clamp_count(),
                nan_flag=nan_flag,
            )
        )
        if nan_flag:
            break
    return _finalize(cfg, pair, model, recorder, run_dir)


def run_symmnets(pair: DomainPair, cfg: ExperimentConfig) -> RunResult:
    """Symmetric two-head trainer; handles closed, partial and open-set pairs.

    Partial mode re-estimates class weights from target predictions once per
    epoch with the annealed blend; open-set mode widens the heads to
    K_shared + 1 and draws source batches from the super-class-oversampling
    sampler.  Ablations: ``symmnets_v2_no_Lt`` drops the target-path task
    loss (evaluation falls back to the source-path head) and
    ``symmnets_v2_no_adv`` keeps only the labeled confusion for the feature
    map and the task losses for the heads.
    """
    adversarial = cfg.method != "symmnets_v2_no_adv"
    train_task_t = cfg.method != "symmnets_v2_no_Lt"
    init_seed, shuffle_seed, sampler_seed = _seeds(cfg)
    d = pair.source.points.shape[1]
    k = pair.k
    model = MlpScorer(
        d,
        {HEAD_S: (k, True), HEAD_T: (k, True)},
        hidden=cfg.hidden,
        feature_dim=cfg.feature_dim,
        seed=init_seed,
    )
    if pair.mode == "openset":
        openset_adapt(model, pair.k_shared)  # no-op when built at open-set width
    opt = SgdMomentum(model.params(), cfg.schedules.momentum, model.lr_multipliers())
    rng = np.random.default_rng(shuffle_seed)
    xs, ys = pair.source.points, pair.source.labels
    xt, yt = pair.target.points, pair.eval_target_labels()
    eval_head = {"f": HEAD_S, "fs": HEAD_S, "ft": HEAD_T}[cfg.resolve_eval_head()]
    sampler = (
        openset_sampler(pair.source, cfg.nu, cfg.batch_size, seed=sampler_seed)
        if pair.mode == "openset"
        else None
    )
    run_dir = _run_dir(cfg)
    recorder = _Recorder(run_dir / "metrics.jsonl" if run_dir else None)
    reset_clamp_count()
    omega = np.ones(k)
    os_fields: dict[str, float | None] = {"os_all": None, "os_shared": None, "unknown_acc": None}
    for epoch in range(cfg.epochs):
        p = epoch / cfg.epochs
        lr = lr_schedule(p, cfg.schedules)
        lam = lambda_schedule(p, cfg.schedules)
        zeta = lam if cfg.zeta is None else cfg.zeta
        xi = None
        if pair.mode == "partial":
            xi = lam if cfg.xi is None else cfg.xi
            omega = partial_weights(_eval_raw(model, xt, HEAD_T), xi)
        step_losses = []
        nan_flag = False
        if sampler is not None:
            n_steps = max(
                math.ceil(xs.shape[0] / cfg.batch_size), math.ceil(xt.shape[0] / cfg.batch_size)
            )
            tgt_perm = rng.permutation(xt.shape[0])
            tgt_chunks = np.array_split(tgt_perm, math.ceil(xt.shape[0] / cfg.batch_size))
            batches = [
                (next(sampler), tgt_chunks[i % len(tgt_chunks)]) for i in range(n_steps)
            ]
        else:
            batches = _epoch_batches(rng, xs.shape[0], xt.shape[0], cfg)
        for idx_s, idx_t in batches:
            values = symmnets_step(
                model,
                opt,
                xs[idx_s],
                ys[idx_s],
                xt[idx_t],
                lam=zeta,
                lr=lr,
                omega=omega,
                adversarial=adversarial,
                train_task_t=train_task_t,
                rho=cfg.rho,
            )
            if not all(np.isfinite(v) for v in values.values()):
                nan_flag = True
                break
            step_losses.append(values)
        tgt_raw = _eval_raw(model, xt, eval_head)
        target_acc = _accuracy(tgt_raw, yt)
        if pair.mode == "openset":
            ev = eval_openset(np.argmax(tgt_raw, axis=1) + 1, yt, pair.k_shared)
            os_fields = {
                "os_all": ev.os_all,
                "os_shared": ev.os_shared,
                "unknown_acc": ev.unknown_acc,
            }
        recorder.add(
            MetricsRecord(
                epoch=epoch,
                method=cfg.method,
                seed=cfg.seed,
                lr=lr,
                lambda_p=lam,
                zeta=zeta,
                xi=xi,
                losses=_mean_losses(step_losses),
                source_acc=_accuracy(_eval_raw(model, xs, eval_head), ys),
                target_acc=target_acc,
                divergence_proxy=_mcsd_gap(model, pair, HEAD_S, HEAD_T, cfg.rho),
                clamp_events=reset_clamp_count(),
                omega=[float(w) for w in omega] if pair.mode == "partial" else None,
                nan_flag=nan_flag,
                **os_fields,
            )
        )
        if nan_flag:
            break
    return _finalize(
        cfg,
        pair,
        model,
        recorder,
        run_dir,
        omega=omega if pair.mode == "partial" else None,
        **os_fields,
    )


def run_experiment(pair: DomainPair, cfg: ExperimentConfig) -> RunResult:
    """Dispatch a configured run to its trainer."""
    if cfg.method == "source_only":
        return run_source_only(pair, cfg)
    if cfg.method.startswith("mcdal_"):
        return run_mcdalnet(pair, cfg)
    return run_symmnets(pair, cfg)
