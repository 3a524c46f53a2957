"""One training loop for every method in the run matrix.

``run_experiment`` owns the only epoch loop: seeded model + SGD momentum
with heads at 10x the feature-map rate, the annealed learning-rate and
adversarial-weight schedules driven by completed-epochs / total-epochs,
full-batch steps when both domains fit under the full-batch limit and
shuffled mini-batches otherwise, one full-data forward per domain for the
epoch-end accuracies and divergence proxy, and one metrics record per
epoch appended to a JSON Lines stream.  Target labels are touched only
through the evaluation accessor.

What differs by method is a small table entry (``_method``): the heads to
build, a step function that updates the model on one batch and returns its
loss values, the evaluation head and the head pair of the divergence proxy.

* ``source_only``        task head on source data, nothing else;
* ``mcdal_*``            minimax surrogate trainers: the task head and two
  auxiliary heads (or one scalar domain head for the binary surrogate),
  coupled through one simultaneous gradient-reversal update per step;
* ``symmnets_v2``        the symmetric two-head trainer plus its two
  ablations (no target-path task loss / no adversarial part).  Only this
  family re-weights classes on partial pairs and draws source batches from
  the super-class-oversampling sampler on open-set pairs.

Every step checks its forward scores before any loss, and the partial-mode
class-weight forward checks its scores before the weights; a batch with
non-finite scores is not stepped, the epoch is flagged and the run stops
with a note.  A run that stops that way, or whose target accuracy stays
below 1.5x chance over the second half of training (second-half mean or
final epoch), is marked not converged; callers map that onto the CLI exit
code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..divergence import mcsd_rows
from ..losses import PAIRWISE_SURROGATES as _PAIRWISE_SURROGATES
from ..neural import (
    MlpScorer,
    SgdMomentum,
    _add_grads,
    center_scores,
    grad_reversal_step,
    lambda_schedule,
    lr_schedule,
)
from ..surrogates import (
    dann_with_grads,
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

__all__ = ["RunResult", "run_experiment"]


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


def _finite(raw: dict[str, np.ndarray]) -> bool:
    return all(np.isfinite(s).all() for s in raw.values())


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


def _mcsd_gap(
    src: dict[str, np.ndarray], tgt: dict[str, np.ndarray], heads: tuple[str, str], rho: float
) -> float | None:
    """Target-minus-source mean disagreement of two heads, exact ramp, from
    full-data head outputs; None when those outputs are not finite."""
    a, b = heads
    means = []
    for raw in (tgt, src):
        if not (np.isfinite(raw[a]).all() and np.isfinite(raw[b]).all()):
            return None
        means.append(float(mcsd_rows(center_scores(raw[a]), center_scores(raw[b]), rho).mean()))
    return means[0] - means[1]


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
    """Create the run directory and write ``config.json`` into it; a run
    stopped by an exception leaves it with ``metrics.jsonl`` but without
    ``model.ckpt`` or ``result.json``."""
    if cfg.outdir is None:
        return None
    d = Path(cfg.outdir) / ("%s_seed%d" % (cfg.method, cfg.seed))
    d.mkdir(parents=True, exist_ok=True)
    cfg.dump(d / "config.json")
    return d


def _finalize(
    cfg: ExperimentConfig,
    pair: DomainPair,
    model: MlpScorer,
    records: list[MetricsRecord],
    run_dir: Path | None,
    **extra,
) -> RunResult:
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


# ---------------------------------------------------------------------------
# Per-method steps.  Each takes (model, optimizer, cfg, source batch, source
# labels, target batch, zeta, lr, omega), updates the model once and returns
# its loss values; a batch with non-finite scores returns a NaN loss and
# leaves the parameters as they were.  Library functions are called by their
# module-level names, so a patched name takes effect on the next step.
# ---------------------------------------------------------------------------


def _source_only_step(model, opt, cfg, xs, ys, xt, zeta, lr, omega) -> dict[str, float]:
    """Task head trained on source labels only; the adaptation baseline."""
    cache = model.forward(xs, heads=("f",))
    if not _finite(cache.raw):
        return {"task": float("nan")}
    value, g = log_loss_with_grads(cache.raw["f"], ys)
    opt.step(model.backward(cache, {"f": g}), lr)
    return {"task": value}


def _disagreement(surrogate: str, raw_s, raw_t) -> tuple[float, dict, dict]:
    """(source-minus-target surrogate disagreement, source score gradients,
    target score gradients) of the auxiliary heads."""
    if surrogate == "dann":
        src_term, tgt_term, g_s, g_t = dann_with_grads(raw_s["d"][:, 0], raw_t["d"][:, 0])
        return src_term - tgt_term, {"d": g_s[:, None]}, {"d": -g_t[:, None]}
    if surrogate == "mdd_variant":
        src_term, tgt_term, g_s, g_t = mdd_variant_with_grads(
            raw_s["f1"], raw_s["f2"], raw_t["f1"], raw_t["f2"]
        )
        return src_term - tgt_term, {"f2": g_s}, {"f2": -g_t}
    fn = _PAIRWISE_SURROGATES[surrogate]
    v_s, a1s, a2s = fn(raw_s["f1"], raw_s["f2"])
    v_t, a1t, a2t = fn(raw_t["f1"], raw_t["f2"])
    return v_s - v_t, {"f1": a1s, "f2": a2s}, {"f1": -a1t, "f2": -a2t}


def _mcdal_step(model, opt, cfg, xs, ys, xt, zeta, lr, omega) -> dict[str, float]:
    """Minimax surrogate step with one simultaneous reversal update.

    The task head and (for the pairwise surrogates) both auxiliary heads
    minimize source log loss; the auxiliary side additionally descends the
    source-minus-target surrogate disagreement while the feature map
    receives that gradient reversed and scaled by zeta.
    """
    adversary = tuple(n for n in model.head_names if n != "f")
    cache_s = model.forward(xs)
    cache_t = model.forward(xt, heads=adversary)
    if not (_finite(cache_s.raw) and _finite(cache_t.raw)):
        return {"task": float("nan")}
    task_val, g_f = log_loss_with_grads(cache_s.raw["f"], ys)
    task_score_grads = {"f": g_f}
    aux_val = 0.0
    if cfg.surrogate != "dann" and cfg.aux_task_weight > 0:
        v1, g1 = log_loss_with_grads(cache_s.raw["f1"], ys)
        v2, g2 = log_loss_with_grads(cache_s.raw["f2"], ys)
        aux_val = cfg.aux_task_weight * (v1 + v2)
        task_score_grads["f1"] = cfg.aux_task_weight * g1
        task_score_grads["f2"] = cfg.aux_task_weight * g2
    task_grads = model.backward(cache_s, task_score_grads)
    disagreement, g_src, g_tgt = _disagreement(cfg.surrogate, cache_s.raw, cache_t.raw)
    disc_grads = _add_grads(model.backward(cache_s, g_src), model.backward(cache_t, g_tgt))
    grad_reversal_step(
        model, opt, task_grads, disc_grads, zeta, lr, adversary, cfg.zeta_on_adversary
    )
    return {"task": task_val, "aux_task": aux_val, "disagreement": disagreement}


def _symmnets_step(model, opt, cfg, xs, ys, xt, zeta, lr, omega) -> dict[str, float]:
    """Symmetric two-head step; ``symmnets_v2_no_Lt`` drops the target-path
    task loss and ``symmnets_v2_no_adv`` keeps only the labeled confusion for
    the feature map and the task losses for the heads."""
    return symmnets_step(
        model,
        opt,
        xs,
        ys,
        xt,
        lam=zeta,
        lr=lr,
        omega=omega,
        adversarial=cfg.method != "symmnets_v2_no_adv",
        train_task_t=cfg.method != "symmnets_v2_no_Lt",
        rho=cfg.rho,
    )


@dataclass(frozen=True)
class _Method:
    heads: dict[str, tuple[int, bool]]  # head name -> (width, centered)
    step: Callable[..., dict[str, float]]
    eval_head: str
    proxy: tuple[str, str] | None  # head pair of the divergence proxy
    uses_zeta: bool = True  # the step takes, and the record shows, the adversarial weight
    modes: bool = False  # partial re-weighting and open-set sampling apply


def _method(cfg: ExperimentConfig, k: int) -> _Method:
    """The table entry of the configured method for K-class heads."""
    if cfg.method == "source_only":
        return _Method({"f": (k, True)}, _source_only_step, "f", None, uses_zeta=False)
    if cfg.surrogate == "dann":
        return _Method({"f": (k, True), "d": (1, False)}, _mcdal_step, "f", None)
    if cfg.surrogate is not None:
        heads = {"f": (k, True), "f1": (k, True), "f2": (k, True)}
        return _Method(heads, _mcdal_step, "f", ("f1", "f2"))
    eval_head = {"f": HEAD_S, "fs": HEAD_S, "ft": HEAD_T}[cfg.resolve_eval_head()]
    heads = {HEAD_S: (k, True), HEAD_T: (k, True)}
    return _Method(heads, _symmnets_step, eval_head, (HEAD_S, HEAD_T), modes=True)


def run_experiment(pair: DomainPair, cfg: ExperimentConfig) -> RunResult:
    """Train the configured method on a domain pair, one record per epoch.

    Partial mode (SymmNets only) re-estimates class weights from target
    predictions once per epoch with the annealed blend; open-set mode widens
    the heads to K_shared + 1 and draws source batches from the
    super-class-oversampling sampler.
    """
    spec = _method(cfg, pair.k)
    mode = pair.mode if spec.modes else "closed"
    init_seed, shuffle_seed, sampler_seed = _seeds(cfg)
    model = MlpScorer(
        pair.source.points.shape[1],
        spec.heads,
        hidden=cfg.hidden,
        feature_dim=cfg.feature_dim,
        seed=init_seed,
    )
    if mode == "openset":
        openset_adapt(model, pair.k_shared)  # no-op when built at open-set width
    opt = SgdMomentum(model.params(), cfg.schedules.momentum, model.lr_multipliers())
    rng = np.random.default_rng(shuffle_seed)
    xs, ys = pair.source.points, pair.source.labels
    xt, yt = pair.target.points, pair.eval_target_labels()
    sampler = (
        openset_sampler(pair.source, cfg.nu, cfg.batch_size, seed=sampler_seed)
        if mode == "openset"
        else None
    )
    eval_heads = tuple(dict.fromkeys((spec.eval_head,) + (spec.proxy or ())))
    omega = np.ones(pair.k)
    os_fields: dict[str, float | None] = {"os_all": None, "os_shared": None, "unknown_acc": None}
    notes: list[str] = []
    run_dir = _run_dir(cfg)
    recorder = _Recorder(run_dir / "metrics.jsonl" if run_dir else None)
    reset_clamp_count()
    try:
        for epoch in range(cfg.epochs):
            p = epoch / cfg.epochs
            lr = lr_schedule(p, cfg.schedules)
            lam = lambda_schedule(p, cfg.schedules)
            zeta = (lam if cfg.zeta is None else cfg.zeta) if spec.uses_zeta else None
            xi = None
            nan_flag = False
            if mode == "partial":
                xi = lam if cfg.xi is None else cfg.xi
                raw_t = model.forward(xt, heads=(HEAD_T,)).raw
                nan_flag = not _finite(raw_t)  # stops the run before any step
                if not nan_flag:
                    omega = partial_weights(raw_t[HEAD_T], xi)
            if nan_flag:
                batches = []
            elif sampler is None:
                batches = _epoch_batches(rng, xs.shape[0], xt.shape[0], cfg)
            else:
                n_steps = max(
                    math.ceil(xs.shape[0] / cfg.batch_size),
                    math.ceil(xt.shape[0] / cfg.batch_size),
                )
                tgt_perm = rng.permutation(xt.shape[0])
                tgt_chunks = np.array_split(tgt_perm, math.ceil(xt.shape[0] / cfg.batch_size))
                batches = [
                    (next(sampler), tgt_chunks[i % len(tgt_chunks)]) for i in range(n_steps)
                ]
            step_losses = []
            for idx_s, idx_t in batches:
                values = spec.step(
                    model, opt, cfg, xs[idx_s], ys[idx_s], xt[idx_t], zeta, lr, omega
                )
                if not all(np.isfinite(v) for v in values.values()):
                    nan_flag = True
                    break
                step_losses.append(values)
            src = model.forward(xs, heads=eval_heads).raw
            tgt = model.forward(xt, heads=eval_heads).raw
            if mode == "openset":
                ev = eval_openset(np.argmax(tgt[spec.eval_head], axis=1) + 1, yt, pair.k_shared)
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
                    source_acc=_accuracy(src[spec.eval_head], ys),
                    target_acc=_accuracy(tgt[spec.eval_head], yt),
                    divergence_proxy=(
                        None if spec.proxy is None else _mcsd_gap(src, tgt, spec.proxy, cfg.rho)
                    ),
                    clamp_events=reset_clamp_count(),
                    omega=[float(w) for w in omega] if mode == "partial" else None,
                    nan_flag=nan_flag,
                    **os_fields,
                )
            )
            if nan_flag:
                notes.append("stopped at epoch %d: non-finite scores" % epoch)
                break
    finally:
        recorder.close()
    return _finalize(
        cfg,
        pair,
        model,
        recorder.records,
        run_dir,
        omega=omega if mode == "partial" else None,
        notes=notes,
        **os_fields,
    )
