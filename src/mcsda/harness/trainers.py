"""One training loop for every method in the run matrix.

``run_experiment`` owns the only epoch loop: seeded model + SGD momentum
with heads at 10x the feature-map rate, the annealed learning-rate and
adversarial-weight schedules driven by completed-epochs / total-epochs,
full-batch steps when both domains fit under the full-batch limit and
shuffled mini-batches otherwise, one full-data forward per domain for the
epoch-end accuracies and divergence proxy, and one metrics record per
epoch appended to a JSON Lines stream.  Target labels are touched only
through the evaluation accessor.

What differs by method is its row of ``config.METHOD_ROWS``: the heads to
build, the evaluation head, the head pair of the divergence proxy and the
constants of its family's step.  ``_family_step`` maps each of the three
families to its step function.  A step returns one batch's loss values,
merged parameter gradients as one vector shaped like the model's parameter
arena, ``MlpScorer.theta``, written into gradient buffers the run allocates
once, and the clamp count of every guarded log it took; the epoch loop
makes the one optimizer update (one ``SgdMomentum.step`` over the whole
arena), sums the counts into the epoch's ``clamp_events`` and gives the one
verdict on non-finite losses.

* ``source_only``        task head on source data, nothing else: one
  softmax and the picked-entry log loss, the McDalNet step's task term;
* ``mcdal_*``            minimax surrogate trainers: the task head and two
  auxiliary heads (or one scalar domain head for the binary surrogate),
  coupled through one simultaneous gradient-reversal update per step.  A
  step is one forward and one backward of the stacked batch [source;
  target]: one softmax of the K-wide heads feeds the task log loss and one
  surrogate core call, and the reversal lives in the backward's
  feature-map gradients;
* ``symmnets_v2``        the symmetric two-head trainer plus its two
  ablations (no target-path task loss / no adversarial part).  Only this
  family re-weights classes on partial pairs and draws source batches from
  the super-class-oversampling sampler on open-set pairs.

``run_experiment`` checks the source labels once per run (the config has
checked ``rho``), and the partial-mode class weights once per epoch; every
step checks only its forward scores, before any loss, and then calls only
private kernels (``_softmax``, the loss cores, the SymmNets bound core, the
backward kernel ``MlpScorer._backward``), never a public function that
would check them again.  The partial-mode class-weight forward checks its
scores before the weights, and the epoch proxy checks its full-data outputs
before calling ``symmnets._head_disagreement``.  A batch with non-finite
scores returns no gradients and is not stepped, the epoch is flagged and the
run stops with a note.  A run that stops that way, or whose target accuracy
stays below 1.5x chance over the second half of training (second-half mean
or final epoch), is marked not converged; callers map that onto the CLI exit
code.  The label check returns the 0-based classes the steps take;
accuracies compare 1-based labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from ..margin import _check_labels, _check_weights
from ..neural import MlpScorer, SgdMomentum, _write_json, lambda_schedule, lr_schedule
from ..surrogates import _PAIR_KERNELS, _dann_core, _mdd_variant_core, _pair_core
from ..surrogates import _picked_log_loss, _softmax
from ..symmnets import HEAD_T, _head_disagreement, _head_pair, _symmnets_step, eval_openset
from ..symmnets import openset_sampler, partial_weights
from ..synthdata import DomainPair
from .config import METHOD_ROWS, ExperimentConfig, MetricsRecord

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
    rng: np.random.Generator, n_src: int, n_tgt: int, cfg: ExperimentConfig, sampler=None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Index pairs for one epoch: single full batch on small data, otherwise
    shuffled chunks with the shorter stream cycled.  An open-set ``sampler``
    draws every source batch instead (never a full batch); the target is
    chunked as usual."""
    if sampler is None and n_src <= cfg.full_batch_limit and n_tgt <= cfg.full_batch_limit:
        return [(np.arange(n_src), np.arange(n_tgt))]
    bs = cfg.batch_size
    steps = max(math.ceil(n_src / bs), math.ceil(n_tgt / bs))
    if sampler is None:
        chunks_s = np.array_split(rng.permutation(n_src), math.ceil(n_src / bs))
    else:
        chunks_s = [next(sampler) for _ in range(steps)]
    chunks_t = np.array_split(rng.permutation(n_tgt), math.ceil(n_tgt / bs))
    return [(chunks_s[i % len(chunks_s)], chunks_t[i % len(chunks_t)]) for i in range(steps)]


def _mean_losses(step_losses: list[dict[str, float]]) -> dict[str, float]:
    keys = step_losses[0] if step_losses else ()
    return {k: float(np.mean([d[k] for d in step_losses])) for k in keys}


def _mcsd_gap(
    src: dict[str, np.ndarray], tgt: dict[str, np.ndarray], heads: tuple[str, str], rho: float
) -> float | None:
    """Target-minus-source mean disagreement of two heads, exact ramp, from
    full-data head outputs at the config's checked ``rho``; None when those
    outputs are not finite."""
    if not all(np.isfinite(raw[h]).all() for raw in (tgt, src) for h in heads):
        return None
    a, b = heads
    tgt_mean, src_mean = (_head_disagreement(_head_pair(r[a], r[b]), rho) for r in (tgt, src))
    return tgt_mean - src_mean


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
        summary = {k: v for k, v in vars(result).items() if k not in ("metrics", "model", "omega")}
        _write_json(run_dir / "result.json", summary)
    return result


# ---------------------------------------------------------------------------
# Per-family steps.  Each takes (model, source batch, its 0-based classes,
# target batch, adversarial weight, checked class weights [K]), its row's
# keywords and ``grads``, the run's gradient buffers (two
# ``MlpScorer._zero_grads()`` pairs, bound by ``_family_step``), and
# returns its loss values, the merged gradient vector and the sum of its
# loss cores' clamp counts; a batch with non-finite scores returns a NaN
# loss, no gradients and 0 clamps.  Library functions are called by their
# module-level names, so a patched name takes effect on the next run.
# ---------------------------------------------------------------------------


def _source_only_step(model, xs, y, xt, zeta, omega, *, grads):
    """Task head trained on source labels only; the adaptation baseline.

    Like the McDalNet step, it checks its scores' finiteness and calls the
    unchecked softmax and the picked-entry log loss, which
    ``log_loss_with_grads`` would have checked again."""
    cache = model.forward(xs, heads=("f",))
    if not _finite(cache.raw):
        return {"task": float("nan")}, None, 0
    value, g, clamps = _picked_log_loss(_softmax(cache.raw["f"]), y[:, None], np.ones(y.size))
    score_grads = {"f": g}
    flat, views = grads[0]
    model._backward(cache, score_grads, score_grads, views)
    return {"task": value}, flat, clamps


def _mcdal_step(
    model, xs, y, xt, zeta, omega, *, surrogate, aux_task_weight, zeta_on_adversary, grads
):
    """Minimax surrogate step: one forward and one backward of the stacked
    batch [xs; xt].

    The task head and (for the pairwise surrogates) both auxiliary heads
    minimize source log loss.  The disagreement D is the source-minus-target
    surrogate, from one core call over the stacked rows weighted +1/n_s
    (source) and -1/n_t (target).  The gradient-reversal layer is data: the
    auxiliary heads take task + c * D with c = zeta under
    ``zeta_on_adversary`` and 1 otherwise, the feature map takes task -
    zeta * D, and the task head takes no D.
    """
    ns = xs.shape[0]
    cache = model.forward(np.concatenate((xs, xt)))
    raw = cache.raw
    if not _finite(raw):
        return {"task": float("nan")}, None, 0
    n, k = raw["f"].shape
    wide = tuple(h for h in raw if raw[h].shape[1] == k)  # built K wide: f, then f1, f2
    probs = _softmax(np.stack([raw[h] for h in wide]))  # [heads, n, K]
    trained = wide if aux_task_weight > 0 else ("f",)
    values, g, task_clamps = _picked_log_loss(probs[: len(trained), :ns], y[:, None], np.ones(ns))
    task = np.zeros((len(trained), n, k))  # source-row gradients, zero on target rows
    task[:, :ns] = g
    task[1:] *= aux_task_weight

    w = np.full(n, 1.0 / ns)
    w[ns:] = -1.0 / (n - ns)
    if surrogate == "dann":
        disagreement, g_d, clamps = _dann_core(raw["d"][:, 0], w)
        dis = {"d": g_d[:, None]}
    elif surrogate == "mdd_variant":
        disagreement, g_2, clamps = _mdd_variant_core(np.argmax(raw["f1"], axis=1), probs[2], w)
        dis = {"f2": g_2}
    else:
        disagreement, g_1, g_2, clamps = _pair_core(_PAIR_KERNELS[surrogate], probs[1], probs[2], w)
        dis = {"f1": g_1, "f2": g_2}

    c = zeta if zeta_on_adversary else 1.0
    head_grads = dict(zip(trained, task))
    psi_grads = dict(head_grads)
    for h, d in dis.items():
        t = head_grads.get(h, 0.0)
        head_grads[h] = t + c * d
        psi_grads[h] = t - zeta * d
    aux = aux_task_weight * float(values[1] + values[2]) if len(trained) > 1 else 0.0
    values = {"task": float(values[0]), "aux_task": aux, "disagreement": disagreement}
    flat, views = grads[0]
    model._backward(cache, head_grads, psi_grads, views)
    return values, flat, task_clamps + clamps


def _family_step(
    cfg: ExperimentConfig, model: MlpScorer
) -> Callable[..., tuple[dict, np.ndarray | None, int]]:
    """The step of the configured method's family, with its row's constants,
    the config fields the family reads (checked by the config) and two
    gradient buffers for ``model``, allocated here, bound as keywords."""
    row = METHOD_ROWS[cfg.method]
    steps = {"source_only": _source_only_step, "mcdal": _mcdal_step, "symmnets": _symmnets_step}
    options = {name: getattr(cfg, name) for name in row.family.options}
    grads = (model._zero_grads(), model._zero_grads())
    return partial(steps[row.family.name], **row.constants, **options, grads=grads)


def run_experiment(pair: DomainPair, cfg: ExperimentConfig) -> RunResult:
    """Train the configured method on a domain pair, one record per epoch.

    Partial mode (SymmNets only) re-estimates class weights from target
    predictions once per epoch with the annealed blend; open-set mode draws
    source batches from the super-class-oversampling sampler (the heads
    already have the pair's K_shared + 1 outputs).
    """
    row = METHOD_ROWS[cfg.method]
    xs, ys = pair.source.points, pair.source.labels
    y = _check_labels(ys, xs.shape[0], pair.k)  # 0-based, for every step of the run
    eval_head = cfg.resolve_eval_head()
    mode = pair.mode if row.family.modes else "closed"
    init_seed, shuffle_seed, sampler_seed = _seeds(cfg)
    model = MlpScorer(xs.shape[1], row.head_widths(pair.k), cfg.hidden, cfg.feature_dim, init_seed)
    step = _family_step(cfg, model)
    opt = SgdMomentum(model.theta, cfg.schedules.momentum, model._pack(model.lr_multipliers()))
    rng = np.random.default_rng(shuffle_seed)
    xt, yt = pair.target.points, pair.eval_target_labels()
    sampler = None
    if mode == "openset":
        sampler = openset_sampler(pair.source, cfg.nu, cfg.batch_size, seed=sampler_seed)
    eval_heads = tuple(dict.fromkeys((eval_head,) + (row.proxy or ())))
    omega = np.ones(pair.k)
    os_fields: dict[str, float | None] = {"os_all": None, "os_shared": None, "unknown_acc": None}
    notes: list[str] = []
    run_dir = _run_dir(cfg)
    recorder = _Recorder(run_dir / "metrics.jsonl" if run_dir else None)
    try:
        for epoch in range(cfg.epochs):
            p = epoch / cfg.epochs
            lr = lr_schedule(p, cfg.schedules)
            lam = lambda_schedule(p, cfg.schedules)
            zeta = (lam if cfg.zeta is None else cfg.zeta) if row.family.uses_zeta else None
            xi = None
            nan_flag = False
            if mode == "partial":
                xi = lam if cfg.xi is None else cfg.xi
                raw_t = model.forward(xt, heads=(HEAD_T,)).raw
                nan_flag = not _finite(raw_t)  # stops the run before any step
                if not nan_flag:
                    omega = _check_weights(partial_weights(raw_t[HEAD_T], xi), pair.k, "omega")
            batches = (
                [] if nan_flag else _epoch_batches(rng, xs.shape[0], xt.shape[0], cfg, sampler)
            )
            step_losses = []
            clamp_events = 0
            for idx_s, idx_t in batches:
                values, grads, clamps = step(model, xs[idx_s], y[idx_s], xt[idx_t], zeta, omega)
                clamp_events += clamps
                if grads is not None:
                    opt.step(grads, lr)
                if not all(math.isfinite(v) for v in values.values()):
                    nan_flag = True
                    break
                step_losses.append(values)
            src = model.forward(xs, heads=eval_heads).raw
            tgt = model.forward(xt, heads=eval_heads).raw
            if mode == "openset":
                ev = eval_openset(np.argmax(tgt[eval_head], axis=1) + 1, yt, pair.k_shared)
                os_fields = {name: getattr(ev, name) for name in os_fields}
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
                    source_acc=_accuracy(src[eval_head], ys),
                    target_acc=_accuracy(tgt[eval_head], yt),
                    divergence_proxy=(
                        None if row.proxy is None else _mcsd_gap(src, tgt, row.proxy, cfg.rho)
                    ),
                    clamp_events=clamp_events,
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
    omega = omega if mode == "partial" else None
    records = recorder.records
    return _finalize(cfg, pair, model, records, run_dir, omega=omega, notes=notes, **os_fields)
