"""Symmetric two-classifier objectives over a shared feature map.

Two heads of equal width K sit on one feature map: a source head and a
target head.  Besides the per-head softmax task losses (the target head is
trained on source labels too, which fixes the neuron correspondence), the
adversarial part runs on the joint softmax over the concatenated 2K raw
scores: category-level confusion terms pull the two halves of the joint
distribution together for the feature map, while the domain discrimination
term pushes them apart for the heads.

All losses here are value-plus-gradient, taking raw score matrices (never
probabilities) so they compose with the manual backprop:

* ``loss_task_src``     weighted source log loss on one head's K scores;
* ``confuse_src``       labeled confusion on the 2K joint softmax;
* ``confuse_tgt``       unlabeled symmetric confusion on the joint softmax;
* ``discrim``           joint-softmax domain discrimination;
* ``symmnets_step``     the gradients of one simultaneous update: heads
  descend task + discrimination, the feature map descends
  confuse_src + lambda * confuse_tgt (gradients pass through head weights
  without updating them).  It checks the source labels, the class weights,
  ``lam`` and ``rho``, then runs the private kernel ``_symmnets_step``,
  which the trainers call directly on inputs they checked once per run.
  The kernel checks only its scores' finiteness and from there calls only
  private kernels: the unchecked ``surrogates._softmax`` for the two task
  softmaxes and each domain's joint softmax, which it passes to the private
  cores behind ``confuse_src``, ``confuse_tgt`` and ``discrim``, and the
  bound core ``_bound_sides`` (which the public ``disagreement_bound_gap``
  wraps in its checks) for the per-step bound.  It then makes one backward
  pass per domain (``MlpScorer._backward``) that takes the head gradients
  from one set of score gradients and the feature-map gradients from the
  other, each into its own arena-shaped vector, and merges the two with
  one add.  It returns the loss values, the merged gradient vector and the
  sum of its cores' clamp counts; the caller makes the optimizer update.

The labeled terms (the task losses, ``confuse_src`` with its two picks per
row, the source half of ``discrim``) are all the picked-entry log loss,
``surrogates._picked_log_loss``, which the step calls directly for the
task losses; the target block term of ``discrim`` takes the guarded log of
the second-half mass.  Each private core returns the clamp count of its
guarded logs after its values and gradients; the public functions drop it.

The public functions check their scores (``_check_joint`` adds the even
joint width), 1-based labels, constants and class weights with
``margin``'s checkers; the private cores
(``_confuse_src``, ``_discrim``, ``_bound_sides``) and ``_symmnets_step``
take the 0-based classes that ``margin._check_labels`` returns.

Class weights (all ones outside partial mode) re-weight source examples by
their label; ``partial_weights`` re-estimates them from target predictions
once per epoch.  Open-set pairs arrive with K_shared + 1 classes, so the
heads are built at that width; the open-set helpers oversample the source
super class and score per-class target accuracy including unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .divergence import SampleSet, _margin_violations, _mcsd_rows
from .margin import _batch_pair, _center, _center_checked, _check_count, _check_labels
from .margin import _check_real, _check_rho, _check_scores, _check_weights
from .neural import MlpScorer
from .surrogates import _ce, _chain_softmax, _guarded_log, _picked_log_loss, _softmax

__all__ = [
    "loss_task_src",
    "confuse_src",
    "confuse_tgt",
    "discrim",
    "symmnets_step",
    "partial_weights",
    "openset_sampler",
    "openset_class_probs",
    "OpensetEval",
    "eval_openset",
    "disagreement_bound_gap",
    "HEAD_S",
    "HEAD_T",
]

HEAD_S = "fs"
HEAD_T = "ft"


def _checked_labels(labels, n: int, k: int, omega) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based classes of n score rows' 1-based labels, checked to lie
    in the first K, and their per-example weights (``omega`` None: ones)."""
    y = _check_labels(labels, n, k)
    return y, (np.ones(k) if omega is None else _check_weights(omega, k, "omega"))[y]


def _check_joint(z, name: str) -> np.ndarray:
    """Score rows ``_check_scores`` passes, of an even width 2K with K >= 2."""
    z = _check_scores(z, name)
    if z.shape[1] % 2 or z.shape[1] < 4:
        raise ValueError("%s must be joint scores [n, 2K] with K >= 2, got %r" % (name, z.shape))
    return z


def loss_task_src(scores, labels, omega=None) -> tuple[float, np.ndarray]:
    """Weighted source log loss of one head: (1/n) sum_i w_{y_i} (-log p_{y_i})."""
    s = _check_scores(scores, "scores")
    y, w = _checked_labels(labels, *s.shape, omega)
    return _picked_log_loss(_softmax(s), y[:, None], w)[:2]


def confuse_src(z, labels, omega=None) -> tuple[float, np.ndarray]:
    """Labeled confusion: -(1/2n) sum_i w_i (log p_{y_i} + log p_{y_i + K}).

    Minimized (over the feature map) when the joint softmax splits an
    example's mass evenly between the label's two neurons.
    """
    z = _check_joint(z, "z")
    y, w = _checked_labels(labels, z.shape[0], z.shape[1] // 2, omega)
    return _confuse_src(_softmax(z), y, w)[:2]


def _confuse_src(p: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray, int]:
    """``confuse_src`` from the joint softmax rows, 0-based classes y and
    per-example weights: the picked-entry log loss at the class's two
    neurons, with its clamp count."""
    return _picked_log_loss(p, np.stack((y, y + p.shape[1] // 2), axis=1), w)


def confuse_tgt(z) -> tuple[float, np.ndarray]:
    """Unlabeled symmetric confusion on the joint softmax.

    With r the first K probabilities and q the second K, the per-example
    value is -(sum_k q_k log r_k + sum_k r_k log q_k) / 2, averaged over the
    batch; it attains log(2)/2 per example exactly when the two halves agree
    and concentrate on a single class pair.
    """
    return _confuse_tgt(_softmax(_check_joint(z, "z")))[:2]


def _confuse_tgt(p: np.ndarray) -> tuple[float, np.ndarray, int]:
    """``confuse_tgt`` from the joint softmax rows: the symmetrized cross
    entropy of the two halves, chained through the joint softmax, with its
    clamp count."""
    n, k = p.shape[0], p.shape[1] // 2
    rows, u_r, u_q, clamps = _ce(p[:, :k], p[:, k:])
    return float(rows.sum()) / n, _chain_softmax(p, np.concatenate([u_r, u_q], axis=1)) / n, clamps


def discrim(z_src, labels_src, z_tgt, omega=None) -> tuple[float, np.ndarray, np.ndarray]:
    """Joint-softmax domain discrimination, trained by the heads.

    Source examples are pushed onto their labeled neuron in the first half;
    target examples are pushed onto the second half as a block:
    -(1/n_s) sum w_i log p_{y_i}(src) - (1/n_t) sum log sum_{k>K} p_k(tgt).
    """
    zs, zt = _check_joint(z_src, "z_src"), _check_joint(z_tgt, "z_tgt")
    if zs.shape[1] != zt.shape[1]:
        raise ValueError("source and target joint widths differ")
    y, w = _checked_labels(labels_src, zs.shape[0], zs.shape[1] // 2, omega)
    return _discrim(_softmax(zs), y, _softmax(zt), w)[:3]


def _discrim(ps: np.ndarray, y: np.ndarray, pt: np.ndarray, w: np.ndarray):
    """``discrim`` from the joint softmax rows of both domains, 0-based
    source classes y and per-example weights; the clamp count comes last."""
    nt, k = pt.shape[0], pt.shape[1] // 2
    # the picked-entry log loss over the 2K joint scores; the label check keeps
    # classes in the first half
    src_value, g_src, src_clamps = _picked_log_loss(ps, y[:, None], w)
    log_q, q_tot, tgt_clamps = _guarded_log(pt[:, k:].sum(axis=1))
    tgt_value = float(np.mean(-log_q))
    u = np.zeros_like(pt)
    u[:, k:] = -1.0 / q_tot[:, None]
    g_tgt = _chain_softmax(pt, u) / nt
    return src_value + tgt_value, g_src, g_tgt, src_clamps + tgt_clamps


def _by_head(g: np.ndarray, k: int) -> dict[str, np.ndarray]:
    """Gradients on joint [n, 2K] scores as the two heads' [n, K] halves."""
    return {HEAD_S: g[:, :k], HEAD_T: g[:, k:]}


def _head_pair(raw_a, raw_b) -> np.ndarray:
    """Two heads' scores [n, K] stacked [2, n, K], each row centered."""
    return _center(np.asarray([raw_a, raw_b], dtype=float))


def _head_disagreement(c: np.ndarray, rho) -> float:
    """Mean pointwise disagreement of a centered head pair c [2, n, K] of
    finite scores at a checked ``rho``: the step bound's left side and each
    domain's term of the epoch proxy."""
    return float(_mcsd_rows(c, rho).mean())


def _bound_sides(c: np.ndarray, y: np.ndarray, rho) -> tuple[float, float]:
    """The per-step bound's two sides from a centered head pair c [2, n, K]
    of finite scores, 0-based classes y [n] and a checked ``rho``:
    the mean head disagreement and the sum of the two mean margin errors."""
    err_s, err_t = _margin_violations(c, y, rho)
    return _head_disagreement(c, rho), float(err_s.mean()) + float(err_t.mean())


def disagreement_bound_gap(raw_s, raw_t, labels, rho: float) -> tuple[float, float]:
    """Source-batch check that mean disagreement of the two heads stays below
    the sum of their margin errors: returns (lhs, rhs) of that inequality."""
    rho = _check_rho(rho)
    s, t = _batch_pair(raw_s, raw_t, "raw_s", "raw_t")
    c = _center_checked(np.stack([s, t]), "centered raw_s and raw_t")
    return _bound_sides(c, _check_labels(labels, *c.shape[-2:]), rho)


def symmnets_step(
    model: MlpScorer,
    src_x: np.ndarray,
    src_y: np.ndarray,
    tgt_x: np.ndarray,
    lam: float,
    omega=None,
    adversarial: bool = True,
    train_task_t: bool = True,
    rho: float | None = None,
) -> tuple[dict[str, float], np.ndarray | None]:
    """Loss values and parameter gradients of one simultaneous update of
    heads and feature map.

    Heads descend task losses plus (when adversarial) the discrimination
    term, with gradients stopped at the features.  The feature map descends
    confuse_src plus lambda times confuse_tgt (through frozen head weights);
    without the adversarial part it descends confuse_src alone.  Each domain
    takes one backward pass that routes its head and feature-map gradients
    separately: source task + discrimination to the heads and confuse_src to
    the feature map, then target discrimination to the heads and lambda
    times confuse_tgt to the feature map (the target pass only when
    adversarial).  Returns the loss values for metrics and the merged
    parameter gradients as one vector shaped like ``model.theta``, ready
    for ``SgdMomentum.step``; with ``rho`` given the values also report
    (and the step enforces) the per-step bound of the mean head
    disagreement by the sum of the two source margin errors.  A batch whose
    scores are not finite returns ``task_s`` NaN and no gradients.
    """
    k = model.head_dim(HEAD_S)
    y = _check_labels(src_y, np.atleast_2d(src_x).shape[0], k)
    omega = np.ones(k) if omega is None else _check_weights(omega, k, "omega")
    lam = _check_real(lam, "lam", 0.0)
    rho = None if rho is None else _check_rho(rho)
    grads = (model._zero_grads(), model._zero_grads())
    return _symmnets_step(
        model, src_x, y, tgt_x, lam, omega, adversarial, train_task_t, rho, grads=grads
    )[:2]


def _symmnets_step(
    model, src_x, y, tgt_x, lam, omega, adversarial=True, train_task_t=True, rho=None, *, grads
):
    """``symmnets_step`` on checked inputs: 0-based source classes y, class
    weights omega [K] and a checked ``rho`` (or None).  ``grads`` holds two
    ``model._zero_grads()`` buffers, one per domain's backward pass; the
    step merges the second into the first and returns the first's vector,
    after the values and before the clamp count of every guarded log the
    step takes (0 on a NaN step).  Only the scores' finiteness is checked
    here."""
    cache_s = model.forward(src_x, heads=(HEAD_S, HEAD_T))
    cache_t = model.forward(tgt_x, heads=(HEAD_S, HEAD_T))
    zs = np.concatenate([cache_s.raw[HEAD_S], cache_s.raw[HEAD_T]], axis=1)
    zt = np.concatenate([cache_t.raw[HEAD_S], cache_t.raw[HEAD_T]], axis=1)
    k = model.head_dim(HEAD_S)
    if not (np.isfinite(zs).all() and np.isfinite(zt).all()):
        # the losses reject non-finite scores; report a NaN step without
        # gradients, so the caller neither steps nor goes on
        return {"task_s": float("nan")}, None, 0

    w = omega[y]
    values: dict[str, float] = {}
    if rho is not None:
        c = _head_pair(cache_s.raw[HEAD_S], cache_s.raw[HEAD_T])
        lhs, rhs = _bound_sides(c, y, rho)
        if lhs > rhs + 1e-9:
            raise ArithmeticError(
                "disagreement bound violated on a source batch: %.12g > %.12g" % (lhs, rhs)
            )
        values["bound_lhs"] = lhs
        values["bound_rhs"] = rhs

    # heads: task terms (+ discrimination when adversarial); feature map:
    # confusion terms through frozen head weights
    picks = y[:, None]
    values["task_s"], g_task_s, clamps = _picked_log_loss(_softmax(cache_s.raw[HEAD_S]), picks, w)
    head_grads_src = {HEAD_S: g_task_s}
    if train_task_t:
        values["task_t"], g_task_t, n = _picked_log_loss(_softmax(cache_s.raw[HEAD_T]), picks, w)
        head_grads_src[HEAD_T] = g_task_t
        clamps += n
    # one joint softmax per domain, shared by the discrimination and
    # confusion terms
    ps = _softmax(zs)
    if adversarial:
        pt = _softmax(zt)
        values["discrim"], g_disc_s, g_disc_t, n = _discrim(ps, y, pt, w)
        clamps += n
        head_grads_src = {
            h: head_grads_src[h] + g if h in head_grads_src else g
            for h, g in _by_head(g_disc_s, k).items()
        }
    values["confuse_src"], g_conf_s, n = _confuse_src(ps, y, w)
    clamps += n
    (flat, views), (flat_t, views_t) = grads
    model._backward(cache_s, head_grads_src, _by_head(g_conf_s, k), views)
    if adversarial:
        values["confuse_tgt"], g_conf_t, n = _confuse_tgt(pt)
        clamps += n
        model._backward(cache_t, _by_head(g_disc_t, k), _by_head(lam * g_conf_t, k), views_t)
        flat += flat_t
    return values, flat, clamps


def partial_weights(tgt_scores_t: np.ndarray, xi: float) -> np.ndarray:
    """Class weights from mean target probabilities of the target head.

    omega_k = mean_j p^t_k(x_j), rescaled to peak 1 and blended with the
    all-ones vector: xi * omega/max(omega) + (1 - xi).
    """
    xi = _check_real(xi, "xi", 0.0, 1.0)
    omega = _softmax(_check_scores(tgt_scores_t, "tgt_scores_t")).mean(axis=0)
    return xi * omega / omega.max() + (1.0 - xi)


def openset_class_probs(k_shared: int, nu: float) -> np.ndarray:
    """Class-draw probabilities: shared classes weight 1, super class weight nu."""
    nu = _check_real(nu, "nu", 0.0, open_low=True)
    w = np.ones(k_shared + 1)
    w[-1] = nu
    return w / w.sum()


def openset_sampler(
    sample: SampleSet, nu: float, batch_size: int, seed: int = 0
) -> Iterator[np.ndarray]:
    """Endless index batches with the super class oversampled by a factor nu.

    Each slot draws a class (shared classes uniformly, the super class with
    nu times a shared class's probability), then a uniform example of that
    class; the expected per-batch count of super-class examples is nu times
    the expected count of any single shared class.  A batch takes two
    vectorized draws: its classes, then one example index per slot.
    """
    if sample.labels is None:
        raise ValueError("open-set sampling needs labeled data")
    batch_size = _check_count(batch_size, "batch_size", 1)
    labels = sample.labels
    k_total = int(labels.max())
    by_class = [np.flatnonzero(labels == c) for c in range(1, k_total + 1)]
    if any(idx.size == 0 for idx in by_class):
        raise ValueError("every class in {1..%d} needs at least one example" % k_total)
    probs = openset_class_probs(k_total - 1, nu)
    rng = np.random.default_rng(seed)
    # indices sorted by class: class c's examples start at offsets[c]
    counts = np.array([idx.size for idx in by_class])
    offsets = np.cumsum(counts) - counts
    by_class_order = np.concatenate(by_class)

    def batches() -> Iterator[np.ndarray]:
        while True:
            classes = rng.choice(k_total, size=batch_size, p=probs)
            # one bounded draw per slot, in slot order: the same stream as
            # drawing slot by slot
            yield by_class_order[offsets[classes] + rng.integers(counts[classes])]

    return batches()


@dataclass
class OpensetEval:
    """Per-class target accuracy with the unknown class as K_shared + 1."""

    per_class: dict[int, float]
    os_all: float  # mean per-class accuracy over the K_shared + 1 classes
    os_shared: float  # mean over the shared classes only
    unknown_acc: float | None
    missing_classes: list[int] = field(default_factory=list)


def eval_openset(pred_labels, true_labels, k_shared: int) -> OpensetEval:
    """Mean per-class accuracies; classes absent from the truth are flagged.
    Both label arrays must lie in {1..K_shared + 1}."""
    true = _check_labels(true_labels, np.size(true_labels), k_shared + 1)
    pred = _check_labels(pred_labels, true.size, k_shared + 1)
    per_class: dict[int, float] = {}  # keyed by 1-based label
    missing: list[int] = []
    for c in range(k_shared + 1):
        mask = true == c
        if not mask.any():
            missing.append(c + 1)
            continue
        per_class[c + 1] = float(np.mean(pred[mask] == c))
    shared_accs = [per_class[c] for c in range(1, k_shared + 1) if c in per_class]
    all_accs = list(per_class.values())
    return OpensetEval(
        per_class=per_class,
        os_all=float(np.mean(all_accs)) if all_accs else float("nan"),
        os_shared=float(np.mean(shared_accs)) if shared_accs else float("nan"),
        unknown_acc=per_class.get(k_shared + 1),
        missing_classes=missing,
    )
