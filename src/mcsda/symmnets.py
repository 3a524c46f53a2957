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
* ``symmnets_step``     one simultaneous update: heads descend
  task + discrimination, the feature map descends
  confuse_src + lambda * confuse_tgt (gradients pass through head weights
  without updating them).

Class weights (all ones outside partial mode) re-weight source examples by
their label; ``partial_weights`` re-estimates them from target predictions
once per epoch.  Open-set helpers re-dimension heads to K_shared + 1
outputs, oversample the source super class, and score per-class target
accuracy including unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .divergence import SampleSet, _margin_violations, mcsd_rows
from .neural import MlpScorer, SgdMomentum, center_scores
from .surrogates import log_loss_with_grads, softmax

__all__ = [
    "loss_task_src",
    "confuse_src",
    "confuse_tgt",
    "discrim",
    "symmnets_step",
    "partial_weights",
    "openset_adapt",
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

_EPS = 1e-12


def _check_omega(omega, k: int) -> np.ndarray:
    if omega is None:
        return np.ones(k)
    w = np.asarray(omega, dtype=np.float64).reshape(-1)
    if w.size != k or np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("omega must be K non-negative finite weights")
    return w


def _per_example_omega(omega: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return omega[labels - 1]


def _chain_joint_softmax(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    return p * (u - np.sum(p * u, axis=1, keepdims=True))


def _check_joint(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] % 2 or z.shape[1] < 4:
        raise ValueError("joint scores must be [n, 2K] with K >= 2, got %r" % (z.shape,))
    return z


def loss_task_src(scores, labels, omega=None) -> tuple[float, np.ndarray]:
    """Weighted source log loss of one head: (1/n) sum_i w_{y_i} (-log p_{y_i})."""
    s = np.asarray(scores, dtype=np.float64)
    w = _check_omega(omega, s.shape[1])
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    return log_loss_with_grads(s, y, weights=_per_example_omega(w, y))


def confuse_src(z, labels, omega=None) -> tuple[float, np.ndarray]:
    """Labeled confusion: -(1/2n) sum_i w_i (log p_{y_i} + log p_{y_i + K}).

    Minimized (over the feature map) when the joint softmax splits an
    example's mass evenly between the label's two neurons.
    """
    z = _check_joint(z)
    n, k2 = z.shape
    k = k2 // 2
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.size != n or np.any(y < 1) or np.any(y > k):
        raise ValueError("labels must be 1-based within K=%d" % k)
    w = _per_example_omega(_check_omega(omega, k), y)
    p = softmax(z)
    rows = np.arange(n)
    pa = np.maximum(p[rows, y - 1], _EPS)
    pb = np.maximum(p[rows, y - 1 + k], _EPS)
    value = float(np.dot(w, -(np.log(pa) + np.log(pb)))) / (2.0 * n)
    g = p * (2.0 * w / (2.0 * n))[:, None]
    g[rows, y - 1] -= w / (2.0 * n)
    g[rows, y - 1 + k] -= w / (2.0 * n)
    return value, g


def confuse_tgt(z) -> tuple[float, np.ndarray]:
    """Unlabeled symmetric confusion on the joint softmax.

    With r the first K probabilities and q the second K, the per-example
    value is -(sum_k q_k log r_k + sum_k r_k log q_k) / 2, averaged over the
    batch; it attains log(2)/2 per example exactly when the two halves agree
    and concentrate on a single class pair.
    """
    z = _check_joint(z)
    n, k2 = z.shape
    k = k2 // 2
    p = softmax(z)
    r, q = p[:, :k], p[:, k:]
    cr, cq = np.maximum(r, _EPS), np.maximum(q, _EPS)
    value = -0.5 * float(np.sum(q * np.log(cr)) + np.sum(r * np.log(cq))) / n
    u = np.concatenate([-0.5 * (q / cr + np.log(cq)), -0.5 * (np.log(cr) + r / cq)], axis=1)
    g = _chain_joint_softmax(p, u) / n
    return value, g


def discrim(z_src, labels_src, z_tgt, omega=None) -> tuple[float, np.ndarray, np.ndarray]:
    """Joint-softmax domain discrimination, trained by the heads.

    Source examples are pushed onto their labeled neuron in the first half;
    target examples are pushed onto the second half as a block:
    -(1/n_s) sum w_i log p_{y_i}(src) - (1/n_t) sum log sum_{k>K} p_k(tgt).
    """
    zs, zt = _check_joint(z_src), _check_joint(z_tgt)
    if zs.shape[1] != zt.shape[1]:
        raise ValueError("source and target joint widths differ")
    ns, nt = zs.shape[0], zt.shape[0]
    k = zs.shape[1] // 2
    y = np.asarray(labels_src, dtype=np.int64).reshape(-1)
    if y.size != ns or np.any(y < 1) or np.any(y > k):
        raise ValueError("labels must be 1-based within K=%d" % k)
    w = _per_example_omega(_check_omega(omega, k), y)
    ps = softmax(zs)
    rows = np.arange(ns)
    picked = np.maximum(ps[rows, y - 1], _EPS)
    src_value = float(np.dot(w, -np.log(picked))) / ns
    g_src = ps * (w / ns)[:, None]
    g_src[rows, y - 1] -= w / ns

    pt = softmax(zt)
    q_tot = np.maximum(pt[:, k:].sum(axis=1), _EPS)
    tgt_value = float(np.mean(-np.log(q_tot)))
    u = np.zeros_like(pt)
    u[:, k:] = -1.0 / q_tot[:, None]
    g_tgt = _chain_joint_softmax(pt, u) / nt
    return src_value + tgt_value, g_src, g_tgt


def disagreement_bound_gap(raw_s, raw_t, labels, rho: float) -> tuple[float, float]:
    """Source-batch check that mean disagreement of the two heads stays below
    the sum of their margin errors: returns (lhs, rhs) of that inequality."""
    c = center_scores(np.asarray([raw_s, raw_t], dtype=float))
    lhs = float(mcsd_rows(c[0], c[1], rho).mean())
    err_s, err_t = _margin_violations(c, labels, rho)
    return lhs, float(err_s.mean()) + float(err_t.mean())


def symmnets_step(
    model: MlpScorer,
    optimizer: SgdMomentum,
    src_x: np.ndarray,
    src_y: np.ndarray,
    tgt_x: np.ndarray,
    lam: float,
    lr: float,
    omega=None,
    adversarial: bool = True,
    train_task_t: bool = True,
    rho: float | None = None,
) -> dict[str, float]:
    """One simultaneous update of heads and feature map.

    Heads descend task losses plus (when adversarial) the discrimination
    term, with gradients stopped at the features.  The feature map descends
    confuse_src plus lambda times confuse_tgt (through frozen head weights);
    without the adversarial part it descends confuse_src alone.  Returns the
    loss values for metrics; with ``rho`` given it also reports (and
    enforces) the per-step bound of the mean head disagreement by the sum of
    the two source margin errors.  A batch whose scores are not finite is
    not stepped: the parameters keep their values and ``task_s`` is NaN.
    """
    cache_s = model.forward(src_x, heads=(HEAD_S, HEAD_T))
    cache_t = model.forward(tgt_x, heads=(HEAD_S, HEAD_T))
    zs = np.concatenate([cache_s.raw[HEAD_S], cache_s.raw[HEAD_T]], axis=1)
    zt = np.concatenate([cache_t.raw[HEAD_S], cache_t.raw[HEAD_T]], axis=1)
    k = model.head_dim(HEAD_S)
    if not (np.isfinite(zs).all() and np.isfinite(zt).all()):
        # the losses reject non-finite scores; report a NaN step without
        # touching the parameters, so the caller flags the run
        return {"task_s": float("nan")}

    values: dict[str, float] = {}
    if rho is not None:
        lhs, rhs = disagreement_bound_gap(cache_s.raw[HEAD_S], cache_s.raw[HEAD_T], src_y, rho)
        if lhs > rhs + 1e-9:
            raise ArithmeticError(
                "disagreement bound violated on a source batch: %.12g > %.12g" % (lhs, rhs)
            )
        values["bound_lhs"] = lhs
        values["bound_rhs"] = rhs

    # heads: task terms (+ discrimination when adversarial)
    task_s_val, g_task_s = loss_task_src(cache_s.raw[HEAD_S], src_y, omega)
    values["task_s"] = task_s_val
    head_grads_src = {HEAD_S: g_task_s}
    if train_task_t:
        task_t_val, g_task_t = loss_task_src(cache_s.raw[HEAD_T], src_y, omega)
        values["task_t"] = task_t_val
        head_grads_src[HEAD_T] = g_task_t
    head_grads_tgt: dict[str, np.ndarray] = {}
    if adversarial:
        disc_val, g_disc_s, g_disc_t = discrim(zs, src_y, zt, omega)
        values["discrim"] = disc_val
        head_grads_src[HEAD_S] = head_grads_src[HEAD_S] + g_disc_s[:, :k]
        g_t_src = head_grads_src.get(HEAD_T)
        head_grads_src[HEAD_T] = (
            g_disc_s[:, k:] if g_t_src is None else g_t_src + g_disc_s[:, k:]
        )
        head_grads_tgt = {HEAD_S: g_disc_t[:, :k], HEAD_T: g_disc_t[:, k:]}

    grads = model.backward(cache_s, head_grads_src, heads_only=True)
    if head_grads_tgt:
        for name, g in model.backward(cache_t, head_grads_tgt, heads_only=True).items():
            grads[name] = grads[name] + g

    # feature map: confusion terms through frozen head weights
    conf_s_val, g_conf_s = confuse_src(zs, src_y, omega)
    values["confuse_src"] = conf_s_val
    psi_grads = model.backward(
        cache_s, {HEAD_S: g_conf_s[:, :k], HEAD_T: g_conf_s[:, k:]}, psi_only=True
    )
    if adversarial:
        conf_t_val, g_conf_t = confuse_tgt(zt)
        values["confuse_tgt"] = conf_t_val
        for name, g in model.backward(
            cache_t, {HEAD_S: lam * g_conf_t[:, :k], HEAD_T: lam * g_conf_t[:, k:]}, psi_only=True
        ).items():
            psi_grads[name] = psi_grads[name] + g
    grads.update(psi_grads)
    optimizer.step(grads, lr)
    return values


def partial_weights(tgt_scores_t: np.ndarray, xi: float) -> np.ndarray:
    """Class weights from mean target probabilities of the target head.

    omega_k = mean_j p^t_k(x_j), rescaled to peak 1 and blended with the
    all-ones vector: xi * omega/max(omega) + (1 - xi).
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1], got %r" % xi)
    p = softmax(np.asarray(tgt_scores_t, dtype=np.float64))
    if p.ndim != 2:
        raise ValueError("expected a batch of target scores")
    omega = p.mean(axis=0)
    return xi * omega / omega.max() + (1.0 - xi)


def openset_adapt(model: MlpScorer, k_shared: int) -> bool:
    """Widen both scoring heads to K_shared + 1 outputs (fresh init).

    Returns True when heads were replaced, False when they already had the
    open-set width (so closed-set models pass through untouched).
    """
    if k_shared < 2:
        raise ValueError("need at least 2 shared classes")
    out = k_shared + 1
    if model.head_dim(HEAD_S) == out and model.head_dim(HEAD_T) == out:
        return False
    model.replace_head(HEAD_S, out, center=True)
    model.replace_head(HEAD_T, out, center=True)
    return True


def openset_class_probs(k_shared: int, nu: float) -> np.ndarray:
    """Class-draw probabilities: shared classes weight 1, super class weight nu."""
    if nu <= 0:
        raise ValueError("nu must be positive, got %r" % nu)
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
    the expected count of any single shared class.
    """
    if sample.labels is None:
        raise ValueError("open-set sampling needs labeled data")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    labels = sample.labels
    k_total = int(labels.max())
    by_class = [np.flatnonzero(labels == c) for c in range(1, k_total + 1)]
    if any(idx.size == 0 for idx in by_class):
        raise ValueError("every class in {1..%d} needs at least one example" % k_total)
    probs = openset_class_probs(k_total - 1, nu)
    rng = np.random.default_rng(seed)

    def batches() -> Iterator[np.ndarray]:
        while True:
            classes = rng.choice(k_total, size=batch_size, p=probs)
            idx = np.array(
                [by_class[c][rng.integers(by_class[c].size)] for c in classes],
                dtype=np.int64,
            )
            yield idx

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
    """Mean per-class accuracies; classes absent from the truth are flagged."""
    pred = np.asarray(pred_labels, dtype=np.int64).reshape(-1)
    true = np.asarray(true_labels, dtype=np.int64).reshape(-1)
    if pred.size != true.size:
        raise ValueError("prediction/label lengths differ")
    per_class: dict[int, float] = {}
    missing: list[int] = []
    for c in range(1, k_shared + 2):
        mask = true == c
        if not mask.any():
            missing.append(c)
            continue
        per_class[c] = float(np.mean(pred[mask] == c))
    shared_accs = [per_class[c] for c in range(1, k_shared + 1) if c in per_class]
    all_accs = list(per_class.values())
    return OpensetEval(
        per_class=per_class,
        os_all=float(np.mean(all_accs)) if all_accs else float("nan"),
        os_shared=float(np.mean(shared_accs)) if shared_accs else float("nan"),
        unknown_acc=per_class.get(k_shared + 1),
        missing_classes=missing,
    )
