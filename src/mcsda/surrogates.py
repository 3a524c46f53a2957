"""Differentiable stand-ins for the ramp-based disagreement.

The exact scoring disagreement is piecewise linear and saturates, so the
trainers optimize smooth surrogates defined on softmax probabilities
instead: a scaled L1 distance, a symmetrized KL, a symmetrized cross
entropy, a one-vs-rest consistency pair in the style of margin-disparity
training, and a binary domain-score pair in the style of domain-adversarial
training.  Probability-level ops (`sur_*`, `log_loss`) are pointwise and
ungraded; the `*_with_grads` batch forms return the batch-mean value
together with gradients with respect to the raw scores, which is what the
manual backprop in the neural stack consumes.  Each public function checks
its scores once with `margin._check_scores` (`_check_prob` then asks for
probability vectors); `dann_with_grads` checks one domain score per point.

Each of the three pairwise surrogates is written once, as a kernel on
probability rows [..., K] (`_l1`, `_kl`, `_ce`): it returns the per-row
values and the per-row probability gradients dV/dp1, dV/dp2, taking each
guarded log once.  One weighted core, `_pair_core`, sums the rows with row
weights w and chains the probability gradients through the softmax.  One
table, `_PAIR_KERNELS`, maps each surrogate name to its kernel.  Every
caller goes through a kernel: `sur_*` (one row), `*_with_grads` (softmax +
weighted core with w = 1/n), the McDalNet step (the weighted core on the
kernel its surrogate names in the table), SymmNets' target confusion (`_ce`
between the two halves of the joint softmax), the surface slices (a kernel
from the table) and the theory suite.

Every log of a probability in the library goes through one guarded log,
`_guarded_log`, which clamps its argument below at 1e-12 and returns the
number of clamped entries with the log.  Each private kernel that takes a
guarded log returns the sum of its logs' counts as its last value (`_l1`
returns 0), and the training steps sum their kernels' counts, so a count
travels with the values it belongs to and the module holds no state.  The
public functions drop the count.  The weighted negative log of picked
softmax entries is written once too, as `_picked_log_loss` (m picks per
row): the task losses of every trainer, SymmNets' labeled confusion (two
picks) and the source half of its domain discrimination call it.  The
one-vs-rest and domain-head cores keep their own gradient forms and share
only the guarded log.  Every core sums its weighted rows with
`margin._weighted_sum`, so a stacked head's value rounds as it does alone.

Sign convention for the adversarial pairs: each returns
(source term, target term) separately, and the disagreement loss is source
term minus target term.  Minimizing that difference over the auxiliary
heads widens the source/target gap; the feature map receives the reversed
gradient.  Trainers get that difference from the private cores below in
one call over stacked source and target rows.
"""

from __future__ import annotations

import numpy as np

from .margin import _batch_pair, _check_label, _check_labels, _check_points, _check_scores
from .margin import _check_weights, _quiet_finite, _weighted_sum

__all__ = [
    "softmax",
    "sur_l1",
    "sur_kl",
    "sur_ce",
    "log_loss",
    "l1_with_grads",
    "kl_with_grads",
    "ce_with_grads",
    "log_loss_with_grads",
    "mdd_variant_with_grads",
    "dann_with_grads",
    "sigmoid",
]

_EPS = 1e-12


def _guarded_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The guarded log: (log q, q, hits) for q = p clamped below at 1e-12,
    with hits the number of entries that hit the clamp."""
    hits = int(np.count_nonzero(p < _EPS))
    if hits:
        p = np.maximum(p, _EPS)
    return np.log(p), p, hits


def softmax(scores) -> np.ndarray:
    """Stable softmax along the last axis; accepts a vector or a batch.
    Entries beyond the float range below their row's maximum get 0."""
    s = _check_scores(scores, "scores", None)
    return _quiet_finite(lambda: _softmax(s), "softmax")


def _softmax(s: np.ndarray) -> np.ndarray:
    """``softmax`` of finite float64 scores [..., K>=2], unchecked."""
    z = s - s.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_prob(v: np.ndarray, name: str) -> np.ndarray:
    """A checked score vector as a probability vector: non-negative, sum 1."""
    if np.any(v < 0.0) or abs(v.sum() - 1.0) > 1e-6:
        raise ValueError("%s is not a probability vector: %r" % (name, v))
    return v


def _check_prob_pair(p1, p2) -> tuple[np.ndarray, np.ndarray]:
    a, b = _batch_pair(p1, p2, "p1", "p2", 1)
    return _check_prob(a, "p1"), _check_prob(b, "p2")


def sur_l1(p1, p2) -> float:
    """L1 distance between probability vectors, scaled by 1/K; in [0, 2/K]."""
    return float(_l1(*_check_prob_pair(p1, p2))[0])


def sur_kl(p1, p2) -> float:
    """Symmetrized KL: (KL(p1||p2) + KL(p2||p1)) / 2.  Not a metric."""
    return float(_kl(*_check_prob_pair(p1, p2))[0])


def sur_ce(p1, p2) -> float:
    """Symmetrized cross entropy: -(p1 . log p2 + p2 . log p1) / 2.

    Equals sur_kl plus half the sum of the two entropies.
    """
    return float(_ce(*_check_prob_pair(p1, p2))[0])


# The three pairwise surrogates, one kernel each, over probability rows
# p1, p2 [..., K].  A kernel returns the per-row values [...], the per-row
# probability gradients dV/dp1, dV/dp2 [..., K] and its clamp count; each
# log argument is clamped once.


def _l1(p1: np.ndarray, p2: np.ndarray):
    """Scaled L1 rows |p1 - p2|_1 / K; the subgradient of |.| at 0 is 0."""
    k = p1.shape[-1]
    d = p1 - p2
    u1 = np.sign(d) / k
    return np.abs(d).sum(axis=-1) / k, u1, -u1, 0


def _kl(p1: np.ndarray, p2: np.ndarray):
    """Symmetrized-KL rows (p1 - p2) . (log p1 - log p2) / 2."""
    (l1, c1, h1), (l2, c2, h2) = _guarded_log(p1), _guarded_log(p2)
    u1 = 0.5 * (l1 - l2 + 1.0 - p2 / c1)
    u2 = 0.5 * (l2 - l1 + 1.0 - p1 / c2)
    return 0.5 * ((p1 - p2) * (l1 - l2)).sum(axis=-1), u1, u2, h1 + h2


def _ce(p1: np.ndarray, p2: np.ndarray):
    """Symmetrized cross-entropy rows -(p1 . log p2 + p2 . log p1) / 2."""
    (l1, c1, h1), (l2, c2, h2) = _guarded_log(p1), _guarded_log(p2)
    u1 = 0.5 * (-l2 - p2 / c1)
    u2 = 0.5 * (-l1 - p1 / c2)
    return -0.5 * (p1 * l2 + p2 * l1).sum(axis=-1), u1, u2, h1 + h2


# the pairwise kernels by surrogate name
_PAIR_KERNELS = {"l1": _l1, "kl": _kl, "ce": _ce}


def log_loss(p, y: int) -> float:
    """Negative log probability of the 1-based label y."""
    a = _check_prob(_check_scores(p, "p", 1), "p")
    i = _check_label(y, a.size)
    return -float(_guarded_log(a[i : i + 1])[0][0])


# ---------------------------------------------------------------------------
# Batch forms with gradients w.r.t. raw scores.
#
# Each public form returns the batch-mean value and arrays dValue/dScores of
# the same shape as the score inputs.  Softmax Jacobian chain: for per-row
# dV/dp = U, dV/ds = p * (U - <p, U>).
#
# Behind each public form sits one private core on probability rows (raw
# rows for the binary domain head) and a row-weight vector w [n]: it returns
# sum_i w_i * loss_i, the score gradients of that sum and its clamp count.
# The three pairwise forms share `_pair_core` over their kernels.  The
# public forms are softmax + core with w = 1/n (-1/n for a target term,
# negated back), and drop the count.
# A trainer stacks source and target rows and weights them +1/n_s and
# -1/n_t, so one core call gives "source term minus target term" and the
# gradients of both domains.  The adversarial pairs use different source and
# target losses; their cores tell the rows apart by the sign of w.
# ---------------------------------------------------------------------------


def _mean_weights(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _chain_softmax(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    return p * (u - np.sum(p * u, axis=1, keepdims=True))


def _pair_core(kernel, p1, p2, w) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Weighted sum of a pairwise kernel's rows of p1, p2 [n, K], its score
    gradients and the kernel's clamp count."""
    rows, u1, u2, clamps = kernel(p1, p2)
    wc = w[:, None]
    g1, g2 = _chain_softmax(p1, u1) * wc, _chain_softmax(p2, u2) * wc
    return float(_weighted_sum(rows, w)), g1, g2, clamps


def _pair_with_grads(kernel, s1, s2) -> tuple[float, np.ndarray, np.ndarray]:
    s1, s2 = _batch_pair(s1, s2, "s1", "s2")
    return _pair_core(kernel, _softmax(s1), _softmax(s2), _mean_weights(s1.shape[0]))[:3]


def l1_with_grads(s1, s2) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch mean of sur_l1(softmax(s1), softmax(s2)) and its score gradients.

    The subgradient of |.| at 0 is taken as 0, so identical score rows
    produce exactly zero gradient.
    """
    return _pair_with_grads(_l1, s1, s2)


def kl_with_grads(s1, s2) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch mean of the symmetrized KL on softmax rows, with score gradients."""
    return _pair_with_grads(_kl, s1, s2)


def ce_with_grads(s1, s2) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch mean of the symmetrized cross entropy, with score gradients."""
    return _pair_with_grads(_ce, s1, s2)


def log_loss_with_grads(scores, labels, weights=None) -> tuple[float, np.ndarray]:
    """Weighted mean negative log softmax probability of 1-based labels.

    value = (1/n) sum_i w_i * (-log p_{y_i});  gradient rows are
    (w_i/n) * (p_i - onehot(y_i)).  Weights default to 1.
    """
    s = _check_scores(scores, "scores")
    n, k = s.shape
    y = _check_labels(labels, n, k)
    w = np.ones(n) if weights is None else _check_weights(weights, n, "weights")
    return _picked_log_loss(_softmax(s), y[:, None], w)[:2]


def _picked_log_loss(p: np.ndarray, c: np.ndarray, w: np.ndarray):
    """The picked-entry log loss: softmax rows p [..., n, K], m 0-based picks
    per row c [n, m] and row weights w [n].  Returns
    sum_i w_i sum_j -log p[i, c_ij] / (m n), its gradient w.r.t. the
    scores, p * m w_i / (m n) less w_i / (m n) at each pick, and the clamp
    count of the picked entries.  Leading axes stack heads scored on the
    same rows; each gets its own value, which rounds as that head scored
    alone (a float for plain [n, K] rows), and the count covers them all."""
    n, m = c.shape
    rows = np.arange(n)
    log_q, _, clamps = _guarded_log(p[..., rows[:, None], c])
    value = _weighted_sum(-log_q.sum(axis=-1), w) / (m * n)
    g = p * (m * w / (m * n))[:, None]
    for j in range(m):
        g[..., rows, c[:, j]] -= w / (m * n)
    return (float(value) if value.ndim == 0 else value), g, clamps


def _mdd_variant_core(
    c: np.ndarray, p: np.ndarray, w: np.ndarray
) -> tuple[float, np.ndarray, int]:
    """One-vs-rest consistency rows: auxiliary softmax rows p [n, K] and the
    reference head's 0-based decision classes c [n].  A row with w > 0 is a
    source row, loss -log p_c; a row with w < 0 is a target row, loss
    log(1 - p_c).  Returns sum_i w_i * loss_i, its gradient w.r.t. the
    auxiliary scores and the clamp count."""
    rows = np.arange(p.shape[0])
    pc = p[rows, c]
    src = w > 0
    log_q, q, clamps = _guarded_log(np.where(src, pc, 1.0 - pc))  # q: the probability under the log
    value = -float(_weighted_sum(log_q, np.abs(w)))
    g = p.copy()
    g[rows, c] -= 1.0
    g *= np.where(src, w, w * pc / q)[:, None]
    return value, g, clamps


def mdd_variant_with_grads(
    ref_src, aux_src, ref_tgt, aux_tgt
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """One-vs-rest consistency pair between a reference and an auxiliary head.

    Per example the auxiliary head's softmax probability of the reference
    head's decision class is read off; the source term is the mean negative
    log of that probability, the target term the mean log of its complement.
    Returns (src_term, tgt_term, dsrc/d aux_src, dtgt/d aux_tgt).  Reference
    scores only pick argmax classes, so no gradient flows to them.
    """
    ref_s, aux_s = _batch_pair(ref_src, aux_src, "ref_src", "aux_src")
    ref_t, aux_t = _batch_pair(ref_tgt, aux_tgt, "ref_tgt", "aux_tgt")
    ns, nt = aux_s.shape[0], aux_t.shape[0]
    src_term, g_src, _ = _mdd_variant_core(
        np.argmax(ref_s, axis=1), _softmax(aux_s), _mean_weights(ns)
    )
    neg_tgt, neg_g, _ = _mdd_variant_core(
        np.argmax(ref_t, axis=1), _softmax(aux_t), -_mean_weights(nt)
    )
    return src_term, -neg_tgt, g_src, -neg_g


def _dann_core(d: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Binary domain rows on raw scalar domain scores d [n]: a row with
    w > 0 is a source row, loss -log sigmoid(d); a row with w < 0 is a
    target row, loss log(1 - sigmoid(d)).  Returns sum_i w_i * loss_i, its
    gradient w.r.t. d and the clamp count."""
    s = sigmoid(d)
    src = w > 0
    log_q, _, clamps = _guarded_log(np.where(src, s, 1.0 - s))
    return -float(_weighted_sum(log_q, np.abs(w))), w * np.where(src, s - 1.0, -s), clamps


def dann_with_grads(d_src, d_tgt) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Binary domain-score pair on raw scalar outputs of a domain head.

    src term = mean -log sigmoid(d) over source, tgt term = mean
    log(1 - sigmoid(d)) over target; gradients are w.r.t. the raw scores.
    """
    ds, dt = _check_points(d_src, "d_src", 1)[:, 0], _check_points(d_tgt, "d_tgt", 1)[:, 0]
    src_term, g_src, _ = _dann_core(ds, _mean_weights(ds.size))
    neg_tgt, neg_g, _ = _dann_core(dt, -_mean_weights(dt.size))
    return src_term, -neg_tgt, g_src, -neg_g
