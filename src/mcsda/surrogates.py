"""Differentiable stand-ins for the ramp-based disagreement.

The exact scoring disagreement is piecewise linear and saturates, so the
trainers optimize smooth surrogates defined on softmax probabilities
instead: a scaled L1 distance, a symmetrized KL, a symmetrized cross
entropy, a one-vs-rest consistency pair in the style of margin-disparity
training, and a binary domain-score pair in the style of domain-adversarial
training.  Probability-level ops (`sur_*`, `log_loss`) are pointwise and
ungraded; the `*_with_grads` batch forms return the batch-mean value
together with gradients with respect to the raw scores, which is what the
manual backprop in the neural stack consumes.

Every logarithm, here, in the SymmNets losses and in the surface slices, is
guarded by clamping its argument to at least 1e-12 (`_clamped`).  Clamp
events are counted in a module-level tally (`clamp_count`,
`reset_clamp_count`) so training metrics can report them per epoch.

Sign convention for the adversarial pairs: each returns
(source term, target term) separately, and trainers form the disagreement
loss as source term minus target term.  Minimizing that difference over
the auxiliary heads widens the source/target gap; the feature map receives
the reversed gradient.
"""

from __future__ import annotations

import numpy as np

from .margin import _check_label

__all__ = [
    "softmax",
    "sur_l1",
    "sur_kl",
    "sur_ce",
    "log_loss",
    "clamp_count",
    "reset_clamp_count",
    "l1_with_grads",
    "kl_with_grads",
    "ce_with_grads",
    "log_loss_with_grads",
    "mdd_variant_with_grads",
    "dann_with_grads",
    "sigmoid",
]

_EPS = 1e-12

_clamp_events = 0


def clamp_count() -> int:
    """Number of log-argument clamps since the last reset."""
    return _clamp_events


def reset_clamp_count() -> int:
    """Zero the clamp tally; returns the count it had."""
    global _clamp_events
    n, _clamp_events = _clamp_events, 0
    return n


def _clamped(x: np.ndarray) -> np.ndarray:
    """Clamp below at 1e-12 for safe logs, counting how many entries hit it."""
    global _clamp_events
    hits = int(np.count_nonzero(x < _EPS))
    if hits:
        _clamp_events += hits
        return np.maximum(x, _EPS)
    return x


def softmax(scores) -> np.ndarray:
    """Stable softmax along the last axis; accepts a vector or a batch."""
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("softmax input must be finite")
    if s.shape[-1] < 2:
        raise ValueError("softmax needs at least 2 classes")
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


def _check_prob_pair(p1, p2) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(p1, dtype=np.float64).reshape(-1)
    b = np.asarray(p2, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValueError("probability vectors disagree on K: %d vs %d" % (a.size, b.size))
    if a.size < 2:
        raise ValueError("probability vectors need at least 2 classes")
    for v in (a, b):
        if not np.all(np.isfinite(v)) or np.any(v < 0.0) or abs(v.sum() - 1.0) > 1e-6:
            raise ValueError("not a probability vector: %r" % (v,))
    return a, b


def sur_l1(p1, p2) -> float:
    """L1 distance between probability vectors, scaled by 1/K; in [0, 2/K]."""
    return float(_l1_rows(*_check_prob_pair(p1, p2)))


def sur_kl(p1, p2) -> float:
    """Symmetrized KL: (KL(p1||p2) + KL(p2||p1)) / 2.  Not a metric."""
    return float(_kl_rows(*_check_prob_pair(p1, p2)))


def sur_ce(p1, p2) -> float:
    """Symmetrized cross entropy: -(p1 . log p2 + p2 . log p1) / 2.

    Equals sur_kl plus half the sum of the two entropies.
    """
    return float(_ce_rows(*_check_prob_pair(p1, p2)))


# Row forms of the three surrogates over probability rows [..., K].


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows [..., K] of a and b, as a stacked matmul: it
    rounds like the 1-D ``np.dot`` in every row; a row-wise sum of products
    does not."""
    return (a[..., None, :] @ b[..., :, None]).squeeze((-2, -1))


def _l1_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b).sum(axis=-1) / a.shape[-1]


def _kl_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lr = np.log(_clamped(a)) - np.log(_clamped(b))
    return 0.5 * (_row_dot(a, lr) - _row_dot(b, lr))


def _ce_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ca, cb = _clamped(a), _clamped(b)
    return -0.5 * (_row_dot(a, np.log(cb)) + _row_dot(b, np.log(ca)))


def log_loss(p, y: int) -> float:
    """Negative log probability of the 1-based label y."""
    a = np.asarray(p, dtype=np.float64).reshape(-1)
    i = _check_label(y, a.size)
    return -float(np.log(_clamped(a[i : i + 1]))[0])


# ---------------------------------------------------------------------------
# Batch forms with gradients w.r.t. raw scores.
#
# Each returns the batch-mean value and arrays dValue/dScores of the same
# shape as the score inputs.  Softmax Jacobian chain: for per-row dV/dp = U,
# dV/ds = p * (U - <p, U>).
# ---------------------------------------------------------------------------


def _as_batch(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim == 1:
        s = s[None, :]
    if s.ndim != 2 or s.shape[1] < 2:
        raise ValueError("expected scores of shape [n, K>=2], got %r" % (s.shape,))
    return s


def _chain_softmax(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    return p * (u - np.sum(p * u, axis=1, keepdims=True))


def l1_with_grads(s1, s2) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch mean of sur_l1(softmax(s1), softmax(s2)) and its score gradients.

    The subgradient of |.| at 0 is taken as 0, so identical score rows
    produce exactly zero gradient.
    """
    s1, s2 = _as_batch(s1), _as_batch(s2)
    p1, p2 = softmax(s1), softmax(s2)
    n, k = s1.shape
    value = float(np.abs(p1 - p2).sum()) / (k * n)
    u1 = np.sign(p1 - p2) / k
    g1 = _chain_softmax(p1, u1) / n
    g2 = _chain_softmax(p2, -u1) / n
    return value, g1, g2


def kl_with_grads(s1, s2) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch mean of the symmetrized KL on softmax rows, with score gradients."""
    s1, s2 = _as_batch(s1), _as_batch(s2)
    p1, p2 = softmax(s1), softmax(s2)
    c1, c2 = _clamped(p1), _clamped(p2)
    n = s1.shape[0]
    lr = np.log(c1) - np.log(c2)
    value = 0.5 * float(np.sum(p1 * lr) - np.sum(p2 * lr)) / n
    u1 = 0.5 * (lr + 1.0 - p2 / c1)
    u2 = 0.5 * (-lr + 1.0 - p1 / c2)
    g1 = _chain_softmax(p1, u1) / n
    g2 = _chain_softmax(p2, u2) / n
    return value, g1, g2


def ce_with_grads(s1, s2) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch mean of the symmetrized cross entropy, with score gradients."""
    s1, s2 = _as_batch(s1), _as_batch(s2)
    p1, p2 = softmax(s1), softmax(s2)
    c1, c2 = _clamped(p1), _clamped(p2)
    n = s1.shape[0]
    value = -0.5 * float(np.sum(p1 * np.log(c2)) + np.sum(p2 * np.log(c1))) / n
    u1 = 0.5 * (-np.log(c2) - p2 / c1)
    u2 = 0.5 * (-np.log(c1) - p1 / c2)
    g1 = _chain_softmax(p1, u1) / n
    g2 = _chain_softmax(p2, u2) / n
    return value, g1, g2


def log_loss_with_grads(scores, labels, weights=None) -> tuple[float, np.ndarray]:
    """Weighted mean negative log softmax probability of 1-based labels.

    value = (1/n) sum_i w_i * (-log p_{y_i});  gradient rows are
    (w_i/n) * (p_i - onehot(y_i)).  Weights default to 1.
    """
    s = _as_batch(scores)
    n, k = s.shape
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.size != n:
        raise ValueError("got %d labels for %d score rows" % (y.size, n))
    if np.any(y < 1) or np.any(y > k):
        raise ValueError("labels outside {1..%d}" % k)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.size != n:
        raise ValueError("got %d weights for %d score rows" % (w.size, n))
    return _weighted_log_loss(softmax(s), y, w)


def _weighted_log_loss(p: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """``log_loss_with_grads`` from softmax rows [n, K] and checked 1-based
    labels and weights [n]."""
    n = p.shape[0]
    picked = p[np.arange(n), y - 1]
    value = float(np.dot(w, -np.log(_clamped(picked)))) / n
    g = p * (w / n)[:, None]
    g[np.arange(n), y - 1] -= w / n
    return value, g


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
    ref_s, aux_s = _as_batch(ref_src), _as_batch(aux_src)
    ref_t, aux_t = _as_batch(ref_tgt), _as_batch(aux_tgt)
    ns, nt = aux_s.shape[0], aux_t.shape[0]

    cs = np.argmax(ref_s, axis=1)
    ps = softmax(aux_s)
    picked_s = _clamped(ps[np.arange(ns), cs])
    src_term = float(np.mean(-np.log(picked_s)))
    g_src = ps.copy()
    g_src[np.arange(ns), cs] -= 1.0
    g_src /= ns

    ct = np.argmax(ref_t, axis=1)
    pt = softmax(aux_t)
    pc = pt[np.arange(nt), ct]
    comp = _clamped(1.0 - pc)
    tgt_term = float(np.mean(np.log(comp)))
    onehot = np.zeros_like(pt)
    onehot[np.arange(nt), ct] = 1.0
    g_tgt = -(pc / comp)[:, None] * (onehot - pt) / nt
    return src_term, tgt_term, g_src, g_tgt


def dann_with_grads(d_src, d_tgt) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Binary domain-score pair on raw scalar outputs of a domain head.

    src term = mean -log sigmoid(d) over source, tgt term = mean
    log(1 - sigmoid(d)) over target; gradients are w.r.t. the raw scores.
    """
    ds = np.asarray(d_src, dtype=np.float64).reshape(-1)
    dt = np.asarray(d_tgt, dtype=np.float64).reshape(-1)
    ss, st = sigmoid(ds), sigmoid(dt)
    src_term = float(np.mean(-np.log(_clamped(ss))))
    tgt_term = float(np.mean(np.log(_clamped(1.0 - st))))
    g_src = (ss - 1.0) / ds.size
    g_tgt = -st / dt.size
    return src_term, tgt_term, g_src, g_tgt
