"""Margin primitives for multi-class scorers.

A scorer assigns each input a vector of K class scores constrained to sum
to zero.  Everything in this module derives from the absolute margins of
such a score vector: the margin of component k under label y is +f_k when
k == y and -f_k otherwise, so a well-ranked example earns a positive margin
on every component.  The ramp loss truncates margins into violation levels
in [0, 1], the violation matrix tabulates those levels for every
(component, candidate-label) pair, and the scoring disagreement between two
score vectors is the entrywise L1 distance of their violation matrices,
scaled by 1/K.

Two cheaper one-number disagreements are provided alongside the full
matrix form: a ramp-at-half-width applied to the decision component
(``mcsd_tilde_pointwise``) and its 0/1 saturation (``mcsd_hat_pointwise``).
Both look only at the argmax decision components of the two scorers, which
is what connects them to the decision-disparity style of adversarial
training.

Conventions, fixed across the package:

* labels are 1-based at API boundaries and 0-based internally;
* argmax ties resolve to the lowest index;
* score vectors are projected onto the sum-to-zero hyperplane by
  subtracting the mean at construction time.

Each public function validates its arguments once, at entry (``as_scores``,
``_check_rho``, ``_check_label``, the finiteness and K-mismatch checks), and
then computes with private kernels that trust them: ``_ramp``, the one ramp
formula, ``_absolute_margin`` and ``_violation_matrix``.  So no input is
centered or checked twice within one call.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = [
    "ScoreVector",
    "as_scores",
    "ramp_loss",
    "argmax_label",
    "absolute_margin",
    "relative_margin",
    "violation_matrix",
    "mcsd_pointwise",
    "mcsd_tilde_pointwise",
    "mcsd_hat_pointwise",
    "phi_distance",
    "source_margin_loss",
]

ScoresLike = Union["ScoreVector", Sequence[float], np.ndarray]


class ScoreVector:
    """K class scores projected onto the sum-to-zero hyperplane.

    Construction subtracts the mean, so any finite vector of length >= 2
    is accepted; the stored array is read-only, finite, and sums to zero up
    to float rounding (|sum| <= 1e-9 * scale).
    """

    __slots__ = ("scores",)

    def __init__(self, scores: ScoresLike) -> None:
        self.scores = _centered(scores)

    @property
    def k(self) -> int:
        return self.scores.size

    def __repr__(self) -> str:
        return "ScoreVector(%s)" % np.array2string(self.scores, precision=6)


def _centered(scores: ScoresLike) -> np.ndarray:
    """Validated, centered, read-only copy of raw scores."""
    arr = np.array(scores, dtype=np.float64).reshape(-1)
    if arr.size < 2:
        raise ValueError("score vector needs at least 2 classes, got %d" % arr.size)
    if not np.isfinite(arr).all():
        raise ValueError("scores must be finite")
    arr -= arr.sum() / arr.size
    if not np.isfinite(arr).all():  # centering overflowed
        raise ValueError("scores must be finite")
    arr.flags.writeable = False
    return arr


def as_scores(f: ScoresLike) -> np.ndarray:
    """Return the centered score array behind ``f``.

    Accepts a ScoreVector or any finite array-like; raw arrays pass through
    the same projection and validation as ScoreVector construction.
    """
    if isinstance(f, ScoreVector):
        return f.scores
    return _centered(f)


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not np.isfinite(rho) or rho <= 0.0:
        raise ValueError("margin width rho must be a positive finite real, got %r" % rho)
    return rho


def _check_label(y: int, k: int) -> int:
    """Validate a 1-based label against K classes; return the 0-based index."""
    iy = int(y)
    if iy != y or not 1 <= iy <= k:
        raise ValueError("label %r outside {1..%d}" % (y, k))
    return iy - 1


def _finite_ramp_argument(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("ramp argument must be finite")
    return arr


def _ramp(x, rho: float):
    """Ramp formula for finite ``x`` and a checked ``rho``.

    ``1 - x/rho`` is never -0.0, so the two-sided clamp equals ``np.clip``.
    """
    return np.minimum(np.maximum(1.0 - x / rho, 0.0), 1.0)


def ramp_loss(x, rho: float):
    """Ramp loss: 1 for x <= 0, 0 for x >= rho, linear 1 - x/rho between.

    Vectorized over ``x``; kinks are exact (x == 0 -> 1.0, x == rho -> 0.0).
    The function is non-increasing and 1/rho-Lipschitz.
    """
    rho = _check_rho(rho)
    arr = _finite_ramp_argument(x)
    out = _ramp(arr, rho)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def argmax_label(f: ScoresLike) -> int:
    """Decision of a scorer: 1-based argmax, ties to the lowest index."""
    s = as_scores(f)
    return int(np.argmax(s)) + 1


def _absolute_margin(s: np.ndarray, y0: int) -> np.ndarray:
    mu = -s
    mu[y0] = s[y0]
    return mu


def absolute_margin(f: ScoresLike, y: int) -> np.ndarray:
    """Vector of absolute margins mu_k(f, y) = +f_k if k == y else -f_k.

    All entries >= 0 with at least one > 0 forces argmax(f) == y.
    """
    s = as_scores(f)
    return _absolute_margin(s, _check_label(y, s.size))


def relative_margin(f: ScoresLike, y: int) -> float:
    """Half-gap margin: (f_y - max_{k != y} f_k) / 2.

    Positive exactly when y is the strict argmax of f.  Used for the
    margin-disparity diagnostic surface; the core disagreement machinery
    runs on absolute margins instead.
    """
    s = as_scores(f)
    y0 = _check_label(y, s.size)
    others = np.delete(s, y0)
    return 0.5 * float(s[y0] - others.max())


def _violation_matrix(s: np.ndarray, rho: float) -> np.ndarray:
    mu = np.repeat(-s[:, None], s.size, axis=1)
    np.fill_diagonal(mu, s)
    return _ramp(mu, rho)


def violation_matrix(f: ScoresLike, rho: float) -> np.ndarray:
    """K x K matrix of ramp losses of absolute margins.

    Entry (i, j) is ramp_loss(mu_i(f, j), rho): the violation level of
    margin component i when the label is hypothesized to be j.  Row i is
    ramp(-f_i) off the diagonal and ramp(+f_i) on it.
    """
    s = as_scores(f)
    return _violation_matrix(s, _check_rho(rho))


def _same_k(f1: ScoresLike, f2: ScoresLike) -> tuple[np.ndarray, np.ndarray]:
    s1, s2 = as_scores(f1), as_scores(f2)
    if s1.size != s2.size:
        raise ValueError("score vectors disagree on K: %d vs %d" % (s1.size, s2.size))
    return s1, s2


def mcsd_pointwise(f1: ScoresLike, f2: ScoresLike, rho: float) -> float:
    """Scoring disagreement of two score vectors at one point.

    Entrywise L1 distance of the two violation matrices, scaled by 1/K.
    Symmetric, in [0, K], and zero when the matrices coincide.  Builds both
    K x K matrices, so it stays an independent oracle for ``phi_distance``
    and ``divergence.mcsd_rows``.
    """
    s1, s2 = _same_k(f1, f2)
    rho = _check_rho(rho)
    m1 = _violation_matrix(s1, rho)
    m2 = _violation_matrix(s2, rho)
    return float(np.abs(m1 - m2).sum()) / s1.size


def _decision_component_margin(s1: np.ndarray, s2: np.ndarray) -> float:
    """mu_{h2}(f2, h1): margin of f2's decision component against f1's decision."""
    j1 = int(np.argmax(s1))
    j2 = int(np.argmax(s2))
    return float(s2[j2]) if j1 == j2 else float(-s2[j2])


def mcsd_tilde_pointwise(f1: ScoresLike, f2: ScoresLike, rho: float) -> float:
    """Decision-level disagreement: ramp at width rho/2 of mu_{h2}(f2, h1).

    Treats f1's argmax as the hypothesized label and scores f2's decision
    component against it.  Not symmetric in (f1, f2).
    """
    margin = _decision_component_margin(*_same_k(f1, f2))
    # the half width is checked too: it underflows to 0 for the smallest rho
    return float(_ramp(margin, _check_rho(_check_rho(rho) / 2.0)))


def mcsd_hat_pointwise(f1: ScoresLike, f2: ScoresLike, rho: float) -> float:
    """0/1 saturation of the decision-level disagreement.

    1.0 exactly when the full-width ramp of mu_{h2}(f2, h1) saturates at 1,
    i.e. when that margin is <= 0; otherwise 0.0.
    """
    margin = _decision_component_margin(*_same_k(f1, f2))
    return 1.0 if _ramp(margin, _check_rho(rho)) == 1.0 else 0.0


def phi_distance(a, b, rho: float, k: int):
    """Per-component contribution to the violation-matrix L1 distance.

    phi(a, b) = (K-1)|ramp(-a) - ramp(-b)| + |ramp(a) - ramp(b)|.
    Summing phi over the K component pairs of two score vectors recovers
    the entrywise L1 distance of their violation matrices exactly.
    Vectorized over ``a`` and ``b``.
    """
    k = int(k)
    if k < 2:
        raise ValueError("phi_distance needs K >= 2, got %d" % k)
    rho = _check_rho(rho)
    xa, xb = _finite_ramp_argument(a), _finite_ramp_argument(b)
    off = np.abs(_ramp(np.negative(xa), rho) - _ramp(np.negative(xb), rho))
    diag = np.abs(_ramp(xa, rho) - _ramp(xb, rho))
    out = (k - 1) * off + diag
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def source_margin_loss(f: ScoresLike, y: int, rho: float) -> float:
    """Sum over components of ramp losses of absolute margins under label y.

    Lies in [0, K]; zero exactly when every absolute margin reaches rho.
    Its expectation over a labeled sample is the margin analogue of the
    0-1 training error used throughout the bounds.
    """
    s = as_scores(f)
    mu = _absolute_margin(s, _check_label(y, s.size))
    return float(_ramp(mu, _check_rho(rho)).sum())
