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

* labels are 1-based where data enter or leave (samples, data files,
  ``argmax_label``, reports) and 0-based past ``_check_labels`` (and its
  one-label form ``_check_label``), which returns the classes that the
  kernels and training steps take;
* argmax ties resolve to the lowest index;
* score vectors are projected onto the sum-to-zero hyperplane by
  subtracting the mean at construction time.

This module holds the package's one checker per kind of input, each naming
the parameter it rejects in a ``ValueError``: ``_check_count`` (an integer
of at least some value; an integral float is taken, a fractional one
rejected), ``_check_real`` (a finite real in an interval, each end open or
closed; ``_check_rho`` is its margin-width case), ``_check_weights`` and
``_check_labels``.  The package's rule: each public function validates its
arguments once, at entry (these checkers, ``as_scores``, the finiteness and
K-mismatch checks), and then computes with private kernels that trust them,
so no input is centered or checked twice within one call.  Code that holds
checked data (a training step, a surface, a theory statement) calls the
kernels too, never a public function that would check the data again.  Each
object has one kernel, which ``divergence``, ``neural``, the trainers, the
surface dumps and the theory suite call on batches too: ``_center``,
``_ramp`` with its clamp ``_ramp_clamp`` (which
``divergence._signed_ramps`` shares), ``_absolute_margin``,
``_violation_matrix`` with ``_matrix_disagreement`` (the K x K form of the
pointwise disagreement), ``_component_disagreement`` (K-1)|dn| + |dp| with
``_phi_distance`` (the same from the two score components, the kernel
behind ``phi_distance``), ``_decision_margin`` with ``_decision_level``
(its ramp at rho/2, 'tilde', or its 0/1 saturation, the indicator of a
margin <= 0, 'hat') and ``_relative_margin``.  The kernels broadcast a
per-row ``rho``, which the theory suite uses to test its lemmas on whole
batches of draws.  ``mcsd_pointwise`` and ``source_margin_loss`` stay
independent oracles of the O(K) kernels in ``divergence``.
"""

from __future__ import annotations

import math
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


def _center(z: np.ndarray) -> np.ndarray:
    """Rows of ``z`` (its last axis) projected onto the sum-to-zero hyperplane."""
    return z - (z.sum(axis=-1) / z.shape[-1])[..., None]


def _centered(scores: ScoresLike) -> np.ndarray:
    """Validated, centered, read-only copy of raw scores."""
    arr = np.asarray(scores, dtype=np.float64).reshape(-1)
    if arr.size < 2:
        raise ValueError("score vector needs at least 2 classes, got %d" % arr.size)
    if not np.isfinite(arr).all():
        raise ValueError("scores must be finite")
    arr = _center(arr)
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


def _check_count(value, name: str, least: int) -> int:
    """``value`` as an int of at least ``least``; a non-integral value is
    rejected, not truncated."""
    try:
        ok = int(value) == value and value >= least
    except (TypeError, ValueError, OverflowError):  # NaN, infinities, non-numbers
        ok = False
    if not ok:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, least, value))
    return int(value)


def _check_real(value, name: str, low=-math.inf, high=math.inf, *, open_low=False, open_high=False):
    """``value`` as a finite float between ``low`` and ``high``, each end
    included unless its ``open_*`` flag is set; non-numbers (strings among
    them), NaN and infinities are rejected."""
    try:
        x = math.nan if isinstance(value, (str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    in_range = (x > low if open_low else x >= low) and (x < high if open_high else x <= high)
    if not (math.isfinite(x) and in_range):
        left = "(" if open_low or low == -math.inf else "["
        right = ")" if open_high or high == math.inf else "]"
        raise ValueError(
            "%s must be a finite real in %s%g, %g%s, got %r" % (name, left, low, high, right, value)
        )
    return x


def _check_rho(rho: float) -> float:
    """The margin width: a positive finite real."""
    return _check_real(rho, "rho", 0.0, open_low=True)


def _check_weights(w, n: int, name: str) -> np.ndarray:
    """``w`` as n non-negative finite float weights [n]."""
    a = np.asarray(w, dtype=np.float64).reshape(-1)
    # a NaN weight fails every comparison, so finiteness is checked first
    if a.size != n or not (np.isfinite(a).all() and (a >= 0.0).all()):
        raise ValueError("%s must be %d non-negative finite weights" % (name, n))
    return a


def _integer_labels(labels) -> np.ndarray:
    """Labels as int64 [n]; a non-integral value is rejected, not truncated.
    Integer arrays skip the comparison."""
    a = np.asarray(labels).reshape(-1)
    if a.dtype.kind not in "biu":
        a = a.astype(np.float64)
        if not (np.isfinite(a).all() and (np.trunc(a) == a).all()):
            raise ValueError("labels must be integers")
    return a.astype(np.int64, copy=False)


def _check_labels(labels, n: int, k: int) -> np.ndarray:
    """1-based labels of n score rows, each in {1..k}, as 0-based classes:
    int64 [n] in {0..k-1}."""
    y = _integer_labels(labels)
    if y.size != n:
        raise ValueError("got %d labels for %d score rows" % (y.size, n))
    if np.any(y < 1) or np.any(y > k):
        raise ValueError("labels outside {1..%d}" % k)
    return y - 1


def _check_label(y: int, k: int) -> int:
    """One 1-based label in {1..k} as its 0-based class."""
    return int(_check_labels(y, 1, k)[0])


def _finite_ramp_argument(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("ramp argument must be finite")
    return arr


def _ramp_clamp(u, out=None):
    """The ramp's linear piece ``u = 1 - x/rho`` cut to [0, 1], into ``out``
    when given.  ``u`` is never -0.0, so the two-sided clamp equals ``np.clip``.
    """
    return np.minimum(np.maximum(u, 0.0, out=out), 1.0, out=out)


def _ramp(x, rho: float):
    """Ramp formula for finite ``x`` and a checked ``rho``."""
    return _ramp_clamp(1.0 - x / rho)


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


def _absolute_margin(s: np.ndarray, y0) -> np.ndarray:
    """Absolute margins [..., K] of scores [..., K] under 0-based labels
    broadcastable against [...]: +s_k at the label, -s_k elsewhere."""
    signs = np.where(np.arange(s.shape[-1]) == np.asarray(y0)[..., None], 1.0, -1.0)
    return s * signs


def absolute_margin(f: ScoresLike, y: int) -> np.ndarray:
    """Vector of absolute margins mu_k(f, y) = +f_k if k == y else -f_k.

    All entries >= 0 with at least one > 0 forces argmax(f) == y.
    """
    s = as_scores(f)
    return _absolute_margin(s, _check_label(y, s.size))


def _relative_margin(s: np.ndarray, y0) -> np.ndarray:
    """(s_y - max_{k != y} s_k) / 2 for scores [..., K] and 0-based labels [...]."""
    y0 = np.asarray(y0)[..., None]
    rest = s.copy()
    np.put_along_axis(rest, y0, -np.inf, axis=-1)
    return 0.5 * (np.take_along_axis(s, y0, axis=-1)[..., 0] - rest.max(axis=-1))


def relative_margin(f: ScoresLike, y: int) -> float:
    """Half-gap margin: (f_y - max_{k != y} f_k) / 2.

    Positive exactly when y is the strict argmax of f.  Used for the
    margin-disparity diagnostic surface; the core disagreement machinery
    runs on absolute margins instead.
    """
    s = as_scores(f)
    return float(_relative_margin(s, _check_label(y, s.size)))


def _violation_matrix(s: np.ndarray, rho: float) -> np.ndarray:
    """Stacked violation matrices [..., K, K] of centered scores [..., K]:
    row i holds ramp(-s_i) off the diagonal and ramp(s_i) on it."""
    k = s.shape[-1]
    mu = np.repeat(-s[..., :, None], k, axis=-1)
    idx = np.arange(k)
    mu[..., idx, idx] = s
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
    return float(_matrix_disagreement(s1, s2, _check_rho(rho)))


def _matrix_disagreement(s1: np.ndarray, s2: np.ndarray, rho) -> np.ndarray:
    """Entrywise L1 distance over K of the violation matrices of centered
    score batches [..., K], at a checked ``rho`` broadcastable against
    [..., K, K]; returns [...]."""
    d = np.abs(_violation_matrix(s1, rho) - _violation_matrix(s2, rho))
    return d.sum(axis=(-2, -1)) / s1.shape[-1]


def _decision_margin(dec: np.ndarray, other: np.ndarray) -> np.ndarray:
    """mu_{h2}(f2, h1) for broadcastable score batches [..., K]: ``other``'s
    top score, negated where ``dec``'s argmax decision differs from it."""
    top = other.max(axis=-1)
    agree = dec.argmax(axis=-1) == other.argmax(axis=-1)
    return np.where(agree, top, -top)[()]  # [()]: a scalar for single vectors


def _decision_level(margins: np.ndarray, rho, variant: str) -> np.ndarray:
    """Decision-level disagreement of decision margins at a checked ``rho``
    (broadcastable against them): the ramp at width rho/2 ('tilde') or the
    indicator of a margin <= 0 ('hat'), the 0/1 saturation of any ramp.
    Testing ``ramp(m, rho) == 1`` instead would call a positive margin below
    rho * 2**-53 saturated, since 1 - m/rho rounds to 1 there."""
    if variant == "tilde":
        half = rho / 2.0
        # the half width is checked too: it underflows to 0 for the smallest rho
        if np.any(half == 0.0):
            raise ValueError("margin width rho/2 underflows to 0 for rho = %r" % (rho,))
        return _ramp(margins, half)
    if variant == "hat":
        return (margins <= 0.0).astype(np.float64)
    raise ValueError("variant must be 'tilde' or 'hat', got %r" % variant)


def mcsd_tilde_pointwise(f1: ScoresLike, f2: ScoresLike, rho: float) -> float:
    """Decision-level disagreement: ramp at width rho/2 of mu_{h2}(f2, h1).

    Treats f1's argmax as the hypothesized label and scores f2's decision
    component against it.  Not symmetric in (f1, f2).
    """
    margin = _decision_margin(*_same_k(f1, f2))
    return float(_decision_level(margin, _check_rho(rho), "tilde"))


def mcsd_hat_pointwise(f1: ScoresLike, f2: ScoresLike, rho: float) -> float:
    """0/1 saturation of the decision-level disagreement.

    1.0 exactly when the margin mu_{h2}(f2, h1) is <= 0, where every ramp
    of it saturates at 1; otherwise 0.0.
    """
    margin = _decision_margin(*_same_k(f1, f2))
    return float(_decision_level(margin, _check_rho(rho), "hat"))


def _component_disagreement(dn, dp, k: int):
    """(K-1)|dn| + |dp|: the violation-matrix L1 distance carried by one
    component pair, from the differences of its ramped negated (``dn``) and
    plain (``dp``) scores."""
    return (k - 1) * np.abs(dn) + np.abs(dp)


def phi_distance(a, b, rho: float, k: int):
    """Per-component contribution to the violation-matrix L1 distance.

    phi(a, b) = (K-1)|ramp(-a) - ramp(-b)| + |ramp(a) - ramp(b)|.
    Summing phi over the K component pairs of two score vectors recovers
    the entrywise L1 distance of their violation matrices exactly.
    Vectorized over ``a`` and ``b``.
    """
    k = _check_count(k, "K", 2)
    rho = _check_rho(rho)
    out = _phi_distance(_finite_ramp_argument(a), _finite_ramp_argument(b), rho, k)
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def _phi_distance(a: np.ndarray, b: np.ndarray, rho, k: int) -> np.ndarray:
    """``phi_distance`` of finite float arrays at a checked ``rho`` (broadcastable
    against them) and K >= 2: the per-component disagreement of the ramps of
    -a, -b and a, b."""
    return _component_disagreement(
        _ramp(np.negative(a), rho) - _ramp(np.negative(b), rho), _ramp(a, rho) - _ramp(b, rho), k
    )


def source_margin_loss(f: ScoresLike, y: int, rho: float) -> float:
    """Sum over components of ramp losses of absolute margins under label y.

    Lies in [0, K]; zero exactly when every absolute margin reaches rho.
    Its expectation over a labeled sample is the margin analogue of the
    0-1 training error used throughout the bounds.
    """
    s = as_scores(f)
    mu = _absolute_margin(s, _check_label(y, s.size))
    return float(_ramp(mu, _check_rho(rho)).sum())
