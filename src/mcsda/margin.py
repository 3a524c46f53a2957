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
closed; ``_check_rho``, the one rule for the margin width, is its case of at
least ``np.finfo(float).tiny``), ``_check_weights``, ``_check_labels``,
``_check_reals`` (a finite float64 array, never cast from complex, ragged
or non-numeric input: the ramp arguments' check and the core of the next
two), ``_check_points`` (a non-empty [n, d] sample, which
``divergence.SampleSet`` and every estimator taking raw points share) and
``_check_scores`` (class scores, K >= 2 on the last axis, as one vector,
rows or any leading axes; ``_batch_pair`` checks two of one shape), which
every public function taking scores runs, and ``_center_checked``, the one
place that centers scores a caller supplied: an overflow ends in 'centered
<name> must be finite', not a numpy warning.  The package's rule: each public
function validates its arguments once, at entry (these checkers and the
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
        self.scores = _centered(scores, "scores")

    @property
    def k(self) -> int:
        return self.scores.size

    def __repr__(self) -> str:
        return "ScoreVector(%s)" % np.array2string(self.scores, precision=6)


def _center(z: np.ndarray) -> np.ndarray:
    """Rows of ``z`` (its last axis) projected onto the sum-to-zero hyperplane."""
    return z - (z.sum(axis=-1) / z.shape[-1])[..., None]


def _center_checked(s: np.ndarray, name: str) -> np.ndarray:
    """``_center`` of finite scores that a caller supplied, checked: centering
    can overflow finite scores, and '<name> must be finite' reports it, not
    numpy."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _center(s)
    return _check_reals(out, name)


def _centered(scores: ScoresLike, name: str) -> np.ndarray:
    """The centered score vector behind a ScoreVector, or a validated,
    centered, read-only copy of one raw score vector, the argument ``name``."""
    if isinstance(scores, ScoreVector):
        return scores.scores
    arr = _center_checked(_check_scores(scores, name, 1), "centered " + name)
    arr.flags.writeable = False
    return arr


def as_scores(f: ScoresLike) -> np.ndarray:
    """Return the centered score array behind ``f``.

    Accepts a ScoreVector or any finite array-like; raw arrays pass through
    the same projection and validation as ScoreVector construction.
    """
    return _centered(f, "f")


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
    """The margin width, and its one rule: a finite real of at least the
    smallest normal float, so rho/2 never underflows to 0."""
    return _check_real(rho, "rho", np.finfo(float).tiny)


def _check_weights(w, n: int, name: str) -> np.ndarray:
    """``w`` as n non-negative finite float weights [n]."""
    a = np.asarray(w, dtype=np.float64).reshape(-1)
    # a NaN weight fails every comparison, so finiteness is checked first
    if a.size != n or not (np.isfinite(a).all() and (a >= 0.0).all()):
        raise ValueError("%s must be %d non-negative finite weights" % (name, n))
    return a


def _check_reals(x, name: str, what: str = "an array") -> np.ndarray:
    """``x`` as a finite float64 array, uncopied if it is one: the core of the
    array checkers, which checks ramp arguments by itself.  Complex, ragged
    and non-numeric input is rejected, not cast: '<name> must be <what> of
    reals'."""
    try:  # booleans, integers and reals only: no complex, string or object array
        arr = np.asarray(x)
        arr = arr.astype(np.float64, copy=False) if arr.dtype.kind in "biuf" else None
    except ValueError:  # ragged
        arr = None
    if arr is None:
        raise ValueError("%s must be %s of reals" % (name, what))
    if not np.isfinite(arr).all():
        raise ValueError("%s must be finite" % name)
    return arr


def _check_points(points, name: str, d: int | None = None) -> np.ndarray:
    """``points`` as finite float64 [n, d] with n, d >= 1 (exactly ``d``
    features when given); a 1-D array is n points of one feature, [n, 1].
    Float64 arrays are returned uncopied."""
    what = "a non-empty [n, %s] array" % (d or "d")
    pts = _check_reals(points, name, what)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or 0 in pts.shape or d not in (None, pts.shape[1]):
        raise ValueError("%s must be %s of reals" % (name, what))
    return pts


def _check_scores(scores, name: str, rank: int | None = 2) -> np.ndarray:
    """``scores`` as finite float64 class scores: K >= 2 classes on the last
    axis and no empty axis.  ``rank`` 1 asks for one vector [K]; 2 for rows
    [n, K], a 1-D array being one row (a [1, K] view); None for any leading
    axes [..., K].  Float64 arrays are returned uncopied."""
    what = "a non-empty %s array" % {1: "[K >= 2]", 2: "[n, K >= 2]", None: "[..., K >= 2]"}[rank]
    s = _check_reals(scores, name, what)
    if rank == 2 and s.ndim == 1:
        s = s[None, :]
    if s.ndim == 0 or rank not in (None, s.ndim) or 0 in s.shape or s.shape[-1] < 2:
        raise ValueError("%s must be %s of reals" % (name, what))
    return s


def _batch_pair(a, b, name_a: str, name_b: str, rank: int | None = 2):
    """Two score arrays of one shape, each checked by ``_check_scores`` at
    ``rank`` as its argument name."""
    a, b = _check_scores(a, name_a, rank), _check_scores(b, name_b, rank)
    if a.shape != b.shape:
        raise ValueError(
            "%s and %s must have one shape, got %r and %r" % (name_a, name_b, a.shape, b.shape)
        )
    return a, b


def _integer_labels(labels, name: str = "labels") -> np.ndarray:
    """Labels (or class ids, the argument ``name``) as int64 [n]; a
    non-integral value, or one that int64 cannot hold (|a| >= 2**63), is
    rejected, not truncated or wrapped.  Integer arrays skip the comparison."""
    a = np.asarray(labels).reshape(-1)
    if a.dtype.kind not in "biu":
        try:
            a = a.astype(np.float64)
        except (TypeError, ValueError):  # text that is not a number, None
            raise ValueError("%s must be integers" % name) from None
        # NaN and the infinities fail the bound too
        if not ((np.abs(a) < 2.0**63).all() and (np.trunc(a) == a).all()):
            raise ValueError("%s must be integers" % name)
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
    arr = _check_reals(x, "x")
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
    s1, s2 = _centered(f1, "f1"), _centered(f2, "f2")
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
        return _ramp(margins, rho / 2.0)
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
    out = _phi_distance(_check_reals(a, "a"), _check_reals(b, "b"), rho, k)
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
