"""Distribution-level disagreement: exact enumeration and estimators.

The divergence between a source and a target sample is the largest gap,
over ordered pairs of scorers drawn from a candidate family, between the
mean pointwise scoring disagreement on the target and on the source.
With the pair (f, f) always admissible the divergence is non-negative; it
satisfies the directed triangle inequality but is not symmetric.

Three routes are provided, each doing its work once:

* ``mcsd_divergence_exact`` / ``divergence_exact_variant`` enumerate every
  ordered pair of a finite ``ScorerGrid`` (the matrix form, the
  decision-level form, and its 0/1 saturation).  Both share one prologue and
  one core, ``_exact``.  The matrix form never builds K x K violation
  matrices: each row of one holds ramp(-f_i) K-1 times off the diagonal and
  ramp(f_i) on it, so ``_signed_ramps`` ramps -f and f with one division
  and no copy of -f, and ``_rows_from_ramps`` takes the L1 distance of two
  matrices in O(K) per point;
* ``mcsd_divergence_adversarial`` runs an L-BFGS ascent (the two-loop
  recursion over the last ``_LBFGS_MEMORY`` curvature pairs, with a
  monotone Armijo line search) over two linear heads on frozen features,
  viewed as one flat vector, maximizing a smoothed version of the objective
  (the exact ramp is kinked at 0 and rho, so the ascent uses a
  piecewise-cubic blend in windows of width rho/100 around the kinks).  Its
  passes run over the stacked source and target rows, the source with
  negated masses, and sum over points per domain: a value pass is two
  centered matmuls and one ``_smoothed_mcsd`` call.  That call starts from
  ``_signed_ramps``, finds both kink windows from |f|, patches them with one
  Hermite call (``_smoothed_signed_ramps``) and reduces the smoothed ramps
  with the exact path's ``_rows_from_ramps``.  The line search compares
  smoothed values only; one record step, at the start and at each accepted
  step, computes gradients and the exact objective.  The reported value is
  the exact-ramp objective of the best visited head pair, hence a lower
  bound on the enumerated supremum;
* ``rademacher_estimate`` Monte-Carlos the empirical Rademacher complexity
  of the per-component projections of the grid, summing over fixed slices
  of the points so that the result does not depend on the BLAS thread count.

``pac_bound_report`` assembles the finite-sample bound: target 0-1 error
against source margin error + divergence + scaled complexities + slack
terms + the best achievable joint margin error.  It evaluates the grid once
per sample and hands those scores to the cores behind the public
estimators (``_exact``, ``_rademacher``) and to ``_candidate_errors``, one
pass of every candidate's margin and 0-1 errors.  All expectations accept
explicit point masses so fully enumerated universes can be checked exactly.

Every route computes with ``margin``'s one kernel per object (centering,
ramp and its clamp, per-component disagreement, violation matrix, decision
margin); public functions check ``rho``, their counts, scores, labels and
points once, at entry, with ``margin``'s checkers, and the private cores
(``_margin_violations`` among them) check nothing and take the 0-based
classes that ``margin._check_labels`` returns.  Points have one checker,
``margin._check_points``: a ``SampleSet`` runs it at construction and is
trusted from then on, and every function that takes raw points (the
estimators and ``ScorerGrid.evaluate``) runs it once per sample through
``_as_sample``, then hands the grid the checked sample.  Scores have one
checker, ``margin._check_scores``; the grid checks its candidates' scores
with its core, ``_check_reals``, and centers them with
``margin._center_checked``, which names an overflow.  ``rho`` has one rule,
``margin._check_rho``.  ``violation_tensor`` and the single-vector
``margin`` functions stay as reference oracles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .margin import _absolute_margin, _batch_pair, _center, _center_checked, _check_count
from .margin import _check_labels, _check_points, _check_real, _check_reals, _check_rho
from .margin import _check_scores, _check_weights, _component_disagreement, _decision_level
from .margin import _decision_margin, _integer_labels, _ramp, _ramp_clamp, _violation_matrix

__all__ = [
    "SampleSet",
    "ScorerGrid",
    "linear_scorer",
    "violation_tensor",
    "mcsd_rows",
    "ExactDivergence",
    "mcsd_divergence_exact",
    "divergence_exact_variant",
    "AdversarialDivergence",
    "mcsd_divergence_adversarial",
    "RademacherEstimate",
    "rademacher_estimate",
    "margin_error",
    "zero_one_error",
    "PacBoundReport",
    "pac_bound_report",
    "BoundViolation",
]

class BoundViolation(RuntimeError):
    """A proven inequality failed numerically; indicates an implementation bug."""


@dataclass(frozen=True)
class SampleSet:
    """Points with optional 1-based labels; the points pass
    ``margin._check_points`` once, here, and are trusted afterwards."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = _check_points(self.points, "points")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = _integer_labels(self.labels)
            if lab.size != pts.shape[0]:
                raise ValueError("got %d labels for %d points" % (lab.size, pts.shape[0]))
            if np.any(lab < 1):
                raise ValueError("labels are 1-based; found %d" % lab.min())
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]


class _CheckedPoints(SampleSet):
    """Unlabelled points that ``_check_points`` has passed: built unchecked."""

    def __post_init__(self) -> None:
        pass


def _as_sample(sample, name: str) -> SampleSet:
    """``sample`` itself if a SampleSet, whose points are checked already;
    raw points checked once, as the argument ``name``."""
    if isinstance(sample, SampleSet):
        return sample
    return _CheckedPoints(_check_points(sample, name))


def _check_widths(src: SampleSet, tgt: SampleSet) -> int:
    """The feature count d that the checked ``src`` and ``tgt`` share."""
    d = src.points.shape[1]
    if tgt.points.shape[1] != d:
        raise ValueError("tgt has %d features per point, src has %d" % (tgt.points.shape[1], d))
    return d


def _as_weights(weights, n: int) -> np.ndarray:
    """Coerce point masses; defaults to the uniform empirical distribution."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = _check_weights(weights, n, "weights")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a probability vector")
    return w


def linear_scorer(w: np.ndarray, b: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Centered linear scorer x -> center(w x + b), from K >= 2 finite
    biases b and finite weights w [K, d], checked here."""
    b = _check_scores(b, "b", 1)
    w = _check_reals(w, "w", "a [K, d] array")
    if w.ndim != 2 or w.shape[0] != b.size or w.shape[1] < 1:
        raise ValueError(
            "w must be a [%d, d >= 1] array, one row per bias, got shape %r" % (b.size, w.shape)
        )

    def score(points: np.ndarray) -> np.ndarray:
        # coerced as a sample is but not checked: a grid has checked them
        pts = np.asarray(points, dtype=np.float64)
        pts = pts[:, None] if pts.ndim == 1 else pts
        if pts.shape[-1] != w.shape[-1]:
            raise ValueError(
                "points have %d features, the scorer's weights take %d"
                % (pts.shape[-1], w.shape[-1])
            )
        return _center(pts @ w.T + b)

    return score


class ScorerGrid:
    """Finite family of scorer callables sharing one class count K.

    Each scorer maps a batch of points [n, d] to scores [n, K]; rows are
    re-centered on evaluation so downstream margin kernels see sum-to-zero
    vectors regardless of how a candidate was built.
    """

    def __init__(self, scorers: Sequence[Callable[[np.ndarray], np.ndarray]], k: int) -> None:
        if len(scorers) == 0:
            raise ValueError("a scorer grid needs at least one candidate")
        self.scorers = list(scorers)
        self.k = _check_count(k, "K", 2)

    def __len__(self) -> int:
        return len(self.scorers)

    def evaluate(self, points) -> np.ndarray:
        """Evaluate all candidates on raw points or a SampleSet: array
        [n_candidates, n_points, K]."""
        pts = _as_sample(points, "points").points
        out = np.empty((len(self.scorers), pts.shape[0], self.k))
        for i, scorer in enumerate(self.scorers):
            s = _check_reals(scorer(pts), "candidate %d's scores" % i)
            if s.shape != (pts.shape[0], self.k):
                raise ValueError(
                    "candidate %d returned shape %r, expected %r"
                    % (i, s.shape, (pts.shape[0], self.k))
                )
            out[i] = _center_checked(s, "centered candidate %d's scores" % i)
        return out


def violation_tensor(scores, rho: float) -> np.ndarray:
    """Stacked violation matrices for centered scores of shape [..., K].

    Returns [..., K, K] with entry (i, j) = ramp(mu_i(f, j), rho); agrees
    entrywise with the single-vector ``margin.violation_matrix``.  Reference
    oracle; production paths use ``mcsd_rows``.
    """
    rho = _check_rho(rho)
    return _violation_matrix(_check_scores(scores, "scores", None), rho)


def _signed_ramps(s: np.ndarray, rho) -> np.ndarray:
    """[2, ..., K]: ramp(-s), the K-1 off-diagonal entries of each violation
    row, stacked over ramp(s), its diagonal entry, for ``s`` of at least one
    axis.  One division serves both: in IEEE arithmetic (-s)/rho = -(s/rho)
    and 1 - (-q) = 1 + q, so each half is ``_ramp`` of -s or s bit for bit."""
    q = s / rho
    u = np.empty((2,) + q.shape)
    np.add(1.0, q, out=u[0])
    np.subtract(1.0, q, out=u[1])
    return _ramp_clamp(u, out=u)


def _rows_from_ramps(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Per-point violation-matrix L1 distance over K, from ``_signed_ramps``."""
    d = ra - rb
    k = d.shape[-1]
    return _component_disagreement(d[0], d[1], k).sum(axis=-1) / k


def mcsd_rows(a, b, rho: float) -> np.ndarray:
    """Pointwise scoring disagreement of two centered score batches of one
    shape [..., K]; returns [...].

    Equals ``|violation_tensor(a) - violation_tensor(b)|`` summed over the
    last two axes and divided by K, in O(K) per point: row i of a violation
    matrix holds ramp(-f_i) K-1 times and ramp(f_i) once.
    """
    rho = _check_rho(rho)
    return _mcsd_rows(np.stack(_batch_pair(a, b, "a", "b", None)), rho)


def _mcsd_rows(ab: np.ndarray, rho) -> np.ndarray:
    """``mcsd_rows`` of a stacked pair ab [2, ..., K] of finite centered
    scores, at a checked ``rho`` broadcastable against [..., K]."""
    r = _signed_ramps(ab, rho)
    return _rows_from_ramps(r[:, 0], r[:, 1])


@dataclass(frozen=True)
class ExactDivergence:
    """Result of enumerating every ordered candidate pair."""

    value: float
    pair: tuple[int, int]  # indices of (f', f'') attaining the supremum
    objective: np.ndarray  # [c, c] target mean minus source mean
    mean_src: np.ndarray
    mean_tgt: np.ndarray


def _pairwise_mcsd_means(scores: np.ndarray, weights: np.ndarray, rho: float) -> np.ndarray:
    """Weighted mean disagreement for every ordered pair; [c, c] symmetric.

    Ramps every candidate once and fills the upper triangle, mirrored below;
    the diagonal is exactly zero.  Each pair's rows are weighted as one
    1-D dot, as in the ascent's exact objective and ``margin_error``, so a
    pair scores the same here as alone: a matrix-vector product rounds
    differently, a stack of row-vector products does not.
    """
    r = _signed_ramps(scores, rho)  # [2, c, n, K]
    c = scores.shape[0]
    out = np.zeros((c, c))
    for i in range(c - 1):
        rows = _rows_from_ramps(r[:, i, None], r[:, i + 1 :])  # [c-i-1, n]
        out[i, i + 1 :] = out[i + 1 :, i] = (rows[:, None, :] @ weights[:, None])[:, 0, 0]
    return out


def _pairwise_variant_means(
    scores: np.ndarray, weights: np.ndarray, rho: float, variant: str
) -> np.ndarray:
    """Weighted mean decision-level disagreement for every ordered pair (i, j).

    Pair (i, j) plays (f', f''): the margin of f_j's decision component is
    signed by agreement with f_i's decision, then passed through the ramp at
    rho/2 (``tilde``) or the saturation indicator of a margin <= 0 (``hat``).
    """
    margins = _decision_margin(scores[:, None], scores[None, :])  # [i, j, n]
    return _decision_level(margins, rho, variant) @ weights


def _exact(ss: np.ndarray, st: np.ndarray, ws, wt, rho: float, variant: str) -> ExactDivergence:
    """The exact divergence from the grid's evaluated scores [c, n, K] on each
    side and checked masses and ``rho``: the matrix form ('mcsd') or a
    decision-level form ('tilde', 'hat')."""
    mean_src, mean_tgt = (
        _pairwise_mcsd_means(s, w, rho)
        if variant == "mcsd"
        else _pairwise_variant_means(s, w, rho, variant)
        for s, w in ((ss, ws), (st, wt))
    )
    objective = mean_tgt - mean_src
    pair = divmod(int(np.argmax(objective)), objective.shape[1])
    return ExactDivergence(float(objective[pair]), pair, objective, mean_src, mean_tgt)


def _exact_divergence(src, tgt, grid, rho, variant, src_weights, tgt_weights) -> ExactDivergence:
    """The exact routes' shared prologue: check ``rho`` and the masses, then
    evaluate the grid once per sample."""
    rho = _check_rho(rho)
    src, tgt = _as_sample(src, "src"), _as_sample(tgt, "tgt")
    _check_widths(src, tgt)
    ws, wt = _as_weights(src_weights, src.n), _as_weights(tgt_weights, tgt.n)
    return _exact(grid.evaluate(src), grid.evaluate(tgt), ws, wt, rho, variant)


def mcsd_divergence_exact(
    src, tgt, grid: ScorerGrid, rho: float, src_weights=None, tgt_weights=None
) -> ExactDivergence:
    """Exact divergence over a finite grid: sup over ordered pairs of
    (target mean disagreement - source mean disagreement).

    Non-negative because identical pairs contribute exactly zero.
    """
    return _exact_divergence(src, tgt, grid, rho, "mcsd", src_weights, tgt_weights)


def divergence_exact_variant(
    src,
    tgt,
    grid: ScorerGrid,
    rho: float,
    variant: str = "tilde",
    src_weights=None,
    tgt_weights=None,
) -> ExactDivergence:
    """Exact decision-level divergence ('tilde') or its saturation ('hat')."""
    if variant not in ("tilde", "hat"):
        raise ValueError("variant must be 'tilde' or 'hat', got %r" % (variant,))
    return _exact_divergence(src, tgt, grid, rho, variant, src_weights, tgt_weights)


# ---------------------------------------------------------------------------
# Smoothed ramp and the adversarial (L-BFGS ascent) estimator.
# ---------------------------------------------------------------------------

_WINDOW_FRACTION = 100.0  # window width = rho / 100, centered on each kink
_LBFGS_MEMORY = 10  # curvature pairs the ascent keeps


def _hermite_nodes(rho: float):
    """Half-width and the Hermite nodes (a, b, value and slope at a, value
    and slope at b) of the two kink windows, at 0 and at rho."""
    h = rho / (2.0 * _WINDOW_FRACTION)
    return h, (
        (-h, h, 1.0, 0.0, 1.0 - h / rho, -1.0 / rho),
        (rho - h, rho + h, h / rho, -1.0 / rho, 0.0, 0.0),
    )


def _hermite_value(x, a, b, va, sa, vb, sb):
    """Cubic Hermite interpolant on [a, b]."""
    h = b - a
    t = (x - a) / h
    t2, t3 = t * t, t * t * t
    return (
        (2 * t3 - 3 * t2 + 1) * va
        + (t3 - 2 * t2 + t) * h * sa
        + (-2 * t3 + 3 * t2) * vb
        + (t3 - t2) * h * sb
    )


def _hermite_slope(x, a, b, va, sa, vb, sb):
    """Derivative of ``_hermite_value``."""
    h = b - a
    t = (x - a) / h
    t2 = t * t
    return (
        (6 * t2 - 6 * t) * va
        + (3 * t2 - 4 * t + 1) * h * sa
        + (-6 * t2 + 6 * t) * vb
        + (3 * t2 - 2 * t) * h * sb
    ) / h


def _smoothed_signed_ramps(s: np.ndarray, rho: float):
    """C1 blend of ``_signed_ramps`` of finite ``s`` (at least one axis) at a
    checked scalar ``rho``: exact outside the kink windows, cubic inside.
    Returns the ramps and a closure that returns their slopes in the ramps'
    arguments -s and s.

    Both windows are found from |s| once.  The zero window |s| < h holds on
    both sides; in the rho window ||s| - rho| < h only the side whose
    argument is +|s| lies.  One Hermite call, with per-entry nodes, patches
    every window entry, and the slopes replay the same entries.
    """
    r = _signed_ramps(s, rho)
    h, nodes = _hermite_nodes(rho)
    flat = s.reshape(-1)
    mag = np.abs(flat)
    zero = np.flatnonzero(mag < h)
    kink = np.flatnonzero(np.abs(mag - rho) < h)
    idx = np.concatenate([zero, zero + flat.size, kink + flat.size * (flat[kink] > 0.0)])
    x = np.concatenate([-flat[zero], flat[zero], mag[kink]])
    node = np.repeat(nodes, [2 * zero.size, kink.size], axis=0).T
    np.put(r, idx, _hermite_value(x, *node))

    def slopes() -> np.ndarray:
        # outside the windows a ramp is linear exactly where 0 < r < 1; the
        # product with the mask, plus 0.0, is -1/rho there and +0.0 elsewhere
        der = ((r > 0.0) & (r < 1.0)) * (-1.0 / rho) + 0.0
        np.put(der, idx, _hermite_slope(x, *node))
        return der

    return r, slopes


def _smoothed_mcsd(a: np.ndarray, b: np.ndarray, rho: float):
    """Per-point smoothed disagreement of centered score batches, and a
    closure that returns its gradients in a and in b.

    The smoothed ramps come in ``_signed_ramps``' order and are reduced by
    ``_rows_from_ramps``, so outside the kink windows the rows are the exact
    ``_mcsd_rows``.  The absolute values take subgradient 0 at ties.
    """
    r, slopes = _smoothed_signed_ramps(np.stack([a, b]), rho)

    def grads() -> tuple[np.ndarray, np.ndarray]:
        k = a.shape[-1]
        (gna, gnb), (gpa, gpb) = slopes()
        sn, sp = np.sign(r[:, 0] - r[:, 1])
        return ((k - 1) * sn * (-gna) + sp * gpa) / k, ((k - 1) * sn * gnb + sp * (-gpb)) / k

    return _rows_from_ramps(r[:, 0], r[:, 1]), grads


def _two_loop(g: np.ndarray, memory) -> np.ndarray:
    """The L-BFGS ascent direction H g: the two-loop recursion over the
    curvature pairs (s, y, s.y) in ``memory``, oldest first, each with
    s.y > 0, from the initial scaling (s.y)/(y.y) of the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(memory):
        alphas.append(float(s @ q) / sy)
        q -= alphas[-1] * y
    _, y, sy = memory[-1]
    q *= sy / float(y @ y)
    for (s, y, sy), a in zip(memory, reversed(alphas)):
        q += (a - float(y @ q) / sy) * s
    return q


@dataclass
class AdversarialDivergence:
    """Outcome of the L-BFGS ascent's lower bound; ``best_heads``,
    ``final_heads`` and ``visited`` may share arrays."""

    value: float  # exact-ramp objective of the best visited head pair
    best_heads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    final_heads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    trajectory: list[float] = field(default_factory=list)  # smoothed objective
    visited: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=list
    )
    converged: bool = True
    warning: str | None = None


def mcsd_divergence_adversarial(
    src,
    tgt,
    k: int,
    rho: float,
    steps: int = 300,
    step_size: float = 0.5,
    seed: int = 0,
    init: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
    src_weights=None,
    tgt_weights=None,
) -> AdversarialDivergence:
    """L-BFGS ascent over two linear heads on frozen features.

    Maximizes the smoothed target-minus-source disagreement over the four
    heads as one flat vector of 2(Kd + K) entries.  Each step searches along
    a direction p: the two-loop L-BFGS direction over the last
    ``_LBFGS_MEMORY`` curvature pairs (s, y = g_old - g_new), each kept only
    when s.y > 0, or ``step_size`` * g at the start and after a memory reset.
    The line search takes the first t = 0.5**i, i < 40, whose smoothed value
    is at least the current one plus 1e-4 t (g.p); when an L-BFGS direction
    fails every trial the memory is dropped and the search retried once
    along ``step_size`` * g.  So ``step_size`` scales the steepest trial, and
    ``steps`` is the budget of accepted steps.  The ascent stops at a
    gradient norm below 1e-12, when no trial is taken, or after ``steps``
    steps; it sets ``converged=False`` and a ``warning`` instead of raising
    when no trial is taken at the start point, or when the budget runs out at
    a gradient norm above 1e-6.  The ``trajectory`` of smoothed values never
    falls.  The returned ``value`` is the exact-ramp objective of the best
    visited pair and therefore never exceeds the supremum over any family
    containing the visited pairs.  ``steps`` must be a non-negative integer
    and ``step_size`` a positive finite real; both are checked before any
    pass.

    Each trial runs the value pass (score matmuls, centering, smoothed ramps,
    weighted objective) over the stacked rows of both domains.  One record
    step, at the start point and at each taken trial, runs the gradient pass
    and the exact-ramp objective from the centered scores and ramp
    intermediates the value pass kept.
    """
    k = _check_count(k, "K", 2)
    steps = _check_count(steps, "steps", 0)
    step_size = _check_real(step_size, "step_size", 0.0, open_low=True)
    rho = _check_rho(rho)
    src, tgt = _as_sample(src, "src"), _as_sample(tgt, "tgt")
    d = _check_widths(src, tgt)
    src_pts, tgt_pts = src.points, tgt.points
    ws = _as_weights(src_weights, src_pts.shape[0])
    wt = _as_weights(tgt_weights, tgt_pts.shape[0])
    if init is None:
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(d)
        heads = (
            rng.uniform(-bound, bound, size=(k, d)),
            np.zeros(k),
            rng.uniform(-bound, bound, size=(k, d)),
            np.zeros(k),
        )
    else:
        heads = tuple(np.array(h, dtype=np.float64) for h in init)
        shapes = [h.shape for h in heads]
        if shapes != [(k, d), (k,)] * 2 or not all(np.isfinite(h).all() for h in heads):
            raise ValueError(
                "init must be four finite arrays shaped (K, d), (K,), (K, d), (K,) "
                "at K = %d, d = %d" % (k, d)
            )

    # both domains' rows in one stack; the source side enters the objective,
    # and so its gradients, negated.  Sums over points run per domain, so each
    # rounds as it would over that domain alone.
    n_s = src_pts.shape[0]
    pts = np.concatenate([src_pts, tgt_pts])
    w = np.concatenate([-ws, wt])
    domains = (slice(None, n_s), slice(n_s, None))

    def weighted(rows):
        return sum((float(rows[dom] @ w[dom]) for dom in domains), 0.0)

    def value_pass(hs):
        w1, b1, w2, b2 = hs
        a, b = _center(pts @ w1.T + b1), _center(pts @ w2.T + b2)
        rows, grads = _smoothed_mcsd(a, b, rho)
        return weighted(rows), (a, b, grads)

    def gradient_pass(kept):
        # chain through centering, then the linear map
        da, db = (_center(g) * w[:, None] for g in kept[2]())
        terms = [
            [da[dom].T @ pts[dom], da[dom].sum(axis=0), db[dom].T @ pts[dom], db[dom].sum(axis=0)]
            for dom in domains
        ]
        return [s + t for s, t in zip(*terms)]

    def exact_objective(kept):
        # the value pass centers ``x @ w.T + b`` as ``linear_scorer`` does; the
        # finiteness check and the second centering are ``ScorerGrid.evaluate``'s,
        # so every point scores bit-identically to the same pair inside a grid
        ab = np.stack(kept[:2])
        if not np.isfinite(ab).all():
            raise ValueError("ascent head pair produced non-finite scores")
        return weighted(_mcsd_rows(_center(ab), rho))

    trajectory, visited, best = [], [], None

    def visit(hs, value, kept):
        # record a pair the ascent stands on; heads are never written in
        # place, so the records share arrays instead of copying them
        nonlocal best
        grads = gradient_pass(kept)
        exact = exact_objective(kept)
        if not visited or exact > best[0]:
            best = exact, hs
        trajectory.append(value)
        visited.append(hs)
        return grads

    # the four heads are views into one flat vector x of 2(Kd + K) entries;
    # each step makes a new x, so a visited pair's views stay as recorded
    cuts = np.cumsum([k * d, k, k * d])

    def views(x):
        w1, b1, w2, b2 = np.split(x, cuts)
        return w1.reshape(k, d), b1, w2.reshape(k, d), b2

    def record(x, value, kept):
        # visit x; its gradient as one flat vector
        return np.concatenate([g.reshape(-1) for g in visit(views(x), value, kept)])

    def line_search(p):
        # monotone Armijo backtracking along the ascent direction p; a p with
        # g.p <= 0, which only rounding can give, fails, or the test would
        # take a fall
        slope = float(g @ p)
        if slope > 0.0:
            for i in range(40):
                t = 0.5**i
                trial = x + t * p
                value, kept = value_pass(views(trial))
                if value >= trajectory[-1] + 1e-4 * t * slope:
                    return trial, value, kept
        return None

    x = np.concatenate([h.reshape(-1) for h in heads])
    g = record(x, *value_pass(views(x)))
    memory = deque(maxlen=_LBFGS_MEMORY)
    warning = None
    # iteration ``step`` starts after ``step`` accepted steps; the last one
    # only reads the gradient norm
    for step in range(steps + 1):
        gnorm = float(np.sqrt(g @ g))
        if gnorm < 1e-12 or step == steps:
            if gnorm > 1e-6:
                warning = "ascent still improving after %d steps" % steps
            break
        taken = line_search(_two_loop(g, memory)) if memory else None
        if taken is None:
            memory.clear()
            taken = line_search(step_size * g)
        if taken is None:
            if step == 0:
                warning = "line search could not improve the smoothed objective"
            break
        g_new = record(*taken)
        s, y = taken[0] - x, g - g_new
        sy = float(s @ y)
        if sy > 0.0:
            memory.append((s, y, sy))
        x, g = taken[0], g_new
    return AdversarialDivergence(*best, visited[-1], trajectory, visited, warning is None, warning)


# ---------------------------------------------------------------------------
# Rademacher complexity and the finite-sample bound report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    stderr: float
    n_draws: int


def rademacher_estimate(
    sample, grid: ScorerGrid, sigma_draws: int = 2000, seed: int = 0
) -> RademacherEstimate:
    """Monte Carlo empirical Rademacher complexity of per-component projections.

    The function class is every coordinate map x -> f_k(x) for candidates f
    in the grid; each sign draw contributes sup over that class of the
    signed sum, and the estimate is the mean over draws divided by the
    sample size.
    """
    return _rademacher(grid.evaluate(_as_sample(sample, "sample")), sigma_draws, seed)


def _rademacher(evals: np.ndarray, sigma_draws: int, seed: int) -> RademacherEstimate:
    """``rademacher_estimate`` from the grid's evaluated scores [c, m, K]."""
    sigma_draws = _check_count(sigma_draws, "sigma_draws", 2)
    c, m, k = evals.shape
    g = np.moveaxis(evals, 2, 1).reshape(c * k, m)  # component rows
    rng = np.random.default_rng(seed)
    sigma = rng.choice((-1.0, 1.0), size=(sigma_draws, m))
    # summed over fixed 128-point slices: one gemm over all m points rounds
    # differently at one and at two BLAS threads
    sums = sum(sigma[:, i : i + 128] @ g[:, i : i + 128].T for i in range(0, m, 128))
    sups = sums.max(axis=1)  # [draws]
    value = float(sups.mean()) / m
    stderr = float(sups.std(ddof=1)) / (np.sqrt(sigma_draws) * m)
    return RademacherEstimate(value=value, stderr=stderr, n_draws=sigma_draws)


def _margin_violations(scores: np.ndarray, y: np.ndarray, rho) -> np.ndarray:
    """Per-point sum of ramped absolute margins: scores [..., n, K] -> [..., n].

    The absolute margin of component k is +f_k at the class and -f_k
    elsewhere; ``margin.source_margin_loss`` is the single-point oracle.
    Like every kernel it checks nothing: the callers hold finite float
    scores, a checked ``rho`` and 0-based classes ``y`` [n] from
    ``_check_labels``.
    """
    return _ramp(_absolute_margin(scores, y), rho).sum(axis=-1)


def margin_error(scores: np.ndarray, labels, rho: float, weights=None) -> float:
    """Expected sum of ramped absolute-margin violations under point masses."""
    rho = _check_rho(rho)
    s = _check_scores(scores, "scores")
    per_point = _margin_violations(s, _check_labels(labels, *s.shape), rho)
    return float(per_point @ _as_weights(weights, per_point.shape[0]))


def zero_one_error(scores: np.ndarray, labels, weights=None) -> float:
    """Expected argmax misclassification under point masses (ties: lowest index)."""
    s = _check_scores(scores, "scores")
    y = _check_labels(labels, *s.shape)
    wrong = (np.argmax(s, axis=1) != y).astype(np.float64)
    return float(wrong @ _as_weights(weights, s.shape[0]))


def _candidate_errors(scores: np.ndarray, labels, rho: float, weights: np.ndarray):
    """Margin errors and 0-1 errors [c] of every candidate of the evaluated
    scores [c, n, K] under checked point masses.

    One 1-D dot per candidate, so each rounds like ``margin_error`` and
    ``zero_one_error``: a batched matrix-vector product would not.
    """
    y = _check_labels(labels, *scores.shape[-2:])
    wrong = (np.argmax(scores, axis=-1) != y).astype(np.float64)
    return tuple(
        np.array([p @ weights for p in per_point])
        for per_point in (_margin_violations(scores, y, rho), wrong)
    )


@dataclass
class PacBoundReport:
    """Every term of the finite-sample bound for one selected candidate.

    ``holds`` / ``holds_for_all`` record the bound check for the selected
    candidate and for every candidate in the grid; the slack terms make the
    right side loose at desk scale, so a violation means a bug, not a
    statistical fluke.
    """

    rho: float
    delta: float
    k: int
    n_src: int
    n_tgt: int
    selected: int
    src_margin_err: float
    divergence: float
    rademacher_src: float
    rademacher_tgt: float
    rademacher_src_stderr: float
    rademacher_tgt_stderr: float
    rad_src_multiplier: float
    rad_tgt_multiplier: float
    slack_src: float
    slack_tgt: float
    lambda_joint: float
    lhs_target_err: float
    rhs_total: float
    holds: bool
    holds_for_all: bool
    per_candidate: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        fields = {"lambda" if k == "lambda_joint" else k: v for k, v in asdict(self).items()}
        return {"schema_version": 1, **fields}


def pac_bound_report(
    src: SampleSet,
    tgt: SampleSet,
    grid: ScorerGrid,
    rho: float,
    delta: float = 0.05,
    sigma_draws: int = 2000,
    seed: int = 0,
) -> PacBoundReport:
    """Assemble the finite-sample bound on a fully observed pair of samples.

    Both samples must carry labels (target labels are evaluation-only data).
    The candidate whose empirical source margin error is smallest is
    selected for the headline numbers; the bound is additionally checked for
    every candidate.  Raises BoundViolation if any candidate's target error
    exceeds the assembled right-hand side.
    """
    for name, sample in (("src", src), ("tgt", tgt)):
        if not isinstance(sample, SampleSet) or sample.labels is None:
            raise ValueError("bound report needs %s as a labelled SampleSet" % name)
    delta = _check_real(delta, "delta", 0.0, 1.0, open_low=True, open_high=True)
    rho = _check_rho(rho)
    k = grid.k
    n_s, n_t = src.n, tgt.n
    scores_src = grid.evaluate(src)
    scores_tgt = grid.evaluate(tgt)

    w_s, w_t = _as_weights(None, n_s), _as_weights(None, n_t)
    src_errs, _ = _candidate_errors(scores_src, src.labels, rho, w_s)
    tgt_errs, lhs = _candidate_errors(scores_tgt, tgt.labels, rho, w_t)

    div = _exact(scores_src, scores_tgt, w_s, w_t, rho, "mcsd")
    rad_s = _rademacher(scores_src, sigma_draws, seed)
    rad_t = _rademacher(scores_tgt, sigma_draws, seed + 1)

    rad_src_mult = 2.0 * k * k / rho + 4.0 * k / rho
    rad_tgt_mult = 4.0 * k / rho
    slack_src = 6.0 * k * np.sqrt(np.log(4.0 / delta) / (2.0 * n_s))
    slack_tgt = 3.0 * k * np.sqrt(np.log(4.0 / delta) / (2.0 * n_t))
    lam = float(np.min(src_errs + tgt_errs))

    shared_rhs = (
        div.value
        + rad_src_mult * rad_s.value
        + rad_tgt_mult * rad_t.value
        + slack_src
        + slack_tgt
        + lam
    )
    rhs_all = src_errs + shared_rhs
    selected = int(np.argmin(src_errs))
    per_candidate = [
        {
            "candidate": i,
            "src_margin_err": float(src_errs[i]),
            "lhs_target_err": float(lhs[i]),
            "rhs_total": float(rhs_all[i]),
            "holds": bool(lhs[i] <= rhs_all[i]),
        }
        for i in range(len(grid))
    ]
    holds_for_all = all(c["holds"] for c in per_candidate)
    report = PacBoundReport(
        rho=float(rho),
        delta=float(delta),
        k=k,
        n_src=n_s,
        n_tgt=n_t,
        selected=selected,
        src_margin_err=float(src_errs[selected]),
        divergence=div.value,
        rademacher_src=rad_s.value,
        rademacher_tgt=rad_t.value,
        rademacher_src_stderr=rad_s.stderr,
        rademacher_tgt_stderr=rad_t.stderr,
        rad_src_multiplier=float(rad_src_mult),
        rad_tgt_multiplier=float(rad_tgt_mult),
        slack_src=float(slack_src),
        slack_tgt=float(slack_tgt),
        lambda_joint=lam,
        lhs_target_err=float(lhs[selected]),
        rhs_total=float(rhs_all[selected]),
        holds=bool(lhs[selected] <= rhs_all[selected]),
        holds_for_all=holds_for_all,
        per_candidate=per_candidate,
    )
    if not holds_for_all:
        raise BoundViolation(
            "finite-sample bound violated for candidates %s"
            % [c["candidate"] for c in per_candidate if not c["holds"]]
        )
    return report
