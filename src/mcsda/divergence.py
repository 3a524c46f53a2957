"""Distribution-level disagreement: exact enumeration and estimators.

The divergence between a source and a target sample is the largest gap,
over ordered pairs of scorers drawn from a candidate family, between the
mean pointwise scoring disagreement on the target and on the source.
With the pair (f, f) always admissible the divergence is non-negative; it
satisfies the directed triangle inequality but is not symmetric.

Three routes are provided:

* ``mcsd_divergence_exact`` / ``divergence_exact_variant`` enumerate every
  ordered pair of a finite ``ScorerGrid`` (the matrix form, the
  decision-level form, and its 0/1 saturation).  The matrix form never
  builds K x K violation matrices: each row of one holds ramp(-f_i) K-1
  times off the diagonal and ramp(f_i) on it, so ``mcsd_rows`` takes the L1
  distance of two matrices in O(K) per point (``violation_tensor`` is kept
  as the reference oracle);
* ``mcsd_divergence_adversarial`` runs monotone backtracking gradient
  ascent over two linear heads on frozen features, maximizing a smoothed
  version of the objective (the exact ramp is kinked at 0 and rho, so the
  ascent uses a piecewise-cubic blend in windows of width rho/100 around
  the kinks).  Its backtracking line search compares smoothed values only;
  gradients and the exact objective are computed once per accepted step.
  The reported value is always the exact-ramp objective of the best visited
  head pair, hence a lower bound on the enumerated supremum;
* ``rademacher_estimate`` Monte-Carlos the empirical Rademacher complexity
  of the per-component projections of the grid.

``pac_bound_report`` assembles the finite-sample bound: target 0-1 error
against source margin error + divergence + scaled complexities + slack
terms + the best achievable joint margin error.  All expectations accept
explicit point masses so fully enumerated universes can be checked
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .margin import ramp_loss

__all__ = [
    "SampleSet",
    "ScorerGrid",
    "linear_scorer",
    "violation_tensor",
    "mcsd_rows",
    "empirical_mcsd",
    "ExactDivergence",
    "mcsd_divergence_exact",
    "divergence_exact_variant",
    "AdversarialDivergence",
    "mcsd_divergence_adversarial",
    "smoothed_ramp",
    "RademacherEstimate",
    "rademacher_estimate",
    "margin_error",
    "zero_one_error",
    "PacBoundReport",
    "pac_bound_report",
    "BoundViolation",
]

VARIANTS = ("mcsd", "tilde", "hat")


class BoundViolation(RuntimeError):
    """A proven inequality failed numerically; indicates an implementation bug."""


@dataclass(frozen=True)
class SampleSet:
    """Points with optional 1-based labels."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must form a non-empty [n, d] array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64).reshape(-1)
            if lab.size != pts.shape[0]:
                raise ValueError("got %d labels for %d points" % (lab.size, pts.shape[0]))
            if np.any(lab < 1):
                raise ValueError("labels are 1-based; found %d" % lab.min())
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _as_points(sample) -> np.ndarray:
    if isinstance(sample, SampleSet):
        return sample.points
    pts = np.asarray(sample, dtype=np.float64)
    return pts[:, None] if pts.ndim == 1 else pts


def _as_weights(weights, n: int) -> np.ndarray:
    """Coerce point masses; defaults to the uniform empirical distribution."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.size != n:
        raise ValueError("got %d weights for %d points" % (w.size, n))
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a probability vector")
    return w


def linear_scorer(w: np.ndarray, b: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Centered linear scorer x -> center(w x + b)."""
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)

    def score(points: np.ndarray) -> np.ndarray:
        raw = _as_points(points) @ w.T + b
        return raw - raw.mean(axis=1, keepdims=True)

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
        if k < 2:
            raise ValueError("K must be >= 2, got %d" % k)
        self.scorers = list(scorers)
        self.k = int(k)

    def __len__(self) -> int:
        return len(self.scorers)

    def evaluate(self, points) -> np.ndarray:
        """Evaluate all candidates: array [n_candidates, n_points, K]."""
        pts = _as_points(points)
        out = np.empty((len(self.scorers), pts.shape[0], self.k))
        for i, scorer in enumerate(self.scorers):
            s = np.asarray(scorer(pts), dtype=np.float64)
            if s.shape != (pts.shape[0], self.k):
                raise ValueError(
                    "candidate %d returned shape %r, expected %r"
                    % (i, s.shape, (pts.shape[0], self.k))
                )
            if not np.all(np.isfinite(s)):
                raise ValueError("candidate %d produced non-finite scores" % i)
            out[i] = s - s.mean(axis=1, keepdims=True)
        return out


def violation_tensor(scores, rho: float) -> np.ndarray:
    """Stacked violation matrices for centered scores of shape [..., K].

    Returns [..., K, K] with entry (i, j) = ramp(mu_i(f, j), rho); agrees
    entrywise with the single-vector ``margin.violation_matrix``.  Reference
    oracle; production paths use ``mcsd_rows``.
    """
    s = np.asarray(scores, dtype=np.float64)
    k = s.shape[-1]
    mu = np.repeat(-s[..., :, None], k, axis=-1)
    idx = np.arange(k)
    mu[..., idx, idx] = s
    return ramp_loss(mu, rho)


def _signed_ramps(scores, rho: float) -> np.ndarray:
    """[2, ..., K]: ramp(-s), the K-1 off-diagonal entries of each violation
    row, stacked over ramp(s), its diagonal entry."""
    s = np.asarray(scores, dtype=np.float64)
    return ramp_loss(np.stack([-s, s]), rho)


def _rows_from_ramps(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Per-point violation-matrix L1 distance over K, from ``_signed_ramps``."""
    d = np.abs(ra - rb)
    k = d.shape[-1]
    return ((k - 1) * d[0] + d[1]).sum(axis=-1) / k


def mcsd_rows(a, b, rho: float) -> np.ndarray:
    """Pointwise scoring disagreement of two centered score batches of one
    shape [..., K]; returns [...].

    Equals ``|violation_tensor(a) - violation_tensor(b)|`` summed over the
    last two axes and divided by K, in O(K) per point: row i of a violation
    matrix holds ramp(-f_i) K-1 times and ramp(f_i) once.
    """
    r = _signed_ramps(np.stack([a, b]), rho)
    return _rows_from_ramps(r[:, 0], r[:, 1])


def empirical_mcsd(sample, f1, f2, rho: float, weights=None) -> float:
    """Mean pointwise scoring disagreement of two scorers over a sample."""
    pts = _as_points(sample)
    grid = ScorerGrid([f1, f2], k=np.asarray(f1(pts[:1])).shape[-1])
    s = grid.evaluate(pts)
    return float(mcsd_rows(s[0], s[1], rho) @ _as_weights(weights, pts.shape[0]))


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
    the diagonal is exactly zero.
    """
    r = _signed_ramps(scores, rho)  # [2, c, n, K]
    c = scores.shape[0]
    out = np.zeros((c, c))
    for i in range(c - 1):
        rows = _rows_from_ramps(r[:, i, None], r[:, i + 1 :])  # [c-i-1, n]
        out[i, i + 1 :] = out[i + 1 :, i] = rows @ weights
    return out


def _decision_margin_table(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate/point argmax indices and the corresponding top scores."""
    arg = np.argmax(scores, axis=-1)
    top = np.take_along_axis(scores, arg[..., None], axis=-1)[..., 0]
    return arg, top


def _pairwise_variant_means(
    scores: np.ndarray, weights: np.ndarray, rho: float, variant: str
) -> np.ndarray:
    """Weighted mean decision-level disagreement for every ordered pair (i, j).

    Pair (i, j) plays (f', f''): the margin of f_j's decision component is
    signed by agreement with f_i's decision, then passed through the ramp at
    rho/2 (``tilde``) or the saturation indicator at rho (``hat``).
    """
    arg, top = _decision_margin_table(scores)
    agree = arg[:, None, :] == arg[None, :, :]  # [i, j, n]
    margins = np.where(agree, top[None, :, :], -top[None, :, :])
    if variant == "tilde":
        vals = ramp_loss(margins, rho / 2.0)
    elif variant == "hat":
        vals = (ramp_loss(margins, rho) == 1.0).astype(np.float64)
    else:
        raise ValueError("variant must be 'tilde' or 'hat', got %r" % variant)
    return vals @ weights


def _sup_over_pairs(mean_src: np.ndarray, mean_tgt: np.ndarray) -> ExactDivergence:
    objective = mean_tgt - mean_src
    flat = int(np.argmax(objective))
    pair = (flat // objective.shape[1], flat % objective.shape[1])
    return ExactDivergence(
        value=float(objective[pair]),
        pair=pair,
        objective=objective,
        mean_src=mean_src,
        mean_tgt=mean_tgt,
    )


def mcsd_divergence_exact(
    src, tgt, grid: ScorerGrid, rho: float, src_weights=None, tgt_weights=None
) -> ExactDivergence:
    """Exact divergence over a finite grid: sup over ordered pairs of
    (target mean disagreement - source mean disagreement).

    Non-negative because identical pairs contribute exactly zero.
    """
    src_pts, tgt_pts = _as_points(src), _as_points(tgt)
    ws = _as_weights(src_weights, src_pts.shape[0])
    wt = _as_weights(tgt_weights, tgt_pts.shape[0])
    return _sup_over_pairs(
        _pairwise_mcsd_means(grid.evaluate(src_pts), ws, rho),
        _pairwise_mcsd_means(grid.evaluate(tgt_pts), wt, rho),
    )


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
    src_pts, tgt_pts = _as_points(src), _as_points(tgt)
    ws = _as_weights(src_weights, src_pts.shape[0])
    wt = _as_weights(tgt_weights, tgt_pts.shape[0])
    ss = grid.evaluate(src_pts)
    st = grid.evaluate(tgt_pts)
    return _sup_over_pairs(
        _pairwise_variant_means(ss, ws, rho, variant),
        _pairwise_variant_means(st, wt, rho, variant),
    )


# ---------------------------------------------------------------------------
# Smoothed ramp and the adversarial (gradient ascent) estimator.
# ---------------------------------------------------------------------------

_WINDOW_FRACTION = 100.0  # window width = rho / 100, centered on each kink


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


def _smoothed_ramp_value(x, rho: float):
    """C1 blend of the ramp: exact outside the kink windows, cubic inside.

    Returns the values and the two window masks, which ``_smoothed_ramp_slope``
    reuses at the same ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    h, nodes = _hermite_nodes(rho)
    val = np.clip(1.0 - x / rho, 0.0, 1.0)
    masks = (np.abs(x) < h, np.abs(x - rho) < h)
    for mask, node in zip(masks, nodes):
        if np.any(mask):
            val[mask] = _hermite_value(x[mask], *node)
    return val, masks


def _smoothed_ramp_slope(x: np.ndarray, rho: float, masks) -> np.ndarray:
    """Derivative of the smoothed ramp at ``x``, given its window masks."""
    _, nodes = _hermite_nodes(rho)
    der = np.where((x > 0.0) & (x < rho), -1.0 / rho, 0.0)
    for mask, node in zip(masks, nodes):
        if np.any(mask):
            der[mask] = _hermite_slope(x[mask], *node)
    return der


def smoothed_ramp(x, rho: float):
    """Value of the C1-smoothed ramp used inside the adversarial estimator."""
    val, _ = _smoothed_ramp_value(x, rho)
    if np.isscalar(x):
        return float(val)
    return val


@dataclass
class _SmoothedPass:
    """What the value pass of one domain keeps for the gradient pass and the
    exact-ramp objective: the ramp argument x = [[a, b], -[a, b]] of the
    centered scores, its window masks and the differences of the ramped
    negated (``dn``) and plain (``dp``) scores."""

    x: np.ndarray
    masks: tuple[np.ndarray, np.ndarray]
    dn: np.ndarray
    dp: np.ndarray


def _smoothed_mcsd(a: np.ndarray, b: np.ndarray, rho: float):
    """Per-point smoothed disagreement of centered score batches, and the
    ``_SmoothedPass`` its gradient needs.

    Uses the per-component decomposition of the violation-matrix L1 distance.
    """
    k = a.shape[1]
    ab = np.stack([a, b])
    x = np.stack([ab, -ab])
    ((vpa, vpb), (vna, vnb)), masks = _smoothed_ramp_value(x, rho)
    dn = vna - vnb
    dp = vpa - vpb
    val = ((k - 1) * np.abs(dn) + np.abs(dp)).sum(axis=1) / k
    return val, _SmoothedPass(x, masks, dn, dp)


def _smoothed_mcsd_grads(p: _SmoothedPass, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``_smoothed_mcsd`` in a and in b, from its value pass; the
    absolute values take subgradient 0 at ties."""
    k = p.x.shape[-1]
    (gpa, gpb), (gna, gnb) = _smoothed_ramp_slope(p.x, rho, p.masks)
    sn, sp = np.sign(p.dn), np.sign(p.dp)
    da = ((k - 1) * sn * (-gna) + sp * gpa) / k
    db = ((k - 1) * sn * gnb + sp * (-gpb)) / k
    return da, db


def _center_rows(z: np.ndarray) -> np.ndarray:
    return z - z.mean(axis=1, keepdims=True)


def _exact_mean(p: _SmoothedPass, rho: float, weights: np.ndarray) -> float:
    """Exact-ramp mean disagreement of the value pass's head pair.

    The value pass centers ``x @ w.T + b`` as ``linear_scorer`` does; the
    finiteness check and the second centering are ``ScorerGrid.evaluate``'s,
    so every point scores bit-identically to the same pair inside a grid.
    """
    ab = p.x[0]
    if not np.isfinite(ab).all():
        raise ValueError("ascent head pair produced non-finite scores")
    a, b = ab - ab.mean(axis=-1, keepdims=True)
    return float(mcsd_rows(a, b, rho) @ weights)


@dataclass
class AdversarialDivergence:
    """Outcome of the gradient-ascent lower bound."""

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
    """Backtracking gradient ascent over two linear heads on frozen features.

    Maximizes the smoothed target-minus-source disagreement.  The smoothed
    objective is non-decreasing along the trajectory up to the line-search
    tolerance; ascent that stalls sets ``converged`` / ``warning`` instead of
    raising.  The returned ``value`` is the exact-ramp objective of the best
    visited pair and therefore never exceeds the supremum over any family
    containing the visited pairs.

    The line search compares values only: each trial runs the value pass
    (score matmuls, centering, smoothed ramps, weighted objective), and the
    gradient pass and the exact-ramp objective run once per accepted step,
    from the centered scores and ramp intermediates the trial's value pass
    kept.
    """
    if k < 2:
        raise ValueError("K must be >= 2, got %d" % k)
    src_pts, tgt_pts = _as_points(src), _as_points(tgt)
    ws = _as_weights(src_weights, src_pts.shape[0])
    wt = _as_weights(tgt_weights, tgt_pts.shape[0])
    d = src_pts.shape[1]
    if init is None:
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(d)
        heads = [
            rng.uniform(-bound, bound, size=(k, d)),
            np.zeros(k),
            rng.uniform(-bound, bound, size=(k, d)),
            np.zeros(k),
        ]
    else:
        heads = [np.array(h, dtype=np.float64) for h in init]
        if [h.shape[:1] for h in heads] != [(k,)] * 4:
            raise ValueError("init heads must have K = %d rows" % k)

    def value_pass(hs):
        w1, b1, w2, b2 = hs
        a_s = _center_rows(src_pts @ w1.T + b1)
        a_t = _center_rows(tgt_pts @ w1.T + b1)
        b_s = _center_rows(src_pts @ w2.T + b2)
        b_t = _center_rows(tgt_pts @ w2.T + b2)
        vs, pass_s = _smoothed_mcsd(a_s, b_s, rho)
        vt, pass_t = _smoothed_mcsd(a_t, b_t, rho)
        return float(vt @ wt - vs @ ws), (pass_s, pass_t)

    def gradient_pass(passes):
        pass_s, pass_t = passes
        das, dbs = _smoothed_mcsd_grads(pass_s, rho)
        dat, dbt = _smoothed_mcsd_grads(pass_t, rho)
        # chain through centering, then the linear map; source side enters
        # with negative weight
        das = _center_rows(das) * (-ws[:, None])
        dat = _center_rows(dat) * wt[:, None]
        dbs = _center_rows(dbs) * (-ws[:, None])
        dbt = _center_rows(dbt) * wt[:, None]
        gw1 = das.T @ src_pts + dat.T @ tgt_pts
        gb1 = das.sum(axis=0) + dat.sum(axis=0)
        gw2 = dbs.T @ src_pts + dbt.T @ tgt_pts
        gb2 = dbs.sum(axis=0) + dbt.sum(axis=0)
        return [gw1, gb1, gw2, gb2]

    def exact_objective(passes):
        pass_s, pass_t = passes
        return _exact_mean(pass_t, rho, wt) - _exact_mean(pass_s, rho, ws)

    def snapshot(hs):
        return tuple(np.array(h) for h in hs)

    cur, passes = value_pass(heads)
    grads = gradient_pass(passes)
    result = AdversarialDivergence(
        value=exact_objective(passes),
        best_heads=snapshot(heads),
        final_heads=snapshot(heads),
        trajectory=[cur],
        visited=[snapshot(heads)],
    )
    stalled = False
    for _ in range(int(steps)):
        gnorm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        if gnorm < 1e-12:
            break
        eta = float(step_size)
        accepted = False
        for _ in range(40):
            trial = [h + eta * g for h, g in zip(heads, grads)]
            trial_obj, passes = value_pass(trial)
            if trial_obj >= cur - 1e-12:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            stalled = True
            break
        heads, cur, grads = trial, trial_obj, gradient_pass(passes)
        result.trajectory.append(cur)
        result.visited.append(snapshot(heads))
        exact = exact_objective(passes)
        if exact > result.value:
            result.value = exact
            result.best_heads = snapshot(heads)
    else:
        if np.sqrt(sum(float(np.sum(g * g)) for g in grads)) > 1e-6:
            result.converged = False
            result.warning = "ascent still improving after %d steps" % steps
    result.final_heads = snapshot(heads)
    if stalled and len(result.trajectory) < 2:
        result.converged = False
        result.warning = "line search could not improve the smoothed objective"
    return result


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
    if sigma_draws < 2:
        raise ValueError("need at least 2 sigma draws, got %d" % sigma_draws)
    pts = _as_points(sample)
    m = pts.shape[0]
    evals = grid.evaluate(pts)  # [c, m, K]
    g = np.moveaxis(evals, 2, 1).reshape(len(grid) * grid.k, m)  # component rows
    rng = np.random.default_rng(seed)
    sigma = rng.choice((-1.0, 1.0), size=(int(sigma_draws), m))
    sups = (sigma @ g.T).max(axis=1)  # [draws]
    value = float(sups.mean()) / m
    stderr = float(sups.std(ddof=1)) / (np.sqrt(sigma_draws) * m)
    return RademacherEstimate(value=value, stderr=stderr, n_draws=int(sigma_draws))


def _margin_violations(scores, labels, rho: float) -> np.ndarray:
    """Per-point sum of ramped absolute margins: scores [..., n, K] -> [..., n].

    The absolute margin of component k is +f_k at the 1-based label and -f_k
    elsewhere; ``margin.source_margin_loss`` is the single-point oracle.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, k = s.shape[-2:]
    if y.size != n or np.any(y < 1) or np.any(y > k):
        raise ValueError("labels must be 1-based and match the score rows")
    signs = np.where(np.arange(1, k + 1) == y[:, None], 1.0, -1.0)
    return ramp_loss(s * signs, rho).sum(axis=-1)


def margin_error(scores: np.ndarray, labels, rho: float, weights=None) -> float:
    """Expected sum of ramped absolute-margin violations under point masses."""
    per_point = _margin_violations(scores, labels, rho)
    return float(per_point @ _as_weights(weights, per_point.shape[0]))


def zero_one_error(scores: np.ndarray, labels, weights=None) -> float:
    """Expected argmax misclassification under point masses (ties: lowest index)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    wrong = (np.argmax(s, axis=1) + 1 != y).astype(np.float64)
    return float(wrong @ _as_weights(weights, s.shape[0]))


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
        out = {
            "rho": self.rho,
            "delta": self.delta,
            "k": self.k,
            "n_src": self.n_src,
            "n_tgt": self.n_tgt,
            "selected": self.selected,
            "src_margin_err": self.src_margin_err,
            "divergence": self.divergence,
            "rademacher_src": self.rademacher_src,
            "rademacher_tgt": self.rademacher_tgt,
            "rademacher_src_stderr": self.rademacher_src_stderr,
            "rademacher_tgt_stderr": self.rademacher_tgt_stderr,
            "rad_src_multiplier": self.rad_src_multiplier,
            "rad_tgt_multiplier": self.rad_tgt_multiplier,
            "slack_src": self.slack_src,
            "slack_tgt": self.slack_tgt,
            "lambda": self.lambda_joint,
            "lhs_target_err": self.lhs_target_err,
            "rhs_total": self.rhs_total,
            "holds": self.holds,
            "holds_for_all": self.holds_for_all,
            "per_candidate": self.per_candidate,
        }
        return out


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
    if src.labels is None or tgt.labels is None:
        raise ValueError("bound report needs labels on both samples")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1), got %r" % delta)
    k = grid.k
    n_s, n_t = src.n, tgt.n
    scores_src = grid.evaluate(src.points)
    scores_tgt = grid.evaluate(tgt.points)

    # one dot per candidate, as in margin_error: a batched matrix-vector
    # product would round differently
    w_s, w_t = _as_weights(None, n_s), _as_weights(None, n_t)
    src_errs = np.array([p @ w_s for p in _margin_violations(scores_src, src.labels, rho)])
    tgt_errs = np.array([p @ w_t for p in _margin_violations(scores_tgt, tgt.labels, rho)])
    lhs = np.array([zero_one_error(scores_tgt[i], tgt.labels) for i in range(len(grid))])

    div = mcsd_divergence_exact(src, tgt, grid, rho)
    rad_s = rademacher_estimate(src, grid, sigma_draws=sigma_draws, seed=seed)
    rad_t = rademacher_estimate(tgt, grid, sigma_draws=sigma_draws, seed=seed + 1)

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
