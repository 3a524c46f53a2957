"""O(K) production kernels pinned against the K x K tensor path.

``violation_tensor`` builds every violation matrix in full; the oracles in
this file use it directly.  The adversarial ascent is pinned against an
eager copy kept here: one smoothed-ramp call per operand returning values
and slopes together, full gradients for every line-search trial and a grid
evaluation for every accepted pair's exact objective.  So the batched and
split paths are compared against independent arithmetic.
"""

import numpy as np
import pytest

from mcsda.divergence import (
    AdversarialDivergence,
    SampleSet,
    ScorerGrid,
    _margin_violations,
    _pairwise_mcsd_means,
    _smoothed_ramp_slope,
    _smoothed_ramp_value,
    linear_scorer,
    margin_error,
    mcsd_divergence_adversarial,
    mcsd_divergence_exact,
    mcsd_rows,
    pac_bound_report,
    violation_tensor,
)
from mcsda.margin import source_margin_loss
from mcsda.symmnets import disagreement_bound_gap
from mcsda.synthdata import gen_gauss_blobs


def tensor_rows(a, b, rho):
    k = np.shape(a)[-1]
    return np.abs(violation_tensor(a, rho) - violation_tensor(b, rho)).sum(axis=(-2, -1)) / k


def kink_scores(rng, n, k, rho):
    """Centered rows whose entries sit on the ramp kinks 0 and +-rho (the last
    entry balances the row, so it lands on a multiple of rho)."""
    s = rng.choice([-rho, 0.0, rho], size=(n, k))
    s[:, -1] = -s[:, :-1].sum(axis=1)
    return s


def score_pairs(k, rho):
    rng = np.random.default_rng(k)
    a = rng.normal(scale=2.0 * rho, size=(200, k))
    a -= a.mean(axis=1, keepdims=True)
    b = rng.normal(scale=2.0 * rho, size=(200, k))
    b -= b.mean(axis=1, keepdims=True)
    a = np.concatenate([a, kink_scores(rng, 100, k, rho), np.zeros((5, k))])
    b = np.concatenate([b, kink_scores(rng, 100, k, rho), np.zeros((5, k))])
    b[::4] = a[::4]  # ties: identical rows
    return a, b


class TestMcsdRows:
    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_matches_tensor_oracle(self, k, rho):
        a, b = score_pairs(k, rho)
        fast = mcsd_rows(a, b, rho)
        assert fast.shape == (a.shape[0],)
        assert np.abs(fast - tensor_rows(a, b, rho)).max() <= 1e-12
        assert np.all(fast[::4] == 0.0)

    def test_leading_axes(self):
        a, b = score_pairs(3, 1.0)
        a, b = a.reshape(5, -1, 3), b.reshape(5, -1, 3)
        fast = mcsd_rows(a, b, 1.0)
        assert fast.shape == a.shape[:2]
        assert np.abs(fast - tensor_rows(a, b, 1.0)).max() <= 1e-12

    def test_ramp_checks_apply(self):
        a, b = score_pairs(2, 1.0)
        with pytest.raises(ValueError):
            mcsd_rows(a, b, 0.0)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            mcsd_rows(a, b, 1.0)


def full_square_means(scores, weights, rho):
    """Every ordered pair from the full violation tensors."""
    v = violation_tensor(scores, rho)
    k, c = scores.shape[-1], scores.shape[0]
    return np.array(
        [[(np.abs(v[i] - v[j]).sum(axis=(-2, -1)) / k) @ weights for j in range(c)] for i in range(c)]
    )


class TestPairwiseMeans:
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_matches_full_square(self, k):
        rng = np.random.default_rng(30 + k)
        grid = ScorerGrid(
            [linear_scorer(rng.normal(size=(k, 2)), rng.normal(size=k)) for _ in range(9)], k=k
        )
        scores = grid.evaluate(rng.normal(size=(40, 2)))
        scores[:2] = scores[2]  # tied candidates
        w = rng.random(40)
        w /= w.sum()
        fast = _pairwise_mcsd_means(scores, w, 1.0)
        assert np.abs(fast - full_square_means(scores, w, 1.0)).max() <= 1e-12
        assert np.array_equal(fast, fast.T)
        assert np.all(np.diag(fast) == 0.0)

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_divergence_selects_the_oracle_pair(self, k):
        rng = np.random.default_rng(40 + k)
        grid = ScorerGrid(
            [linear_scorer(rng.normal(size=(k, 2)), rng.normal(size=k)) for _ in range(12)], k=k
        )
        src, tgt = rng.normal(size=(50, 2)), rng.normal(size=(60, 2)) + [0.8, -0.4]
        ws, wt = np.full(50, 1 / 50), np.full(60, 1 / 60)
        objective = full_square_means(grid.evaluate(tgt), wt, 1.0) - full_square_means(
            grid.evaluate(src), ws, 1.0
        )
        flat = int(np.argmax(objective))
        exact = mcsd_divergence_exact(src, tgt, grid, 1.0)
        assert exact.value == pytest.approx(objective.max(), abs=1e-12)
        assert exact.pair == (flat // 12, flat % 12)


def _hermite(x, a, b, va, sa, vb, sb):
    h = b - a
    t = (x - a) / h
    t2, t3 = t * t, t * t * t
    val = (
        (2 * t3 - 3 * t2 + 1) * va
        + (t3 - 2 * t2 + t) * h * sa
        + (-2 * t3 + 3 * t2) * vb
        + (t3 - t2) * h * sb
    )
    der = (
        (6 * t2 - 6 * t) * va
        + (3 * t2 - 4 * t + 1) * h * sa
        + (-6 * t2 + 6 * t) * vb
        + (3 * t2 - 2 * t) * h * sb
    ) / h
    return val, der


def eager_smoothed_ramp_and_grad(x, rho):
    """Smoothed ramp value and slope in one pass, cubic in windows of width
    rho/100 around the kinks."""
    x = np.asarray(x, dtype=np.float64)
    h = rho / 200.0
    val = np.clip(1.0 - x / rho, 0.0, 1.0)
    der = np.where((x > 0.0) & (x < rho), -1.0 / rho, 0.0)
    lo = np.abs(x) < h
    if np.any(lo):
        val[lo], der[lo] = _hermite(x[lo], -h, h, 1.0, 0.0, 1.0 - h / rho, -1.0 / rho)
    hi = np.abs(x - rho) < h
    if np.any(hi):
        val[hi], der[hi] = _hermite(x[hi], rho - h, rho + h, h / rho, -1.0 / rho, 0.0, 0.0)
    return val, der


def four_call_smoothed_mcsd_and_grads(a, b, rho):
    """The ascent's per-point smoothed disagreement with one ramp call per
    operand."""
    k = a.shape[1]
    vpa, gpa = eager_smoothed_ramp_and_grad(a, rho)
    vpb, gpb = eager_smoothed_ramp_and_grad(b, rho)
    vna, gna = eager_smoothed_ramp_and_grad(-a, rho)
    vnb, gnb = eager_smoothed_ramp_and_grad(-b, rho)
    dn = vna - vnb
    dp = vpa - vpb
    val = ((k - 1) * np.abs(dn) + np.abs(dp)).sum(axis=1) / k
    sn, sp = np.sign(dn), np.sign(dp)
    da = ((k - 1) * sn * (-gna) + sp * gpa) / k
    db = ((k - 1) * sn * gnb + sp * (-gpb)) / k
    return val, da, db


def eager_exact_objective(src, tgt, heads, k, rho):
    w1, b1, w2, b2 = heads
    grid = ScorerGrid([linear_scorer(w1, b1), linear_scorer(w2, b2)], k=k)
    ss, st = grid.evaluate(src), grid.evaluate(tgt)
    ws, wt = np.full(len(src), 1.0 / len(src)), np.full(len(tgt), 1.0 / len(tgt))
    return float(mcsd_rows(st[0], st[1], rho) @ wt) - float(mcsd_rows(ss[0], ss[1], rho) @ ws)


def eager_ascent(src, tgt, k, rho, steps, step_size=0.5, seed=0):
    """Backtracking ascent with uniform weights that computes gradients for
    every trial and scores every accepted pair through a ``ScorerGrid``."""

    def center(z):
        return z - z.mean(axis=1, keepdims=True)

    ws, wt = np.full(len(src), 1.0 / len(src)), np.full(len(tgt), 1.0 / len(tgt))

    def objective_and_grads(hs):
        w1, b1, w2, b2 = hs
        vs, das, dbs = four_call_smoothed_mcsd_and_grads(
            center(src @ w1.T + b1), center(src @ w2.T + b2), rho
        )
        vt, dat, dbt = four_call_smoothed_mcsd_and_grads(
            center(tgt @ w1.T + b1), center(tgt @ w2.T + b2), rho
        )
        das, dbs = center(das) * (-ws[:, None]), center(dbs) * (-ws[:, None])
        dat, dbt = center(dat) * wt[:, None], center(dbt) * wt[:, None]
        grads = [
            das.T @ src + dat.T @ tgt,
            das.sum(axis=0) + dat.sum(axis=0),
            dbs.T @ src + dbt.T @ tgt,
            dbs.sum(axis=0) + dbt.sum(axis=0),
        ]
        return float(vt @ wt - vs @ ws), grads

    def snapshot(hs):
        return tuple(np.array(h) for h in hs)

    def gnorm(gs):
        return np.sqrt(sum(float(np.sum(g * g)) for g in gs))

    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(src.shape[1])
    heads = [
        rng.uniform(-bound, bound, size=(k, src.shape[1])),
        np.zeros(k),
        rng.uniform(-bound, bound, size=(k, src.shape[1])),
        np.zeros(k),
    ]
    cur, grads = objective_and_grads(heads)
    res = AdversarialDivergence(
        value=eager_exact_objective(src, tgt, heads, k, rho),
        best_heads=snapshot(heads),
        final_heads=snapshot(heads),
        trajectory=[cur],
        visited=[snapshot(heads)],
    )
    stalled = False
    for _ in range(steps):
        if gnorm(grads) < 1e-12:
            break
        eta, accepted = step_size, False
        for _ in range(40):
            trial = [h + eta * g for h, g in zip(heads, grads)]
            trial_obj, trial_grads = objective_and_grads(trial)
            if trial_obj >= cur - 1e-12:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            stalled = True
            break
        heads, cur, grads = trial, trial_obj, trial_grads
        res.trajectory.append(cur)
        res.visited.append(snapshot(heads))
        exact = eager_exact_objective(src, tgt, heads, k, rho)
        if exact > res.value:
            res.value, res.best_heads = exact, snapshot(heads)
    else:
        if gnorm(grads) > 1e-6:
            res.converged = False
            res.warning = "ascent still improving after %d steps" % steps
    res.final_heads = snapshot(heads)
    if stalled and len(res.trajectory) < 2:
        res.converged = False
        res.warning = "line search could not improve the smoothed objective"
    return res


def criterion5_data():
    rng = np.random.default_rng(5)
    src = np.concatenate([rng.normal(c, 0.6, size=(20, 2)) for c in (-2.0, 0.0, 2.0)])
    tgt = np.concatenate([rng.normal(c, 0.6, size=(20, 2)) for c in (-0.5, 1.5, 3.5)])
    return src, tgt, 3, 120


def blobs10(seed):
    pair = gen_gauss_blobs(10, 60, (1.0, 0.5), seed=seed)
    return pair.source.points, pair.target.points, 10, 60


def blobs10_data():
    return blobs10(0)


def blobs10_draw1():
    return blobs10(1)


def blobs10_draw2():
    return blobs10(2)


def assert_heads_equal(got, want):
    assert len(got) == len(want)
    for h_got, h_want in zip(got, want):
        assert np.array_equal(h_got, h_want)


class TestStackedAscent:
    @pytest.mark.parametrize(
        "data", [criterion5_data, blobs10_data, blobs10_draw1, blobs10_draw2]
    )
    def test_trajectory_bit_identical_to_four_calls(self, data):
        src, tgt, k, steps = data()
        new = mcsd_divergence_adversarial(src, tgt, k=k, rho=1.0, steps=steps, seed=0)
        old = eager_ascent(src, tgt, k, 1.0, steps)
        assert len(new.trajectory) == steps + 1
        assert new.trajectory == old.trajectory
        assert new.value == old.value
        assert_heads_equal(new.best_heads, old.best_heads)
        assert_heads_equal(new.final_heads, old.final_heads)
        assert len(new.visited) == len(old.visited)
        for got, want in zip(new.visited, old.visited):
            assert_heads_equal(got, want)
        assert (new.warning, new.converged) == (old.warning, old.converged)

    def test_init_heads_are_checked(self):
        src, tgt, k, _ = criterion5_data()
        rng = np.random.default_rng(1)
        heads = [rng.normal(size=(k, 2)), np.zeros(k), rng.normal(size=(k, 2)), np.zeros(k)]
        wide = [np.vstack([h, h[:1]]) if h.ndim == 2 else np.zeros(k + 1) for h in heads]
        with pytest.raises(ValueError):
            mcsd_divergence_adversarial(src, tgt, k=k, rho=1.0, steps=5, init=wide)
        heads[0][0, 0] = np.nan
        with pytest.raises(ValueError):
            mcsd_divergence_adversarial(src, tgt, k=k, rho=1.0, steps=5, init=heads)

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_value_and_slope_passes_match_eager_ramp(self, rho):
        h = rho / 200.0
        rng = np.random.default_rng(7)
        x = np.concatenate(
            [
                rng.uniform(-2 * rho, 3 * rho, size=198),
                rng.uniform(-h, h, size=50),
                rho + rng.uniform(-h, h, size=50),
                [0.0, rho, -h, h, rho - h, rho + h],
            ]
        ).reshape(2, 2, -1)
        val, masks = _smoothed_ramp_value(x, rho)
        want_val, want_der = eager_smoothed_ramp_and_grad(x, rho)
        assert np.array_equal(val, want_val)
        assert np.array_equal(_smoothed_ramp_slope(x, rho, masks), want_der)


class TestMarginViolations:
    def test_batched_matches_single_point_oracle(self):
        rng = np.random.default_rng(21)
        scores = rng.normal(scale=1.5, size=(4, 30, 3))
        scores -= scores.mean(axis=-1, keepdims=True)
        scores[0, :10] = kink_scores(rng, 10, 3, 1.0)
        labels = rng.integers(1, 4, size=30)
        per_point = _margin_violations(scores, labels, 1.0)
        assert per_point.shape == (4, 30)
        for c in range(4):
            for i in range(30):
                want = source_margin_loss(scores[c, i], int(labels[i]), 1.0)
                assert per_point[c, i] == pytest.approx(want, abs=1e-12)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            _margin_violations(np.zeros((2, 5, 3)), [1, 2, 3, 4, 1], 1.0)
        with pytest.raises(ValueError):
            _margin_violations(np.zeros((5, 3)), [1, 2], 1.0)

    def test_pac_report_keeps_per_candidate_margin_error(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(45, 2))
        labels = np.repeat([1, 2, 3], 15)
        src = SampleSet(pts, labels)
        tgt = SampleSet(pts + [0.3, 0.1], labels.copy())
        grid = ScorerGrid(
            [linear_scorer(rng.normal(size=(3, 2)), rng.normal(size=3)) for _ in range(6)], k=3
        )
        rep = pac_bound_report(src, tgt, grid, 1.0, sigma_draws=200)
        scores = grid.evaluate(pts)
        for i, cand in enumerate(rep.per_candidate):
            assert cand["src_margin_err"] == margin_error(scores[i], labels, 1.0)

    def test_bound_gap_rhs_keeps_mean_reduction(self):
        rng = np.random.default_rng(23)
        rs, rt = rng.normal(size=(2, 16, 4))
        y = rng.integers(1, 5, size=16)
        _, rhs = disagreement_bound_gap(rs, rt, y, 1.0)
        want = 0.0
        for raw in (rs, rt):
            c = raw - raw.mean(axis=1, keepdims=True)
            mu = -c.copy()
            mu[np.arange(16), y - 1] = c[np.arange(16), y - 1]
            want += float(np.clip(1.0 - mu / 1.0, 0.0, 1.0).sum(axis=1).mean())
        assert rhs == want
