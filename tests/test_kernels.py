"""O(K) production kernels pinned against the K x K tensor path.

``violation_tensor`` builds every violation matrix in full; the oracles in
this file use it directly, and the four-call smoothed disagreement the
ascent used before its ramps were batched is kept here verbatim, so the
batched paths are compared against independent arithmetic.
"""

import numpy as np
import pytest

from mcsda import divergence
from mcsda.divergence import (
    SampleSet,
    ScorerGrid,
    _margin_violations,
    _pairwise_mcsd_means,
    _smoothed_ramp_and_grad,
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


def four_call_smoothed_mcsd_and_grads(a, b, rho):
    """The ascent's per-point smoothed disagreement with one ramp call per
    operand, as it was before the ramps were stacked."""
    k = a.shape[1]
    vpa, gpa = _smoothed_ramp_and_grad(a, rho)
    vpb, gpb = _smoothed_ramp_and_grad(b, rho)
    vna, gna = _smoothed_ramp_and_grad(-a, rho)
    vnb, gnb = _smoothed_ramp_and_grad(-b, rho)
    dn = vna - vnb
    dp = vpa - vpb
    val = ((k - 1) * np.abs(dn) + np.abs(dp)).sum(axis=1) / k
    sn, sp = np.sign(dn), np.sign(dp)
    da = ((k - 1) * sn * (-gna) + sp * gpa) / k
    db = ((k - 1) * sn * gnb + sp * (-gpb)) / k
    return val, da, db


def criterion5_data():
    rng = np.random.default_rng(5)
    src = np.concatenate([rng.normal(c, 0.6, size=(20, 2)) for c in (-2.0, 0.0, 2.0)])
    tgt = np.concatenate([rng.normal(c, 0.6, size=(20, 2)) for c in (-0.5, 1.5, 3.5)])
    return src, tgt, 3, 120


def blobs10_data():
    pair = gen_gauss_blobs(10, 60, (1.0, 0.5), seed=0)
    return pair.source.points, pair.target.points, 10, 60


class TestStackedAscent:
    @pytest.mark.parametrize("data", [criterion5_data, blobs10_data])
    def test_trajectory_bit_identical_to_four_calls(self, data, monkeypatch):
        src, tgt, k, steps = data()
        new = mcsd_divergence_adversarial(src, tgt, k=k, rho=1.0, steps=steps, seed=0)
        monkeypatch.setattr(
            divergence, "_smoothed_mcsd_and_grads", four_call_smoothed_mcsd_and_grads
        )
        old = mcsd_divergence_adversarial(src, tgt, k=k, rho=1.0, steps=steps, seed=0)
        assert len(new.trajectory) == steps + 1
        assert new.trajectory == old.trajectory
        assert new.value == old.value
        for h_new, h_old in zip(new.final_heads, old.final_heads):
            assert np.array_equal(h_new, h_old)


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
