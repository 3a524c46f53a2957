"""O(K) production kernels pinned against the K x K tensor path.

``violation_tensor`` builds every violation matrix in full; the oracles in
this file use it directly.  The adversarial ascent's passes are pinned
against an eager copy kept here: one smoothed-ramp call per operand
returning values and slopes together, and a grid evaluation for each pair's
exact objective.  So the batched and split paths are compared against
independent arithmetic.  The eager backtracking ascent, which computes full
gradients for every line-search trial, is the oracle whose value the L-BFGS
ascent must reach at the same budget.

``TestOneKernelPerObject`` scans the library source: the ramp clamp, the
row centering, the per-component disagreement, the violation-matrix diagonal,
the signed decision margin, the point-weighted sum and the quiet block may
each be spelled out in one function only, their kernel in ``mcsda.margin``;
the scaled-L1, symmetrized-KL and
symmetrized-CE rows, the guarded log and the picked-entry log loss
likewise, their kernels in ``mcsda.surrogates``; the margin error, its
kernel in ``mcsda.divergence``.  Outside the guarded log, the library takes
no log but of a constant.  ``TestNoModuleState`` scans it
for ``global`` statements: counts travel with the values they count, so no
function rebinds a module-level name.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import mcsda
from mcsda.divergence import (
    AdversarialDivergence,
    SampleSet,
    ScorerGrid,
    _margin_violations,
    _mcsd_rows,
    _pairwise_mcsd_means,
    _signed_ramps,
    _smoothed_mcsd,
    _smoothed_signed_ramps,
    linear_scorer,
    margin_error,
    mcsd_divergence_adversarial,
    mcsd_divergence_exact,
    mcsd_rows,
    pac_bound_report,
    violation_tensor,
)
from mcsda.margin import _absolute_margin, _center, _ramp, absolute_margin, source_margin_loss
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


def planted_kinks(rng, shape, rho):
    """Scores of ``shape`` with about half their entries on the ramp kinks,
    the window edges and inside the windows, both signs and both zeros."""
    h = rho / 200.0
    s = rng.normal(scale=2.0 * rho, size=shape)
    edges = np.array([0.0, -0.0, rho, -rho, h, -h, rho - h, rho + h, h - rho, -h - rho])
    inside = np.concatenate([rng.uniform(-h, h, size=20), rho + rng.uniform(-h, h, size=20)])
    planted = np.concatenate([edges, inside, -inside])
    pick = rng.random(shape) < 0.5
    s[pick] = rng.choice(planted, size=int(pick.sum()))
    return s


def assert_bitwise(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSignedRamps:
    @pytest.mark.parametrize("rho", [0.5, 0.7, 1.0])
    def test_one_division_equals_the_ramp_of_both_signs(self, rho):
        s = planted_kinks(np.random.default_rng(80), (3, 50, 4), rho)
        assert_bitwise(_signed_ramps(s, rho), _ramp(np.stack([-s, s]), rho))

    def test_per_row_rho_broadcasts(self):
        rng = np.random.default_rng(81)
        rho = rng.uniform(0.2, 2.0, size=(60, 1))
        s = planted_kinks(rng, (60, 5), 1.0) * rho
        assert_bitwise(_signed_ramps(s, rho), _ramp(np.stack([-s, s]), rho))


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
    def test_each_pair_rounds_as_one_dot_of_its_rows(self, k):
        # as the per-pair dot in ``_exact`` and ``margin_error`` weight a
        # single pair's rows
        rng = np.random.default_rng(50 + k)
        raw = rng.normal(scale=2.0, size=(6, 300, k))
        w = rng.random(300)
        w /= w.sum()
        means = _pairwise_mcsd_means(_center(raw), w, 0.7)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert means[i, j] == float(mcsd_rows(raw[i], raw[j], 0.7) @ w)

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
    (fs1, fs2), (ft1, ft2) = ([f(x) for f in grid.scorers] for x in (src, tgt))
    ws, wt = np.full(len(src), 1.0 / len(src)), np.full(len(tgt), 1.0 / len(tgt))
    return float(mcsd_rows(ft1, ft2, rho) @ wt) - float(mcsd_rows(fs1, fs2, rho) @ ws)


def eager_objective_and_grads(src, tgt, hs, rho):
    """The ascent's smoothed objective at the head pair ``hs`` under uniform
    weights, and its gradients in the four heads."""

    def center(z):
        return z - z.mean(axis=1, keepdims=True)

    ws, wt = np.full(len(src), 1.0 / len(src)), np.full(len(tgt), 1.0 / len(tgt))
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


def eager_ascent(src, tgt, k, rho, steps, step_size=0.5, seed=0):
    """Backtracking ascent with uniform weights that computes gradients for
    every trial and scores every accepted pair through a ``ScorerGrid``:
    each step takes the first eta = step_size * 0.5**i, i < 40, whose
    smoothed value is at least the current one minus 1e-12."""

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
    cur, grads = eager_objective_and_grads(src, tgt, heads, rho)
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
            trial_obj, trial_grads = eager_objective_and_grads(src, tgt, trial, rho)
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
    def test_passes_match_four_calls_and_value_reaches_backtracking(self, data):
        src, tgt, k, steps = data()
        new = mcsd_divergence_adversarial(src, tgt, k=k, rho=1.0, steps=steps, seed=0)
        old = eager_ascent(src, tgt, k, 1.0, steps)
        # both start from the seeded pair
        assert new.trajectory[0] == old.trajectory[0]
        assert_heads_equal(new.visited[0], old.visited[0])
        # each visited pair's smoothed value and exact objective are the
        # eager copy's, bit for bit
        assert len(new.trajectory) == len(new.visited)
        for value, heads in zip(new.trajectory, new.visited):
            assert value == eager_objective_and_grads(src, tgt, heads, 1.0)[0]
        exact = [eager_exact_objective(src, tgt, heads, k, 1.0) for heads in new.visited]
        assert new.value == max(exact)
        assert new.value == eager_exact_objective(src, tgt, new.best_heads, k, 1.0)
        assert_heads_equal(new.final_heads, new.visited[-1])
        # at the same budget the L-BFGS ascent gets at least as far
        assert new.value >= old.value

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
        r, slopes = _smoothed_signed_ramps(x, rho)
        der = slopes()
        for side, arg in enumerate((-x, x)):
            want_val, want_der = eager_smoothed_ramp_and_grad(arg, rho)
            assert np.array_equal(r[side], want_val)
            assert np.array_equal(der[side], want_der)

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_two_domain_stack_matches_four_calls(self, k, rho):
        # the ascent's stacked [src; tgt] rows, kinks planted in both domains
        rng = np.random.default_rng(90 + k)
        a, b = (
            np.concatenate([planted_kinks(rng, (70, k), rho), planted_kinks(rng, (50, k), rho)])
            for _ in range(2)
        )
        b[::5] = a[::5]  # ties
        rows, grads = _smoothed_mcsd(a, b, rho)
        want_rows, want_da, want_db = four_call_smoothed_mcsd_and_grads(a, b, rho)
        assert_bitwise(rows, want_rows)
        da, db = grads()
        assert_bitwise(da, want_da)
        assert_bitwise(db, want_db)

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_smoothed_rows_are_exact_outside_the_kink_windows(self, k):
        rho, h = 0.7, 0.7 / 200.0
        rng = np.random.default_rng(60 + k)
        a, b = _center(rng.normal(scale=2.0 * rho, size=(2, 400, k)))
        b[::4] = a[::4]  # ties
        # the ramps see +-a and +-b, so keep rows with no entry within h of 0
        # or of +-rho
        far = (np.abs(a) >= h) & (np.abs(np.abs(a) - rho) >= h)
        far &= (np.abs(b) >= h) & (np.abs(np.abs(b) - rho) >= h)
        keep = far.all(axis=1)
        assert keep.sum() > 300
        rows, _ = _smoothed_mcsd(a[keep], b[keep], rho)
        assert np.array_equal(rows, _mcsd_rows(np.stack([a[keep], b[keep]]), rho))


class TestMarginViolations:
    def test_batched_matches_single_point_oracle(self):
        rng = np.random.default_rng(21)
        scores = rng.normal(scale=1.5, size=(4, 30, 3))
        scores -= scores.mean(axis=-1, keepdims=True)
        scores[0, :10] = kink_scores(rng, 10, 3, 1.0)
        labels = rng.integers(1, 4, size=30)
        # the kernel takes the 0-based classes that ``_check_labels`` returns
        per_point = _margin_violations(_signed_ramps(scores, 1.0), labels - 1)
        assert per_point.shape == (4, 30)
        for c in range(4):
            for i in range(30):
                want = source_margin_loss(scores[c, i], int(labels[i]), 1.0)
                assert per_point[c, i] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_read_off_the_ramps_equals_the_ramped_absolute_margins(self, k):
        # the kernel's former composition is the oracle, bit for bit: stacked
        # leading axes, a per-row rho and entries on the kinks 0, -0.0, +-rho
        rng = np.random.default_rng(25 + k)
        rho = rng.uniform(0.2, 2.0, size=(40, 1))
        s = planted_kinks(rng, (3, 2, 40, k), 1.0) * rho
        y = rng.integers(0, k, size=40)
        want = _ramp(_absolute_margin(s, y), rho).sum(axis=-1)
        assert_bitwise(_margin_violations(_signed_ramps(s, rho), y), want)

    def test_absolute_margin_kernel_matches_single_vectors(self):
        rng = np.random.default_rng(24)
        raw = rng.normal(size=(3, 20, 4))
        labels = rng.integers(1, 5, size=20)
        scores = _center(raw)  # what absolute_margin computes with
        mu = _absolute_margin(scores, labels - 1)
        assert mu.shape == scores.shape
        for c in range(3):
            for i in range(20):
                want = -scores[c, i]
                want[labels[i] - 1] = scores[c, i, labels[i] - 1]
                assert np.array_equal(mu[c, i], want)
                assert np.array_equal(absolute_margin(raw[c, i], int(labels[i])), want)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            margin_error(np.zeros((2, 5, 3)), [1, 2, 3, 4, 1], 1.0)
        with pytest.raises(ValueError):
            margin_error(np.zeros((5, 3)), [1, 2], 1.0)

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
        for cand, f in zip(rep.per_candidate, grid.scorers, strict=True):
            assert cand["src_margin_err"] == margin_error(f(pts), labels, 1.0)

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


SRC = Path(mcsda.__file__).resolve().parent

# object -> (pattern over an unparsed expression, the one function allowed to
# contain it, as (path under src/mcsda, function name))
KERNEL_RULES = {
    "ramp clamp": (
        re.compile(
            r"\bclip\((1\b|\w+, 0(\.0)?, 1\b)|\bmaximum\(1(\.0)? - .* / rho\b"
            r"|\bminimum\((np\.)?maximum\("
        ),
        ("margin.py", "_ramp_clamp"),
    ),
    "row-mean subtraction": (
        re.compile(
            r"-=? \(?[\w.\[\]]+\."
            r"(mean\([^)]*keepdims|sum\([^)]*\) / [\w.]+(\.size\b|\.shape\[))"
        ),
        ("margin.py", "_center"),
    ),
    "per-component disagreement": (
        re.compile(r"\(k - 1\) \* (np\.)?abs\("),
        ("margin.py", "_component_disagreement"),
    ),
    "violation-matrix diagonal": (
        re.compile(r"\bfill_diagonal\(|\[\.\.\., (\w+), \1\]"),
        ("margin.py", "_violation_matrix"),
    ),
    "absolute margin": (
        re.compile(r"\* signs\b"),
        ("margin.py", "_absolute_margin"),
    ),
    # the ramped absolute margins summed per point, or the class picking its
    # plain ramp and every other component its negated one
    "margin error": (
        re.compile(
            r"\b_ramp\(_absolute_margin\("
            r"|\bwhere\(.*\barange\(.*\) == .+, (?P<r>\w+)\[1\], (?P=r)\[0\]\)"
        ),
        ("divergence.py", "_margin_violations"),
    ),
    "signed decision margin": (
        re.compile(r"\bwhere\(.+, (?P<top>[A-Za-z_][\w\[\]:, ]*), -(?P=top)\)"),
        ("margin.py", "_decision_margin"),
    ),
    # the probability surrogates: |p1 - p2| summed over a row, the log ratio
    # (or the difference-times-difference row) of the symmetrized KL, and the
    # two cross terms of the symmetrized cross entropy
    "scaled L1": (
        re.compile(r"\babs\(\w+( - \w+)?\)\.sum\("),
        ("surrogates.py", "_l1"),
    ),
    "symmetrized KL": (
        re.compile(
            r"\blog\([^()]*(\([^()]*\))?\) - (np\.)?log\("
            r"|\(\w+ - \w+\) \* \(\w+ - \w+\)"
        ),
        ("surrogates.py", "_kl"),
    ),
    "symmetrized CE": (
        re.compile(
            r"\b\w+(, | \* )((np\.)?log\(\w+\)|l\w*)\)* \+ (np\.sum\(|_row_dot\()?"
            r"\w+(, | \* )((np\.)?log\(\w+\)|l\w*)"
        ),
        ("surrogates.py", "_ce"),
    ),
    # the max shift of the scores, and each exponential over its row sum
    "softmax": (
        re.compile(
            r"\b(\w+) - (\1\.max\(|(np\.)?max\(\1\b)"
            r"|\b(\w+) / (\4\.sum\(|(np\.)?sum\(\4\b)[^)]*keepdims"
        ),
        ("surrogates.py", "_softmax"),
    ),
    # dV/ds = p * (u - <p, u>) for per-row dV/dp = u
    "softmax chain rule": (
        re.compile(
            r"\b(?P<p>\w+) \* \((?P<u>\w+) - ((np\.)?sum\(|\()"
            r"((?P=p) \* (?P=u)|(?P=u) \* (?P=p))\b"
        ),
        ("surrogates.py", "_chain_softmax"),
    ),
    # every log but of a constant, and the 1e-12 clamp of its argument
    "guarded log": (
        re.compile(r"\blog\((?!\d)|\bmaximum\([^()]*, (_EPS|1e-12)\)"),
        ("surrogates.py", "_guarded_log"),
    ),
    # the log of entries picked by row and column, and their gradient step
    "picked-entry log loss": (
        re.compile(r"\] -= \(?\w+ / |log\(\w+\[(\.\.\., )?\w+(\[[^\]]*\])?, \w+"),
        ("surrogates.py", "_picked_log_loss"),
    ),
    # K >= 2 classes on the last axis: the one checker of class scores
    "class-count check": (
        re.compile(r"\.shape\[(-1|1)\] < 2\b|\.size < 2\b"),
        ("margin.py", "_check_scores"),
    ),
    # work under suppressed floating-point errors, checked after: the one
    # quiet block, where scores a caller supplied are centered
    "quiet block": (
        re.compile(r"\berrstate\("),
        ("margin.py", "_quiet_finite"),
    ),
    # a sum over points under masses or row weights, as a dot or a product
    # with the weights; the linear maps x @ w.T are not sums over points
    "weighted point sum": (
        re.compile(
            r"@ (np\.abs\(|_as_weights\()?w(eights)?\b(?!\.T)"
            r"|\b(np\.abs\()?w(eights)?\)? @ |\bnp\.dot\("
        ),
        ("margin.py", "_weighted_sum"),
    ),
    # centering scores that are centered already: whoever reads a margin
    # centers once, at entry, and no kernel owns a second centering
    "double centering": (
        re.compile(r"\b_center(_checked)?\(_center\("),
        None,
    ),
    # a hand-written margin-width check: rho as a checked real, or rho or its
    # half compared with 0
    "margin-width rule": (
        re.compile(
            r"\b_check_real\([^,]+, 'rho'"
            r"|\brho( / 2(\.0)?)?\)? (==|<=|<|>|>=) 0\b"
        ),
        ("margin.py", "_check_rho"),
    ),
}


def kernel_spellings(source: str, path: str) -> set[tuple[str, str, str]]:
    """(object, path, enclosing function) for every expression or augmented
    assignment of ``source`` that spells out one of the KERNEL_RULES objects."""
    tree = ast.parse(source)
    owner = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            owner[child] = node
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.expr, ast.AugAssign, ast.Assign)):
            continue
        if isinstance(node, ast.Constant):  # docstrings quote formulas
            continue
        text = ast.unparse(node)
        for name, (pattern, _) in KERNEL_RULES.items():
            if pattern.search(text):
                scope = node
                while scope in owner and not isinstance(scope, ast.FunctionDef):
                    scope = owner[scope]
                found.add((name, path, getattr(scope, "name", "<module>")))
    return found


class TestOneKernelPerObject:
    def test_each_object_is_spelled_out_in_its_kernel_only(self):
        found = set()
        for file in sorted(SRC.rglob("*.py")):
            rel = file.relative_to(SRC).as_posix()
            found |= kernel_spellings(file.read_text(), rel)
        # a rule without an owner spells out what no module may do
        owners = {(name, *where) for name, (_, where) in KERNEL_RULES.items() if where}
        assert found - owners == set(), "duplicate kernel outside its owner"
        assert found == owners  # every rule still recognizes its own kernel

    @pytest.mark.parametrize(
        "name, source",
        [
            ("ramp clamp", "def r(x, rho):\n    return np.clip(1.0 - x / rho, 0.0, 1.0)\n"),
            ("ramp clamp", "def r(x, rho):\n    return np.maximum(1.0 - x / rho, 0.0)\n"),
            ("ramp clamp", "def r(q):\n    return np.minimum(np.maximum(1.0 + q, 0.0), 1.0)\n"),
            ("ramp clamp", "def r(u):\n    return np.clip(u, 0.0, 1.0, out=u)\n"),
            ("row-mean subtraction", "def c(z):\n    return z - z.mean(axis=1, keepdims=True)\n"),
            ("row-mean subtraction", "def c(a):\n    a -= a.sum() / a.size\n"),
            ("per-component disagreement", "def p(k, d):\n    return (k - 1) * np.abs(d[0])\n"),
            ("violation-matrix diagonal", "def v(mu, s):\n    np.fill_diagonal(mu, s)\n"),
            ("violation-matrix diagonal", "def v(mu, s, i):\n    mu[..., i, i] = s\n"),
            ("signed decision margin", "def m(a, t):\n    return np.where(a, t, -t)\n"),
            ("absolute margin", "def a(s, signs, rho):\n    return _ramp(s * signs, rho)\n"),
            (
                "margin error",
                "def m(s, y, rho):\n    return _ramp(_absolute_margin(s, y), rho).sum(axis=-1)\n",
            ),
            (
                "margin error",
                "def m(r, y, k):\n    return np.where(np.arange(k) == y[:, None], r[1], r[0])\n",
            ),
            ("scaled L1", "def s(p1, p2):\n    return np.abs(p1 - p2).sum(axis=1) / 3.0\n"),
            ("scaled L1", "def s(d, w, k):\n    return float(np.abs(d).sum(axis=1) @ w) / k\n"),
            (
                "symmetrized KL",
                "def s(a, b):\n    return np.log(_clamped(a)) - np.log(_clamped(b))\n",
            ),
            (
                "symmetrized KL",
                "def s(p1, p2, l1, l2):\n    return ((p1 - p2) * (l1 - l2)).sum(-1)\n",
            ),
            ("symmetrized CE", "def s(p1, p2, l1, l2):\n    return (p1 * l2 + p2 * l1).sum(-1)\n"),
            (
                "symmetrized CE",
                "def s(r, q, cr, cq):\n"
                "    return np.sum(q * np.log(cr)) + np.sum(r * np.log(cq))\n",
            ),
            (
                "symmetrized CE",
                "def s(a, b, ca, cb):\n"
                "    return _row_dot(a, np.log(cb)) + _row_dot(b, np.log(ca))\n",
            ),
            ("softmax", "def s(z):\n    return np.exp(z - z.max(axis=1, keepdims=True))\n"),
            ("softmax", "def s(x):\n    return np.exp(x - np.max(x, axis=-1))\n"),
            ("softmax", "def s(e):\n    return e / np.sum(e, axis=-1, keepdims=True)\n"),
            (
                "softmax chain rule",
                "def c(p, g):\n    return p * (g - np.sum(p * g, axis=-1, keepdims=True))\n",
            ),
            (
                "softmax chain rule",
                "def c(q, u):\n    return q * (u - (u * q).sum(axis=1, keepdims=True))\n",
            ),
            ("guarded log", "def g(q):\n    return np.log(_clamped(q))\n"),
            ("guarded log", "def g(q):\n    return np.log(np.maximum(q, 1e-12))\n"),
            ("guarded log", "def g(q):\n    return np.maximum(q, _EPS)\n"),
            ("guarded log", "def g(p, rows, y):\n    return -np.log(p[rows, y - 1])\n"),
            ("picked-entry log loss", "def p(g, rows, c, w, n):\n    g[rows, c] -= w / n\n"),
            (
                "picked-entry log loss",
                "def p(g, rows, y, k, w, n):\n    g[rows, y - 1 + k] -= w / (2.0 * n)\n",
            ),
            (
                "picked-entry log loss",
                "def p(q, rows, c):\n    return -_guarded_log(q[..., rows, c])[0]\n",
            ),
            ("class-count check", "def c(s):\n    if s.shape[-1] < 2:\n        raise ValueError\n"),
            ("class-count check", "def c(s):\n    return s.ndim != 2 or s.shape[1] < 2\n"),
            ("class-count check", "def c(a):\n    if a.size < 2:\n        raise ValueError(a)\n"),
            (
                "quiet block",
                "def c(s):\n    with np.errstate(over='ignore'):\n        return _center(s)\n",
            ),
            ("weighted point sum", "def s(rows, w):\n    return float(rows @ w)\n"),
            ("weighted point sum", "def s(x, w):\n    return np.dot(x, w)\n"),
            ("weighted point sum", "def s(x, weights):\n    return x @ weights\n"),
            ("weighted point sum", "def s(q, w):\n    return -float(np.abs(w) @ q)\n"),
            ("double centering", "def t(f):\n    return _center(_center(f))\n"),
            ("double centering", "def g(s, i):\n    return _center_checked(_center(s), i)\n"),
            ("margin-width rule", "def r(self):\n    _check_real(self.rho, 'rho', 0.0)\n"),
            (
                "margin-width rule",
                "def r(rho):\n    if np.any(rho / 2.0 == 0.0):\n        raise ValueError\n",
            ),
        ],
    )
    def test_scan_flags_a_reintroduced_duplicate(self, name, source):
        assert (name, "dup.py", source[4]) in kernel_spellings(source, "dup.py")

    def test_scan_leaves_linear_maps_alone(self):
        source = "def f(x, w, b, w1):\n    return x @ w.T + b, (x @ w1.T) @ w1\n"
        assert kernel_spellings(source, "ok.py") == set()


def global_statements(source: str, path: str) -> set[tuple[str, int, str]]:
    """(path, line, name) for every name a ``global`` statement anywhere in
    ``source`` declares."""
    return {
        (path, node.lineno, name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
        for name in node.names
    }


class TestNoModuleState:
    def test_no_function_rebinds_a_module_level_name(self):
        found = set()
        for file in sorted(SRC.rglob("*.py")):
            found |= global_statements(file.read_text(), file.relative_to(SRC).as_posix())
        assert found == set(), "module-level state is back"

    def test_scan_flags_a_reintroduced_tally(self):
        source = (
            "_clamp_events = 0\n\n\n"
            "def _guarded_log(p):\n"
            "    global _clamp_events\n"
            "    _clamp_events += int(np.count_nonzero(p < _EPS))\n"
            "    return np.log(np.maximum(p, _EPS))\n"
        )
        assert global_statements(source, "dup.py") == {("dup.py", 5, "_clamp_events")}
