"""Divergence machinery checked against slow second implementations.

The oracles here avoid the vectorized kernels on purpose: plain double
loops over points and ordered scorer pairs, built on the single-vector
margin functions, so tensor-path bugs cannot cancel out.
"""

import math

import numpy as np
import pytest

from mcsda import divergence
from mcsda.divergence import (
    AdversarialDivergence,
    BoundViolation,
    SampleSet,
    ScorerGrid,
    divergence_exact_variant,
    empirical_mcsd,
    linear_scorer,
    margin_error,
    mcsd_divergence_adversarial,
    mcsd_divergence_exact,
    pac_bound_report,
    rademacher_estimate,
    smoothed_ramp,
    violation_tensor,
    zero_one_error,
)
from mcsda.margin import (
    mcsd_hat_pointwise,
    mcsd_pointwise,
    mcsd_tilde_pointwise,
    ramp_loss,
    source_margin_loss,
    violation_matrix,
)
from mcsda.surrogates import log_loss_with_grads
from mcsda.synthdata import gen_rotated_moons


def random_grid(rng, n_scorers, k, d, scale=0.7):
    scorers = [
        linear_scorer(rng.normal(scale=scale, size=(k, d)), rng.normal(scale=scale, size=k))
        for _ in range(n_scorers)
    ]
    return ScorerGrid(scorers, k=k)


def slow_empirical_mcsd(points, f1, f2, rho, weights=None):
    """Point-by-point oracle through the single-vector margin path."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=np.float64)
    s1, s2 = f1(pts), f2(pts)
    return sum(w[i] * mcsd_pointwise(s1[i], s2[i], rho) for i in range(n))


def slow_divergence(src_pts, tgt_pts, grid, rho, pointwise=mcsd_pointwise):
    """Ordered-pair enumeration oracle; returns (value, objective matrix)."""
    c = len(grid)
    obj = np.empty((c, c))
    for i, fi in enumerate(grid.scorers):
        for j, fj in enumerate(grid.scorers):
            tgt = slow_empirical_mcsd(tgt_pts, fi, fj, rho) if pointwise is mcsd_pointwise else None
            if pointwise is mcsd_pointwise:
                src = slow_empirical_mcsd(src_pts, fi, fj, rho)
            else:
                si, sj = fi(src_pts), fj(src_pts)
                src = float(np.mean([pointwise(si[r], sj[r], rho) for r in range(len(src_pts))]))
                ti, tj = fi(tgt_pts), fj(tgt_pts)
                tgt = float(np.mean([pointwise(ti[r], tj[r], rho) for r in range(len(tgt_pts))]))
            obj[i, j] = tgt - src
    return float(obj.max()), obj


class TestSampleSetAndGrid:
    def test_sample_set_validation(self):
        with pytest.raises(ValueError):
            SampleSet(np.empty((0, 2)))
        with pytest.raises(ValueError):
            SampleSet(np.array([[1.0, float("nan")]]))
        with pytest.raises(ValueError):
            SampleSet(np.ones((3, 2)), labels=[1, 2])
        with pytest.raises(ValueError):
            SampleSet(np.ones((2, 2)), labels=[0, 1])

    def test_1d_points_promoted(self):
        s = SampleSet(np.array([1.0, 2.0, 3.0]))
        assert s.points.shape == (3, 1)
        assert s.n == 3

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ScorerGrid([], k=2)
        with pytest.raises(ValueError):
            ScorerGrid([lambda x: x], k=1)
        bad_shape = ScorerGrid([lambda x: np.ones((x.shape[0], 3))], k=2)
        with pytest.raises(ValueError):
            bad_shape.evaluate(np.ones((2, 2)))

    def test_evaluate_recenters(self):
        grid = ScorerGrid([lambda x: np.ones((x.shape[0], 3)) * [1.0, 2.0, 6.0]], k=3)
        out = grid.evaluate(np.ones((4, 2)))
        np.testing.assert_allclose(out.sum(axis=-1), 0.0, atol=1e-12)


class TestViolationTensor:
    def test_matches_single_vector_path(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(5, 4)) * 2
        scores -= scores.mean(axis=1, keepdims=True)
        stacked = violation_tensor(scores, 1.0)
        for i in range(5):
            np.testing.assert_allclose(stacked[i], violation_matrix(scores[i], 1.0), atol=1e-14)


class TestEmpiricalMcsd:
    def test_matches_slow_oracle(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(15, 3))
        f1 = linear_scorer(rng.normal(size=(3, 3)), rng.normal(size=3))
        f2 = linear_scorer(rng.normal(size=(3, 3)), rng.normal(size=3))
        for rho in (0.5, 1.0, 5.0):
            fast = empirical_mcsd(pts, f1, f2, rho)
            slow = slow_empirical_mcsd(pts, f1, f2, rho)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_weights(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        f1 = linear_scorer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2))
        f2 = linear_scorer(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.zeros(2))
        all_first = empirical_mcsd(pts, f1, f2, 1.0, weights=[1.0, 0.0])
        assert all_first == pytest.approx(mcsd_pointwise(f1(pts)[0], f2(pts)[0], 1.0), abs=1e-12)
        with pytest.raises(ValueError):
            empirical_mcsd(pts, f1, f2, 1.0, weights=[0.7, 0.7])


class TestExactDivergence:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.src = rng.normal(size=(6, 2))
        self.tgt = rng.normal(size=(6, 2)) + [1.5, 0.0]
        self.grid = random_grid(rng, 20, k=3, d=2)

    def test_matches_enumeration_oracle(self):
        res = mcsd_divergence_exact(self.src, self.tgt, self.grid, 1.0)
        slow_val, slow_obj = slow_divergence(self.src, self.tgt, self.grid, 1.0)
        assert res.value == pytest.approx(slow_val, abs=1e-12)
        np.testing.assert_allclose(res.objective, slow_obj, atol=1e-12)
        assert res.objective[res.pair] == res.value

    @pytest.mark.parametrize("variant,pointwise", [
        ("tilde", mcsd_tilde_pointwise),
        ("hat", mcsd_hat_pointwise),
    ])
    def test_variant_matches_enumeration_oracle(self, variant, pointwise):
        res = divergence_exact_variant(self.src, self.tgt, self.grid, 1.0, variant=variant)
        slow_val, slow_obj = slow_divergence(self.src, self.tgt, self.grid, 1.0, pointwise=pointwise)
        assert res.value == pytest.approx(slow_val, abs=1e-12)
        np.testing.assert_allclose(res.objective, slow_obj, atol=1e-12)

    def test_variant_name_checked(self):
        with pytest.raises(ValueError):
            divergence_exact_variant(self.src, self.tgt, self.grid, 1.0, variant="nope")

    def test_nonnegative_and_zero_on_identical_samples(self):
        res = mcsd_divergence_exact(self.src, self.src, self.grid, 1.0)
        assert res.value == 0.0
        res2 = mcsd_divergence_exact(self.src, self.tgt, self.grid, 1.0)
        assert res2.value >= 0.0

    def test_directed_triangle_same_grid(self):
        rng = np.random.default_rng(21)
        mid = rng.normal(size=(7, 2)) + [0.7, 0.2]
        for rho in (0.5, 1.0):
            dpq = mcsd_divergence_exact(self.src, self.tgt, self.grid, rho).value
            dpm = mcsd_divergence_exact(self.src, mid, self.grid, rho).value
            dmq = mcsd_divergence_exact(mid, self.tgt, self.grid, rho).value
            assert dpq <= dpm + dmq + 1e-12

    def test_asymmetry_witness(self):
        fwd = mcsd_divergence_exact(self.src, self.tgt, self.grid, 1.0).value
        rev = mcsd_divergence_exact(self.tgt, self.src, self.grid, 1.0).value
        assert abs(fwd - rev) > 1e-9

    def test_point_mass_weights(self):
        # concentrating target mass on one point reduces to that point's row
        ws = np.full(6, 1.0 / 6)
        wt = np.zeros(6)
        wt[2] = 1.0
        res = mcsd_divergence_exact(self.src, self.tgt, self.grid, 1.0,
                                    src_weights=ws, tgt_weights=wt)
        slow_val = -np.inf
        for fi in self.grid.scorers:
            for fj in self.grid.scorers:
                tgt = mcsd_pointwise(fi(self.tgt)[2], fj(self.tgt)[2], 1.0)
                src = slow_empirical_mcsd(self.src, fi, fj, 1.0)
                slow_val = max(slow_val, tgt - src)
        assert res.value == pytest.approx(slow_val, abs=1e-12)


class TestAngleMonotonicity:
    def test_frozen_sweep(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, 12, k=2, d=2)
        expected = {0.0: 0.048152, 15.0: 0.132959, 30.0: 0.224679, 45.0: 0.319897}
        got = {}
        for angle, val in expected.items():
            pair = gen_rotated_moons(200, 200, angle, noise_sd=0.05, seed=3)
            got[angle] = mcsd_divergence_exact(
                pair.source.points, pair.target.points, grid, 1.0
            ).value
            assert got[angle] == pytest.approx(val, abs=1e-4)
        vals = [got[a] for a in sorted(got)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestSmoothedRamp:
    def test_exact_outside_windows(self):
        rho = 1.0
        h = rho / 200.0
        xs = np.concatenate([
            np.linspace(-2, -h * 1.01, 50),
            np.linspace(h * 1.01, rho - h * 1.01, 50),
            np.linspace(rho + h * 1.01, 3, 50),
        ])
        np.testing.assert_allclose(smoothed_ramp(xs, rho), ramp_loss(xs, rho), atol=1e-14)

    def test_c1_no_derivative_jumps(self):
        # numeric derivative over a dense grid spanning both kinks must not
        # jump by ~1/rho anywhere, unlike the raw ramp
        rho = 1.0
        xs = np.linspace(-0.02, 1.02, 20001)
        vals = np.asarray(smoothed_ramp(xs, rho))
        der = np.diff(vals) / np.diff(xs)
        jumps = np.abs(np.diff(der))
        assert jumps.max() < 0.05 / rho

    def test_close_to_ramp_inside_windows(self):
        rho = 2.0
        h = rho / 200.0
        xs = np.linspace(-h, h, 101)
        gap = np.abs(np.asarray(smoothed_ramp(xs, rho)) - ramp_loss(xs, rho))
        assert gap.max() <= h / rho + 1e-12

    def test_scalar_form(self):
        assert smoothed_ramp(-1.0, 1.0) == 1.0
        assert smoothed_ramp(2.0, 1.0) == 0.0
        # inside the kink windows, as one element of an array
        for x in (0.001, 0.999, 1.001):
            assert smoothed_ramp(x, 1.0) == smoothed_ramp(np.array([x]), 1.0)[0]

    def test_argument_checks(self):
        for rho in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                smoothed_ramp(0.5, rho)
        with pytest.raises(ValueError):
            smoothed_ramp(np.array([0.5, np.inf]), 1.0)


class TestAdversarialEstimator:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.src = np.concatenate([rng.normal(size=(20, 2)) * 0.3 + [-2.0, 0.0],
                                   rng.normal(size=(20, 2)) * 0.3 + [2.0, 0.0]])
        self.tgt = np.concatenate([rng.normal(size=(20, 2)) * 0.3 + [-2.0, 1.5],
                                   rng.normal(size=(20, 2)) * 0.3 + [2.0, -1.5]])

    def test_lower_bounds_enumeration_over_visited(self):
        res = mcsd_divergence_adversarial(self.src, self.tgt, k=2, rho=1.0, steps=60, seed=0)
        scorers = []
        for w1, b1, w2, b2 in res.visited:
            scorers.append(linear_scorer(w1, b1))
            scorers.append(linear_scorer(w2, b2))
        rng = np.random.default_rng(8)
        for _ in range(4):
            scorers.append(linear_scorer(rng.normal(size=(2, 2)), rng.normal(size=2)))
        grid = ScorerGrid(scorers, k=2)
        exact = mcsd_divergence_exact(self.src, self.tgt, grid, 1.0)
        assert res.value <= exact.value + 1e-12

    def test_finds_separation(self):
        res = mcsd_divergence_adversarial(self.src, self.tgt, k=2, rho=1.0, steps=120, seed=1)
        assert res.value > 1e-3

    def test_trajectory_monotone(self):
        res = mcsd_divergence_adversarial(self.src, self.tgt, k=2, rho=1.0, steps=80, seed=2)
        t = np.asarray(res.trajectory)
        assert np.all(np.diff(t) >= -1e-9)

    def test_identical_samples_near_zero(self):
        res = mcsd_divergence_adversarial(self.src, self.src, k=2, rho=1.0, steps=40, seed=0)
        assert abs(res.value) <= 1e-9

    def test_init_passthrough_and_value_consistency(self):
        init = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2),
                np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        res = mcsd_divergence_adversarial(self.src, self.tgt, k=2, rho=1.0, steps=0, init=init)
        grid = ScorerGrid([linear_scorer(init[0], init[1]), linear_scorer(init[2], init[3])], k=2)
        by_grid = mcsd_divergence_exact(self.src, self.tgt, grid, 1.0)
        # with zero steps the reported value is the init pair's exact objective
        assert res.value == pytest.approx(by_grid.objective[0, 1], abs=1e-12)
        assert isinstance(res, AdversarialDivergence)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            mcsd_divergence_adversarial(self.src, self.tgt, k=1, rho=1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"steps": -3},
            {"steps": 2.5},
            {"step_size": 0.0},
            {"step_size": -1.0},
            {"step_size": float("nan")},
            {"step_size": float("inf")},
        ],
        ids=lambda bad: "%s=%s" % next(iter(bad.items())),
    )
    def test_steps_and_step_size_are_checked_before_any_pass(self, bad, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a value pass ran")

        monkeypatch.setattr(divergence, "_smoothed_mcsd", no_pass)
        with pytest.raises(ValueError):
            mcsd_divergence_adversarial(self.src, self.tgt, k=2, rho=1.0, **bad)

    @pytest.mark.parametrize("good_passes", [1, 2], ids=["at_start", "after_one_step"])
    def test_stalled_line_search(self, good_passes, monkeypatch):
        # after ``good_passes`` value passes every trial scores 100 lower on
        # the target rows, so the line search halves its step 40 times in vain
        # (the first trial at the default step size is accepted on this pair)
        smoothed, n_src, passes = divergence._smoothed_mcsd, len(self.src), []

        def worse_later(a, b, rho):
            rows, grads = smoothed(a, b, rho)
            passes.append(None)
            if len(passes) > good_passes:
                rows = np.concatenate([rows[:n_src], rows[n_src:] - 100.0])
            return rows, grads

        monkeypatch.setattr(divergence, "_smoothed_mcsd", worse_later)
        res = mcsd_divergence_adversarial(self.src, self.tgt, k=2, rho=1.0, steps=10, seed=0)
        assert len(passes) == good_passes + 40
        assert len(res.trajectory) == len(res.visited) == good_passes
        for got, want in zip(res.final_heads, res.visited[-1]):
            assert np.array_equal(got, want)
        if good_passes == 1:  # no step was accepted
            warning = "line search could not improve the smoothed objective"
            assert (res.converged, res.warning) == (False, warning)
            pair = [linear_scorer(*res.final_heads[:2]), linear_scorer(*res.final_heads[2:])]
            exact = mcsd_divergence_exact(self.src, self.tgt, ScorerGrid(pair, k=2), 1.0)
            assert res.value == exact.objective[0, 1]
        else:
            assert (res.converged, res.warning) == (True, None)


class TestRademacher:
    def test_sign_family_against_independent_mc(self):
        # single candidate [w; -w] with zero bias: the component class is
        # {x.w, -x.w}, so each draw's sup is |sigma . (x.w)|
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 3))
        w = rng.normal(size=3)
        grid = ScorerGrid([linear_scorer(np.stack([w, -w]), np.zeros(2))], k=2)
        est = rademacher_estimate(pts, grid, sigma_draws=4000, seed=11)
        g = pts @ w
        rng2 = np.random.default_rng(77)
        sups = np.abs(rng2.choice((-1.0, 1.0), size=(20000, 40)) @ g)
        oracle = float(sups.mean()) / 40
        oracle_se = float(sups.std(ddof=1)) / (math.sqrt(20000) * 40)
        assert est.value == pytest.approx(oracle, abs=4 * (est.stderr + oracle_se))

    def test_exact_enumeration_small_m(self):
        # m = 10 allows summing all 2^10 sign vectors exactly
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(10, 2))
        grid = random_grid(rng, 3, k=2, d=2)
        evals = grid.evaluate(pts)
        comp = np.moveaxis(evals, 2, 1).reshape(-1, 10)
        total = 0.0
        for mask in range(1 << 10):
            sigma = np.array([1.0 if mask >> i & 1 else -1.0 for i in range(10)])
            total += (comp @ sigma).max()
        truth = total / (1 << 10) / 10
        est = rademacher_estimate(pts, grid, sigma_draws=6000, seed=1)
        assert est.value == pytest.approx(truth, abs=4 * est.stderr)

    def test_draw_validation(self):
        with pytest.raises(ValueError):
            rademacher_estimate(np.ones((3, 2)), random_grid(np.random.default_rng(0), 2, 2, 2),
                                sigma_draws=1)


class TestErrorFunctionals:
    def test_margin_error_matches_pointwise_loop(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=(12, 3)) * 2
        scores -= scores.mean(axis=1, keepdims=True)
        labels = rng.integers(1, 4, size=12)
        for rho in (0.5, 1.0):
            fast = margin_error(scores, labels, rho)
            slow = np.mean([source_margin_loss(scores[i], int(labels[i]), rho) for i in range(12)])
            assert fast == pytest.approx(float(slow), abs=1e-12)

    def test_zero_one_error(self):
        scores = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, -2.0]])
        assert zero_one_error(scores, [1, 1]) == 0.5
        assert zero_one_error(scores, [1, 2]) == 0.0
        assert zero_one_error(scores, [1, 2], weights=[1.0, 0.0]) == 0.0

    def test_label_validation(self):
        with pytest.raises(ValueError):
            margin_error(np.zeros((2, 3)), [1, 4], 1.0)

    @pytest.mark.parametrize("labels", [[1], [1, 2, 3], [0, 1, 2]])
    def test_zero_one_error_label_validation(self, labels):
        # a short label list must not broadcast; labels outside {1..K} must
        # not count as errors: the same check as margin_error's
        for error in (zero_one_error, lambda s, y: margin_error(s, y, 1.0)):
            with pytest.raises(ValueError):
                error(np.zeros((3, 2)), labels)


PTS3 = np.array([[0.0, 1.0], [1.0, -0.5], [-1.0, 0.3]])
GRID3 = random_grid(np.random.default_rng(9), 3, k=2, d=2)
SCORES3 = np.array([[1.0, -1.0], [-0.5, 0.5], [0.2, -0.2]])
F3, G3 = GRID3.scorers[:2]


class TestMassesAndCounts:
    """Masses and weights must be finite and non-negative, never passed on
    as a NaN result; counts must be integers, never truncated."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: empirical_mcsd(PTS3, F3, G3, 1.0, weights=w),
            lambda w: mcsd_divergence_exact(PTS3, PTS3, GRID3, 1.0, src_weights=w),
            lambda w: mcsd_divergence_exact(PTS3, PTS3, GRID3, 1.0, tgt_weights=w),
            lambda w: divergence_exact_variant(PTS3, PTS3, GRID3, 1.0, "hat", src_weights=w),
            lambda w: mcsd_divergence_adversarial(PTS3, PTS3, 2, 1.0, steps=1, src_weights=w),
            lambda w: mcsd_divergence_adversarial(PTS3, PTS3, 2, 1.0, steps=1, tgt_weights=w),
            lambda w: margin_error(SCORES3, [1, 2, 1], 1.0, weights=w),
            lambda w: zero_one_error(SCORES3, [1, 2, 1], weights=w),
            lambda w: log_loss_with_grads(SCORES3, [1, 2, 1], weights=w),
        ],
        ids=[
            "empirical_mcsd", "exact_src", "exact_tgt", "variant", "adversarial_src",
            "adversarial_tgt", "margin_error", "zero_one_error", "log_loss_with_grads",
        ],
    )
    def test_rejects_non_finite_and_negative_masses(self, call):
        call([0.5, 0.25, 0.25])
        for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [-0.5, 1.0, 0.5]):
            with pytest.raises(ValueError):
                call(bad)

    @pytest.mark.parametrize("bad", [2.9, 3.5, 1, 0, np.nan, np.inf, "3"])
    def test_sigma_draws_must_be_an_integer_of_at_least_2(self, bad):
        with pytest.raises(ValueError, match="sigma_draws"):
            rademacher_estimate(PTS3, GRID3, sigma_draws=bad)

    @pytest.mark.parametrize("bad", [3.7, 2.5, 1, np.nan])
    def test_grid_k_must_be_an_integer_of_at_least_2(self, bad):
        with pytest.raises(ValueError, match="K must"):
            ScorerGrid(GRID3.scorers, bad)

    def test_integral_counts_are_taken_as_ints(self):
        est = rademacher_estimate(PTS3, GRID3, sigma_draws=3.0, seed=4)
        assert est == rademacher_estimate(PTS3, GRID3, sigma_draws=3, seed=4)
        assert type(est.n_draws) is int
        assert ScorerGrid(GRID3.scorers, 2.0).k == 2
        assert type(ScorerGrid(GRID3.scorers, np.int64(2)).k) is int


class TestPacBoundReport:
    def setup_method(self):
        rng = np.random.default_rng(17)
        src_pts = np.concatenate([rng.normal(size=(30, 2)) * 0.5 + m
                                  for m in ([0.0, 2.0], [2.0, -1.0], [-2.0, -1.0])])
        src_lab = np.repeat([1, 2, 3], 30)
        tgt_pts = src_pts + [0.4, 0.1] + rng.normal(size=src_pts.shape) * 0.1
        self.src = SampleSet(src_pts, src_lab)
        self.tgt = SampleSet(tgt_pts, src_lab.copy())
        self.grid = random_grid(rng, 8, k=3, d=2, scale=1.0)

    def test_terms_match_independent_formulas(self):
        rho, delta = 1.0, 0.05
        rep = pac_bound_report(self.src, self.tgt, self.grid, rho, delta=delta,
                               sigma_draws=500, seed=0)
        k, n_s, n_t = 3, self.src.n, self.tgt.n
        assert rep.rad_src_multiplier == pytest.approx(2 * k * k / rho + 4 * k / rho, abs=1e-12)
        assert rep.rad_tgt_multiplier == pytest.approx(4 * k / rho, abs=1e-12)
        assert rep.slack_src == pytest.approx(6 * k * math.sqrt(math.log(4 / delta) / (2 * n_s)), abs=1e-12)
        assert rep.slack_tgt == pytest.approx(3 * k * math.sqrt(math.log(4 / delta) / (2 * n_t)), abs=1e-12)
        # lambda: best joint margin error over the grid, recomputed slowly
        scores_s = self.grid.evaluate(self.src.points)
        scores_t = self.grid.evaluate(self.tgt.points)
        lam = min(
            margin_error(scores_s[i], self.src.labels, rho)
            + margin_error(scores_t[i], self.tgt.labels, rho)
            for i in range(len(self.grid))
        )
        assert rep.lambda_joint == pytest.approx(lam, abs=1e-12)
        assert rep.divergence == pytest.approx(
            mcsd_divergence_exact(self.src, self.tgt, self.grid, rho).value, abs=1e-12)

    def test_selected_minimizes_source_margin_error(self):
        rep = pac_bound_report(self.src, self.tgt, self.grid, 1.0, sigma_draws=500)
        errs = [c["src_margin_err"] for c in rep.per_candidate]
        assert rep.src_margin_err == min(errs)
        assert rep.holds and rep.holds_for_all

    def test_rhs_assembly(self):
        rep = pac_bound_report(self.src, self.tgt, self.grid, 1.0, sigma_draws=500)
        rhs = (rep.src_margin_err + rep.divergence
               + rep.rad_src_multiplier * rep.rademacher_src
               + rep.rad_tgt_multiplier * rep.rademacher_tgt
               + rep.slack_src + rep.slack_tgt + rep.lambda_joint)
        assert rep.rhs_total == pytest.approx(rhs, abs=1e-12)
        assert rep.lhs_target_err <= rep.rhs_total

    def test_json_round_trip_keys(self):
        rep = pac_bound_report(self.src, self.tgt, self.grid, 1.0, sigma_draws=500)
        blob = rep.to_json()
        assert blob["lambda"] == rep.lambda_joint
        assert len(blob["per_candidate"]) == len(self.grid)

    def test_requires_labels(self):
        with pytest.raises(ValueError):
            pac_bound_report(SampleSet(self.src.points), self.tgt, self.grid, 1.0)
        with pytest.raises(ValueError):
            pac_bound_report(self.src, self.tgt, self.grid, 1.0, delta=1.5)

    def test_bound_violation_is_runtime_error(self):
        assert issubclass(BoundViolation, RuntimeError)
