"""Margin primitives: frozen worked examples plus property sweeps.

The worked examples were derived by hand from the definitions (ramp of
absolute margins, entrywise L1 of violation matrices) before the module
was written; they pin exact values, not implementation echoes.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcsda.divergence import (
    SampleSet,
    ScorerGrid,
    linear_scorer,
    margin_error,
    mcsd_divergence_exact,
    mcsd_rows,
    pac_bound_report,
    violation_tensor,
    zero_one_error,
)
from mcsda.harness.surface import emit_surface_grid
from mcsda.margin import (
    ScoreVector,
    _check_count,
    _check_labels,
    _check_points,
    _check_real,
    _check_scores,
    _check_weights,
    _weighted_sum,
    absolute_margin,
    argmax_label,
    as_scores,
    mcsd_hat_pointwise,
    mcsd_pointwise,
    mcsd_tilde_pointwise,
    phi_distance,
    ramp_loss,
    relative_margin,
    source_margin_loss,
    violation_matrix,
)
from mcsda.neural import MlpScorer, SgdMomentum
from mcsda.surrogates import (
    ce_with_grads,
    dann_with_grads,
    kl_with_grads,
    l1_with_grads,
    log_loss,
    log_loss_with_grads,
    mdd_variant_with_grads,
    softmax,
    sur_ce,
    sur_kl,
    sur_l1,
)
from mcsda.symmnets import (
    confuse_src,
    confuse_tgt,
    disagreement_bound_gap,
    discrim,
    eval_openset,
    loss_task_src,
    openset_class_probs,
    openset_sampler,
    partial_weights,
)
from mcsda.synthdata import DomainPair, gen_gauss_blobs, gen_rotated_moons

F = [10.0, -5.0, -5.0]
G = [-5.0, 10.0, -5.0]


def scores_strategy(k):
    elem = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=64)
    return st.lists(elem, min_size=k, max_size=k)


class TestRampLoss:
    def test_kinks_exact(self):
        assert ramp_loss(0.0, 1.0) == 1.0
        assert ramp_loss(1.0, 1.0) == 0.0
        assert ramp_loss(0.5, 1.0) == 0.5
        assert ramp_loss(2.5, 5.0) == 0.5

    def test_saturation(self):
        assert ramp_loss(-100.0, 1.0) == 1.0
        assert ramp_loss(100.0, 1.0) == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-2.0, 2.0, 41)
        vec = ramp_loss(xs, 0.7)
        for x, v in zip(xs, vec):
            assert ramp_loss(float(x), 0.7) == v

    @given(
        x=st.floats(min_value=-100, max_value=100, allow_nan=False),
        y=st.floats(min_value=-100, max_value=100, allow_nan=False),
        rho=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    def test_range_monotone_lipschitz(self, x, y, rho):
        vx, vy = ramp_loss(x, rho), ramp_loss(y, rho)
        assert 0.0 <= vx <= 1.0
        if x <= y:
            assert vx >= vy
        assert abs(vx - vy) <= abs(x - y) / rho + 1e-12

    def test_rejects_bad_rho(self):
        for rho in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ramp_loss(0.5, rho)

    def test_rejects_non_finite_argument(self):
        with pytest.raises(ValueError):
            ramp_loss(float("nan"), 1.0)


class TestScoreVector:
    def test_centering(self):
        np.testing.assert_allclose(as_scores([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])

    def test_already_centered_passthrough(self):
        np.testing.assert_allclose(as_scores(F), F)

    def test_readonly(self):
        v = ScoreVector([1.0, -1.0])
        with pytest.raises(ValueError):
            v.scores[0] = 5.0

    def test_rejects_short_and_non_finite(self):
        with pytest.raises(ValueError):
            ScoreVector([1.0])
        with pytest.raises(ValueError):
            ScoreVector([1.0, float("inf")])

    @given(scores_strategy(4))
    def test_always_sums_to_zero(self, raw):
        s = as_scores(raw)
        assert abs(s.sum()) <= 1e-9 * max(1.0, np.abs(s).max())


class TestMargins:
    def test_absolute_margin_worked(self):
        np.testing.assert_allclose(absolute_margin(F, 1), [10.0, 5.0, 5.0])
        np.testing.assert_allclose(absolute_margin(F, 2), [-10.0, -5.0, 5.0])

    def test_all_positive_margins_force_argmax(self):
        # mu(f, y) > 0 everywhere means f_y > 0 > f_k for k != y
        rng = np.random.default_rng(11)
        for _ in range(200):
            f = rng.normal(size=4)
            for y in range(1, 5):
                mu = absolute_margin(f, y)
                if np.all(mu > 0):
                    assert argmax_label(f) == y

    def test_relative_margin_worked(self):
        assert relative_margin(F, 1) == 7.5
        assert relative_margin(F, 2) == -7.5

    def test_argmax_tie_lowest_index(self):
        assert argmax_label([3.0, 3.0, -6.0]) == 1

    def test_label_validation(self):
        for y in (0, 4, 1.5):
            with pytest.raises(ValueError):
                absolute_margin(F, y)


class TestViolationMatrix:
    def test_worked_example_f(self):
        expect = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(violation_matrix(F, 5.0), expect)

    def test_worked_example_g(self):
        expect = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(violation_matrix(G, 5.0), expect)

    def test_fractional_levels(self):
        # f = [1, 0, -1] at rho = 5: diag ramps 0.8 / 1 / 1, rows 1 / 1 / 0.8
        expect = np.array([[0.8, 1.0, 1.0], [1.0, 1.0, 1.0], [0.8, 0.8, 1.0]])
        np.testing.assert_allclose(violation_matrix([1.0, 0.0, -1.0], 5.0), expect)

    @given(scores_strategy(3), st.sampled_from([0.5, 1.0, 5.0]))
    def test_entries_in_unit_interval(self, raw, rho):
        m = violation_matrix(raw, rho)
        assert m.shape == (3, 3)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)


class TestMcsdPointwise:
    def test_worked_example(self):
        assert mcsd_pointwise(F, G, 5.0) == 2.0

    def test_fractional_example(self):
        # |M([1,0,-1]) - M(0)| sums to 0.6, divided by K = 3
        assert mcsd_pointwise([1.0, 0.0, -1.0], [0.0, 0.0, 0.0], 5.0) == pytest.approx(0.2, abs=1e-12)

    def test_identical_scorers(self):
        assert mcsd_pointwise(F, F, 5.0) == 0.0

    def test_k_mismatch(self):
        with pytest.raises(ValueError):
            mcsd_pointwise([1.0, -1.0], F, 1.0)

    @settings(max_examples=200)
    @given(scores_strategy(3), scores_strategy(3), st.sampled_from([0.5, 1.0, 5.0]))
    def test_symmetry_and_range(self, a, b, rho):
        d = mcsd_pointwise(a, b, rho)
        assert d == mcsd_pointwise(b, a, rho)
        assert 0.0 <= d <= 3.0

    @settings(max_examples=200)
    @given(scores_strategy(4), scores_strategy(4), scores_strategy(4))
    def test_triangle(self, a, b, c):
        rho = 1.0
        dab = mcsd_pointwise(a, b, rho)
        dbc = mcsd_pointwise(b, c, rho)
        dac = mcsd_pointwise(a, c, rho)
        assert dac <= dab + dbc + 1e-12


class TestPhiDistance:
    def test_worked_components(self):
        # component pairs of F vs G at rho = 5: phi = 3, 3, 0
        assert phi_distance(10.0, -5.0, 5.0, 3) == 3.0
        assert phi_distance(-5.0, 10.0, 5.0, 3) == 3.0
        assert phi_distance(-5.0, -5.0, 5.0, 3) == 0.0

    def test_component_sum_recovers_matrix_distance(self):
        total = sum(phi_distance(a, b, 5.0, 3) for a, b in zip(F, G))
        assert total == pytest.approx(3 * mcsd_pointwise(F, G, 5.0), abs=1e-12)

    @settings(max_examples=300)
    @given(
        scores_strategy(5),
        scores_strategy(5),
        st.sampled_from([0.5, 1.0, 5.0]),
    )
    def test_identity_random(self, a, b, rho):
        sa, sb = as_scores(a), as_scores(b)
        total = float(np.sum(phi_distance(sa, sb, rho, 5)))
        assert total == pytest.approx(5 * mcsd_pointwise(sa, sb, rho), abs=1e-12)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            phi_distance(1.0, 0.0, 1.0, 1)


class TestDecisionVariants:
    def test_tilde_self_is_zero_when_confident(self):
        assert mcsd_tilde_pointwise(F, F, 5.0) == 0.0

    def test_tilde_disagreement_saturates(self):
        assert mcsd_tilde_pointwise(F, G, 5.0) == 1.0

    def test_hat_worked(self):
        assert mcsd_hat_pointwise(F, G, 5.0) == 1.0
        assert mcsd_hat_pointwise(F, F, 5.0) == 0.0

    def test_tilde_uses_half_width(self):
        # agreeing argmax with decision score rho/4: ramp at rho/2 gives 0.5
        f = [3.0, 0.0, -3.0]
        s = as_scores(f)
        rho = 4.0 * s[0]
        assert mcsd_tilde_pointwise(f, f, rho) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=200)
    @given(scores_strategy(3), scores_strategy(3), st.sampled_from([0.5, 1.0, 5.0]))
    # a decision margin of 1.48e-16: 1 - m/rho rounds to 1 at rho = 5, and
    # not at the tilde width rho/2, so 'hat' must not be read off the ramp
    @example([-1.0, -1.0, 0.0], [-2.22e-16, -2.22e-16, 0.0], 5.0)
    def test_hat_binary_and_dominates_tilde(self, a, b, rho):
        hat = mcsd_hat_pointwise(a, b, rho)
        tilde = mcsd_tilde_pointwise(a, b, rho)
        assert hat in (0.0, 1.0)
        assert 0.0 <= tilde <= 1.0
        if hat == 1.0:
            assert tilde == 1.0


class TestSourceMarginLoss:
    def test_worked_examples(self):
        assert source_margin_loss(F, 2, 5.0) == 2.0
        assert source_margin_loss(F, 1, 5.0) == 0.0

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.normal(size=4) * 3
            for y in range(1, 5):
                v = source_margin_loss(f, y, 1.0)
                assert 0.0 <= v <= 4.0


class TestPointwiseLemmas:
    """Seeded sweeps of the single-point inequalities behind the bounds."""

    @staticmethod
    def _err(f, y):
        return 1.0 if argmax_label(f) != y else 0.0

    def _sweep(self, rho, k, n=400, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            scale = rng.choice([0.2, 1.0, 3.0]) * rho
            f = rng.normal(size=k) * scale
            fp = rng.normal(size=k) * scale
            y = int(rng.integers(1, k + 1))
            yield f, fp, y

    @pytest.mark.parametrize("rho,k", [(0.5, 2), (1.0, 3), (5.0, 4)])
    def test_error_bounded_by_loss_plus_disagreement(self, rho, k):
        for f, fp, y in self._sweep(rho, k):
            lhs = self._err(f, y)
            rhs = source_margin_loss(fp, y, rho) + mcsd_pointwise(f, fp, rho)
            assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("rho,k", [(0.5, 2), (1.0, 3), (5.0, 4)])
    def test_disagreement_bounded_by_loss_sum(self, rho, k):
        for f, fp, y in self._sweep(rho, k, seed=1):
            lhs = mcsd_pointwise(f, fp, rho)
            rhs = source_margin_loss(f, y, rho) + source_margin_loss(fp, y, rho)
            assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("variant", [mcsd_tilde_pointwise, mcsd_hat_pointwise])
    def test_decision_variants_obey_same_bounds(self, variant):
        rho, k = 1.0, 3
        for f, fp, y in self._sweep(rho, k, seed=2):
            d = variant(f, fp, rho)
            assert d <= source_margin_loss(f, y, rho) + source_margin_loss(fp, y, rho) + 1e-12
            err = self._err(fp, y)
            assert err <= source_margin_loss(f, y, rho) + d + 1e-12


# Every public function validates its own arguments; the table gives each one
# a call with defaults that pass, so each case swaps in one bad argument.
GOOD = [1.0, 0.0, -1.0]
PUBLIC = {
    "ScoreVector": lambda f=GOOD, g=GOOD, rho=1.0, y=1: ScoreVector(f),
    "as_scores": lambda f=GOOD, g=GOOD, rho=1.0, y=1: as_scores(f),
    "ramp_loss": lambda f=GOOD, g=GOOD, rho=1.0, y=1: ramp_loss(f, rho),
    "argmax_label": lambda f=GOOD, g=GOOD, rho=1.0, y=1: argmax_label(f),
    "absolute_margin": lambda f=GOOD, g=GOOD, rho=1.0, y=1: absolute_margin(f, y),
    "relative_margin": lambda f=GOOD, g=GOOD, rho=1.0, y=1: relative_margin(f, y),
    "violation_matrix": lambda f=GOOD, g=GOOD, rho=1.0, y=1: violation_matrix(f, rho),
    "mcsd_pointwise": lambda f=GOOD, g=GOOD, rho=1.0, y=1: mcsd_pointwise(f, g, rho),
    "mcsd_tilde_pointwise": lambda f=GOOD, g=GOOD, rho=1.0, y=1: mcsd_tilde_pointwise(f, g, rho),
    "mcsd_hat_pointwise": lambda f=GOOD, g=GOOD, rho=1.0, y=1: mcsd_hat_pointwise(f, g, rho),
    "phi_distance": lambda f=GOOD, g=GOOD, rho=1.0, y=1: phi_distance(f, g, rho, len(GOOD)),
    "source_margin_loss": lambda f=GOOD, g=GOOD, rho=1.0, y=1: source_margin_loss(f, y, rho),
}
ONES = np.ones((2, 1))


def overflow_grid(f):
    """Two candidates: constant scores f on every point, then zeros."""
    return ScorerGrid([lambda x: np.tile(f, (len(x), 1)), lambda x: np.zeros((len(x), 2))], 2)


TAKES_RHO = [
    "ramp_loss", "violation_matrix", "mcsd_pointwise", "mcsd_tilde_pointwise",
    "mcsd_hat_pointwise", "phi_distance", "source_margin_loss",
]
TAKES_LABEL = ["absolute_margin", "relative_margin", "source_margin_loss"]
TAKES_PAIR = ["mcsd_pointwise", "mcsd_tilde_pointwise", "mcsd_hat_pointwise"]


def row_dots(rows, w):
    """The weighted sums' oracle: one 1-D ``np.dot`` per row, each row
    copied contiguous."""
    out = np.empty(rows.shape[:-1])
    for idx in np.ndindex(out.shape):
        out[idx] = np.dot(np.ascontiguousarray(rows[idx]), w)
    return out


def weighted_rows(rng, lead, n, layout):
    """Rows [*lead, n] laid out contiguous, as a transpose, or as the sum over
    fancy-indexed picks of a stack, which puts the leading axes innermost."""
    if layout == "contiguous":
        return rng.normal(size=(*lead, n))
    if layout == "transposed":
        return np.transpose(rng.normal(size=(n, *lead[::-1])))
    base = rng.normal(size=(*lead, n, 3))
    picks = rng.integers(0, 3, size=(n, 2))
    return base[..., np.arange(n)[:, None], picks].sum(axis=-1)


class TestWeightedSum:
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "fancy"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 31, 32, 33, 96, 127, 128, 129, 600])
    def test_each_sum_is_its_rows_contiguous_dot(self, n, layout):
        rng = np.random.default_rng(n)
        for lead in [(), (3,), (4, 4), (2, 5)]:
            rows = weighted_rows(rng, lead, n, layout)
            assert rows.shape == (*lead, n)
            for w in (rng.dirichlet(np.ones(n)), rng.normal(size=n)):
                got = _weighted_sum(rows, w)
                assert np.shape(got) == lead
                assert np.array_equal(got, row_dots(rows, w))


class TestPublicValidation:
    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_good_arguments_pass(self, name):
        PUBLIC[name]()

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, name, bad):
        with pytest.raises(ValueError):
            PUBLIC[name](f=[1.0, bad, -1.0])
        if name in TAKES_PAIR or name == "phi_distance":
            with pytest.raises(ValueError):
                PUBLIC[name](g=[1.0, bad, -1.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("name", sorted(set(PUBLIC) - {"ramp_loss", "phi_distance"}))
    def test_rejects_scores_that_overflow_when_centered(self, name):
        with pytest.raises(ValueError):
            PUBLIC[name](f=[1e308, 1e308, -1e308])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call, name",
        [
            (as_scores, "f"),
            (ScoreVector, "scores"),
            (lambda f: disagreement_bound_gap([f], [[1.0, 2.0]], [1], 1.0), "raw_s"),
            (lambda f: overflow_grid(f).evaluate(ONES), "candidate 0's scores"),
            (
                lambda f: mcsd_divergence_exact(ONES, ONES, overflow_grid(f), 1.0),
                "candidate 0's scores",
            ),
            (
                lambda f: pac_bound_report(
                    SampleSet(ONES, [1, 2]), SampleSet(ONES, [1, 2]), overflow_grid(f), 1.0,
                    sigma_draws=2,
                ),
                "candidate 0's scores",
            ),
            # the raw scores are finite; the grid's centering overflows
            (
                lambda f: ScorerGrid([linear_scorer([[0.0], [0.0]], f)], 2).evaluate([[10.0]]),
                "candidate 0's scores",
            ),
        ],
        ids=[
            "as_scores", "ScoreVector", "disagreement_bound_gap", "ScorerGrid.evaluate",
            "mcsd_divergence_exact", "pac_bound_report", "linear_scorer",
        ],
    )
    def test_centering_overflow_is_named_before_numpy_warns(self, call, name):
        with pytest.raises(ValueError, match="^centered %s must be finite" % name):
            call([1.7e308, 1.7e308])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scores, want",
        [
            ([1.7e308, -1.7e308], [1.0, 0.0]),
            ([-1.7e308, 0.0, 1.7e308], [0.0, 0.0, 1.0]),
            ([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]], [[1.0, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_softmax_of_a_row_wider_than_the_float_range_is_clean(self, scores, want):
        assert np.array_equal(softmax(scores), want)

    @pytest.mark.parametrize("name", TAKES_RHO)
    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf, 5e-324, 1e-320])
    def test_rejects_bad_rho(self, name, rho):
        with pytest.raises(ValueError):
            PUBLIC[name](rho=rho)

    def test_tilde_rejects_a_half_width_that_underflows(self):
        with pytest.raises(ValueError):
            mcsd_tilde_pointwise(GOOD, GOOD, 5e-324)

    @pytest.mark.parametrize("name", TAKES_LABEL)
    @pytest.mark.parametrize("y", [0, 4, 1.5, -1])
    def test_rejects_bad_label(self, name, y):
        with pytest.raises(ValueError):
            PUBLIC[name](y=y)

    @pytest.mark.parametrize(
        "call",
        [
            lambda y: log_loss_with_grads(np.zeros((2, 3)), y),
            lambda y: zero_one_error(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]), y),
            lambda y: margin_error(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]), y, 1.0),
            lambda y: confuse_src(np.zeros((2, 6)), y),
            lambda y: SampleSet(np.zeros((2, 1)), y),
            lambda y: eval_openset(y, [1, 2], 2),
            lambda y: eval_openset([1, 2], y, 2),
            lambda y: DomainPair(
                SampleSet(np.zeros((2, 1)), [1, 2]), SampleSet(np.zeros((2, 1))), "closed",
                {"k": 3}, y,
            ),
        ],
        ids=[
            "log_loss_with_grads", "zero_one_error", "margin_error", "confuse_src", "SampleSet",
            "eval_openset_pred", "eval_openset_true", "DomainPair_hidden",
        ],
    )
    def test_batch_labels_must_be_integral(self, call):
        call(np.array([1.0, 2.0]))  # integral floats are labels
        for y in ([1.5, 2.0], [1.0, 2.9], [np.nan, 2.0], [1e20, 2.0]):
            with pytest.raises(ValueError, match="integers"):
                call(y)

    @pytest.mark.parametrize("name", TAKES_PAIR)
    def test_rejects_k_mismatch(self, name):
        with pytest.raises(ValueError):
            PUBLIC[name](g=[1.0, -1.0])
        with pytest.raises(ValueError):
            PUBLIC[name](f=[1.0, 0.5, 0.0, -1.5])



class TestMcsdPointwiseAgainstTensor:
    """The single-vector oracle agrees with the stacked violation tensor,
    kinks (entries at 0 and +-rho) and ties included."""

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_matches_violation_tensor(self, k, rho):
        rng = np.random.default_rng(100 + k)
        a = rng.normal(scale=2.0 * rho, size=(60, k))
        b = rng.normal(scale=2.0 * rho, size=(60, k))
        kinks = rng.choice([-rho, 0.0, rho], size=(2, 30, k))
        kinks[..., -1] = -kinks[..., :-1].sum(axis=-1)
        a = np.concatenate([a - a.mean(axis=1, keepdims=True), kinks[0], np.zeros((3, k))])
        b = np.concatenate([b - b.mean(axis=1, keepdims=True), kinks[1], np.zeros((3, k))])
        b[::5] = a[::5]
        ta, tb = violation_tensor(a, rho), violation_tensor(b, rho)
        want = np.abs(ta - tb).sum(axis=(-2, -1)) / k
        got = np.array([mcsd_pointwise(x, y, rho) for x, y in zip(a, b)])
        assert np.abs(got - want).max() <= 1e-12
        assert np.all(got[::5] == 0.0)
        for i in range(0, len(a), 7):
            assert np.abs(violation_matrix(a[i], rho) - ta[i]).max() <= 1e-12


class TestBatchAgreesWithSingleVectors:
    """On the same raw scores, the batch functions center at entry as the
    single-vector ones do, so each row agrees with its single-vector value."""

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 5.0])
    def test_rows_match_single_vectors_on_raw_scores(self, k, rho):
        rng = np.random.default_rng(200 + k)
        # rows of mixed magnitude, each shifted off the sum-to-zero plane
        scale = rho * rng.choice([0.2, 1.0, 3.0], size=(2, 40, 1))
        a, b = rng.uniform(-2.0, 2.0, size=(2, 40, k)) * scale + rng.normal(0, 3, (2, 40, 1))
        y = rng.integers(1, k + 1, size=40)
        w = rng.random(40)
        w /= w.sum()
        want = sum(w[i] * source_margin_loss(a[i], int(y[i]), rho) for i in range(40))
        assert abs(margin_error(a, y, rho, w) - want) <= 1e-12
        pointwise = [mcsd_pointwise(a[i], b[i], rho) for i in range(40)]
        assert np.abs(mcsd_rows(a, b, rho) - pointwise).max() <= 1e-12
        tensor = violation_tensor(a, rho)
        assert max(np.abs(tensor[i] - violation_matrix(a[i], rho)).max() for i in range(40)) <= 1e-12

    def test_a_linear_scorer_composes_with_margin_error(self):
        rng = np.random.default_rng(5)
        f = linear_scorer(rng.normal(size=(3, 2)), rng.normal(3.0, 1.0, size=3))
        x, y = rng.normal(size=(30, 2)), rng.integers(1, 4, size=30)
        one_at_a_time = [source_margin_loss(f(x[i : i + 1])[0], int(y[i]), 1.0) for i in range(30)]
        assert abs(margin_error(f(x), y, 1.0) - np.mean(one_at_a_time)) <= 1e-12

    def test_margin_error_of_a_raw_row_is_its_single_vector_value(self):
        assert margin_error([[3.0, 1.0]], [1], 1.0) == source_margin_loss([3.0, 1.0], 1, 1.0) == 0.0


class TestCheckers:
    """One checker per kind of input: counts, reals, weight vectors, labels."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "1.0", None, [1.0, 2.0], 10**400])
    def test_real_rejects_non_finite_values_and_non_numbers(self, value):
        with pytest.raises(ValueError, match=r"^width must be a finite real in \(-inf, inf\)"):
            _check_real(value, "width")

    def test_real_interval_ends(self):
        assert _check_real(0, "x", 0.0, 1.0) == 0.0 and type(_check_real(1, "x", 0.0, 1.0)) is float
        assert _check_real(np.float64(0.5), "x", 0.0, 1.0, open_low=True, open_high=True) == 0.5
        with pytest.raises(ValueError, match=r"^x must be a finite real in \(0, 1\], got 0.0$"):
            _check_real(0.0, "x", 0.0, 1.0, open_low=True)
        with pytest.raises(ValueError, match=r"^x must be a finite real in \[0, 1\), got 1.0$"):
            _check_real(1.0, "x", 0.0, 1.0, open_high=True)

    def test_count_takes_integral_values_and_rejects_the_rest(self):
        assert _check_count(3.0, "n", 1) == 3 and type(_check_count(3.0, "n", 1)) is int
        assert _check_count(np.int64(0), "n", 0) == 0
        for bad in (2.5, np.nan, np.inf, "3", None, 0):
            with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
                _check_count(bad, "n", 1)

    def test_weights(self):
        np.testing.assert_array_equal(_check_weights([0, 2], 2, "w"), [0.0, 2.0])
        for bad in ([1.0], [1.0, -1.0], [1.0, np.nan], [1.0, np.inf]):
            with pytest.raises(ValueError, match="^w must be 2 non-negative finite weights"):
                _check_weights(bad, 2, "w")

    def test_labels_leave_the_check_zero_based(self):
        y = _check_labels([1, 3, 2.0], 3, 3)
        assert y.dtype == np.int64
        np.testing.assert_array_equal(y, [0, 2, 1])


def _sgd_step(lr):
    param = np.zeros(2)
    try:
        SgdMomentum(param).step(np.ones(2), lr=lr)
    finally:
        assert np.array_equal(param, np.zeros(2))  # a rejected step leaves the parameters


# inputs that some hand-written range checks used to accept or reject with
# a TypeError or with a message that does not name them; each goes through a
# checker now, with the parameter's name
FORMERLY_UNCHECKED = {
    "sgd_lr_nan": (lambda: _sgd_step(np.nan), "lr"),
    "sgd_lr_inf": (lambda: _sgd_step(np.inf), "lr"),
    "openset_nu_nan": (lambda: openset_class_probs(3, np.nan), "nu"),
    "openset_nu_inf": (lambda: openset_class_probs(3, np.inf), "nu"),
    "phi_distance_fractional_k": (lambda: phi_distance(0.5, -0.5, 1.0, 2.5), "K"),
    "mlp_fractional_width": (lambda: MlpScorer(2, {"f": 2}, hidden=(2.5,)), "hidden"),
    "blobs_negative_std": (lambda: gen_gauss_blobs(3, 5, (1.0, 0.5), std=-1.0), "std"),
    "moons_fractional_count": (lambda: gen_rotated_moons(2.5, 10, 30.0), "n_src"),
    "surface_fractional_resolution": (
        lambda: emit_surface_grid("mcsd", 1.0, resolution=2.5),
        "resolution",
    ),
    "sampler_fractional_batch": (
        lambda: openset_sampler(SampleSet(np.zeros((3, 2)), [1, 2, 3]), 2.0, 2.5),
        "batch_size",
    ),
    "moons_angle_nan": (lambda: gen_rotated_moons(10, 10, np.nan), "angle_deg"),
    "blobs_radius_nan": (lambda: gen_gauss_blobs(3, 5, (1.0, 0.5), radius=np.nan), "radius"),
    "blobs_shift_inf": (lambda: gen_gauss_blobs(3, 5, (1.0, np.inf)), "shift_vector"),
    "blobs_shift_nan": (lambda: gen_gauss_blobs(3, 5, (np.nan, 0.5)), "shift_vector"),
    "surface_span_inf": (lambda: emit_surface_grid("mcsd", 1.0, span=np.inf), "span"),
    "surface_span_nan": (lambda: emit_surface_grid("mcsd", 1.0, span=np.nan), "span"),
    # a 1-D array is one row of scores: here a row of one class
    "margin_error_1d_scores": (lambda: margin_error(np.zeros(1), [1], 1.0), "scores"),
    "margin_error_3d_scores": (lambda: margin_error(np.zeros((3, 5, 2)), [1] * 5, 1.0), "scores"),
    "margin_error_square_scores": (
        lambda: margin_error(np.zeros((5, 5, 2)), [1] * 5, 1.0),
        "scores",
    ),
}


@pytest.mark.parametrize("case", FORMERLY_UNCHECKED)
def test_each_input_kind_is_checked_and_named(case):
    call, name = FORMERLY_UNCHECKED[case]
    with pytest.raises(ValueError) as info, warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before numpy sees the value
        call()
    assert str(info.value).startswith(name + " "), str(info.value)


# Every public function that takes class scores, once per score argument:
# (argument name, the form it asks for, a good value, the call with every
# other argument good).  Forms: "vector" [K], "rows" [n, K] (a 1-D array is
# one row), "joint" rows [n, 2K], "any" [..., K], "domain" one score per
# point [n] or [n, 1].
V3 = [1.0, 0.0, -1.0]
P3 = [0.5, 0.25, 0.25]
ROWS = np.array([[1.0, 0.0, -1.0], [0.5, -0.5, 0.0], [0.0, 2.0, -2.0], [1.5, 0.5, -2.0]])
JOINT = np.concatenate([ROWS, ROWS[::-1]], axis=1)
Y4 = [1, 2, 3, 1]
D4 = ROWS[:, 0]

SCORE_ARGS = {
    "ScoreVector": ("scores", "vector", V3, ScoreVector),
    "as_scores": ("f", "vector", V3, as_scores),
    "argmax_label": ("f", "vector", V3, argmax_label),
    "absolute_margin": ("f", "vector", V3, lambda f: absolute_margin(f, 1)),
    "relative_margin": ("f", "vector", V3, lambda f: relative_margin(f, 1)),
    "violation_matrix": ("f", "vector", V3, lambda f: violation_matrix(f, 1.0)),
    "source_margin_loss": ("f", "vector", V3, lambda f: source_margin_loss(f, 1, 1.0)),
    "mcsd_pointwise_f1": ("f1", "vector", V3, lambda f: mcsd_pointwise(f, V3, 1.0)),
    "mcsd_pointwise_f2": ("f2", "vector", V3, lambda f: mcsd_pointwise(V3, f, 1.0)),
    "mcsd_tilde_f1": ("f1", "vector", V3, lambda f: mcsd_tilde_pointwise(f, V3, 1.0)),
    "mcsd_hat_f2": ("f2", "vector", V3, lambda f: mcsd_hat_pointwise(V3, f, 1.0)),
    "sur_l1_p1": ("p1", "vector", P3, lambda p: sur_l1(p, P3)),
    "sur_kl_p2": ("p2", "vector", P3, lambda p: sur_kl(P3, p)),
    "sur_ce_p1": ("p1", "vector", P3, lambda p: sur_ce(p, P3)),
    "log_loss": ("p", "vector", P3, lambda p: log_loss(p, 1)),
    "l1_with_grads_s1": ("s1", "rows", ROWS, lambda s: l1_with_grads(s, ROWS)),
    "kl_with_grads_s2": ("s2", "rows", ROWS, lambda s: kl_with_grads(ROWS, s)),
    "ce_with_grads_s1": ("s1", "rows", ROWS, lambda s: ce_with_grads(s, ROWS)),
    "log_loss_with_grads": ("scores", "rows", ROWS, lambda s: log_loss_with_grads(s, Y4)),
    "mdd_ref_src": ("ref_src", "rows", ROWS, lambda s: mdd_variant_with_grads(s, ROWS, ROWS, ROWS)),
    "mdd_aux_src": ("aux_src", "rows", ROWS, lambda s: mdd_variant_with_grads(ROWS, s, ROWS, ROWS)),
    "mdd_ref_tgt": ("ref_tgt", "rows", ROWS, lambda s: mdd_variant_with_grads(ROWS, ROWS, s, ROWS)),
    "mdd_aux_tgt": ("aux_tgt", "rows", ROWS, lambda s: mdd_variant_with_grads(ROWS, ROWS, ROWS, s)),
    "dann_d_src": ("d_src", "domain", D4, lambda d: dann_with_grads(d, D4)),
    "dann_d_tgt": ("d_tgt", "domain", D4, lambda d: dann_with_grads(D4, d)),
    "loss_task_src": ("scores", "rows", ROWS, lambda s: loss_task_src(s, Y4)),
    "confuse_src": ("z", "joint", JOINT, lambda z: confuse_src(z, Y4)),
    "confuse_tgt": ("z", "joint", JOINT, confuse_tgt),
    "discrim_z_src": ("z_src", "joint", JOINT, lambda z: discrim(z, Y4, JOINT)),
    "discrim_z_tgt": ("z_tgt", "joint", JOINT, lambda z: discrim(JOINT, Y4, z)),
    "bound_gap_raw_s": ("raw_s", "rows", ROWS, lambda s: disagreement_bound_gap(s, ROWS, Y4, 1.0)),
    "bound_gap_raw_t": ("raw_t", "rows", ROWS, lambda s: disagreement_bound_gap(ROWS, s, Y4, 1.0)),
    "partial_weights": ("tgt_scores_t", "rows", ROWS, lambda s: partial_weights(s, 0.5)),
    "margin_error": ("scores", "rows", ROWS, lambda s: margin_error(s, Y4, 1.0)),
    "zero_one_error": ("scores", "rows", ROWS, lambda s: zero_one_error(s, Y4)),
    "softmax": ("scores", "any", ROWS, softmax),
    "mcsd_rows_a": ("a", "any", ROWS, lambda a: mcsd_rows(a, ROWS, 1.0)),
    "mcsd_rows_b": ("b", "any", ROWS, lambda b: mcsd_rows(ROWS, b, 1.0)),
    "violation_tensor": ("scores", "any", ROWS, lambda s: violation_tensor(s, 1.0)),
}


def bad_scores(kind: str, form: str, good) -> object:
    """``good`` made bad in one way, keeping its form otherwise."""
    g = np.array(good, dtype=np.float64)
    if kind in ("nan", "inf"):
        g.flat[-1] = np.nan if kind == "nan" else np.inf
        return g
    if kind == "complex":
        return g + 1j
    if kind == "strings":  # numbers as text are not numbers
        return g.astype(str)
    if kind == "empty":
        return g[:0]
    if kind == "ragged":
        if g.ndim == 2:  # the last row one class short
            return [list(r) for r in g[:-1]] + [list(g[-1, :-1])]
        return [g[0], list(g[1:])]
    if kind == "one_class":
        return g[..., : 2 if form == "joint" else 1]
    # wrong rank: a 0-d scalar for any leading axes, two scores per point for
    # a domain head, one axis too many otherwise
    if form == "any":
        return g[0, 0]
    return np.stack([g, g], axis=1) if form == "domain" else g[None]


BAD_KINDS = ("nan", "inf", "complex", "strings", "empty", "ragged", "one_class", "wrong_rank")
# cases that were rejected by name, without a warning, before the scores had
# one checker
ALREADY_NAMED = {
    ("ScoreVector", "nan"),
    ("ScoreVector", "inf"),
    ("margin_error", "wrong_rank"),
    ("zero_one_error", "wrong_rank"),
}
SCORE_CASES = [
    (entry, kind)
    for entry, (_, form, _, _) in SCORE_ARGS.items()
    for kind in BAD_KINDS
    # a domain head has one score per point by design
    if (entry, kind) not in ALREADY_NAMED and not (form == "domain" and kind == "one_class")
]

# pairs whose one-shape rule is new: the checked pair, the call
MISMATCHED_PAIRS = {
    "sur_l1": ("p1 and p2", lambda: sur_l1([0.5, 0.5], P3)),
    "sur_kl": ("p1 and p2", lambda: sur_kl(P3, [0.5, 0.5])),
    "mcsd_rows": ("a and b", lambda: mcsd_rows(ROWS, ROWS[:3], 1.0)),
    "disagreement_bound_gap": (
        "raw_s and raw_t",
        lambda: disagreement_bound_gap(ROWS, ROWS[:, :2], Y4, 1.0),
    ),
}


# the row-batch functions called on one row, every score argument a 1-D
# array and then the same row as [1, K]
ONE_ROW = {
    "l1_with_grads": (l1_with_grads, (ROWS[0], ROWS[1])),
    "log_loss_with_grads": (lambda s: log_loss_with_grads(s, [1]), (ROWS[0],)),
    "mdd_variant_with_grads": (mdd_variant_with_grads, tuple(ROWS)),
    "loss_task_src": (lambda s: loss_task_src(s, [2]), (ROWS[1],)),
    "confuse_src": (lambda z: confuse_src(z, [3]), (JOINT[2],)),
    "confuse_tgt": (confuse_tgt, (JOINT[0],)),
    "discrim": (lambda a, b: discrim(a, [1], b), (JOINT[0], JOINT[1])),
    "disagreement_bound_gap": (
        lambda a, b: disagreement_bound_gap(a, b, [1], 1.0),
        (ROWS[0], ROWS[3]),
    ),
    "partial_weights": (lambda s: partial_weights(s, 0.5), (ROWS[2],)),
    "margin_error": (lambda s: margin_error(s, [1], 1.0), (ROWS[3],)),
    "zero_one_error": (lambda s: zero_one_error(s, [2]), (ROWS[3],)),
}


class TestScoresChecks:
    """Class scores have one checker, ``margin._check_scores``: every bad
    score argument ends in a ValueError that names it, before numpy warns."""

    @pytest.mark.parametrize("entry", list(SCORE_ARGS))
    def test_good_scores_pass(self, entry):
        _, _, good, call = SCORE_ARGS[entry]
        call(good)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry, kind", SCORE_CASES)
    def test_bad_scores_are_rejected_by_name(self, entry, kind):
        name, form, good, call = SCORE_ARGS[entry]
        with pytest.raises(ValueError, match="^%s must" % name):
            call(bad_scores(kind, form, good))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", list(MISMATCHED_PAIRS))
    def test_mismatched_pairs_are_rejected_by_name(self, entry):
        names, call = MISMATCHED_PAIRS[entry]
        with pytest.raises(ValueError, match="^%s must have one shape" % names):
            call()

    @pytest.mark.filterwarnings("error")
    def test_probabilities_are_checked_as_a_probability_vector(self):
        for p in ([2.0, -1.0], [0.5, 0.6]):
            with pytest.raises(ValueError, match="^p is not a probability vector"):
                log_loss(p, 1)
        assert log_loss([0.25, 0.75], 2) == -np.log(0.75)

    @pytest.mark.filterwarnings("error")
    def test_complex_arguments_and_candidate_scores_are_rejected_by_name(self):
        for call, name in (
            (lambda: ramp_loss(1j, 1.0), "x"),
            (lambda: phi_distance(0.5 + 0j, 0.5, 1.0, 3), "a"),
            (lambda: phi_distance(0.5, [0.5j], 1.0, 3), "b"),
            (lambda: ScorerGrid([lambda x: x + 1j], 2).evaluate(np.zeros((3, 2))), "candidate 0's"),
        ):
            with pytest.raises(ValueError, match="^%s " % name):
                call()

    @pytest.mark.parametrize("entry", list(ONE_ROW))
    def test_a_1d_array_is_one_row(self, entry):
        call, rows = ONE_ROW[entry]
        got, want = call(*rows), call(*(r[None] for r in rows))
        got, want = (x if isinstance(x, tuple) else (x,) for x in (got, want))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_domain_scores_may_be_one_column(self):
        got, want = dann_with_grads(D4[:, None], D4[::-1, None]), dann_with_grads(D4, D4[::-1])
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_checked_float64_arrays_are_not_copied(self):
        stack, rows = np.zeros((2, 3, 4)), np.zeros((2, 3))
        assert _check_scores(stack, "scores", None) is stack
        assert _check_scores(rows, "scores") is rows
        assert _check_scores(rows[0], "scores").base is rows
        vector = rows[0]
        assert _check_scores(vector, "f", 1) is vector
        assert _check_points(rows, "points") is rows
        assert softmax(stack).shape == stack.shape
