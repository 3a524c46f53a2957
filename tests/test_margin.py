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

from mcsda.divergence import SampleSet, margin_error, violation_tensor, zero_one_error
from mcsda.harness.surface import emit_surface_grid
from mcsda.margin import (
    ScoreVector,
    _check_count,
    _check_labels,
    _check_real,
    _check_weights,
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
from mcsda.surrogates import log_loss_with_grads
from mcsda.symmnets import confuse_src, eval_openset, openset_class_probs, openset_sampler
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
TAKES_RHO = [
    "ramp_loss", "violation_matrix", "mcsd_pointwise", "mcsd_tilde_pointwise",
    "mcsd_hat_pointwise", "phi_distance", "source_margin_loss",
]
TAKES_LABEL = ["absolute_margin", "relative_margin", "source_margin_loss"]
TAKES_PAIR = ["mcsd_pointwise", "mcsd_tilde_pointwise", "mcsd_hat_pointwise"]


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

    @pytest.mark.parametrize("name", TAKES_RHO)
    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
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
        for y in ([1.5, 2.0], [1.0, 2.9], [np.nan, 2.0]):
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
    "margin_error_1d_scores": (lambda: margin_error(np.zeros(3), [1, 2, 1], 1.0), "scores"),
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
