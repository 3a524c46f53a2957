"""Margin primitives: frozen worked examples plus property sweeps.

The worked examples were derived by hand from the definitions (ramp of
absolute margins, entrywise L1 of violation matrices) before the module
was written; they pin exact values, not implementation echoes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsda.divergence import violation_tensor
from mcsda.margin import (
    ScoreVector,
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
