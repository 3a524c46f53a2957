"""Probability-level surrogates: frozen constants and cross-implementations.

KL and cross-entropy oracles are re-coded here with plain math loops so the
module under test is never checked against itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsda.surrogates import (
    ce_with_grads,
    clamp_count,
    dann_with_grads,
    kl_with_grads,
    l1_with_grads,
    log_loss,
    log_loss_with_grads,
    mdd_variant_with_grads,
    reset_clamp_count,
    sigmoid,
    softmax,
    sur_ce,
    sur_kl,
    sur_l1,
)

UNIFORM3 = [1.0 / 3.0] * 3


def kl_oracle(p, q):
    """Symmetrized KL, plain-loop second implementation."""
    tot = 0.0
    for a, b in zip(p, q):
        a = max(a, 1e-12)
        b = max(b, 1e-12)
        tot += a * math.log(a / b) + b * math.log(b / a)
    return 0.5 * tot


def entropy(p):
    return -sum(a * math.log(max(a, 1e-12)) for a in p)


def prob_strategy(k):
    raw = st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=k, max_size=k
    )
    return raw.map(lambda v: [x / sum(v) for x in v])


class TestSoftmax:
    def test_frozen_values(self):
        p = softmax([1.0, 0.0, -1.0])
        np.testing.assert_allclose(p, [0.66524096, 0.24472847, 0.09003057], atol=1e-5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax(rng.normal(size=(50, 4)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        s = np.array([2.0, -1.0, 0.5])
        np.testing.assert_allclose(softmax(s), softmax(s + 100.0), atol=1e-12)

    def test_extreme_scores_stable(self):
        p = softmax([1000.0, 0.0])
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            softmax([float("nan"), 0.0])
        with pytest.raises(ValueError):
            softmax([1.0])


class TestSigmoid:
    def test_values(self):
        assert sigmoid(np.array(0.0)) == 0.5
        assert sigmoid(np.array(-800.0)) == 0.0
        assert sigmoid(np.array(800.0)) == 1.0

    def test_symmetry(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


class TestPointwiseSurrogates:
    def test_l1_frozen(self):
        assert sur_l1(softmax([1.0, 0.0, -1.0]), UNIFORM3) == pytest.approx(0.22127, abs=1e-4)

    def test_l1_range_and_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = softmax(rng.normal(size=4) * 3)
            q = softmax(rng.normal(size=4) * 3)
            d = sur_l1(p, q)
            assert 0.0 <= d <= 2.0 / 4.0
            assert d == sur_l1(q, p)

    @given(prob_strategy(3), prob_strategy(3))
    def test_kl_matches_oracle(self, p, q):
        assert sur_kl(p, q) == pytest.approx(kl_oracle(p, q), abs=1e-10)

    def test_kl_nonnegative_zero_on_equal(self):
        assert sur_kl(UNIFORM3, UNIFORM3) == 0.0
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = softmax(rng.normal(size=3) * 2)
            q = softmax(rng.normal(size=3) * 2)
            assert sur_kl(p, q) >= 0.0

    def test_ce_uniform_is_log3(self):
        assert sur_ce(UNIFORM3, UNIFORM3) == pytest.approx(math.log(3.0), abs=1e-12)

    @given(prob_strategy(4), prob_strategy(4))
    def test_ce_decomposition(self, p, q):
        expect = kl_oracle(p, q) + 0.5 * (entropy(p) + entropy(q))
        assert sur_ce(p, q) == pytest.approx(expect, abs=1e-10)

    def test_kl_triangle_violation_witness(self):
        p, q, r = [0.4, 0.6], [0.5, 0.5], [0.6, 0.4]
        assert sur_kl(p, r) > sur_kl(p, q) + sur_kl(q, r) + 0.01

    def test_ce_triangle_violation_witness(self):
        p, q, r = [0.999, 0.001], [0.998, 0.002], [0.001, 0.999]
        assert sur_ce(p, r) > sur_ce(p, q) + sur_ce(q, r) + 0.1

    def test_log_loss_uniform(self):
        for y in (1, 2, 3):
            assert log_loss(UNIFORM3, y) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_log_loss_label_check(self):
        with pytest.raises(ValueError):
            log_loss(UNIFORM3, 0)
        with pytest.raises(ValueError):
            log_loss(UNIFORM3, 4)
        with pytest.raises(ValueError):
            log_loss([0.2, 0.8], 1.5)

    def test_prob_validation(self):
        with pytest.raises(ValueError):
            sur_l1([0.5, 0.5], [0.7, 0.4])
        with pytest.raises(ValueError):
            sur_kl([0.5, 0.5], [0.5, 0.5, 0.0])
        with pytest.raises(ValueError):
            sur_ce([-0.1, 1.1], [0.5, 0.5])


class TestClampTally:
    def test_counts_and_resets(self):
        reset_clamp_count()
        sur_kl([1.0, 0.0], [0.5, 0.5])
        assert clamp_count() >= 1
        n = reset_clamp_count()
        assert n >= 1
        assert clamp_count() == 0

    def test_no_clamps_on_interior_points(self):
        reset_clamp_count()
        sur_kl([0.4, 0.6], [0.3, 0.7])
        sur_ce([0.4, 0.6], [0.3, 0.7])
        assert clamp_count() == 0


def fd_check(fn, args, wrt, grad, eps=1e-6, tol=1e-5):
    """Central finite differences of fn(*args)[0] against grad at args[wrt]."""
    base = [np.array(a, dtype=np.float64) for a in args]
    g = np.asarray(grad)
    flat = base[wrt].reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = fn(*base)[0]
        flat[i] = keep - eps
        dn = fn(*base)[0]
        flat[i] = keep
        fd = (up - dn) / (2 * eps)
        an = g.reshape(-1)[i]
        assert abs(fd - an) <= tol * max(1.0, abs(fd), abs(an))


class TestBatchGradients:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.s1 = rng.normal(size=(4, 3)) * 1.5
        self.s2 = rng.normal(size=(4, 3)) * 1.5

    @pytest.mark.parametrize("fn", [l1_with_grads, kl_with_grads, ce_with_grads])
    def test_finite_differences(self, fn):
        _, g1, g2 = fn(self.s1, self.s2)
        fd_check(fn, (self.s1, self.s2), 0, g1)
        fd_check(fn, (self.s1, self.s2), 1, g2)

    @pytest.mark.parametrize("fn", [l1_with_grads, kl_with_grads, ce_with_grads])
    def test_gradient_rows_sum_to_zero(self, fn):
        # score gradients live in the softmax tangent space
        _, g1, g2 = fn(self.s1, self.s2)
        np.testing.assert_allclose(g1.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(g2.sum(axis=1), 0.0, atol=1e-12)

    def test_l1_zero_gradient_on_identical_rows(self):
        v, g1, g2 = l1_with_grads(self.s1, self.s1.copy())
        assert v == 0.0
        assert np.all(g1 == 0.0) and np.all(g2 == 0.0)

    def test_value_matches_pointwise_mean(self):
        v, _, _ = kl_with_grads(self.s1, self.s2)
        rows = [kl_oracle(softmax(a), softmax(b)) for a, b in zip(self.s1, self.s2)]
        assert v == pytest.approx(float(np.mean(rows)), abs=1e-10)

    def test_log_loss_closed_form(self):
        v, g = log_loss_with_grads(np.array([[0.0, 0.0]]), [1])
        assert v == pytest.approx(math.log(2.0), abs=1e-12)
        np.testing.assert_allclose(g, [[-0.5, 0.5]], atol=1e-12)

    def test_log_loss_weights(self):
        s = np.array([[2.0, -1.0, 0.5], [0.0, 1.0, -1.0]])
        v0, g0 = log_loss_with_grads(s, [1, 2], weights=[0.0, 1.0])
        assert g0[0] == pytest.approx(0.0, abs=0.0)
        v1, _ = log_loss_with_grads(s[1:], [2])
        assert v0 == pytest.approx(v1 / 2.0, abs=1e-12)
        fd_check(lambda x: log_loss_with_grads(x, [1, 2], weights=[0.3, 1.7]), (s,), 0,
                 log_loss_with_grads(s, [1, 2], weights=[0.3, 1.7])[1])

    def test_log_loss_validation(self):
        with pytest.raises(ValueError):
            log_loss_with_grads(np.zeros((2, 3)), [1])
        with pytest.raises(ValueError):
            log_loss_with_grads(np.zeros((2, 3)), [1, 4])
        with pytest.raises(ValueError):
            log_loss_with_grads(np.zeros((2, 3)), [1, 2], weights=[1.0])


class TestMddVariant:
    def test_uniform_aux_frozen_terms(self):
        # aux head at zero scores is uniform over 3 classes
        ref_src = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        ref_tgt = np.array([[0.0, 0.0, 5.0]])
        aux_src = np.zeros((2, 3))
        aux_tgt = np.zeros((1, 3))
        src, tgt, _, _ = mdd_variant_with_grads(ref_src, aux_src, ref_tgt, aux_tgt)
        assert src == pytest.approx(math.log(3.0), abs=1e-12)
        assert tgt == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        ref_s, aux_s = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        ref_t, aux_t = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        src, tgt, g_src, g_tgt = mdd_variant_with_grads(ref_s, aux_s, ref_t, aux_t)
        fd_check(lambda a: (mdd_variant_with_grads(ref_s, a, ref_t, aux_t)[0],),
                 (aux_s,), 0, g_src)
        fd_check(lambda a: (mdd_variant_with_grads(ref_s, aux_s, ref_t, a)[1],),
                 (aux_t,), 0, g_tgt)

    def test_pinned_values(self):
        # reference decisions: class 1 on the source point, class 2 on the
        # target point; the auxiliary head is uniform over three classes
        w = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        src_batch = np.array([[3.0, 0.0]])
        tgt_batch = np.array([[0.0, 3.0]])
        src, tgt, _, _ = mdd_variant_with_grads(
            src_batch @ w.T, np.zeros((1, 3)), tgt_batch @ w.T, np.zeros((1, 3))
        )
        assert src == pytest.approx(math.log(3.0), abs=1e-12)
        assert tgt == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)


class TestDann:
    def test_matches_independent_bce(self):
        rng = np.random.default_rng(4)
        ds, dt = rng.normal(size=6) * 2, rng.normal(size=5) * 2
        src, tgt, _, _ = dann_with_grads(ds, dt)
        bce_src = float(np.mean([-math.log(sigmoid(np.array(v))) for v in ds]))
        bce_tgt = float(np.mean([-math.log(1 - sigmoid(np.array(v))) for v in dt]))
        assert src == pytest.approx(bce_src, abs=1e-10)
        assert tgt == pytest.approx(-bce_tgt, abs=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        ds, dt = rng.normal(size=4), rng.normal(size=3)
        src, tgt, g_src, g_tgt = dann_with_grads(ds, dt)
        fd_check(lambda a: (dann_with_grads(a, dt)[0],), (ds,), 0, g_src)
        fd_check(lambda a: (dann_with_grads(ds, a)[1],), (dt,), 0, g_tgt)

    def test_pinned_values(self):
        src, tgt, _, _ = dann_with_grads(np.array([0.0]), np.array([0.0]))
        assert src == pytest.approx(math.log(2.0), abs=1e-12)
        assert tgt == pytest.approx(math.log(0.5), abs=1e-12)
