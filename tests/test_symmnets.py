"""Two-classifier objectives: frozen loss values, sampler frequencies,
per-step bound enforcement, and two small training desk checks."""

import math

import numpy as np
import pytest

from mcsda import symmnets
from mcsda.divergence import SampleSet, empirical_mcsd, margin_error
from mcsda.neural import MlpScorer, SgdMomentum, center_scores
from mcsda.surrogates import _softmax, clamp_count, reset_clamp_count, softmax
from mcsda.symmnets import (
    HEAD_S,
    HEAD_T,
    OpensetEval,
    confuse_src,
    confuse_tgt,
    disagreement_bound_gap,
    discrim,
    eval_openset,
    loss_task_src,
    openset_class_probs,
    openset_sampler,
    partial_weights,
    symmnets_step,
)
from mcsda.synthdata import gen_gauss_blobs

BIG = 20.0


def two_head_model(k, seed=0, in_dim=2):
    return MlpScorer(in_dim, {HEAD_S: k, HEAD_T: k}, seed=seed)


def stepped(model, opt, *args, lr, **kwargs):
    """``symmnets_step`` followed by the optimizer update it leaves to its
    caller; returns the loss values."""
    values, grads = symmnets_step(model, *args, **kwargs)
    if grads is not None:
        opt.step(grads, lr)
    return values


class TestTaskLoss:
    def test_uniform_scores_give_log_k(self):
        v, g = loss_task_src(np.zeros((4, 3)), [1, 2, 3, 1])
        assert v == pytest.approx(math.log(3.0), abs=1e-12)
        assert g.shape == (4, 3)

    def test_zero_omega_kills_loss(self):
        v, g = loss_task_src(np.random.default_rng(0).normal(size=(4, 3)), [1, 2, 3, 1],
                             omega=[0.0, 0.0, 0.0])
        assert v == 0.0
        np.testing.assert_allclose(g, 0.0, atol=0.0)

    def test_omega_reweights_per_label(self):
        s = np.random.default_rng(1).normal(size=(2, 3))
        full, _ = loss_task_src(s, [2, 2])
        half, _ = loss_task_src(s, [2, 2], omega=[1.0, 0.5, 1.0])
        assert half == pytest.approx(0.5 * full, abs=1e-12)

    def test_omega_validation(self):
        with pytest.raises(ValueError):
            loss_task_src(np.zeros((1, 3)), [1], omega=[1.0, 1.0])
        with pytest.raises(ValueError):
            loss_task_src(np.zeros((1, 3)), [1], omega=[1.0, -0.1, 1.0])
        with pytest.raises(ValueError):  # the labels are checked before omega is indexed
            loss_task_src(np.zeros((2, 3)), [7, 2])


class TestConfuseSrc:
    def test_even_split_gives_log2(self):
        # joint mass 0.5/0.5 on the label's two neurons
        z = np.array([[BIG, 0.0, BIG, 0.0]])
        v, _ = confuse_src(z, [1])
        assert v == pytest.approx(math.log(2.0), abs=1e-6)

    def test_zero_omega(self):
        v, g = confuse_src(np.random.default_rng(2).normal(size=(3, 4)), [1, 2, 1],
                           omega=[0.0, 0.0])
        assert v == 0.0
        np.testing.assert_allclose(g, 0.0, atol=0.0)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(3, 6))
        y = [2, 1, 3]
        w = [1.0, 0.4, 0.7]
        _, g = confuse_src(z, y, omega=w)
        eps = 1e-6
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                z[i, j] += eps
                up = confuse_src(z, y, omega=w)[0]
                z[i, j] -= 2 * eps
                dn = confuse_src(z, y, omega=w)[0]
                z[i, j] += eps
                assert (up - dn) / (2 * eps) == pytest.approx(g[i, j], abs=1e-6)

    def test_joint_shape_validation(self):
        with pytest.raises(ValueError):
            confuse_src(np.zeros((2, 5)), [1, 1])
        with pytest.raises(ValueError):
            confuse_src(np.zeros((2, 2)), [1, 1])
        with pytest.raises(ValueError):
            confuse_src(np.zeros((2, 4)), [1, 3])


class TestConfuseTgt:
    def test_single_concentrated_pair(self):
        v, _ = confuse_tgt(np.array([[BIG, 0.0, BIG, 0.0]]))
        assert v == pytest.approx(math.log(2.0) / 2.0, abs=1e-6)

    def test_uniform_halves_strictly_higher(self):
        v_uni, _ = confuse_tgt(np.zeros((1, 6)))
        assert v_uni == pytest.approx(math.log(6.0) / 2.0, abs=1e-12)
        v_pair, _ = confuse_tgt(np.array([[BIG, 0.0, 0.0, BIG, 0.0, 0.0]]))
        assert v_uni > v_pair + 0.1

    def test_gradients(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(2, 6))
        _, g = confuse_tgt(z)
        eps = 1e-6
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                z[i, j] += eps
                up = confuse_tgt(z)[0]
                z[i, j] -= 2 * eps
                dn = confuse_tgt(z)[0]
                z[i, j] += eps
                assert (up - dn) / (2 * eps) == pytest.approx(g[i, j], abs=1e-6)


    def test_saturated_scores_count_clamps(self):
        # each half puts ~exp(-40) on its second class, below the 1e-12 guard
        reset_clamp_count()
        confuse_tgt(np.array([[40.0, 0.0, 40.0, 0.0]]))
        assert clamp_count() == 2


class TestDiscrim:
    def test_uniform_target_contributes_log2(self):
        zs = np.array([[BIG, 0.0, 0.0, 0.0]])
        zt = np.zeros((1, 4))
        v, _, _ = discrim(zs, [1], zt)
        assert v == pytest.approx(math.log(2.0), abs=1e-6)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        zs, zt = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        y = [2, 1, 2]
        _, gs, gt = discrim(zs, y, zt, omega=[0.8, 1.2])
        eps = 1e-6
        for z, g, pos in ((zs, gs, 0), (zt, gt, 2)):
            for i in range(z.shape[0]):
                for j in range(z.shape[1]):
                    z[i, j] += eps
                    up = discrim(zs, y, zt, omega=[0.8, 1.2])[0]
                    z[i, j] -= 2 * eps
                    dn = discrim(zs, y, zt, omega=[0.8, 1.2])[0]
                    z[i, j] += eps
                    assert (up - dn) / (2 * eps) == pytest.approx(g[i, j], abs=1e-6)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            discrim(np.zeros((1, 4)), [1], np.zeros((1, 6)))


class TestDisagreementBoundGap:
    def test_hand_pinned_equality_case(self):
        lhs, rhs = disagreement_bound_gap([[10.0, -5.0, -5.0]], [[-5.0, 10.0, -5.0]], [1], 5.0)
        assert lhs == pytest.approx(2.0, abs=1e-12)
        assert rhs == pytest.approx(2.0, abs=1e-12)

    def test_random_sweep_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            rs = rng.normal(size=(7, 4)) * rng.choice([0.3, 1.0, 3.0])
            rt = rng.normal(size=(7, 4)) * rng.choice([0.3, 1.0, 3.0])
            y = rng.integers(1, 5, size=7)
            lhs, rhs = disagreement_bound_gap(rs, rt, y, 1.0)
            assert lhs <= rhs + 1e-12


class TestSymmnetsStep:
    def setup_method(self):
        self.pair = gen_gauss_blobs(3, 20, (0.5, 0.2), seed=0, std=0.5)
        self.model = two_head_model(3, seed=1)
        self.opt = SgdMomentum(self.model.theta, momentum=0.9,
                               lr_multipliers=self.model._pack(self.model.lr_multipliers()))

    def test_values_keys_and_bound(self):
        vals = stepped(self.model, self.opt, self.pair.source.points,
                             self.pair.source.labels, self.pair.target.points,
                             lam=0.5, lr=0.01, rho=1.0)
        for key in ("task_s", "task_t", "discrim", "confuse_src", "confuse_tgt",
                    "bound_lhs", "bound_rhs"):
            assert key in vals
        assert vals["bound_lhs"] <= vals["bound_rhs"] + 1e-9

    def test_ablation_drops_terms(self):
        vals = stepped(self.model, self.opt, self.pair.source.points,
                             self.pair.source.labels, self.pair.target.points,
                             lam=0.5, lr=0.01, adversarial=False)
        assert "discrim" not in vals and "confuse_tgt" not in vals
        vals2 = stepped(self.model, self.opt, self.pair.source.points,
                              self.pair.source.labels, self.pair.target.points,
                              lam=0.5, lr=0.01, train_task_t=False)
        assert "task_t" not in vals2

    def test_bound_enforced_every_step_of_short_run(self):
        for _ in range(40):
            vals = stepped(self.model, self.opt, self.pair.source.points,
                                 self.pair.source.labels, self.pair.target.points,
                                 lam=0.8, lr=0.02, rho=1.0)
            assert vals["bound_lhs"] <= vals["bound_rhs"] + 1e-9

    def test_nan_batch_is_not_stepped(self):
        before = {k: v.copy() for k, v in self.model.params().items()}
        bad = self.pair.source.points.copy()
        bad[0, 0] = np.nan
        vals, grads = symmnets_step(self.model, bad, self.pair.source.labels,
                                    self.pair.target.points, lam=0.5, rho=1.0)
        assert not all(np.isfinite(v) for v in vals.values()) and grads is None
        for k, v in self.model.params().items():
            assert np.array_equal(before[k], v), k

    @pytest.mark.parametrize("adversarial, calls", [(True, 4), (False, 3)])
    def test_one_softmax_per_joint_score_matrix(self, monkeypatch, adversarial, calls):
        # two task losses, then the joint softmax of each domain the step uses
        counted = []

        def counting(scores):
            counted.append(np.shape(scores))
            return _softmax(scores)

        monkeypatch.setattr(symmnets, "_softmax", counting)
        stepped(self.model, self.opt, self.pair.source.points,
                      self.pair.source.labels, self.pair.target.points, lam=0.5, lr=0.01,
                      adversarial=adversarial, rho=1.0)
        assert len(counted) == calls
        n_s, n_t = self.pair.source.n, self.pair.target.n
        assert counted[2:] == [(n_s, 6), (n_t, 6)][: calls - 2]

    @pytest.mark.parametrize("adversarial, calls", [(True, 2), (False, 1)])
    def test_one_backward_per_domain(self, monkeypatch, adversarial, calls):
        # each backward routes head and feature-map gradients at once: the
        # source pass always, the target pass only with the adversarial part;
        # the step runs the backward kernel, the public backward adds checks
        counted = []
        backward = MlpScorer._backward
        xs, xt = self.pair.source.points, self.pair.target.points

        def counting(model, cache, *args, **kwargs):
            counted.append("source" if cache.x is xs else "target" if cache.x is xt else None)
            return backward(model, cache, *args, **kwargs)

        monkeypatch.setattr(MlpScorer, "_backward", counting)
        stepped(self.model, self.opt, xs, self.pair.source.labels, xt, lam=0.5,
                      lr=0.01, adversarial=adversarial, rho=1.0)
        assert counted == ["source", "target"][:calls]

    def test_parameters_move(self):
        before = {k: v.copy() for k, v in self.model.params().items()}
        stepped(self.model, self.opt, self.pair.source.points,
                      self.pair.source.labels, self.pair.target.points, lam=0.5, lr=0.01)
        moved = [not np.array_equal(before[k], v) for k, v in self.model.params().items()]
        assert all(moved)


class TestTaskTrainingEarnsMargins:
    def test_margin_error_vanishes_on_separable_source(self):
        pair = gen_gauss_blobs(3, 40, (0.5, 0.2), seed=0, std=0.3)
        model = two_head_model(3, seed=0)
        opt = SgdMomentum(model.theta, momentum=0.9,
                          lr_multipliers=model._pack(model.lr_multipliers()))
        for _ in range(200):
            stepped(model, opt, pair.source.points, pair.source.labels,
                          pair.target.points, lam=0.0, lr=0.02, adversarial=False)
        scores = center_scores(model.forward(pair.source.points, heads=(HEAD_S,)).raw[HEAD_S])
        assert margin_error(scores, pair.source.labels, 0.5) < 0.01


class TestConfusionEqualizesHeads:
    def test_psi_only_confusion_splits_mass_and_closes_gap(self):
        pair = gen_gauss_blobs(2, 30, (1.0, 0.5), seed=1, std=0.5)
        model = two_head_model(2, seed=3)
        opt = SgdMomentum(model.theta, momentum=0.9)
        heads_before = {k: v.copy() for k, v in model.params().items()
                        if k.startswith("head:")}
        Xs, ys, Xt = pair.source.points, pair.source.labels, pair.target.points
        k = 2
        for _ in range(400):
            cs = model.forward(Xs, heads=(HEAD_S, HEAD_T))
            ct = model.forward(Xt, heads=(HEAD_S, HEAD_T))
            zs = np.concatenate([cs.raw[HEAD_S], cs.raw[HEAD_T]], axis=1)
            zt = np.concatenate([ct.raw[HEAD_S], ct.raw[HEAD_T]], axis=1)
            _, g_s = confuse_src(zs, ys)
            _, g_t = confuse_tgt(zt)
            psi = model.backward(cs, {}, {HEAD_S: g_s[:, :k], HEAD_T: g_s[:, k:]})
            for name, g in model.backward(
                ct, {}, {HEAD_S: g_t[:, :k], HEAD_T: g_t[:, k:]}
            ).items():
                psi[name] = psi[name] + g
            opt.step(model._pack(psi), 0.05)
        # heads were never updated
        for name, v in heads_before.items():
            assert np.array_equal(v, model.params()[name])
        # joint mass splits evenly across each label's neuron pair
        cs = model.forward(Xs, heads=(HEAD_S, HEAD_T))
        p = softmax(np.concatenate([cs.raw[HEAD_S], cs.raw[HEAD_T]], axis=1))
        rows = np.arange(len(ys))
        pa, pb = p[rows, ys - 1], p[rows, ys - 1 + k]
        assert np.abs(pa - pb).max() < 0.05
        assert (pa + pb).min() > 0.8
        # the two heads disagree equally little on both domains
        fs, ft = model.scorer(HEAD_S), model.scorer(HEAD_T)
        gap_tight = abs(empirical_mcsd(Xs, fs, ft, 0.5) - empirical_mcsd(Xt, fs, ft, 0.5))
        assert gap_tight < 1e-3
        dp = empirical_mcsd(Xs, fs, ft, 1.0)
        dq = empirical_mcsd(Xt, fs, ft, 1.0)
        assert abs(dp - dq) < 5e-3
        assert dp < 0.15 and dq < 0.15


class TestPartialWeights:
    def test_frozen_example(self):
        # softmax of [log 2, 0, 0] is (0.5, 0.25, 0.25)
        scores = np.array([[math.log(2.0), 0.0, 0.0]])
        np.testing.assert_allclose(partial_weights(scores, 1.0), [1.0, 0.5, 0.5], atol=1e-12)

    def test_xi_zero_is_flat(self):
        scores = np.random.default_rng(7).normal(size=(20, 4))
        np.testing.assert_allclose(partial_weights(scores, 0.0), 1.0, atol=0.0)

    def test_blend(self):
        scores = np.array([[math.log(2.0), 0.0, 0.0]])
        np.testing.assert_allclose(partial_weights(scores, 0.5), [1.0, 0.75, 0.75], atol=1e-12)

    def test_uniform_scores_always_one(self):
        for xi in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(partial_weights(np.zeros((5, 3)), xi), 1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            partial_weights(np.zeros((2, 3)), 1.5)
        with pytest.raises(ValueError):
            partial_weights(np.zeros(3), 0.5)


class TestOpensetSampler:
    def test_class_probs(self):
        np.testing.assert_allclose(openset_class_probs(3, 6.0),
                                   np.array([1.0, 1.0, 1.0, 6.0]) / 9.0, atol=1e-12)
        with pytest.raises(ValueError):
            openset_class_probs(3, 0.0)

    def test_nu_six_frequencies(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(300, 2))
        labels = np.repeat([1, 2, 3], 100)
        sample = SampleSet(pts, labels)
        stream = openset_sampler(sample, nu=6.0, batch_size=100, seed=42)
        counts = np.zeros(4)
        for _ in range(1000):
            idx = next(stream)
            counts += np.bincount(labels[idx], minlength=4)
        freq = counts[1:] / counts.sum()
        # expectation (1, 1, 6) / 8; 1e5 draws
        np.testing.assert_allclose(freq, [0.125, 0.125, 0.75], atol=0.01)
        ratio = freq[2] / freq[:2].mean()
        assert ratio == pytest.approx(6.0, rel=0.02)

    def test_nu_one_uniform(self):
        labels = np.repeat([1, 2, 3], 50)
        sample = SampleSet(np.zeros((150, 2)), labels)
        stream = openset_sampler(sample, nu=1.0, batch_size=90, seed=1)
        counts = np.zeros(4)
        for _ in range(300):
            counts += np.bincount(labels[next(stream)], minlength=4)
        freq = counts[1:] / counts.sum()
        np.testing.assert_allclose(freq, 1.0 / 3.0, atol=0.01)

    @staticmethod
    def slot_by_slot(sample, nu, batch_size, seed):
        """The sampler drawn one slot at a time: a class per slot, then one
        ``integers`` call per slot for an example of that class."""
        labels = sample.labels
        k_total = int(labels.max())
        by_class = [np.flatnonzero(labels == c) for c in range(1, k_total + 1)]
        probs = openset_class_probs(k_total - 1, nu)
        rng = np.random.default_rng(seed)
        while True:
            classes = rng.choice(k_total, size=batch_size, p=probs)
            yield np.array(
                [by_class[c][rng.integers(by_class[c].size)] for c in classes], dtype=np.int64
            )

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 6.0])
    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_vectorized_draws_equal_slot_by_slot(self, seed, nu, batch_size):
        # shuffled labels of unequal class sizes, so the class-sorted offsets
        # differ from positions in the sample
        labels = np.repeat([1, 2, 3, 4], [5, 9, 2, 14])
        labels = np.random.default_rng(seed + 10).permutation(labels)
        sample = SampleSet(np.zeros((labels.size, 2)), labels)
        got = openset_sampler(sample, nu, batch_size, seed=seed)
        want = self.slot_by_slot(sample, nu, batch_size, seed)
        for _ in range(25):
            g, w = next(got), next(want)
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_batches_index_into_sample(self):
        labels = np.repeat([1, 2], 10)
        sample = SampleSet(np.zeros((20, 2)), labels)
        stream = openset_sampler(sample, nu=2.0, batch_size=7, seed=0)
        idx = next(stream)
        assert idx.shape == (7,)
        assert idx.min() >= 0 and idx.max() < 20

    def test_validation(self):
        with pytest.raises(ValueError):
            openset_sampler(SampleSet(np.zeros((3, 2))), 6.0, 4)
        sample = SampleSet(np.zeros((3, 2)), [1, 1, 3])
        with pytest.raises(ValueError):
            openset_sampler(sample, 6.0, 4)
        with pytest.raises(ValueError):
            openset_sampler(SampleSet(np.zeros((2, 2)), [1, 2]), 6.0, 0)


class TestEvalOpenset:
    def test_hand_table(self):
        true = [1, 1, 2, 2, 3, 3, 3]
        pred = [1, 2, 2, 2, 3, 3, 1]
        res = eval_openset(pred, true, k_shared=2)
        assert res.per_class == {1: 0.5, 2: 1.0, 3: pytest.approx(2.0 / 3.0)}
        assert res.os_all == pytest.approx((0.5 + 1.0 + 2.0 / 3.0) / 3.0)
        assert res.os_shared == pytest.approx(0.75)
        assert res.unknown_acc == pytest.approx(2.0 / 3.0)
        assert res.missing_classes == []

    def test_missing_class_flagged(self):
        res = eval_openset([1, 1], [1, 1], k_shared=2)
        assert res.missing_classes == [2, 3]
        assert res.unknown_acc is None
        assert res.os_shared == 1.0

    def test_all_unknown_truth(self):
        res = eval_openset([3, 3, 1], [3, 3, 3], k_shared=2)
        assert math.isnan(res.os_shared)
        assert res.unknown_acc == pytest.approx(2.0 / 3.0)
        assert isinstance(res, OpensetEval)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_openset([1, 2], [1], k_shared=2)

    @pytest.mark.parametrize(
        "pred, true",
        [([1, 7], [1, 7]), ([1, 7], [1, 2]), ([1, 2], [1, 7]), ([0, 1], [1, 1]), ([1.5, 1], [1, 1])],
    )
    def test_labels_outside_the_classes_are_rejected(self, pred, true):
        # K_shared = 2, so labels lie in {1, 2, 3}; none is dropped unseen
        with pytest.raises(ValueError):
            eval_openset(pred, true, k_shared=2)
