"""Loss registry: admission list, audit behavior, and trainer dispatch."""

import numpy as np
import pytest

from mcsda.losses import (
    PAIRWISE_CORES,
    PAIRWISE_SURROGATES,
    RegisteredLoss,
    finite_difference_audit,
    registered_losses,
)
from mcsda.surrogates import ce_with_grads, kl_with_grads, l1_with_grads, softmax

EXPECTED_NAMES = {
    "sur_l1_pair",
    "sur_kl_pair",
    "sur_ce_pair",
    "log_loss",
    "mdd_variant_src_term",
    "mdd_variant_tgt_term",
    "dann_src_term",
    "dann_tgt_term",
    "task_src_weighted",
    "confuse_src",
    "confuse_tgt",
    "discrim",
}


class TestRegistry:
    def test_every_trainer_loss_is_registered(self):
        losses = registered_losses()
        assert {l.name for l in losses} == EXPECTED_NAMES
        assert len(losses) == len(EXPECTED_NAMES)

    def test_pairwise_dict_maps_to_surrogate_functions(self):
        assert PAIRWISE_SURROGATES == {"l1": l1_with_grads, "kl": kl_with_grads, "ce": ce_with_grads}

    def test_trainers_dispatch_through_registry(self):
        # the trainer module must consume this exact mapping, not a copy,
        # and each core must be the one behind the audited public form
        from mcsda.harness import trainers

        assert trainers._PAIRWISE_CORES is PAIRWISE_CORES
        assert PAIRWISE_CORES.keys() == PAIRWISE_SURROGATES.keys()
        rng = np.random.default_rng(4)
        s1, s2 = rng.normal(size=(2, 5, 3))
        for name, core in PAIRWISE_CORES.items():
            want = PAIRWISE_SURROGATES[name](s1, s2)
            got = core(softmax(s1), softmax(s2), np.full(5, 1 / 5))
            assert got[0] == want[0], name
            assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:])), name

    @pytest.mark.parametrize("loss", registered_losses(), ids=lambda l: l.name)
    def test_sample_apply_contract(self, loss):
        rng = np.random.default_rng(3)
        inputs = loss.sample(rng)
        value, grads = loss.apply(*inputs)
        assert isinstance(value, float) and np.isfinite(value)
        assert isinstance(grads, dict) and grads
        for pos, g in grads.items():
            assert 0 <= pos < len(inputs)
            assert np.asarray(g).shape == np.asarray(inputs[pos]).shape
            assert np.all(np.isfinite(g))

    def test_samplers_deterministic(self):
        for loss in registered_losses():
            a = loss.sample(np.random.default_rng(11))
            b = loss.sample(np.random.default_rng(11))
            for x, y in zip(a, b):
                assert np.array_equal(np.asarray(x), np.asarray(y))


class TestAudit:
    @pytest.mark.parametrize("loss", registered_losses(), ids=lambda l: l.name)
    def test_quick_audit_passes(self, loss):
        worst = finite_difference_audit(loss, np.random.default_rng(0), n_inputs=5)
        assert worst <= 1e-5

    def test_audit_rejects_broken_gradient(self):
        good = registered_losses()[1]  # sur_kl_pair

        def poisoned(s1, s2):
            value, grads = good.apply(s1, s2)
            return value, {0: 2.0 * grads[0], 1: grads[1]}

        bad = RegisteredLoss("poisoned", good.sample, poisoned)
        with pytest.raises(AssertionError):
            finite_difference_audit(bad, np.random.default_rng(0), n_inputs=2)

    def test_audit_reports_worst_error(self):
        loss = registered_losses()[3]  # log_loss
        worst = finite_difference_audit(loss, np.random.default_rng(1), n_inputs=3)
        assert 0.0 <= worst <= 1e-5
