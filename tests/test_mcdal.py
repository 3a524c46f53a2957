"""The McDalNet step against the two-pass reference it replaced.

``reference_step`` keeps the earlier path: a source forward over every head
and a target forward over the adversary heads, one backward for the task
gradients and one per domain for the disagreement gradients, then
``grad_reversal_step`` routes the parameter gradients by name.  The stacked
step makes one forward and one backward and routes score gradients instead;
both sum the same terms in another order, so parameters must agree to
1e-12 after several momentum steps.
"""

import numpy as np
import pytest

from mcsda.harness import trainers
from mcsda.harness.config import METHOD_ROWS, ExperimentConfig
from mcsda.neural import MlpScorer, SgdMomentum, grad_reversal_step
from mcsda.surrogates import (
    ce_with_grads,
    dann_with_grads,
    kl_with_grads,
    l1_with_grads,
    log_loss_with_grads,
    mdd_variant_with_grads,
)
from mcsda.synthdata import gen_rotated_moons

SURROGATES = ("l1", "kl", "ce", "mdd_variant", "dann")
ZETAS = (0.0, 0.3, 0.55, 0.8, 1.0)  # one per step, zeta = 0 first
# the public pairwise forms the reference path calls: (s1, s2) -> (value, g1, g2)
PAIRWISE_WITH_GRADS = {"l1": l1_with_grads, "kl": kl_with_grads, "ce": ce_with_grads}


def add_grads(into, more):
    """Add ``more`` into ``into`` key by key (new keys are taken as they are)
    and return ``into``: the merge of two backward passes."""
    for name, g in more.items():
        into[name] = into[name] + g if name in into else g
    return into


def reference_disagreement(surrogate, raw_s, raw_t):
    if surrogate == "dann":
        src_term, tgt_term, g_s, g_t = dann_with_grads(raw_s["d"][:, 0], raw_t["d"][:, 0])
        return src_term - tgt_term, {"d": g_s[:, None]}, {"d": -g_t[:, None]}
    if surrogate == "mdd_variant":
        src_term, tgt_term, g_s, g_t = mdd_variant_with_grads(
            raw_s["f1"], raw_s["f2"], raw_t["f1"], raw_t["f2"]
        )
        return src_term - tgt_term, {"f2": g_s}, {"f2": -g_t}
    fn = PAIRWISE_WITH_GRADS[surrogate]
    v_s, a1s, a2s = fn(raw_s["f1"], raw_s["f2"])
    v_t, a1t, a2t = fn(raw_t["f1"], raw_t["f2"])
    return v_s - v_t, {"f1": a1s, "f2": a2s}, {"f1": -a1t, "f2": -a2t}


def reference_step(model, opt, cfg, xs, ys, xt, zeta, lr):
    adversary = tuple(n for n in model.head_names if n != "f")
    cache_s = model.forward(xs)
    cache_t = model.forward(xt, heads=adversary)
    task_val, g_f = log_loss_with_grads(cache_s.raw["f"], ys)
    task_score_grads = {"f": g_f}
    aux_val = 0.0
    if cfg.surrogate != "dann" and cfg.aux_task_weight > 0:
        v1, g1 = log_loss_with_grads(cache_s.raw["f1"], ys)
        v2, g2 = log_loss_with_grads(cache_s.raw["f2"], ys)
        aux_val = cfg.aux_task_weight * (v1 + v2)
        task_score_grads["f1"] = cfg.aux_task_weight * g1
        task_score_grads["f2"] = cfg.aux_task_weight * g2
    task_grads = model.backward(cache_s, task_score_grads, task_score_grads)
    disagreement, g_src, g_tgt = reference_disagreement(cfg.surrogate, cache_s.raw, cache_t.raw)
    disc_grads = add_grads(
        model.backward(cache_s, g_src, g_src), model.backward(cache_t, g_tgt, g_tgt)
    )
    eff = grad_reversal_step(model, task_grads, disc_grads, zeta, adversary, cfg.zeta_on_adversary)
    opt.step(model._pack(eff), lr)
    return {"task": task_val, "aux_task": aux_val, "disagreement": disagreement}


def fresh(cfg):
    heads = METHOD_ROWS[cfg.method].head_widths(2)
    model = MlpScorer(2, heads, hidden=cfg.hidden, feature_dim=cfg.feature_dim, seed=5)
    return model, SgdMomentum(model.theta, 0.9, model._pack(model.lr_multipliers()))


def stacked_step(model, opt, cfg, xs, ys, xt, zeta, lr):
    """The trainers' McDalNet step, then the optimizer update the epoch
    loop makes; returns the loss values."""
    values, grads, _ = trainers._family_step(cfg, model)(model, xs, ys - 1, xt, zeta, None)
    opt.step(grads, lr)
    return values


def batches(steps=len(ZETAS), ns=32, nt=27):
    pair = gen_rotated_moons(80, 80, 30.0, noise_sd=0.05, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(steps):
        i = rng.choice(80, ns, replace=False)
        j = rng.choice(80, nt, replace=False)
        yield pair.source.points[i], pair.source.labels[i], pair.target.points[j]


@pytest.mark.parametrize("aux_task_weight", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("zeta_on_adversary", [False, True])
@pytest.mark.parametrize("surrogate", SURROGATES)
def test_stacked_step_matches_reference(surrogate, zeta_on_adversary, aux_task_weight):
    cfg = ExperimentConfig(
        method="mcdal_" + surrogate,
        zeta_on_adversary=zeta_on_adversary,
        aux_task_weight=aux_task_weight,
    )
    model, opt = fresh(cfg)
    ref_model, ref_opt = fresh(cfg)
    for zeta, (xs, ys, xt) in zip(ZETAS, batches()):
        got = stacked_step(model, opt, cfg, xs, ys, xt, zeta, 0.05)
        want = reference_step(ref_model, ref_opt, cfg, xs, ys, xt, zeta, 0.05)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-12), key
    params, init = model.params(), fresh(cfg)[0].params()
    moved = 0.0
    for name, value in ref_model.params().items():
        assert np.abs(params[name] - value).max() <= 1e-12, name
        moved = max(moved, np.abs(value - init[name]).max())
    assert moved > 1e-3  # the steps did change the model


@pytest.mark.parametrize("surrogate", SURROGATES)
def test_one_forward_and_one_backward_per_step(surrogate, monkeypatch):
    # the step runs the backward kernel; the public backward adds only checks
    calls = {"forward": 0, "backward": 0, "_backward": 0}

    def counted(name):
        real = getattr(MlpScorer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(MlpScorer, name, counted(name))
    cfg = ExperimentConfig(method="mcdal_" + surrogate)
    model, opt = fresh(cfg)
    xs, ys, xt = next(batches(1))
    stacked_step(model, opt, cfg, xs, ys, xt, 0.5, 0.05)
    assert calls == {"forward": 1, "backward": 0, "_backward": 1}
