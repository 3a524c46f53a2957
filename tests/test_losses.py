"""Loss registry: admission list, audit behavior, and trainer dispatch.

``finite_difference_audit`` is the registry's independent oracle; the
acceptance suite imports it from here.
"""

import sys

import numpy as np
import pytest

from mcsda import surrogates, symmnets
from mcsda.harness import trainers
from mcsda.harness.config import METHOD_ROWS, METHODS, ExperimentConfig
from mcsda.losses import RegisteredLoss, registered_losses
from mcsda.neural import MlpScorer
from mcsda.synthdata import gen_rotated_moons

EXPECTED_NAMES = {
    "pair_core_l1",
    "pair_core_kl",
    "pair_core_ce",
    "mdd_variant_core",
    "dann_core",
    "picked_log_loss",
    "picked_log_loss_heads",
    "confuse_src",
    "confuse_tgt",
    "discrim",
}

# every function that returns a loss value with its score gradients and
# that the steps or the public wrappers call, by its defining module
LOSS_CORES = {
    "_pair_core": surrogates,
    "_picked_log_loss": surrogates,
    "_mdd_variant_core": surrogates,
    "_dann_core": surrogates,
    "_confuse_src": symmnets,
    "_confuse_tgt": symmnets,
    "_discrim": symmnets,
}


def registered(name):
    return next(loss for loss in registered_losses() if loss.name == name)


def finite_difference_audit(
    loss: RegisteredLoss,
    rng: np.random.Generator,
    n_inputs: int = 100,
    eps: float = 1e-6,
    tol: float = 1e-5,
) -> float:
    """Worst relative error of analytic vs central-difference gradients.

    Every coordinate of every differentiable input is perturbed; relative
    error uses a 1e-3 floor in the denominator so near-zero gradient entries
    are compared absolutely.  Raises AssertionError above ``tol``.
    """
    worst = 0.0
    for _ in range(n_inputs):
        inputs = loss.sample(rng)
        _, grads = loss.apply(*inputs)
        for pos, g in grads.items():
            base = np.asarray(inputs[pos], dtype=np.float64)
            flat_g = np.asarray(g, dtype=np.float64).reshape(-1)
            for j in range(base.size):

                def value_at(offset: float) -> float:
                    pert = base.reshape(-1).copy()
                    pert[j] += offset
                    args = list(inputs)
                    args[pos] = pert.reshape(base.shape)
                    return loss.apply(*args)[0]

                fd = (value_at(eps) - value_at(-eps)) / (2.0 * eps)
                rel = abs(fd - flat_g[j]) / max(abs(fd), abs(flat_g[j]), 1e-3)
                worst = max(worst, rel)
                if rel > tol:
                    raise AssertionError(
                        "%s: gradient mismatch at input %d coord %d: fd=%.3e analytic=%.3e"
                        % (loss.name, pos, j, fd, flat_g[j])
                    )
    return worst


def call_shape(args) -> tuple:
    """What an audit must share with a core call: the kernel's name, the
    kind and rank of every array (picks with their width per row) and the
    signs of the row weights, which come last."""
    shape = []
    for a in args:
        if callable(a):
            shape.append(a.__name__)
        elif a.dtype.kind in "iu":
            shape.append(("picks", a.ndim, a.shape[1:]))
        else:
            shape.append(("rows", a.ndim))
    w = args[-1]
    if not callable(w) and w.ndim == 1 and w.dtype.kind == "f":
        shape.append(tuple(np.unique(np.sign(w)).tolist()))
    return tuple(shape)


@pytest.fixture
def core_calls(monkeypatch):
    """Records (core, call shape) of every loss-core call, wherever the core
    was imported."""
    calls = set()

    def recording(name, core):
        def wrapper(*args):
            calls.add((name, call_shape(args)))
            return core(*args)

        return wrapper

    for name, home in LOSS_CORES.items():
        core = getattr(home, name)
        wrapped = recording(name, core)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("mcsda") and vars(mod).get(name) is core:
                monkeypatch.setattr(mod, name, wrapped)
    return calls


def one_step(method):
    cfg = ExperimentConfig(method=method, rho=0.7)
    heads = METHOD_ROWS[method].head_widths(2)
    model = MlpScorer(2, heads, hidden=cfg.hidden, feature_dim=cfg.feature_dim, seed=5)
    pair = gen_rotated_moons(40, 30, 30.0, noise_sd=0.05, seed=1)
    xs, ys, xt = pair.source.points, pair.source.labels, pair.target.points
    step = trainers._family_step(cfg, model)
    values, grads, clamps = step(model, xs, ys - 1, xt, 0.5, np.array([1.0, 0.5]))
    assert all(np.isfinite(v) for v in values.values()) and grads is not None
    assert isinstance(clamps, int)


class TestRegistry:
    def test_every_trainer_loss_is_registered(self):
        losses = registered_losses()
        assert {l.name for l in losses} == EXPECTED_NAMES
        assert len(losses) == len(EXPECTED_NAMES)

    @pytest.mark.parametrize("method", METHODS)
    def test_trainers_dispatch_through_registry(self, method, core_calls):
        # the trainers and the registry look pairwise kernels up in one table
        assert trainers._PAIR_KERNELS is surrogates._PAIR_KERNELS
        for loss in registered_losses():
            loss.apply(*loss.sample(np.random.default_rng(3)))
        audited = set(core_calls)
        core_calls.clear()
        one_step(method)
        assert core_calls, "the step called no loss core"
        assert core_calls <= audited, sorted(core_calls - audited)

    def test_stacked_entries_cover_both_sign_branches(self):
        for name in ("pair_core_kl", "mdd_variant_core", "dann_core"):
            w = registered(name).sample(np.random.default_rng(5))[-1]
            assert (w > 0).any() and (w < 0).any(), name

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
        good = registered("pair_core_kl")

        def poisoned(s1, s2, w):
            value, grads = good.apply(s1, s2, w)
            return value, {0: 2.0 * grads[0], 1: grads[1]}

        bad = RegisteredLoss("poisoned", good.sample, poisoned)
        with pytest.raises(AssertionError):
            finite_difference_audit(bad, np.random.default_rng(0), n_inputs=2)

    def test_audit_reports_worst_error(self):
        loss = registered("picked_log_loss")
        worst = finite_difference_audit(loss, np.random.default_rng(1), n_inputs=3)
        assert 0.0 <= worst <= 1e-5
