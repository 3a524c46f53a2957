"""Registry of every loss the trainers backpropagate through.

Each entry bundles a differentiable loss with a sampler producing valid
random inputs, so the whole collection can be audited against central
finite differences in one sweep.  Admission rule: a loss may only be
dispatched by a trainer if it is listed here and passes the audit.  A
trainer may call the private core behind a listed public form (softmax plus
core); the audit reaches the core through that form.

``apply`` returns the scalar value and a dict mapping input positions to
gradients; positions absent from the dict (labels, weights, reference
scores that only pick argmax classes) are not differentiated.  Samplers
stay clear of the measure-zero kink sets (probability ties for the L1
surrogate) where one-sided subgradients are returned by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .surrogates import (
    _ce,
    _kl,
    _l1,
    _pair_core,
    ce_with_grads,
    dann_with_grads,
    kl_with_grads,
    l1_with_grads,
    log_loss_with_grads,
    mdd_variant_with_grads,
)
from .symmnets import confuse_src, confuse_tgt, discrim, loss_task_src

__all__ = [
    "RegisteredLoss",
    "PAIRWISE_SURROGATES",
    "PAIRWISE_CORES",
    "registered_losses",
    "finite_difference_audit",
]

# pairwise surrogates share one calling shape: (scores1, scores2) -> (value, g1, g2)
PAIRWISE_SURROGATES = {"l1": l1_with_grads, "kl": kl_with_grads, "ce": ce_with_grads}
# the weighted cores behind them, which the trainers dispatch and the audit
# reaches through the public forms: (p1, p2, row weights) -> (value, g1, g2)
PAIRWISE_CORES = {
    name: partial(_pair_core, kernel) for name, kernel in (("l1", _l1), ("kl", _kl), ("ce", _ce))
}


@dataclass(frozen=True)
class RegisteredLoss:
    name: str
    sample: Callable[[np.random.Generator], tuple]
    apply: Callable[..., tuple[float, dict[int, np.ndarray]]]


def _scores(rng: np.random.Generator, n: int, k: int, scale: float = 1.5) -> np.ndarray:
    return rng.normal(0.0, scale, size=(n, k))


def _shape(rng: np.random.Generator) -> tuple[int, int]:
    return int(rng.integers(2, 6)), int(rng.integers(2, 6))


def _labels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return rng.integers(1, k + 1, size=n)


def _omega(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.uniform(0.2, 2.0, size=k)


def _pair_sample_l1(rng: np.random.Generator) -> tuple:
    """Score pair kept away from probability ties, where |.| is kinked."""
    from .surrogates import softmax

    n, k = _shape(rng)
    while True:
        s1, s2 = _scores(rng, n, k), _scores(rng, n, k)
        if np.min(np.abs(softmax(s1) - softmax(s2))) > 1e-3:
            return s1, s2


def _pair_sample(rng: np.random.Generator) -> tuple:
    n, k = _shape(rng)
    return _scores(rng, n, k), _scores(rng, n, k)


def _wrap_pair(fn) -> Callable:
    def apply(s1, s2):
        value, g1, g2 = fn(s1, s2)
        return value, {0: g1, 1: g2}

    return apply


def _log_loss_sample(rng: np.random.Generator) -> tuple:
    n, k = _shape(rng)
    return _scores(rng, n, k), _labels(rng, n, k), rng.uniform(0.2, 2.0, size=n)


def _log_loss_apply(scores, labels, weights):
    value, g = log_loss_with_grads(scores, labels, weights=weights)
    return value, {0: g}


def _mdd_src_sample(rng: np.random.Generator) -> tuple:
    n, k = _shape(rng)
    return _scores(rng, n, k), _scores(rng, n, k)


def _mdd_src_apply(ref, aux):
    src_term, _, g_src, _ = mdd_variant_with_grads(ref, aux, ref, aux)
    return src_term, {1: g_src}


def _mdd_tgt_apply(ref, aux):
    _, tgt_term, _, g_tgt = mdd_variant_with_grads(ref, aux, ref, aux)
    return tgt_term, {1: g_tgt}


def _dann_sample(rng: np.random.Generator) -> tuple:
    return (rng.normal(0.0, 2.0, size=int(rng.integers(2, 8))),)


def _dann_src_apply(d):
    src_term, _, g_src, _ = dann_with_grads(d, d)
    return src_term, {0: g_src}


def _dann_tgt_apply(d):
    _, tgt_term, _, g_tgt = dann_with_grads(d, d)
    return tgt_term, {0: g_tgt}


def _task_sample(rng: np.random.Generator) -> tuple:
    n, k = _shape(rng)
    return _scores(rng, n, k), _labels(rng, n, k), _omega(rng, k)


def _task_apply(scores, labels, omega):
    value, g = loss_task_src(scores, labels, omega)
    return value, {0: g}


def _joint_sample(rng: np.random.Generator) -> tuple:
    n, k = _shape(rng)
    return (_scores(rng, n, 2 * k),)


def _confuse_tgt_apply(z):
    value, g = confuse_tgt(z)
    return value, {0: g}


def _confuse_src_sample(rng: np.random.Generator) -> tuple:
    n, k = _shape(rng)
    return _scores(rng, n, 2 * k), _labels(rng, n, k), _omega(rng, k)


def _confuse_src_apply(z, labels, omega):
    value, g = confuse_src(z, labels, omega)
    return value, {0: g}


def _discrim_sample(rng: np.random.Generator) -> tuple:
    n, k = _shape(rng)
    m = int(rng.integers(2, 6))
    return _scores(rng, n, 2 * k), _labels(rng, n, k), _scores(rng, m, 2 * k), _omega(rng, k)


def _discrim_apply(z_src, labels, z_tgt, omega):
    value, g_src, g_tgt = discrim(z_src, labels, z_tgt, omega)
    return value, {0: g_src, 2: g_tgt}


def registered_losses() -> tuple[RegisteredLoss, ...]:
    """Every loss any trainer feeds to a backward pass."""
    return (
        RegisteredLoss("sur_l1_pair", _pair_sample_l1, _wrap_pair(l1_with_grads)),
        RegisteredLoss("sur_kl_pair", _pair_sample, _wrap_pair(kl_with_grads)),
        RegisteredLoss("sur_ce_pair", _pair_sample, _wrap_pair(ce_with_grads)),
        RegisteredLoss("log_loss", _log_loss_sample, _log_loss_apply),
        RegisteredLoss("mdd_variant_src_term", _mdd_src_sample, _mdd_src_apply),
        RegisteredLoss("mdd_variant_tgt_term", _mdd_src_sample, _mdd_tgt_apply),
        RegisteredLoss("dann_src_term", _dann_sample, _dann_src_apply),
        RegisteredLoss("dann_tgt_term", _dann_sample, _dann_tgt_apply),
        RegisteredLoss("task_src_weighted", _task_sample, _task_apply),
        RegisteredLoss("confuse_src", _confuse_src_sample, _confuse_src_apply),
        RegisteredLoss("confuse_tgt", _joint_sample, _confuse_tgt_apply),
        RegisteredLoss("discrim", _discrim_sample, _discrim_apply),
    )


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
