"""Registry of the loss cores the training steps backpropagate through.

Each entry calls one private core the way a step calls it: softmax rows of
stacked source and target rows weighted +1/n_s and -1/n_t (the pairwise,
one-vs-rest and domain-head cores), a leading head axis (the McDalNet task
losses), per-example class weights (the SymmNets task losses) or a joint
softmax shared by several terms (the SymmNets confusion and discrimination
cores).  It bundles that call with a sampler producing valid random inputs,
so the whole collection can be audited against central finite differences
in one sweep; the audit, an independent oracle, lives in
``tests/test_losses.py``.  Admission rule: a step may call a loss core only
in a shape that an entry here calls it in and that passes the audit;
``tests/test_losses.py`` runs one step of every method and checks the rule.
The public wrappers (softmax plus a core with batch-mean weights) keep
finite-difference tests of their own.  It is test support, kept out of the
package: no module of the package imports it, since the steps call the
cores by name, the pairwise cores on a kernel from
``surrogates._PAIR_KERNELS``.

``apply`` returns the scalar value and a dict mapping input positions to
gradients; positions absent from the dict (labels, weights, reference
scores that only pick argmax classes) are not differentiated.  Labels are
the 0-based classes the steps hold past ``margin._check_labels``; the
samplers draw them with ``rng.integers(0, k)``.  Samplers stay clear of the
measure-zero kink sets (probability ties for the L1 surrogate) where
one-sided subgradients are returned by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from mcsda.surrogates import _PAIR_KERNELS, _dann_core, _mdd_variant_core, _pair_core
from mcsda.surrogates import _picked_log_loss, _softmax
from mcsda.symmnets import _confuse_src, _confuse_tgt, _discrim

__all__ = ["RegisteredLoss", "registered_losses"]


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
    return rng.integers(0, k, size=n)


def _omega(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.uniform(0.2, 2.0, size=k)


def _stacked_weights(rng: np.random.Generator) -> np.ndarray:
    """+1/n_s on n_s source rows, then -1/n_t on n_t target rows."""
    ns, nt = (int(m) for m in rng.integers(1, 4, size=2))
    return np.concatenate([np.full(ns, 1.0 / ns), np.full(nt, -1.0 / nt)])


def _pair_sample(rng: np.random.Generator, apart: bool = False) -> tuple:
    """Stacked score pair; ``apart`` keeps it away from probability ties,
    where the L1 surrogate is kinked."""
    w = _stacked_weights(rng)
    k = int(rng.integers(2, 6))
    while True:
        s1, s2 = _scores(rng, w.size, k), _scores(rng, w.size, k)
        if not apart or np.min(np.abs(_softmax(s1) - _softmax(s2))) > 1e-3:
            return s1, s2, w


def _pair_apply(name: str) -> Callable:
    def apply(s1, s2, w):
        value, g1, g2, _ = _pair_core(_PAIR_KERNELS[name], _softmax(s1), _softmax(s2), w)
        return value, {0: g1, 1: g2}

    return apply


def _mdd_variant_apply(ref, aux, w):
    value, g, _ = _mdd_variant_core(np.argmax(ref, axis=1), _softmax(aux), w)
    return value, {1: g}


def _dann_sample(rng: np.random.Generator) -> tuple:
    w = _stacked_weights(rng)
    return rng.normal(0.0, 2.0, size=w.size), w


def _dann_apply(d, w):
    value, g, _ = _dann_core(d, w)
    return value, {0: g}


def _labeled_sample(rng: np.random.Generator, width: int = 1) -> tuple:
    """Scores [n, width * K], 0-based classes in {0..K-1} and class weights."""
    n, k = _shape(rng)
    return _scores(rng, n, width * k), _labels(rng, n, k), _omega(rng, k)


def _task_apply(scores, labels, omega):
    value, g, _ = _picked_log_loss(_softmax(scores), labels[:, None], omega[labels])
    return value, {0: g}


def _heads_sample(rng: np.random.Generator) -> tuple:
    n, k = _shape(rng)
    return rng.normal(0.0, 1.5, size=(int(rng.integers(1, 4)), n, k)), _labels(rng, n, k)


def _heads_apply(scores, labels):
    values, g, _ = _picked_log_loss(_softmax(scores), labels[:, None], np.ones(labels.size))
    return float(values.sum()), {0: g}


def _joint_sample(rng: np.random.Generator) -> tuple:
    n, k = _shape(rng)
    return (_scores(rng, n, 2 * k),)


def _confuse_tgt_apply(z):
    value, g, _ = _confuse_tgt(_softmax(z))
    return value, {0: g}


def _confuse_src_apply(z, labels, omega):
    value, g, _ = _confuse_src(_softmax(z), labels, omega[labels])
    return value, {0: g}


def _discrim_sample(rng: np.random.Generator) -> tuple:
    n, k = _shape(rng)
    m = int(rng.integers(2, 6))
    return _scores(rng, n, 2 * k), _labels(rng, n, k), _scores(rng, m, 2 * k), _omega(rng, k)


def _discrim_apply(z_src, labels, z_tgt, omega):
    value, g_src, g_tgt, _ = _discrim(_softmax(z_src), labels, _softmax(z_tgt), omega[labels])
    return value, {0: g_src, 2: g_tgt}


def registered_losses() -> tuple[RegisteredLoss, ...]:
    """Every loss core a training step feeds to a backward pass, in the
    shapes the steps call it."""
    return (
        RegisteredLoss("pair_core_l1", partial(_pair_sample, apart=True), _pair_apply("l1")),
        RegisteredLoss("pair_core_kl", _pair_sample, _pair_apply("kl")),
        RegisteredLoss("pair_core_ce", _pair_sample, _pair_apply("ce")),
        RegisteredLoss("mdd_variant_core", _pair_sample, _mdd_variant_apply),
        RegisteredLoss("dann_core", _dann_sample, _dann_apply),
        RegisteredLoss("picked_log_loss", _labeled_sample, _task_apply),
        RegisteredLoss("picked_log_loss_heads", _heads_sample, _heads_apply),
        RegisteredLoss("confuse_src", partial(_labeled_sample, width=2), _confuse_src_apply),
        RegisteredLoss("confuse_tgt", _joint_sample, _confuse_tgt_apply),
        RegisteredLoss("discrim", _discrim_sample, _discrim_apply),
    )
