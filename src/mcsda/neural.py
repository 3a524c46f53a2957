"""Small feedforward stack with hand-written backprop.

The experiments only need a fixed architecture: a feature map psi made of
affine layers each followed by tanh, and one or more linear heads on top of
the shared features, each given by its name and output width.  ``forward``
returns raw head outputs, and so does ``scorer``: whoever reads a margin
from them centers them (subtracts their row mean), as ``margin`` states.
Softmax-based losses are shift invariant, so their gradients are taken with
respect to the raw head outputs and already sum to zero per row.

Every parameter lives in one contiguous float64 vector, ``MlpScorer.theta``,
in ``params()`` (and checkpoint) order; the named arrays of ``params()`` are
views into it, made once.  Gradients flow through an explicit cache
(inputs, per-layer activations, head outputs).  ``MlpScorer.backward`` takes
two maps from head name to dL/d(raw head outputs): the head parameters take
their gradients from the first, the feature map from the second, pulled
back through the current head weights.  Passing one map twice is plain
backprop; an empty map leaves that side out.  It checks the score
gradients, then runs the private kernel ``MlpScorer._backward``, which
writes the parameter gradients with ``out=`` into the named views of an
arena-shaped vector (``MlpScorer._zero_grads``); the trainers allocate those
vectors once per run and call the kernel directly.  ``backward`` returns the
gradients of the sides it was given as a dict, and is audited against
central finite differences in the tests.  The two maps carry the
gradient-reversal layer as data: a McDalNet step forwards source and target
as one stacked batch and makes one backward, with the disagreement
gradients reversed and scaled by zeta in the feature-map map only.
``grad_reversal_step`` routes already-computed parameter gradients by name
instead and returns them for the optimizer; the tests keep it as the
reference for that step.

Optimization is plain SGD with momentum (v <- m v + g; theta <- theta -
lr * mult * v) over the whole arena at once, with a per-element learning-rate
multiplier (heads train at 10x the feature map), and the standard annealed
schedules for the learning rate and the adversarial weight.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .margin import _check_count, _check_real

__all__ = [
    "Schedules",
    "lr_schedule",
    "lambda_schedule",
    "MlpScorer",
    "ForwardCache",
    "SgdMomentum",
    "grad_reversal_step",
]

HEAD_LR_MULT = 10.0


@dataclass(frozen=True)
class Schedules:
    """Annealing constants shared by all trainers."""

    eta0: float = 0.01
    alpha: float = 10.0
    beta: float = 0.75
    gamma: float = 10.0
    momentum: float = 0.9

    def __post_init__(self) -> None:
        for name, open_low in (("eta0", True), ("alpha", False), ("beta", False), ("gamma", True)):
            _check_real(getattr(self, name), name, 0.0, open_low=open_low)
        _check_real(self.momentum, "momentum", 0.0, 1.0, open_high=True)


def lr_schedule(p: float, s: Schedules) -> float:
    """Annealed learning rate eta0 / (1 + alpha p)^beta at progress p in [0,1]."""
    p = _check_real(p, "p", 0.0, 1.0)
    return s.eta0 / (1.0 + s.alpha * p) ** s.beta


def lambda_schedule(p: float, s: Schedules) -> float:
    """Adversarial weight 2 / (1 + exp(-gamma p)) - 1, ramping 0 -> 1."""
    p = _check_real(p, "p", 0.0, 1.0)
    return 2.0 / (1.0 + np.exp(-s.gamma * p)) - 1.0


@contextmanager
def _replacing(path, mode: str = "wb", newline: str | None = None):
    """Open a temporary file next to ``path`` and move it onto ``path`` once
    the block completes; if the block raises, remove it instead, so a crash
    mid-write never leaves a truncated file under the final name.  Every
    file the package writes whole goes through it."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path, obj) -> None:
    """``obj`` as JSON indented by two spaces plus a newline, written through
    ``_replacing``: the one writer of every JSON file the package leaves (run
    configs, run summaries, theory and bound reports)."""
    with _replacing(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


@dataclass
class ForwardCache:
    """Everything backward() needs from one forward pass."""

    x: np.ndarray
    acts: list[np.ndarray]  # per psi layer, post-tanh; acts[-1] are the features
    raw: dict[str, np.ndarray]

    @property
    def feats(self) -> np.ndarray:
        return self.acts[-1]


def _score_grad(cache: ForwardCache, name: str, g) -> np.ndarray:
    """dL/d(raw outputs of head ``name``) as float64, checked against the
    head's cached output shape."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != cache.raw[name].shape:
        raise ValueError("gradient shape %r mismatches head %r" % (g.shape, name))
    return g


def _uniform_init(rng: np.random.Generator, out_dim: int, in_dim: int):
    bound = 1.0 / np.sqrt(in_dim)
    w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    b = rng.uniform(-bound, bound, size=out_dim)
    return w, b


class MlpScorer:
    """tanh MLP feature map with named linear heads.

    ``heads`` maps a head name to its output width.  Parameters are keyed
    ``psi{i}.w`` / ``psi{i}.b`` / ``head:{name}.w`` / ``head:{name}.b`` so
    optimizers and checkpoints can address them by name, and live in that
    order in one float64 vector, ``theta``, which the optimizer updates as a
    whole.
    """

    def __init__(
        self,
        in_dim: int,
        heads: Mapping[str, int],
        hidden: tuple[int, ...] = (32, 32),
        feature_dim: int = 16,
        seed: int = 0,
    ) -> None:
        self.in_dim = _check_count(in_dim, "in_dim", 1)
        self.hidden = tuple(_check_count(h, "hidden widths", 1) for h in hidden)
        self.feature_dim = _check_count(feature_dim, "feature_dim", 1)
        self.seed = _check_count(seed, "seed", 0)
        heads = {name: _check_count(d, "head widths", 1) for name, d in heads.items()}
        dims = (self.in_dim,) + self.hidden + (self.feature_dim,)
        # each psi layer and head is a (w [out, in], b [out]) pair
        shapes = {"psi%d" % i: (d_out, d_in) for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))}
        shapes.update({"head:%s" % n: (d, self.feature_dim) for n, d in heads.items()})
        self._layout: list[tuple[str, tuple[int, ...]]] = []
        for key, (d_out, d_in) in shapes.items():
            self._layout += [(key + ".w", (d_out, d_in)), (key + ".b", (d_out,))]
        self.theta = np.empty(sum(math.prod(shape) for _, shape in self._layout))
        self._params = self._views(self.theta)
        pairs = {key: (self._params[key + ".w"], self._params[key + ".b"]) for key in shapes}
        rng = np.random.default_rng(self.seed)
        for w, b in pairs.values():  # drawn in params() order
            w[...], b[...] = _uniform_init(rng, *w.shape)
        self._psi = [pairs["psi%d" % i] for i in range(len(dims) - 1)]
        self._heads = {n: pairs["head:%s" % n] for n in heads}

    # -- parameter plumbing -------------------------------------------------

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of an arena-shaped vector, in ``params()`` order."""
        views, at = {}, 0
        for name, shape in self._layout:
            size = math.prod(shape)
            views[name] = flat[at : at + size].reshape(shape)
            at += size
        return views

    def _zero_grads(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """A zeroed arena-shaped vector and its named views, for ``_backward``
        to write into."""
        flat = np.zeros_like(self.theta)
        return flat, self._views(flat)

    def _pack(self, named: Mapping[str, np.ndarray | float]) -> np.ndarray:
        """An arena-shaped vector holding each named value (an array of the
        parameter's shape, or a scalar) in its parameter's place, zero
        elsewhere; an unknown name raises KeyError."""
        flat, views = self._zero_grads()
        for name, value in named.items():
            views[name][...] = value
        return flat

    @property
    def head_names(self) -> tuple[str, ...]:
        return tuple(self._heads)

    def head_dim(self, name: str) -> int:
        return self._heads[name][0].shape[0]

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays, keyed: views into ``theta``; mutate in place
        to update the model."""
        return dict(self._params)

    def lr_multipliers(self) -> dict[str, float]:
        """Heads train at HEAD_LR_MULT times the feature-map learning rate."""
        return {
            name: (HEAD_LR_MULT if name.startswith("head:") else 1.0)
            for name in self._params
        }

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, heads: Iterable[str] | None = None) -> ForwardCache:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.in_dim:
            raise ValueError("expected inputs of width %d, got %r" % (self.in_dim, x.shape))
        acts: list[np.ndarray] = []
        a = x
        for w, b in self._psi:
            a = np.tanh(a @ w.T + b)
            acts.append(a)
        names = self.head_names if heads is None else tuple(heads)
        raw = {name: a @ self._heads[name][0].T + self._heads[name][1] for name in names}
        return ForwardCache(x=x, acts=acts, raw=raw)

    def backward(
        self,
        cache: ForwardCache,
        head_grads: Mapping[str, np.ndarray],
        psi_grads: Mapping[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        """Parameter gradients from two maps of dL/d(raw head outputs).

        Head parameters take ``head_grads``; the feature map takes
        ``psi_grads``, pulled back through the current head weights (which
        that side treats as fixed linear maps).  An empty map leaves its
        side out of the result.
        """
        head_grads = {name: _score_grad(cache, name, g) for name, g in head_grads.items()}
        psi_grads = {name: _score_grad(cache, name, g) for name, g in psi_grads.items()}
        _, views = self._zero_grads()
        self._backward(cache, head_grads, psi_grads, views)
        heads = {"head:%s.%s" % (name, s) for name in head_grads for s in "wb"}
        return {
            name: g for name, g in views.items()
            if name in heads or (psi_grads and name.startswith("psi"))
        }

    def _backward(
        self,
        cache: ForwardCache,
        head_grads: Mapping[str, np.ndarray],
        psi_grads: Mapping[str, np.ndarray],
        out: Mapping[str, np.ndarray],
    ) -> None:
        """``backward`` on score gradients that already match the cached head
        outputs (float64): writes the gradients of the sides given into
        ``out``, the named views of an arena-shaped vector, and leaves its
        other entries as they are.  The input layer's pull-back, which no
        parameter reads, is skipped."""
        feats = cache.feats
        for name, g in head_grads.items():
            np.matmul(g.T, feats, out=out["head:%s.w" % name])
            np.add.reduce(g, axis=0, out=out["head:%s.b" % name])  # np.sum without its wrapper
        if not psi_grads:
            return
        dfeat = np.zeros(feats.shape)
        for name, g in psi_grads.items():
            dfeat += g @ self._heads[name][0]
        for i in range(len(self._psi) - 1, -1, -1):
            a = cache.acts[i]
            prev = cache.x if i == 0 else cache.acts[i - 1]
            dz = dfeat * (1.0 - a * a)  # tanh'
            np.matmul(dz.T, prev, out=out["psi%d.w" % i])
            np.add.reduce(dz, axis=0, out=out["psi%d.b" % i])
            if i:
                dfeat = dz @ self._psi[i][0]

    def scorer(self, name: str) -> Callable[[np.ndarray], np.ndarray]:
        """Callable batch -> raw head scores, for the divergence estimators."""
        if name not in self._heads:
            raise KeyError("unknown head %r" % name)
        return lambda points: self.forward(points, heads=(name,)).raw[name]

    # -- checkpointing --------------------------------------------------------

    def save(self, path) -> None:
        """JSON header line plus little-endian float64 parameter block,
        written to a temporary file and then moved onto ``path``.  ``load``
        also reads headers whose heads carry a ``center`` key, which is
        ignored."""
        params = self.params()
        header = {
            "format": "mcsda-mlp-v1",
            "seed": self.seed,
            "in_dim": self.in_dim,
            "hidden": list(self.hidden),
            "feature_dim": self.feature_dim,
            "heads": [{"name": n, "out_dim": w.shape[0]} for n, (w, _) in self._heads.items()],
            "param_order": list(params),
        }
        with _replacing(path) as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for name in header["param_order"]:
                fh.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "MlpScorer":
        """The model ``save`` wrote to ``path``; a header or payload unlike
        the ones ``save`` writes raises ValueError."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            blob = fh.read()
        try:
            if header["format"] != "mcsda-mlp-v1":
                raise ValueError("unrecognized checkpoint format: %r" % (header["format"],))
            model = cls(
                in_dim=header["in_dim"],
                heads={h["name"]: h["out_dim"] for h in header["heads"]},
                hidden=tuple(header["hidden"]),
                feature_dim=header["feature_dim"],
                seed=header["seed"],
            )
            params = model.params()
            layout = [params[name] for name in header["param_order"]]
        except (KeyError, TypeError) as exc:  # not an object, a missing key, a null, ...
            raise ValueError("malformed checkpoint header: %r" % (exc,)) from exc
        offset = 0
        for p in layout:
            chunk = np.frombuffer(blob, dtype="<f8", count=p.size, offset=offset)
            p[...] = chunk.reshape(p.shape)
            offset += p.size * 8
        if offset != len(blob):
            raise ValueError("checkpoint payload has %d trailing bytes" % (len(blob) - offset))
        return model


class SgdMomentum:
    """SGD with momentum over one flat parameter vector, updated in place.

    v <- momentum * v + g;  theta <- theta - (lr * mult) * v, with a fixed
    per-element multiplier ``lr_multipliers`` of theta's shape (heads at 10x
    by convention; all ones when None).  ``MlpScorer.theta`` and
    ``MlpScorer._pack(model.lr_multipliers())`` are the model's pair.
    """

    def __init__(
        self,
        theta: np.ndarray,
        momentum: float = 0.9,
        lr_multipliers: np.ndarray | None = None,
    ) -> None:
        self.momentum = _check_real(momentum, "momentum", 0.0, 1.0, open_high=True)
        if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64 and theta.ndim == 1):
            raise ValueError("theta must be a float64 vector, updated in place")
        self._theta = theta
        mult = np.ones_like(theta) if lr_multipliers is None else lr_multipliers
        self._mult = np.array(mult, dtype=np.float64)
        if self._mult.shape != theta.shape:
            raise ValueError("lr_multipliers must have theta's shape %r" % (theta.shape,))
        self._vel = np.zeros_like(theta)
        self._scaled = np.empty_like(theta)

    def step(self, grad: np.ndarray, lr: float) -> None:
        """One update with the gradient vector ``grad`` (theta's shape)."""
        lr = _check_real(lr, "lr", 0.0, open_low=True)
        if np.shape(grad) != self._theta.shape:
            raise ValueError("gradient shape %r mismatches theta's %r"
                             % (np.shape(grad), self._theta.shape))
        v = self._vel
        v *= self.momentum
        v += grad
        np.multiply(self._mult, lr, out=self._scaled)
        self._scaled *= v
        self._theta -= self._scaled


def grad_reversal_step(
    model: MlpScorer,
    task_grads: Mapping[str, np.ndarray],
    disagreement_grads: Mapping[str, np.ndarray],
    zeta: float,
    adversary_heads: tuple[str, ...],
    zeta_on_adversary: bool = False,
) -> dict[str, np.ndarray]:
    """The gradients of one simultaneous minimax update.

    Adversary head parameters descend the disagreement loss (they sharpen
    the source/target gap); the feature map receives the task gradient
    minus zeta times the disagreement gradient (the reversed signal); every
    other head sees only its task gradient.  With ``zeta_on_adversary`` the
    adversary side is scaled by zeta as well instead of staying unscaled.
    Returns the effective gradients, one per parameter, for the optimizer.
    """
    adv_prefixes = tuple("head:%s." % name for name in adversary_heads)
    eff: dict[str, np.ndarray] = {}
    for name, p in model.params().items():
        t = task_grads.get(name)
        d = disagreement_grads.get(name)
        # a parameter without a task gradient still steps (momentum decay)
        g = np.zeros_like(p) if t is None else t
        if d is not None:
            if name.startswith(adv_prefixes):
                g = g + (zeta * d if zeta_on_adversary else d)
            elif not name.startswith("head:"):
                g = g - zeta * d
            # task heads ignore the disagreement term entirely
        eff[name] = g
    return eff
