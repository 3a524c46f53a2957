"""Run configuration and the per-epoch metrics schema."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

from ..neural import Schedules

__all__ = ["METHODS", "SURROGATES", "ExperimentConfig", "MetricsRecord"]

METHODS = (
    "source_only",
    "mcdal_l1",
    "mcdal_kl",
    "mcdal_ce",
    "mcdal_mdd_variant",
    "mcdal_dann",
    "symmnets_v2",
    "symmnets_v2_no_Lt",
    "symmnets_v2_no_adv",
)

SURROGATES = ("l1", "kl", "ce", "mdd_variant", "dann")


@dataclass
class ExperimentConfig:
    """Everything one training run needs; JSON round-trippable.

    ``seed`` drives model initialization and batch shuffling; the dataset
    carries its own seed.  ``zeta`` and ``xi`` follow the annealed
    adversarial weight when left at None (the default coupling), or stay at
    a fixed float when set.  ``eval_head`` is 'auto' or a head the method
    builds: 'f' for source-only and the minimax trainers, 'fs' or 'ft' for
    the symmetric trainers.  'auto' resolves to 'f', and for the symmetric
    trainers to the target-path head 'ft' (source-path head 'fs' for the
    no-target-task ablation).
    """

    method: str = "source_only"
    rho: float = 1.0
    epochs: int = 60
    batch_size: int = 64
    full_batch_limit: int = 512
    seed: int = 0
    hidden: tuple[int, ...] = (32, 32)
    feature_dim: int = 16
    schedules: Schedules = field(default_factory=Schedules)
    zeta: float | None = None  # None: follow the annealed lambda
    xi: float | None = None  # None: follow the annealed lambda (partial mode)
    nu: float = 6.0  # super-class oversampling factor (open-set mode)
    zeta_on_adversary: bool = False
    aux_task_weight: float = 1.0
    eval_head: str = "auto"
    outdir: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError("method must be one of %r, got %r" % (METHODS, self.method))
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite, got %r" % self.rho)
        sizes = (self.epochs, self.batch_size, self.full_batch_limit, self.feature_dim)
        if not all(isinstance(v, numbers.Integral) and v >= 1 for v in sizes + tuple(self.hidden)):
            raise ValueError(
                "epochs, batch_size, full_batch_limit, feature_dim and hidden widths"
                " must be positive integers"
            )
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer, got %r" % (self.seed,))
        heads = ("fs", "ft") if self.method.startswith("symmnets") else ("f",)
        if self.eval_head not in ("auto",) + heads:
            raise ValueError(
                "eval_head of %s must be 'auto' or one of %r, got %r"
                % (self.method, heads, self.eval_head)
            )
        for name, v in (("zeta", self.zeta), ("xi", self.xi)):
            if v is not None and not 0.0 <= float(v) <= 1.0:
                raise ValueError("%s must lie in [0, 1] when fixed, got %r" % (name, v))
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError("nu must be positive and finite, got %r" % self.nu)
        if not math.isfinite(self.aux_task_weight):
            raise ValueError("aux_task_weight must be finite, got %r" % self.aux_task_weight)
        if isinstance(self.hidden, list):
            self.hidden = tuple(self.hidden)
        if isinstance(self.schedules, dict):
            self.schedules = Schedules(**self.schedules)

    @property
    def surrogate(self) -> str | None:
        """The surrogate implied by a minimax method name, else None."""
        if self.method.startswith("mcdal_"):
            return self.method[len("mcdal_") :]
        return None

    def resolve_eval_head(self) -> str:
        if self.eval_head != "auto":
            return self.eval_head
        if self.method == "symmnets_v2_no_Lt":
            return "fs"
        if self.method.startswith("symmnets"):
            return "ft"
        return "f"

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        out["hidden"] = list(self.hidden)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        return cls(**data)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


@dataclass
class MetricsRecord:
    """One epoch of training metrics; constant schema within a run.

    Fields that do not apply to a method stay None so every line of the
    JSONL stream parses independently against the same schema.
    """

    epoch: int
    method: str
    seed: int
    lr: float
    lambda_p: float
    zeta: float | None
    xi: float | None
    losses: dict[str, float]
    source_acc: float
    target_acc: float
    divergence_proxy: float | None
    clamp_events: int
    omega: list[float] | None = None
    os_all: float | None = None
    os_shared: float | None = None
    unknown_acc: float | None = None
    nan_flag: bool = False

    def to_json_line(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)
