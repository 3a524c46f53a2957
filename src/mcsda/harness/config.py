"""Run configuration, the method table and the per-epoch metrics schema.

``METHOD_ROWS`` states each of the nine training methods once, as data: its
family (source-only, McDalNet or SymmNets), the heads it builds in
initialization order with their widths (K, the class count, except the
scalar domain head of the binary surrogate), the heads it may evaluate with
('auto' picks the first), the head pair of its divergence proxy and the
constants its family's step takes (the McDalNet surrogate, the SymmNets
ablation switches).  ``METHODS``, ``SURROGATES``, the config's eval-head
check and the CLI's choices are read off the table; the trainers map each
family to its step function.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from ..margin import _check_count, _check_real, _check_rho
from ..neural import Schedules, _write_json
from ..symmnets import HEAD_S, HEAD_T

__all__ = ["Family", "MethodRow", "METHOD_ROWS", "METHODS", "SURROGATES", "EVAL_HEADS"]
__all__ += ["ExperimentConfig", "MetricsRecord"]


@dataclass(frozen=True)
class Family:
    """What every method of one family shares."""

    name: str
    options: tuple[str, ...] = ()  # ExperimentConfig fields the step takes as keywords
    uses_zeta: bool = True  # the step takes, and the record shows, the adversarial weight
    modes: bool = False  # partial re-weighting and open-set sampling apply


SOURCE_ONLY = Family("source_only", uses_zeta=False)
MCDAL = Family("mcdal", ("aux_task_weight", "zeta_on_adversary"))
SYMMNETS = Family("symmnets", ("rho",), modes=True)


@dataclass(frozen=True)
class MethodRow:
    """One training method; a head width of None means K."""

    family: Family
    heads: tuple[tuple[str, int | None], ...]
    eval_heads: tuple[str, ...]
    proxy: tuple[str, str] | None  # head pair of the divergence proxy
    constants: dict = field(default_factory=dict)  # keywords of the family's step

    def head_widths(self, k: int) -> dict[str, int]:
        """The ``MlpScorer`` head spec for K classes."""
        return {name: k if width is None else width for name, width in self.heads}


def _mcdal(surrogate: str, heads=(("f", None), ("f1", None), ("f2", None)), proxy=("f1", "f2")):
    return MethodRow(MCDAL, heads, ("f",), proxy, {"surrogate": surrogate})


def _symmnets(eval_heads: tuple[str, str], **switches) -> MethodRow:
    heads = ((HEAD_S, None), (HEAD_T, None))
    return MethodRow(SYMMNETS, heads, eval_heads, (HEAD_S, HEAD_T), switches)


METHOD_ROWS = {
    "source_only": MethodRow(SOURCE_ONLY, (("f", None),), ("f",), None),
    "mcdal_l1": _mcdal("l1"),
    "mcdal_kl": _mcdal("kl"),
    "mcdal_ce": _mcdal("ce"),
    "mcdal_mdd_variant": _mcdal("mdd_variant"),
    "mcdal_dann": _mcdal("dann", heads=(("f", None), ("d", 1)), proxy=None),
    "symmnets_v2": _symmnets((HEAD_T, HEAD_S), adversarial=True, train_task_t=True),
    "symmnets_v2_no_Lt": _symmnets((HEAD_S, HEAD_T), adversarial=True, train_task_t=False),
    "symmnets_v2_no_adv": _symmnets((HEAD_T, HEAD_S), adversarial=False, train_task_t=True),
}

METHODS = tuple(METHOD_ROWS)
SURROGATES = tuple(r.constants["surrogate"] for r in METHOD_ROWS.values() if r.family is MCDAL)
EVAL_HEADS = ("auto",) + tuple(sorted({h for r in METHOD_ROWS.values() for h in r.eval_heads}))


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
        self.rho = _check_rho(self.rho)
        for name in ("epochs", "batch_size", "full_batch_limit", "feature_dim"):
            setattr(self, name, _check_count(getattr(self, name), name, 1))
        self.seed = _check_count(self.seed, "seed", 0)
        self.hidden = tuple(_check_count(h, "hidden widths", 1) for h in self.hidden)
        heads = METHOD_ROWS[self.method].eval_heads
        if self.eval_head not in ("auto",) + heads:
            raise ValueError(
                "eval_head of %s must be 'auto' or one of %r, got %r"
                % (self.method, heads, self.eval_head)
            )
        for name, v in (("zeta", self.zeta), ("xi", self.xi)):
            if v is not None:
                _check_real(v, name, 0.0, 1.0)
        _check_real(self.nu, "nu", 0.0, open_low=True)
        _check_real(self.aux_task_weight, "aux_task_weight")
        if not isinstance(self.zeta_on_adversary, bool):
            raise ValueError("zeta_on_adversary must be a bool, got %r" % (self.zeta_on_adversary,))
        if not (self.outdir is None or isinstance(self.outdir, str)):
            raise ValueError("outdir must be a string, got %r" % (self.outdir,))
        if isinstance(self.schedules, dict):
            self.schedules = Schedules(**self.schedules)
        elif not isinstance(self.schedules, Schedules):
            raise ValueError("schedules must be an object, got %r" % (self.schedules,))

    @property
    def surrogate(self) -> str | None:
        """The surrogate of a minimax method, else None."""
        return METHOD_ROWS[self.method].constants.get("surrogate")

    def resolve_eval_head(self) -> str:
        auto = self.eval_head == "auto"
        return METHOD_ROWS[self.method].eval_heads[0] if auto else self.eval_head

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        out["hidden"] = list(self.hidden)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        return cls(**data)

    def dump(self, path) -> None:
        _write_json(path, self.to_json())


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
