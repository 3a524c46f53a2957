"""Span tracer for the traced benchmark run.

The benchmark installs wrappers on public functions and methods of the
mcsda modules from its own code; nothing under ``src/`` changes.  Methods
are patched on their class.  A function is patched in its defining module
and in every mcsda module that imported it by name, including dict
registries that hold it (``losses.PAIRWISE_SURROGATES``).

Each wrapper records a span (name, parent, run id, start, end) in flat
in-memory arrays; the spans are written out once, at the end of the run.
A span's self time is its duration minus the time its child spans cover,
so the self times of all spans add up to the time the root spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

__all__ = ["Tracer", "install", "layer_metrics", "LAYER_METRICS"]


class Tracer:
    """Spans in flat arrays; ``run_id`` tags spans with the operation index
    (-1 during set-up)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.setup_counts: dict[str, float] = {}
        self.run_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(i)

    def count(self, key: str, n: float = 1) -> None:
        target = self.setup_counts if self.run_id < 0 else self.counts
        target[key] = target.get(key, 0) + n

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            run=np.frombuffer(self.run, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _wrap(tracer: Tracer, fn, name: str, after=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        if after is not None:
            after(tracer, args, out)
        return out

    return traced


def _wrap_iterator(tracer: Tracer, fn, name: str):
    """For a function returning an endless iterator: each ``next()`` is a span."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def timed():
            while True:
                i = tracer.begin(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.finish(i)
                yield item

        return timed()

    return traced


def _count_forward(full_rows: int):
    def after(tracer, args, cache):
        rows = cache.x.shape[0]
        tracer.count("neural.forward.rows", rows)
        if rows >= full_rows:
            tracer.count("neural.forward.full_calls")

    return after


def _count_run(tracer, args, result):
    tracer.count("trainers.epochs", len(result.metrics))
    tracer.count("surrogates.clamp_events", sum(r.clamp_events for r in result.metrics))


def _count_elements(tracer, args, out):
    tracer.count("divergence.violation_tensor.elements", out.size)


def _n_points(sample) -> int:
    return int(np.shape(getattr(sample, "points", sample))[0])


def _count_pairwise_bytes(tracer, args, out):
    # computed from array sizes: the kernel forms one [c, n, K, K] float64
    # difference tensor per candidate row, on each side
    src, tgt, grid = args[0], args[1], args[2]
    c, k = len(grid), grid.k
    tracer.count(
        "divergence.pairwise.bytes_computed", 8 * c * c * k * k * (_n_points(src) + _n_points(tgt))
    )


def _count_ascent(tracer, args, result):
    tracer.count("divergence.ascent.accepted_steps", len(result.trajectory) - 1)
    if result.warning is not None:
        tracer.count("divergence.ascent.warnings")


THEORY_CHECKS = (
    "ramp",
    "margin_decision",
    "prop3_identity",
    "pointwise_lemmas",
    "variant_lemmas",
    "mcsd_metric",
    "surrogate_identities",
    "bound_universes",
    "divergence_properties",
    "adversarial_estimator",
    "rademacher",
    "pac_bound",
    "schedules",
)

# (module, attribute, span name, counter); "Class.method" patches the class
_TARGETS = [
    ("mcsda.neural", "MlpScorer.forward", "neural.forward", "forward"),
    ("mcsda.neural", "MlpScorer.backward", "neural.backward", None),
    ("mcsda.neural", "SgdMomentum.step", "neural.sgd_step", None),
    ("mcsda.neural", "grad_reversal_step", "neural.grad_reversal_step", None),
    ("mcsda.surrogates", "log_loss_with_grads", "surrogates.log_loss_with_grads", None),
    ("mcsda.surrogates", "softmax", "surrogates.softmax", None),
    ("mcsda.surrogates", "l1_with_grads", "surrogates.pairwise", None),
    ("mcsda.surrogates", "kl_with_grads", "surrogates.pairwise", None),
    ("mcsda.surrogates", "ce_with_grads", "surrogates.pairwise", None),
    ("mcsda.surrogates", "mdd_variant_with_grads", "surrogates.mdd_variant_with_grads", None),
    ("mcsda.surrogates", "dann_with_grads", "surrogates.dann_with_grads", None),
    ("mcsda.symmnets", "symmnets_step", "symmnets.symmnets_step", None),
    ("mcsda.symmnets", "disagreement_bound_gap", "symmnets.disagreement_bound_gap", None),
    ("mcsda.symmnets", "loss_task_src", "symmnets.loss_task_src", None),
    ("mcsda.symmnets", "confuse_src", "symmnets.confuse_src", None),
    ("mcsda.symmnets", "confuse_tgt", "symmnets.confuse_tgt", None),
    ("mcsda.symmnets", "discrim", "symmnets.discrim", None),
    ("mcsda.symmnets", "partial_weights", "symmnets.partial_weights", None),
    ("mcsda.symmnets", "openset_sampler", "symmnets.openset_sampler", "iterator"),
    ("mcsda.symmnets", "eval_openset", "symmnets.eval_openset", None),
    ("mcsda.harness.trainers", "run_experiment", "trainers.run_experiment", _count_run),
    ("mcsda.divergence", "violation_tensor", "divergence.violation_tensor", _count_elements),
    ("mcsda.divergence", "ScorerGrid.evaluate", "divergence.ScorerGrid.evaluate", None),
    (
        "mcsda.divergence",
        "mcsd_divergence_exact",
        "divergence.mcsd_divergence_exact",
        _count_pairwise_bytes,
    ),
    ("mcsda.divergence", "rademacher_estimate", "divergence.rademacher_estimate", None),
    ("mcsda.divergence", "margin_error", "divergence.margin_error", None),
    ("mcsda.divergence", "pac_bound_report", "divergence.pac_bound_report", None),
    (
        "mcsda.divergence",
        "mcsd_divergence_adversarial",
        "divergence.mcsd_divergence_adversarial",
        _count_ascent,
    ),
    ("mcsda.margin", "ramp_loss", "margin.ramp_loss", None),
    ("mcsda.margin", "violation_matrix", "margin.violation_matrix", None),
    ("mcsda.margin", "mcsd_pointwise", "margin.mcsd_pointwise", None),
    ("mcsda.margin", "phi_distance", "margin.phi_distance", None),
    ("mcsda.margin", "absolute_margin", "margin.absolute_margin", None),
    ("mcsda.margin", "mcsd_tilde_pointwise", "margin.mcsd_variant_pointwise", None),
    ("mcsda.margin", "mcsd_hat_pointwise", "margin.mcsd_variant_pointwise", None),
    ("mcsda.synthdata", "gen_rotated_moons", "synthdata.generate", None),
    ("mcsda.synthdata", "gen_gauss_blobs", "synthdata.generate", None),
    ("mcsda.synthdata", "make_partial", "synthdata.generate", None),
    ("mcsda.synthdata", "make_openset", "synthdata.generate", None),
    ("mcsda.synthdata", "write_csv", "synthdata.csv", None),
    ("mcsda.synthdata", "read_csv", "synthdata.csv", None),
    ("mcsda.harness.cli", "main", "cli.main", None),
] + [("mcsda.harness.theory", "check_" + c, "theory." + c, None) for c in THEORY_CHECKS]

# The batched divergence kernels call margin.ramp_loss on whole tensors; that
# time stays in their own spans so margin's spans measure its scalar API.
_SKIP_IMPORTERS = {"margin.ramp_loss": ("mcsda.divergence",)}


def _replace_everywhere(orig, new, skip) -> None:
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("mcsda") or modname in skip:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, v in value.items():
                    if v is orig:
                        value[key] = new


def install(tracer: Tracer, full_rows: int) -> None:
    """Wrap every traced function; forwards over ``full_rows`` rows or more
    count as whole-domain forwards."""
    for modname, attr, name, counter in _TARGETS:
        mod = sys.modules[modname]
        after = _count_forward(full_rows) if counter == "forward" else counter
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _wrap(tracer, vars(cls)[meth], name, after))
            continue
        orig = getattr(mod, attr)
        if counter == "iterator":
            new = _wrap_iterator(tracer, orig, name)
        else:
            new = _wrap(tracer, orig, name, after)
        _replace_everywhere(orig, new, _SKIP_IMPORTERS.get(name, ()))


# Per-layer metrics: (metric name, unit, better).  Span fields: ".calls" is
# a call count, ".self_s" self time, ".s" inclusive time.
_SPAN_FIELDS = [
    ("neural.forward", ("calls", "self_s")),
    ("neural.backward", ("calls", "self_s")),
    ("neural.sgd_step", ("calls", "self_s")),
    ("neural.grad_reversal_step", ("self_s",)),
    ("surrogates.log_loss_with_grads", ("calls", "self_s")),
    ("surrogates.softmax", ("calls", "self_s")),
    ("surrogates.pairwise", ("self_s",)),
    ("surrogates.mdd_variant_with_grads", ("self_s",)),
    ("surrogates.dann_with_grads", ("self_s",)),
    ("symmnets.symmnets_step", ("calls", "self_s")),
    ("symmnets.disagreement_bound_gap", ("self_s",)),
    ("symmnets.loss_task_src", ("self_s",)),
    ("symmnets.confuse_src", ("self_s",)),
    ("symmnets.confuse_tgt", ("self_s",)),
    ("symmnets.discrim", ("self_s",)),
    ("symmnets.partial_weights", ("self_s",)),
    ("symmnets.openset_sampler", ("self_s",)),
    ("symmnets.eval_openset", ("self_s",)),
    ("trainers.run_experiment", ("self_s",)),
    ("divergence.violation_tensor", ("calls", "self_s")),
    ("divergence.ScorerGrid.evaluate", ("calls", "self_s")),
    ("divergence.mcsd_divergence_exact", ("self_s",)),
    ("divergence.rademacher_estimate", ("self_s",)),
    ("divergence.margin_error", ("calls", "self_s")),
    ("divergence.pac_bound_report", ("self_s",)),
    ("divergence.mcsd_divergence_adversarial", ("self_s",)),
    ("margin.ramp_loss", ("calls", "self_s")),
    ("margin.violation_matrix", ("calls", "self_s")),
    ("margin.mcsd_pointwise", ("calls", "self_s")),
    ("margin.phi_distance", ("calls", "self_s")),
    ("margin.absolute_margin", ("calls", "self_s")),
    ("margin.mcsd_variant_pointwise", ("calls", "self_s")),
    ("synthdata.generate", ("self_s",)),
    ("synthdata.csv", ("self_s",)),
    ("cli.main", ("self_s",)),
] + [("theory." + c, ("s",)) for c in THEORY_CHECKS]

_COUNTERS = [
    ("neural.forward.rows", "count"),
    ("neural.forward.full_calls", "count"),
    ("surrogates.clamp_events", "count"),
    ("trainers.epochs", "count"),
    ("divergence.violation_tensor.elements", "count"),
    ("divergence.pairwise.bytes_computed", "B"),
    ("divergence.ascent.accepted_steps", "count"),
    ("divergence.ascent.warnings", "count"),
]

LAYERS = ("bench", "neural", "surrogates", "symmnets", "trainers", "divergence", "margin",
          "theory", "synthdata", "cli")

LAYER_METRICS = (
    [
        (span + "." + f, "count" if f == "calls" else "s", "lower")
        for span, fields in _SPAN_FIELDS
        for f in fields
    ]
    + [(name, unit, "lower") for name, unit in _COUNTERS]
    + [
        ("neural.forward.full_calls_per_epoch", "count", "lower"),
        ("divergence.ascent.exact_evals", "count", "lower"),
        ("trainers.expected_steps", "count", "lower"),
        ("trace.cycles", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.cycle_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    + [("share." + layer, "ratio", "lower") for layer in LAYERS]
)


def layer_metrics(tracer: Tracer, wall_s: float, cycles: int, expected_steps: int) -> dict:
    """Per-layer values: set-up spans count once, operation spans are divided
    by the number of complete cycles, so counts repeat exactly at one seed.

    Layer shares and coverage are raw self-time totals over ``wall_s``.
    """
    names = tracer.names
    m = len(names)
    name = np.frombuffer(tracer.name, dtype=np.intc)
    parent = np.frombuffer(tracer.parent, dtype=np.intc)
    setup = np.frombuffer(tracer.run, dtype=np.intc) < 0
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child

    def per_cycle(values):
        in_setup = np.bincount(name[setup], weights=values[setup], minlength=m)
        in_ops = np.bincount(name[~setup], weights=values[~setup], minlength=m)
        return in_setup + in_ops / cycles

    fields = {
        "calls": per_cycle(np.ones(dur.size)),
        "self_s": per_cycle(self_t),
        "s": per_cycle(dur),
    }
    out: dict[str, float] = {}
    for span, wanted in _SPAN_FIELDS:
        nid = tracer._ids.get(span)
        for f in wanted:
            out[span + "." + f] = 0.0 if nid is None else float(fields[f][nid])
    for key, _ in _COUNTERS:
        out[key] = tracer.setup_counts.get(key, 0) + tracer.counts.get(key, 0) / cycles
    epochs = out["trainers.epochs"]
    out["neural.forward.full_calls_per_epoch"] = (
        out["neural.forward.full_calls"] / epochs if epochs else 0.0
    )
    out["divergence.ascent.exact_evals"] = _evaluations_under(
        tracer, name, parent, ~setup, "divergence.ScorerGrid.evaluate",
        "divergence.mcsd_divergence_adversarial",
    ) / 2 / cycles
    out["trainers.expected_steps"] = expected_steps / cycles
    total_self = float(self_t.sum())
    out["trace.cycles"] = cycles
    out["trace.spans"] = dur.size
    out["trace.wall_s"] = wall_s
    out["trace.cycle_s"] = float(dur[(name == tracer._ids["bench.op"]) & ~setup].sum()) / cycles
    out["trace.coverage"] = total_self / wall_s
    by_layer = np.bincount(name, weights=self_t, minlength=m)
    for layer in LAYERS:
        ids = [i for i, n in enumerate(names) if n.split(".")[0] == layer]
        out["share." + layer] = float(by_layer[ids].sum()) / wall_s
    return out


def _evaluations_under(
    tracer: Tracer, name, parent, mask, child_name: str, ancestor_name: str
) -> int:
    """Number of ``child_name`` spans selected by ``mask`` with an
    ``ancestor_name`` span above them."""
    child_id = tracer._ids.get(child_name)
    ancestor_id = tracer._ids.get(ancestor_name)
    if child_id is None or ancestor_id is None:
        return 0
    hits = 0
    for i in np.flatnonzero((name == child_id) & mask):
        p = parent[i]
        while p >= 0 and name[p] != ancestor_id:
            p = parent[p]
        hits += p >= 0
    return int(hits)
