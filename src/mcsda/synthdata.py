"""Desk-scale synthetic domain pairs with controlled shift.

Two generators: interleaved half-moons where the target domain is the same
distribution rotated about the origin, and a ring of isotropic Gaussian
blobs where the target is translated by a fixed vector.  Both draw the
target as a fresh sample (never a transform of the very same source
points), keep classes balanced, and are fully determined by their seed.

Target labels exist in every ``DomainPair`` but are evaluation-only: the
target ``SampleSet`` carries ``labels=None`` and the true labels are only
reachable through ``eval_target_labels``.  Trainers receive the pair; only
metric computations call the evaluation accessor.

``make_partial`` restricts the target to a subset of classes (source keeps
all of them); ``make_openset`` builds the open-set task: shared classes are
renumbered 1..K_shared, source-exclusive classes collapse into the
super class K_shared + 1, and target-exclusive classes become unknowns
carrying that same super-class label on the evaluation side.

CSV serialization writes one row per point with header x1,...,xd,label,
domain plus a JSON manifest sidecar (mode, seed, k, k_shared, generator,
params).  Floats are written with %.17g so a round trip is bit-exact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .divergence import SampleSet
from .margin import _check_count, _check_real
from .neural import _replacing, _write_json

__all__ = [
    "DomainPair",
    "gen_rotated_moons",
    "gen_gauss_blobs",
    "make_partial",
    "make_openset",
    "write_csv",
    "read_csv",
    "manifest_path",
]

MODES = ("closed", "partial", "openset")


@dataclass
class DomainPair:
    """A labeled source sample and an unlabeled target sample."""

    source: SampleSet
    target: SampleSet
    mode: str
    meta: dict
    _target_labels: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError("mode must be one of %r, got %r" % (MODES, self.mode))
        if self.source.labels is None:
            raise ValueError("source sample must be labeled")
        if self.target.labels is not None:
            raise ValueError("target labels go through eval_target_labels only")
        # the hidden labels pass the checks of a labeled target sample
        lab = SampleSet(self.target.points, self._target_labels).labels
        object.__setattr__(self, "_target_labels", lab)
        k = _check_count(self.meta.get("k"), "k", 2)
        if self.source.labels.max() > k or lab.max() > k:
            raise ValueError("labels exceed the declared class count %d" % k)
        if self.mode == "openset":
            # the heads are built at the pair's width, K_shared + 1
            k_shared = _check_count(self.meta.get("k_shared"), "k_shared", 2)
            if k != k_shared + 1:
                raise ValueError("open-set k must be k_shared + 1, got %d, %d" % (k, k_shared))

    @property
    def k(self) -> int:
        return int(self.meta["k"])

    @property
    def k_shared(self) -> int:
        return int(self.meta["k_shared"])

    def eval_target_labels(self) -> np.ndarray:
        """Hidden target labels; for evaluation and theory checks only."""
        return self._target_labels.copy()


def _balanced_counts(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def _moons_sample(rng: np.random.Generator, n: int, noise_sd: float):
    """Centered two-moons draw: class 1 outer arc, class 2 inner arc."""
    counts = _balanced_counts(n, 2)
    t1 = rng.uniform(0.0, np.pi, size=counts[0])
    t2 = rng.uniform(0.0, np.pi, size=counts[1])
    outer = np.stack([np.cos(t1), np.sin(t1)], axis=1)
    inner = np.stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)], axis=1)
    pts = np.concatenate([outer, inner], axis=0) - np.array([0.5, 0.25])
    pts += rng.normal(0.0, noise_sd, size=pts.shape)
    labels = np.concatenate([np.ones(counts[0], dtype=np.int64), np.full(counts[1], 2)])
    perm = rng.permutation(n)
    return pts[perm], labels[perm]


def gen_rotated_moons(
    n_src: int, n_tgt: int, angle_deg: float, noise_sd: float = 0.1, seed: int = 0
) -> DomainPair:
    """Two-moons source; target is an independent draw rotated by angle_deg."""
    n_src, n_tgt = _check_count(n_src, "n_src", 2), _check_count(n_tgt, "n_tgt", 2)
    _check_real(noise_sd, "noise_sd", 0.0)
    _check_real(angle_deg, "angle_deg")
    rng = np.random.default_rng(seed)
    src_pts, src_lab = _moons_sample(rng, n_src, noise_sd)
    tgt_pts, tgt_lab = _moons_sample(rng, n_tgt, noise_sd)
    theta = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    tgt_pts = tgt_pts @ rot.T
    meta = {
        "generator": "moons",
        "seed": int(seed),
        "k": 2,
        "k_shared": 2,
        "params": {"n_src": n_src, "n_tgt": n_tgt, "angle_deg": angle_deg, "noise_sd": noise_sd},
    }
    return DomainPair(
        source=SampleSet(src_pts, src_lab),
        target=SampleSet(tgt_pts),
        mode="closed",
        meta=meta,
        _target_labels=tgt_lab,
    )


def blob_means(k: int, radius: float = 4.0) -> np.ndarray:
    """Class means evenly spaced on a circle; shared by both domains."""
    ang = 2.0 * np.pi * np.arange(k) / k
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def gen_gauss_blobs(
    k: int,
    n_per_class: int,
    shift_vector,
    seed: int = 0,
    std: float = 1.0,
    radius: float = 4.0,
) -> DomainPair:
    """K isotropic Gaussian blobs on a ring; target means shifted by a vector."""
    k = _check_count(k, "K", 2)
    n_per_class = _check_count(n_per_class, "n_per_class", 1)
    std, radius = _check_real(std, "std", 0.0), _check_real(radius, "radius")
    shift = np.array([_check_real(v, "shift_vector") for v in np.ravel(shift_vector)])
    if shift.size != 2:
        raise ValueError("shift_vector must have 2 components")
    rng = np.random.default_rng(seed)
    means = blob_means(k, radius)

    def draw(offset):
        pts = np.concatenate(
            [m + offset + std * rng.standard_normal((n_per_class, 2)) for m in means]
        )
        labels = np.repeat(np.arange(1, k + 1), n_per_class)
        perm = rng.permutation(pts.shape[0])
        return pts[perm], labels[perm]

    src_pts, src_lab = draw(np.zeros(2))
    tgt_pts, tgt_lab = draw(shift)
    meta = {
        "generator": "blobs",
        "seed": int(seed),
        "k": k,
        "k_shared": k,
        "params": {
            "k": k,
            "n_per_class": n_per_class,
            "shift_vector": shift.tolist(),
            "std": std,
            "radius": radius,
        },
    }
    return DomainPair(
        source=SampleSet(src_pts, src_lab),
        target=SampleSet(tgt_pts),
        mode="closed",
        meta=meta,
        _target_labels=tgt_lab,
    )


def make_partial(pair: DomainPair, kept_classes) -> DomainPair:
    """Restrict the target to a subset of classes; source keeps all K."""
    kept = sorted(set(int(c) for c in kept_classes))
    if not kept or any(c < 1 or c > pair.k for c in kept):
        raise ValueError("kept_classes must be a non-empty subset of {1..%d}" % pair.k)
    if len(kept) == pair.k:
        raise ValueError("partial mode requires dropping at least one class")
    hidden = pair.eval_target_labels()
    mask = np.isin(hidden, kept)
    if not mask.any():
        raise ValueError("no target points left after restricting to %r" % (kept,))
    meta = dict(pair.meta)
    meta["k_shared"] = len(kept)
    meta["params"] = dict(meta.get("params", {}), kept_classes=kept)
    return DomainPair(
        source=pair.source,
        target=SampleSet(pair.target.points[mask]),
        mode="partial",
        meta=meta,
        _target_labels=hidden[mask],
    )


def make_openset(pair: DomainPair, shared_classes, src_extra, tgt_extra) -> DomainPair:
    """Build the open-set task from a closed pair with disjoint class groups.

    Shared classes are renumbered 1..K_shared in sorted order; source
    extras collapse into the super class K_shared + 1; target extras are
    unknowns and carry that same super-class label on the evaluation side.
    Classes outside the three groups are dropped from both domains.
    """
    shared = sorted(set(int(c) for c in shared_classes))
    s_extra = sorted(set(int(c) for c in src_extra))
    t_extra = sorted(set(int(c) for c in tgt_extra))
    if not shared or not s_extra or not t_extra:
        raise ValueError("shared, source-extra and target-extra groups must be non-empty")
    groups = shared + s_extra + t_extra
    if len(set(groups)) != len(groups):
        raise ValueError("class groups must be pairwise disjoint")
    if any(c < 1 or c > pair.k for c in groups):
        raise ValueError("class ids must lie in {1..%d}" % pair.k)
    k_shared = len(shared)
    super_label = k_shared + 1
    remap = {c: i + 1 for i, c in enumerate(shared)}

    def relabel(labels, extra):
        out = np.zeros_like(labels)
        keep = np.zeros(labels.shape, dtype=bool)
        for c, new in remap.items():
            hit = labels == c
            out[hit] = new
            keep |= hit
        for c in extra:
            hit = labels == c
            out[hit] = super_label
            keep |= hit
        return out, keep

    src_new, src_keep = relabel(pair.source.labels, s_extra)
    hidden = pair.eval_target_labels()
    tgt_new, tgt_keep = relabel(hidden, t_extra)
    if not src_keep.any() or not tgt_keep.any():
        raise ValueError("open-set restriction left a domain empty")
    meta = dict(pair.meta)
    meta["k"] = super_label
    meta["k_shared"] = k_shared
    meta["params"] = dict(
        meta.get("params", {}),
        shared_classes=shared,
        src_extra=s_extra,
        tgt_extra=t_extra,
    )
    return DomainPair(
        source=SampleSet(pair.source.points[src_keep], src_new[src_keep]),
        target=SampleSet(pair.target.points[tgt_keep]),
        mode="openset",
        meta=meta,
        _target_labels=tgt_new[tgt_keep],
    )


def manifest_path(path) -> Path:
    return Path(str(path) + ".manifest.json")


def write_csv(pair: DomainPair, path) -> None:
    """Write both domains to CSV plus the JSON manifest sidecar."""
    path = Path(path)
    d = pair.source.points.shape[1]
    header = ["x%d" % (i + 1) for i in range(d)] + ["label", "domain"]
    with _replacing(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for pts, labels, domain in (
            (pair.source.points, pair.source.labels, "source"),
            (pair.target.points, pair.eval_target_labels(), "target"),
        ):
            for row, lab in zip(pts, labels):
                writer.writerow(["%.17g" % v for v in row] + [int(lab), domain])
    manifest = {
        "mode": pair.mode,
        "seed": pair.meta.get("seed"),
        "k": pair.k,
        "k_shared": pair.k_shared,
        "generator": pair.meta.get("generator"),
        "params": pair.meta.get("params", {}),
    }
    _write_json(manifest_path(path), manifest)


def read_csv(path) -> DomainPair:
    """Rebuild a DomainPair written by write_csv (requires the manifest).  A
    missing file raises OSError, a malformed CSV or manifest ValueError (a
    manifest without a key KeyError)."""
    path = Path(path)
    mpath = manifest_path(path)
    if not mpath.exists():
        raise FileNotFoundError("missing manifest sidecar %s" % mpath)
    with open(mpath) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError("manifest %s must hold a JSON object, got %r" % (mpath, manifest))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[-2:] != ["label", "domain"] or not header[0].startswith("x"):
            raise ValueError("unrecognized CSV header: %r" % header)
        d = len(header) - 2
        src_pts, src_lab, tgt_pts, tgt_lab = [], [], [], []
        for row in reader:
            if len(row) != d + 2:
                raise ValueError("line %d: %d fields, not %d" % (reader.line_num, len(row), d + 2))
            coords = [float(v) for v in row[:d]]
            lab = int(row[d])
            domain = row[d + 1]
            if domain == "source":
                src_pts.append(coords)
                src_lab.append(lab)
            elif domain == "target":
                tgt_pts.append(coords)
                tgt_lab.append(lab)
            else:
                raise ValueError("unknown domain tag %r" % domain)
    meta = {
        "generator": manifest.get("generator"),
        "seed": manifest.get("seed"),
        "k": _check_count(manifest["k"], "k", 2),
        "k_shared": _check_count(manifest["k_shared"], "k_shared", 1),
        "params": manifest.get("params", {}),
    }
    return DomainPair(
        source=SampleSet(np.array(src_pts), np.array(src_lab, dtype=np.int64)),
        target=SampleSet(np.array(tgt_pts)),
        mode=manifest["mode"],
        meta=meta,
        _target_labels=np.array(tgt_lab, dtype=np.int64),
    )
