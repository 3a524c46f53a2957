"""Dense 2-D slices of the disagreement measures for plotting.

One scorer output is pinned (default (10, -5, -5), a confident decision for
class 1) while the other sweeps a two-parameter family (a, b, -a-b) over a
square, so each measure becomes a surface over the plane.  All seven
measures share the slice, which makes their level sets directly comparable:
the matrix form, its two decision-level variants, the three probability
surrogates, and the single-component decision-margin ramp.

Evaluation is batched over the whole grid; the per-point functions in
``mcsda.margin`` and ``mcsda.surrogates`` serve as independent oracles for
spot checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..divergence import mcsd_rows
from ..margin import ramp_loss
from ..surrogates import _clamped, softmax

__all__ = ["SURFACE_MEASURES", "SurfaceGrid", "emit_surface_grid"]

SURFACE_MEASURES = ("mcsd", "tilde", "hat", "l1", "kl", "ce", "md")


@dataclass
class SurfaceGrid:
    """values[i, j] is the measure at a = a_grid[i], b = b_grid[j]."""

    which: str
    rho: float
    fixed: tuple[float, float, float]
    direction: str
    a_grid: np.ndarray
    b_grid: np.ndarray
    values: np.ndarray

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("a,b,value\n")
            for i, a in enumerate(self.a_grid):
                for j, b in enumerate(self.b_grid):
                    fh.write("%.17g,%.17g,%.17g\n" % (a, b, self.values[i, j]))


def _decision_margins(dec: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Margins of ``other``'s decision components against ``dec``'s decisions.

    Always ``other``'s own top score, sign flipped when the two argmax
    decisions differ; matches the per-point decision-level measures.
    """
    own = other.max(axis=1)
    agree = np.argmax(other, axis=1) == np.argmax(dec, axis=1)
    return np.where(agree, own, -own)


def _batch_probs(scores: np.ndarray) -> np.ndarray:
    return softmax(scores)


def emit_surface_grid(
    which: str,
    rho: float,
    resolution: int = 121,
    span: float = 15.0,
    fixed: tuple[float, float, float] = (10.0, -5.0, -5.0),
    direction: str = "fix_first",
) -> SurfaceGrid:
    """Evaluate one measure over the (a, b) plane against the pinned scorer.

    ``direction`` chooses which argument the pinned scorer plays for the
    asymmetric measures: "fix_first" pins the reference (first) slot,
    "fix_second" pins the probe slot.  The symmetric measures ignore it.
    """
    if which not in SURFACE_MEASURES:
        raise ValueError(f"unknown surface measure {which!r}")
    if direction not in ("fix_first", "fix_second"):
        raise ValueError("direction must be 'fix_first' or 'fix_second'")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if rho <= 0:
        raise ValueError("rho must be positive")
    fx = np.asarray(fixed, dtype=float)
    if fx.shape != (3,):
        raise ValueError("the pinned scorer output must have three components")
    fx = fx - fx.mean()
    axis = np.linspace(-span, span, resolution)
    aa, bb = np.meshgrid(axis, axis, indexing="ij")
    var = np.stack([aa, bb, -aa - bb], axis=-1).reshape(-1, 3)
    var = var - var.mean(axis=1, keepdims=True)
    fixed_batch = np.broadcast_to(fx, var.shape)
    first, second = (fixed_batch, var) if direction == "fix_first" else (var, fixed_batch)

    if which == "mcsd":
        vals = mcsd_rows(first, second, rho)
    elif which in ("tilde", "hat"):
        margins = _decision_margins(first, second)
        if which == "tilde":
            vals = ramp_loss(margins, rho / 2.0)
        else:
            vals = (ramp_loss(margins, rho) == 1.0).astype(float)
    elif which == "md":
        # relative margin of the probe at the reference's decision
        idx = np.argmax(first, axis=1)
        picked = np.take_along_axis(second, idx[:, None], axis=1)[:, 0]
        masked = second.copy()
        np.put_along_axis(masked, idx[:, None], -np.inf, axis=1)
        rel = 0.5 * (picked - masked.max(axis=1))
        vals = ramp_loss(rel, rho)
    else:
        p1, p2 = _batch_probs(first), _batch_probs(second)
        # logs on floored probabilities, products on the raw ones, matching
        # the per-point surrogates at the grid corners
        lp1 = np.log(_clamped(p1))
        lp2 = np.log(_clamped(p2))
        if which == "l1":
            vals = np.abs(p1 - p2).sum(axis=1) / 3.0
        elif which == "kl":
            vals = 0.5 * ((p1 - p2) * (lp1 - lp2)).sum(axis=1)
        else:
            vals = -0.5 * (p1 * lp2 + p2 * lp1).sum(axis=1)
    values = vals.reshape(resolution, resolution)
    return SurfaceGrid(which, float(rho), tuple(fx), direction, axis, axis, values)
