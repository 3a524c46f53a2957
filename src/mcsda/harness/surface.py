"""Dense 2-D slices of the disagreement measures for plotting.

One scorer output is pinned (default (10, -5, -5), a confident decision for
class 1) while the other sweeps a two-parameter family (a, b, -a-b) over a
square, so each measure becomes a surface over the plane.  All seven
measures share the slice, which makes their level sets directly comparable:
the matrix form, its two decision-level variants, the three probability
surrogates, and the single-component decision-margin ramp.

Evaluation is batched over the whole grid.  ``emit_surface_grid`` checks
its arguments (``resolution``, ``rho`` and ``span`` with ``margin``'s
checkers) and centers the scores with ``margin._center_checked`` once, at
entry, and then calls only kernels: those of ``mcsda.margin`` (decision
margin, relative margin, ramp), ``mcsda.divergence._mcsd_rows`` (the
kernel behind ``mcsd_rows``), the unchecked ``surrogates._softmax`` and the
surrogate kernels of ``surrogates._PAIR_KERNELS``, which the per-point
``sur_*`` share.
``mcsd_pointwise`` serves as an independent oracle for spot checks; the
independent surrogate oracles live in the tests (``kl_oracle`` in
``tests/test_surrogates.py`` and the inline formulas of
``test_log_surfaces_clamp_through_the_counted_guard``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..divergence import _mcsd_rows
from ..margin import _center_checked, _check_count, _check_real, _check_rho, _decision_level
from ..margin import _decision_margin, _ramp, _relative_margin
from ..neural import _replacing
from ..surrogates import _PAIR_KERNELS, _softmax

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
        with _replacing(path, "w") as fh:
            fh.write("a,b,value\n")
            for i, a in enumerate(self.a_grid):
                for j, b in enumerate(self.b_grid):
                    fh.write("%.17g,%.17g,%.17g\n" % (a, b, self.values[i, j]))


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
    resolution = _check_count(resolution, "resolution", 2)
    rho = _check_rho(rho)
    # the swept components a, b and -a-b and the differences of any two of
    # them (up to 3 span) stay finite
    span = _check_real(span, "span", 0.0, np.finfo(float).max / 4, open_low=True)
    fx = np.asarray(fixed, dtype=float)
    if fx.shape != (3,):
        raise ValueError("the pinned scorer output must have three components")
    axis = np.linspace(-span, span, resolution)
    aa, bb = np.meshgrid(axis, axis, indexing="ij")
    fx = _center_checked(fx, "surface scores")
    var = _center_checked(np.stack([aa, bb, -aa - bb], axis=-1).reshape(-1, 3), "surface scores")
    fixed_batch = np.broadcast_to(fx, var.shape)
    first, second = (fixed_batch, var) if direction == "fix_first" else (var, fixed_batch)

    if which == "mcsd":
        vals = _mcsd_rows(np.stack([first, second]), rho)
    elif which in ("tilde", "hat"):
        vals = _decision_level(_decision_margin(first, second), rho, which)
    elif which == "md":
        # relative margin of the probe at the reference's decision
        vals = _ramp(_relative_margin(second, first.argmax(axis=1)), rho)
    else:
        vals = _PAIR_KERNELS[which](_softmax(first), _softmax(second))[0]
    values = vals.reshape(resolution, resolution)
    return SurfaceGrid(which, float(rho), tuple(fx), direction, axis, axis, values)
