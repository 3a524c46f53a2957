"""Brute-force verification of every identity and bound, at desk scale.

Each check draws randomized instances from a seeded generator, tests an
exact statement (identity, pointwise inequality, or enumerated bound) and
returns a CheckResult with the worst observed violation.  Tolerances are
float-rounding allowances, not statistical slack: all statements checked
here are theorems, so any real violation is an implementation bug.

Every check fails closed on NaN: each reported worst case, and each pass
rule over several of them, is one NaN-sticky max, ``_worst`` (Python's
``max`` would drop a NaN), and every other pass condition is a comparison
that a NaN makes false.

The seven pointwise checks each state four things and share the rest.  A
one-instance ``draw(rng)``, which ``_draws`` runs ``trials`` times from one
seeded generator (``_prop3_draws`` sweeps (K, rho) in one stream).  A
batched statement, which the grouped runner ``_pointwise`` calls once per
group of stacked draws (by K; by (K, rho) for Proposition 3); it centers
each raw score draw with ``margin._center``, which rounds like the per-draw
``s - s.mean()``, and returns per-row measures and batched values.  A
single-vector replay, through which the runner passes the first 64 draws:
the public functions (``ramp_loss``, ``absolute_margin``,
``mcsd_pointwise``, ``phi_distance``, ``source_margin_loss``,
``mcsd_tilde/hat_pointwise``, ``softmax``, ``sur_*``) on the draw, centered
by the replay itself; their largest difference from the batched values is
``single_vector_gap``, and a gap above 1e-12 fails the check.  A public
function that raises ``ValueError`` in a replay (its checks reject a NaN
that a kernel returned, say) fails the check too, with ``single_vector_gap``
NaN and a ``replay_error`` detail that names the function and the draw.
And a pass rule, from which the runner builds the check's result.  The
statements call the kernels that compute the bound and the training proxy,
never a validating public function, so a NaN reaches the pass rule instead
of raising; a per-trial rho is broadcast as a column:

* ``check_ramp``: ``margin._ramp``;
* ``check_margin_decision``: ``margin._absolute_margin`` (a row whose
  margins are not numbers is a violation);
* ``check_prop3_identity``: K times the violation-matrix form
  ``margin._matrix_disagreement`` against the per-component sum of
  ``margin._phi_distance``, the kernel behind ``phi_distance``;
* ``check_pointwise_lemmas`` and ``check_mcsd_metric``: the pointwise
  disagreement both as the violation-matrix form, which rounds like
  ``mcsd_pointwise`` and gives the reported worst case, and as the O(K)
  kernel ``divergence._mcsd_rows``, which must meet the same tolerances;
  margin losses from ``divergence._margin_violations``;
* ``check_variant_lemmas``: ``margin._decision_margin`` and
  ``_decision_level`` ('tilde', the ramp at rho/2; 'hat', the indicator of
  a decision margin <= 0), with the same margin losses;
* ``check_surrogate_identities``: the batched ``surrogates._softmax`` and
  the kernels ``surrogates._l1``, ``_kl`` and ``_ce``, whose rows the
  McDalNet step, SymmNets' target confusion and the surfaces sum.

The enumerated-universe checks build finite worlds (a handful of points
with explicit source and target masses, a grid of bounded linear scorers
as the whole hypothesis space) where suprema and the best joint predictor
are computed by exhaustion, letting the three distribution-level bounds be
checked with no estimation error.  They and the divergence properties reach
the three divergence forms by one path, ``_three_forms``:
``divergence._exact`` over scores evaluated once per sample.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..divergence import (
    SampleSet,
    ScorerGrid,
    _as_weights,
    _candidate_errors,
    _exact,
    _margin_violations,
    _mcsd_rows,
    linear_scorer,
    mcsd_divergence_adversarial,
    mcsd_divergence_exact,
    pac_bound_report,
    rademacher_estimate,
)
from ..margin import (
    _absolute_margin,
    _center,
    _check_count,
    _decision_level,
    _decision_margin,
    _matrix_disagreement,
    _phi_distance,
    _ramp,
    absolute_margin,
    argmax_label,
    mcsd_hat_pointwise,
    mcsd_pointwise,
    mcsd_tilde_pointwise,
    phi_distance,
    ramp_loss,
    source_margin_loss,
)
from ..neural import Schedules, _write_json, lambda_schedule, lr_schedule
from ..surrogates import _ce, _guarded_log, _kl, _l1, _softmax, softmax, sur_ce, sur_kl, sur_l1
from ..synthdata import gen_gauss_blobs

__all__ = [
    "CheckResult",
    "TheoryReport",
    "ToyUniverse",
    "build_universe",
    "run_theory_checks",
    "check_prop3_identity",
]

SCHEMA_VERSION = 1
_SINGLE_VECTOR_DRAWS = 64


def _native(value):
    """Numpy scalars leak in from the checks; json refuses them."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    return value


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "details": _native(self.details)}


@dataclass
class TheoryReport:
    seed: int
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def write(self, path) -> None:
        _write_json(path, self.to_json())


def _worst(*parts) -> float:
    """Largest entry of ``parts`` (numbers or arrays of any shape); a NaN
    anywhere is the result, so it fails every tolerance it is held to."""
    return float(np.max(np.concatenate([np.ravel(p) for p in parts])))


# ---------------------------------------------------------------------------
# The pointwise scaffold: one draw loop, one grouped runner.
# ---------------------------------------------------------------------------


def _draws(seed: int, trials: int, draw: Callable) -> list[tuple]:
    """``trials`` one-instance draws, in order, from one seeded generator."""
    rng = np.random.default_rng(seed)
    return [draw(rng) for _ in range(trials)]


def _raw_scores(rng: np.random.Generator, k: int, rho: float) -> np.ndarray:
    """Scores of mixed magnitude relative to the margin width; the instance
    is their ``_center``."""
    scale = rho * (0.2, 1.0, 3.0)[rng.integers(3)]
    return rng.uniform(-2.0 * scale, 2.0 * scale, size=k)


def _ramp_draw(rng: np.random.Generator) -> tuple:
    """(rho, x, y)."""
    rho = float(rng.uniform(0.1, 10.0))
    x, y = rng.uniform(-3 * rho, 3 * rho, size=2)
    return rho, x, y


def _decision_draw(rng: np.random.Generator) -> tuple:
    """(K, raw scores, label), at rho = 1."""
    k = int(rng.integers(2, 7))
    return k, _raw_scores(rng, k, 1.0), int(rng.integers(1, k + 1))


def _lemma_draw(rng: np.random.Generator) -> tuple:
    """(K, rho, raw scores f, raw scores f', label)."""
    k = int(rng.integers(2, 7))
    rho = float(rng.uniform(0.2, 5.0))
    return k, rho, _raw_scores(rng, k, rho), _raw_scores(rng, k, rho), int(rng.integers(1, k + 1))


def _metric_draw(rng: np.random.Generator) -> tuple:
    """(K, rho, three raw score draws)."""
    k = int(rng.integers(2, 7))
    rho = float(rng.uniform(0.2, 5.0))
    return (k, rho) + tuple(_raw_scores(rng, k, rho) for _ in range(3))


def _surrogate_draw(rng: np.random.Generator) -> tuple:
    """(K, three raw logit draws)."""
    k = int(rng.integers(2, 7))
    return (k,) + tuple(rng.normal(0, 2, size=k) for _ in range(3))


def _prop3_draws(seed: int, trials: int, ks, rhos) -> list[tuple]:
    """(K, rho, raw scores, raw scores), ``trials`` per (K, rho), swept in
    one stream."""
    rng = np.random.default_rng(seed)
    return [
        (k, rho, _raw_scores(rng, k, rho), _raw_scores(rng, k, rho))
        for k in ks
        for rho in rhos
        for _ in range(trials)
    ]


def _grouped(draws: list[tuple], key: Callable = lambda d: d[0]):
    """Per-draw tuples stacked column-wise per group, and each draw's
    (group, row) in draw order."""
    rows: dict = {}
    where = []
    for d in draws:
        group = rows.setdefault(key(d), [])
        where.append((key(d), len(group)))
        group.append(d)
    return {g: tuple(np.array(col) for col in zip(*r)) for g, r in rows.items()}, where


def _raiser(exc: BaseException, replay: Callable) -> str:
    """The function that ``replay`` called when ``exc`` was raised, or
    ``replay`` itself when it raised the error."""
    frames = [frame.f_code for frame, _ in traceback.walk_tb(exc.__traceback__)]
    for caller, callee in zip(frames, frames[1:]):
        if caller is replay.__code__:
            return callee.co_name
    return "replay"


def _pointwise(
    name: str,
    draws: list[tuple],
    statement: Callable,
    replay: Callable,
    rule: Callable,
    key=lambda d: d[0],
) -> CheckResult:
    """The grouped runner of the pointwise checks.

    ``statement(group, *columns)`` tests a statement on one group's stacked
    draws and returns its measures (a dict of arrays over the group's rows)
    and its batched values (arrays indexed by row).  ``replay(draw)``
    recomputes those values for one draw with the public single-vector
    functions.  ``rule(measures, gap)`` returns whether the check passed
    and its details, from every measure concatenated over the groups and
    the single-vector gap: the largest |replayed - batched| value over the
    first 64 draws.

    A ``ValueError`` raised in a replay (a public function rejecting a
    value that the batched path let through, say a NaN) fails the check:
    the gap is NaN and ``replay_error`` in the details names the function
    and the draw.
    """
    groups, where = _grouped(draws, key)
    measures, values = {}, {}
    for g, columns in groups.items():
        found, values[g] = statement(g, *columns)
        for measure, rows in found.items():
            measures.setdefault(measure, []).append(np.ravel(rows))
    diffs, error = [], None
    for i, (draw, (g, row)) in enumerate(zip(draws[:_SINGLE_VECTOR_DRAWS], where)):
        try:
            replayed = replay(draw)
        except ValueError as exc:
            error = "%s raised on draw %d: %s" % (_raiser(exc, replay), i, exc)
            break
        pairs = zip(replayed, values[g], strict=True)
        diffs += [np.abs(np.subtract(got, want[row])) for got, want in pairs]
    gap = float("nan") if error else _worst(0.0, *diffs)
    passed, details = rule({m: np.concatenate(parts) for m, parts in measures.items()}, gap)
    if error:
        details["replay_error"] = error
    return CheckResult(name, passed and not error, details)


# ---------------------------------------------------------------------------
# Pointwise identities and inequalities.
# ---------------------------------------------------------------------------


def _disagreements(a: np.ndarray, b: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Pointwise disagreement of centered batches a, b [..., N, K] at rho
    [N, 1] in its two forms, stacked [2, ..., N]: the K x K violation-matrix
    form, which rounds like ``mcsd_pointwise``, and the O(K) kernel of
    ``mcsd_rows``."""
    matrix_form = _matrix_disagreement(a, b, rho[..., None])
    return np.stack([matrix_form, _mcsd_rows(np.stack([a, b]), rho)])


def check_ramp(seed: int, trials: int) -> CheckResult:
    """Range, exact kinks, monotonicity and the 1/rho Lipschitz property."""

    def statement(_, rho, x, y):
        vx, vy, v0, vr = _ramp(np.stack([x, y, np.zeros_like(x), rho]), rho)
        ok = (0.0 <= vx) & (vx <= 1.0) & (((vx >= vy) == (x <= y)) | (vx == vy))
        ok &= (v0 == 1.0) & (vr == 0.0)
        return {"ok": ok, "lipschitz": np.abs(vx - vy) - np.abs(x - y) / rho}, (vx, vy, v0, vr)

    def replay(draw):
        rho, x, y = draw
        return [ramp_loss(v, rho) for v in (x, y, 0.0, rho)]

    def rule(m, gap):
        worst_lip = _worst(m["lipschitz"], 0.0)
        passed = bool(m["ok"].all()) and _worst(worst_lip, gap) <= 1e-12
        return passed, {"worst_lipschitz_excess": worst_lip, "single_vector_gap": gap}

    draws = _draws(seed, trials, _ramp_draw)
    return _pointwise("ramp_properties", draws, statement, replay, rule, key=lambda d: None)


def check_margin_decision(seed: int, trials: int) -> CheckResult:
    """All absolute margins >= 0 with one > 0 forces the argmax decision."""

    def statement(_, __, f, y):
        c = _center(_center(f))
        mu = _absolute_margin(c, y - 1)
        dec = c.argmax(axis=-1) + 1
        forced = np.all(mu >= 0, axis=-1) & np.any(mu > 0, axis=-1)
        # a row whose margins are not numbers is a violation, not a pass
        return {"violated": (forced & (dec != y)) | np.isnan(mu).any(axis=-1)}, (mu, dec)

    def replay(draw):
        _, f, y = draw
        s = _center(f)
        return absolute_margin(s, y), argmax_label(s)

    def rule(m, gap):
        violations = int(np.count_nonzero(m["violated"]))
        details = {"violations": violations, "single_vector_gap": gap}
        return violations == 0 and gap <= 1e-12, details

    draws = _draws(seed, trials, _decision_draw)
    return _pointwise("margin_decision_property", draws, statement, replay, rule)


_PROP3_KS = (2, 3, 5, 10)
_PROP3_RHOS = (0.5, 1.0, 5.0)
_PROP3_TOL = 1e-12


def check_prop3_identity(seed: int, trials: int, mutant_rho_scale: float = 1.0) -> CheckResult:
    """K times the pointwise disagreement equals the per-component sum.

    ``mutant_rho_scale`` deliberately corrupts the per-component side's
    margin width; anything but 1.0 must make this check fail.
    """

    def statement(group, _, __, f1, f2):
        k, rho = group
        s1, s2 = _center(f1), _center(f2)
        lhs = k * _matrix_disagreement(_center(s1), _center(s2), rho)
        rhs = np.sum(_phi_distance(s1, s2, rho * mutant_rho_scale, k), axis=-1)
        return {"gap": np.abs(lhs - rhs)}, (lhs, rhs)

    def replay(draw):
        k, rho, f1, f2 = draw
        s1, s2 = _center(f1), _center(f2)
        phi = phi_distance(s1, s2, rho * mutant_rho_scale, k)
        return k * mcsd_pointwise(s1, s2, rho), np.sum(phi)

    def rule(m, gap):
        worst = _worst(m["gap"], 0.0)
        return worst <= _PROP3_TOL and gap <= 1e-12, {
            "worst_abs_gap": worst,
            "tol": _PROP3_TOL,
            "mutant_rho_scale": mutant_rho_scale,
            "single_vector_gap": gap,
        }

    draws = _prop3_draws(seed, trials, _PROP3_KS, _PROP3_RHOS)
    return _pointwise("per_component_identity", draws, statement, replay, rule, key=lambda d: d[:2])


def _lemma_batch(rho, f, fp, y):
    """Per group of lemma draws: the scores the kernels see, the margin
    losses of both scorers (at the 0-based classes of the drawn labels)
    and the 0-1 error of f."""
    c, cp = _center(_center(f)), _center(_center(fp))
    lf, lfp = _margin_violations(np.stack([c, cp]), y - 1, rho[:, None])
    err = (c.argmax(axis=-1) + 1 != y).astype(np.float64)
    return (c, cp), (lf, lfp), err


def check_pointwise_lemmas(seed: int, trials: int) -> CheckResult:
    """The two pointwise inequalities behind the matrix-form bound.

    (a) 0-1 error of f is at most f-prime's margin loss plus the pointwise
    disagreement; (b) the pointwise disagreement is at most the sum of the
    two margin losses.  The reported excesses are the violation-matrix
    form's; the O(K) kernel must meet the same tolerance.
    """

    def statement(_, __, rho, f, fp, y):
        (c, cp), (lf, lfp), err = _lemma_batch(rho, f, fp, y)
        m = _disagreements(c, cp, rho[:, None])
        a, b = err - lfp - m, m - lf - lfp
        return {"a": a[0], "b": b[0], "kernel": (a[1], b[1])}, (m[0], m[1], lf, lfp, err)

    def replay(draw):
        _, rho, f, fp, y = draw
        s, sp = _center(f), _center(fp)
        m = mcsd_pointwise(s, sp, rho)
        err = 1.0 if argmax_label(s) != y else 0.0
        return m, m, source_margin_loss(s, y, rho), source_margin_loss(sp, y, rho), err

    def rule(m, gap):
        worst_a, worst_b = _worst(m["a"]), _worst(m["b"])
        details = {"worst_excess_a": worst_a, "worst_excess_b": worst_b, "single_vector_gap": gap}
        return _worst(worst_a, worst_b, m["kernel"], gap) <= 1e-12, details

    draws = _draws(seed, trials, _lemma_draw)
    return _pointwise("pointwise_lemmas", draws, statement, replay, rule)


def check_variant_lemmas(seed: int, trials: int) -> CheckResult:
    """Decision-level analogues of the pointwise lemmas, plus structure:
    the saturated form is 0/1 and implies the ramped form equals 1."""

    def statement(_, __, rho, f, fp, y):
        (c, cp), (lf, lfp), err = _lemma_batch(rho, f, fp, y)
        margins = _decision_margin(c, cp)
        tilde = _decision_level(margins, rho, "tilde")
        hat = _decision_level(margins, rho, "hat")
        v = np.stack([tilde, hat])
        structure = ((hat == 0.0) | (hat == 1.0)) & ((hat != 1.0) | (tilde == 1.0))
        excess = (err - lfp - v, v - lf - lfp)
        return {"excess": excess, "structure": structure}, (tilde, hat, lf, lfp)

    def replay(draw):
        _, rho, f, fp, y = draw
        s, sp = _center(f), _center(fp)
        return (
            mcsd_tilde_pointwise(s, sp, rho),
            mcsd_hat_pointwise(s, sp, rho),
            source_margin_loss(s, y, rho),
            source_margin_loss(sp, y, rho),
        )

    def rule(m, gap):
        worst = _worst(m["excess"])
        structure_ok = bool(m["structure"].all())
        details = {"worst_excess": worst, "structure_ok": structure_ok, "single_vector_gap": gap}
        return structure_ok and _worst(worst, gap) <= 1e-12, details

    draws = _draws(seed, trials, _lemma_draw)
    return _pointwise("decision_level_lemmas", draws, statement, replay, rule)


def check_mcsd_metric(seed: int, trials: int) -> CheckResult:
    """Pointwise disagreement: non-negative, symmetric, zero at identity,
    triangle inequality, and bounded by K.  The reported triangle excess is
    the violation-matrix form's; the O(K) kernel must meet the same
    tolerances."""

    def statement(k, _, rho, *raw):
        c1, c2, c3 = (_center(_center(f)) for f in raw)
        # pairs (1, 2), (2, 1), (1, 3), (2, 3), (1, 1)
        d = _disagreements(
            np.stack([c1, c2, c1, c2, c1]), np.stack([c2, c1, c3, c3, c1]), rho[:, None]
        )
        d12, d21, d13, d23, d11 = np.moveaxis(d, 1, 0)
        ok = (np.abs(d12 - d21) <= 1e-15) & (-1e-15 <= d12) & (d12 <= k) & (d11 == 0.0)
        excess = d13 - d12 - d23
        return {"ok": ok, "triangle": excess[0], "kernel": excess[1]}, tuple(d.reshape(10, -1))

    def replay(draw):
        _, rho, *raw = draw
        s1, s2, s3 = (_center(f) for f in raw)
        pairs = ((s1, s2), (s2, s1), (s1, s3), (s2, s3), (s1, s1))
        return [mcsd_pointwise(a, b, rho) for a, b in pairs] * 2

    def rule(m, gap):
        worst_tri = _worst(m["triangle"])
        passed = bool(m["ok"].all()) and _worst(worst_tri, m["kernel"], gap) <= 1e-12
        return passed, {"worst_triangle_excess": worst_tri, "single_vector_gap": gap}

    draws = _draws(seed, trials, _metric_draw)
    return _pointwise("pointwise_metric_properties", draws, statement, replay, rule)


def check_surrogate_identities(seed: int, trials: int) -> CheckResult:
    """Cross-entropy / KL / entropy identity, ordering, L1 structure, and
    witnesses that the symmetrized KL and CE are not metrics."""

    def statement(k, _, *logits):
        p1, p2, p3 = _softmax(np.stack(logits))
        kl, ce = _kl(p1, p2)[0], _ce(p1, p2)[0]
        l12, l21, l13, l23 = _l1(np.stack([p1, p2, p1, p2]), np.stack([p2, p1, p3, p3]))[0]
        ent1, ent2 = (-(p * _guarded_log(p)[0]).sum(axis=-1) for p in (p1, p2))
        ok = (ce >= kl - 1e-12) & (kl - 1e-12 >= -1e-12) & (np.abs(l12 - l21) <= 1e-15)
        ok &= (l13 <= l12 + l23 + 1e-12) & (0.0 <= l12) & (l12 <= 2.0 / k + 1e-15)
        identity = np.abs(ce - (kl + 0.5 * (ent1 + ent2)))
        return {"ok": ok, "identity": identity}, (p1, p2, p3, kl, ce, l12, l21, l13, l23)

    def replay(draw):
        p1, p2, p3 = (softmax(z) for z in draw[1:])
        pairs = ((p1, p2), (p2, p1), (p1, p3), (p2, p3))
        return [p1, p2, p3, sur_kl(p1, p2), sur_ce(p1, p2)] + [sur_l1(a, b) for a, b in pairs]

    def rule(m, gap):
        worst_identity = _worst(m["identity"], 0.0)
        # quadratic-at-zero divergences overshoot the direct route through a
        # nearby midpoint; a peaked midpoint does the same for the CE form
        p, q, r = np.array([0.4, 0.6]), np.array([0.5, 0.5]), np.array([0.6, 0.4])
        kl_violation = sur_kl(p, r) - sur_kl(p, q) - sur_kl(q, r)
        pc = np.array([0.999, 0.001])
        qc = np.array([0.998, 0.002])
        rc = np.array([0.001, 0.999])
        ce_violation = sur_ce(pc, rc) - sur_ce(pc, qc) - sur_ce(qc, rc)
        witnessed = kl_violation > 0 and ce_violation > 0
        passed = bool(m["ok"].all()) and witnessed and _worst(worst_identity, gap) <= 1e-12
        return passed, {
            "worst_identity_gap": worst_identity,
            "kl_triangle_violation": float(kl_violation),
            "ce_triangle_violation": float(ce_violation),
            "single_vector_gap": gap,
        }

    draws = _draws(seed, trials, _surrogate_draw)
    return _pointwise("surrogate_identities", draws, statement, replay, rule)


# ---------------------------------------------------------------------------
# Enumerated universes for the distribution-level bounds.
# ---------------------------------------------------------------------------

_FORMS = (("matrix", "mcsd"), ("tilde", "tilde"), ("hat", "hat"))


def _three_forms(ss: np.ndarray, st: np.ndarray, ws, wt, rho: float) -> dict[str, float]:
    """The exact divergence in its matrix, 'tilde' and 'hat' forms, from the
    grid's scores [c, n, K] on each side, evaluated once per sample, and
    checked masses."""
    return {name: _exact(ss, st, ws, wt, rho, variant).value for name, variant in _FORMS}


@dataclass
class ToyUniverse:
    """Finite world: points, deterministic labels, explicit masses, and a
    finite scorer grid standing in for the whole hypothesis space."""

    points: np.ndarray
    labels: np.ndarray
    p_mass: np.ndarray
    q_mass: np.ndarray
    grid: ScorerGrid
    rho: float


def build_universe(
    seed: int,
    n_points: int = 8,
    k: int = 3,
    n_candidates: int = 30,
    rho: float = 1.0,
) -> ToyUniverse:
    """Random finite universe with bounded linear scorer candidates."""
    rng = np.random.default_rng(seed)
    n_points = int(rng.integers(2, n_points + 1))
    n_candidates = int(rng.integers(3, n_candidates + 1))
    points = rng.normal(0.0, 2.0, size=(n_points, 2))
    labels = rng.integers(1, k + 1, size=n_points)
    p_mass = rng.gamma(1.0, 1.0, size=n_points)
    q_mass = rng.gamma(1.0, 1.0, size=n_points)
    p_mass /= p_mass.sum()
    q_mass /= q_mass.sum()
    scorers = []
    for _ in range(n_candidates):
        scale = rho * rng.choice((0.3, 1.0, 3.0))
        w = rng.normal(0.0, scale / 2.0, size=(k, 2))
        b = rng.normal(0.0, scale, size=k)
        scorers.append(linear_scorer(w, b))
    return ToyUniverse(points, labels, p_mass, q_mass, ScorerGrid(scorers, k), rho)


def _universe_bound_gaps(u: ToyUniverse) -> dict[str, float]:
    """Worst bound excess per divergence form; negative means satisfied.

    Both masses live on the same points, so one evaluation of the grid
    serves every error and all three divergences.
    """
    scores = u.grid.evaluate(u.points)
    src_errs, _ = _candidate_errors(scores, u.labels, u.rho, u.p_mass)
    tgt_errs, tgt_01 = _candidate_errors(scores, u.labels, u.rho, u.q_mass)
    lam = float(np.min(src_errs + tgt_errs))
    divs = _three_forms(scores, scores, u.p_mass, u.q_mass, u.rho)
    return {name: _worst(tgt_01 - (src_errs + div + lam)) for name, div in divs.items()}


def check_bound_universes(seed: int, n_universes: int) -> CheckResult:
    """Every enumerated universe satisfies all three distribution bounds."""
    rhos = (0.5, 1.0, 5.0)
    gaps = [
        _universe_bound_gaps(build_universe(seed + i, rho=rhos[i % len(rhos)]))
        for i in range(n_universes)
    ]
    worst = {"worst_excess_" + name: _worst(*(g[name] for g in gaps)) for name, _ in _FORMS}
    return CheckResult(
        "enumerated_universe_bounds",
        _worst(*worst.values()) <= 1e-9,
        worst | {"n_universes": n_universes},
    )


def check_divergence_properties(seed: int) -> CheckResult:
    """Non-negativity and the directed triangle inequality on random sample
    triples, plus an asymmetry witness."""
    rng = np.random.default_rng(seed)
    k = 3
    scorers = [
        linear_scorer(rng.normal(0, 1.0, size=(k, 2)), rng.normal(0, 1.0, size=k))
        for _ in range(8)
    ]
    grid = ScorerGrid(scorers, k)
    values, triangle, asymmetry = [], [], []
    for _ in range(6):
        samples = []
        for _ in range(3):
            pts = rng.normal(rng.uniform(-2, 2, size=2), 1.0, size=(int(rng.integers(4, 12)), 2))
            samples.append((grid.evaluate(pts), _as_weights(None, len(pts))))
        a, b, c = samples
        dab, dba, dbc, dac = (
            _three_forms(s, t, ws, wt, 1.0) for (s, ws), (t, wt) in ((a, b), (b, a), (b, c), (a, c))
        )
        for name, _ in _FORMS:
            values += [dab[name], dba[name], dbc[name], dac[name]]
            triangle.append(dac[name] - dab[name] - dbc[name])
            asymmetry.append(abs(dab[name] - dba[name]))
    worst_neg = -_worst(np.negative(values))
    worst_tri = _worst(triangle)
    best_asym = _worst(asymmetry, 0.0)
    passed = worst_neg >= -1e-12 and worst_tri <= 1e-9 and best_asym > 1e-9
    return CheckResult(
        "divergence_properties",
        passed,
        {
            "worst_negative_value": worst_neg,
            "worst_triangle_excess": worst_tri,
            "largest_asymmetry_witness": best_asym,
        },
    )


def check_adversarial_estimator(seed: int) -> CheckResult:
    """The ascent value never exceeds exact enumeration over its own iterates,
    is zero on identical samples, improves monotonically, and is strictly
    positive on well-separated clusters."""
    rng = np.random.default_rng(seed)
    k, rho = 3, 1.0
    src = rng.normal((-2.0, 0.0), 0.6, size=(40, 2))
    tgt = rng.normal((2.0, 0.0), 0.6, size=(40, 2))
    res = mcsd_divergence_adversarial(src, tgt, k=k, rho=rho, steps=80, seed=seed)
    scorers = []
    for w1, b1, w2, b2 in res.visited:
        scorers.append(linear_scorer(w1, b1))
        scorers.append(linear_scorer(w2, b2))
    rng2 = np.random.default_rng(seed + 1)
    for _ in range(4):
        scorers.append(linear_scorer(rng2.normal(0, 1, (k, 2)), rng2.normal(0, 1, k)))
    grid = ScorerGrid(scorers, k)
    exact = mcsd_divergence_exact(src, tgt, grid, rho).value
    trajectory = np.array(res.trajectory)
    monotone = bool(np.all(np.diff(trajectory) >= -1e-9))
    same = mcsd_divergence_adversarial(src, src, k=k, rho=rho, steps=20, seed=seed)
    passed = (
        res.value <= exact + 1e-12
        and res.value > 1e-3
        and monotone
        and abs(same.value) <= 1e-9
    )
    return CheckResult(
        "adversarial_estimator",
        passed,
        {
            "ascent_value": res.value,
            "exact_over_visited": exact,
            "monotone": monotone,
            "identical_samples_value": same.value,
            "ascent_warning": res.warning,
        },
    )


def check_pac_bound(seed: int) -> CheckResult:
    """Finite-sample bound report on a small labeled pair with a random grid."""
    pair = gen_gauss_blobs(3, 12, shift_vector=(1.0, 0.5), seed=seed)
    rng = np.random.default_rng(seed)
    scorers = [
        linear_scorer(rng.normal(0, 0.8, size=(3, 2)), rng.normal(0, 0.8, size=3))
        for _ in range(10)
    ]
    grid = ScorerGrid(scorers, 3)
    tgt = SampleSet(pair.target.points, pair.eval_target_labels())
    report = pac_bound_report(pair.source, tgt, grid, rho=1.0, delta=0.05, sigma_draws=500, seed=seed)
    return CheckResult(
        "finite_sample_bound",
        report.holds and report.holds_for_all,
        {"lhs": report.lhs_target_err, "rhs": report.rhs_total, "divergence": report.divergence},
    )


def check_rademacher(seed: int) -> CheckResult:
    """Sign-symmetric two-candidate grid: the complexity reduces to the mean
    absolute signed sum, matched against an independent simulation."""
    rng = np.random.default_rng(seed)
    m = 12
    pts = rng.normal(0, 1, size=(m, 2))
    w = rng.normal(0, 1, size=(1, 2))
    grid = ScorerGrid([linear_scorer(np.vstack([w, -w]), np.zeros(2))], k=2)
    est = rademacher_estimate(pts, grid, sigma_draws=4000, seed=seed)
    # the two centered components are +/- x.w, so the sup is an absolute value
    g = (pts @ w.T)[:, 0]
    oracle_rng = np.random.default_rng(seed + 99)
    sigma = oracle_rng.choice((-1.0, 1.0), size=(20000, m))
    oracle = float(np.mean(np.abs(sigma @ g))) / m
    gap = abs(est.value - oracle)
    passed = gap <= 4.0 * (est.stderr + oracle / np.sqrt(20000))
    return CheckResult(
        "rademacher_sign_symmetric",
        passed,
        {"estimate": est.value, "oracle": oracle, "gap": gap, "stderr": est.stderr},
    )


def check_schedules() -> CheckResult:
    """Closed forms of both schedules on the 11-point grid, plus endpoints."""
    s = Schedules()
    grid = [i / 10.0 for i in range(11)]
    gaps = [abs(lr_schedule(p, s) - s.eta0 * np.exp(-s.beta * np.log1p(s.alpha * p))) for p in grid]
    gaps += [abs(lambda_schedule(p, s) - np.tanh(s.gamma * p / 2.0)) for p in grid]
    worst = _worst(gaps, 0.0)
    ok = abs(lr_schedule(0.0, s) - 0.01) <= 1e-15 and abs(lambda_schedule(0.0, s)) <= 1e-15
    return CheckResult("schedule_closed_forms", worst <= 1e-12 and ok, {"worst_gap": worst})


def run_theory_checks(
    seed: int = 0, trials: int = 2000, n_universes: int = 20
) -> TheoryReport:
    """Run the whole suite; every check must pass on a correct build."""
    trials = _check_count(trials, "trials", 1)
    n_universes = _check_count(n_universes, "n_universes", 1)
    checks = [
        check_ramp(seed, trials),
        check_margin_decision(seed + 1, trials),
        check_prop3_identity(seed + 2, max(trials // 4, 100)),
        check_pointwise_lemmas(seed + 3, trials),
        check_variant_lemmas(seed + 4, trials),
        check_mcsd_metric(seed + 5, trials),
        check_surrogate_identities(seed + 6, max(trials // 4, 100)),
        check_bound_universes(seed + 7, n_universes),
        check_divergence_properties(seed + 8),
        check_adversarial_estimator(seed + 9),
        check_rademacher(seed + 10),
        check_pac_bound(seed + 11),
        check_schedules(),
    ]
    return TheoryReport(seed=seed, checks=checks)
