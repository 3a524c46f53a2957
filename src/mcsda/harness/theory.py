"""Brute-force verification of every identity and bound, at desk scale.

Each check draws randomized instances from a seeded generator, tests an
exact statement (identity, pointwise inequality, or enumerated bound) and
returns a CheckResult with the worst observed violation.  Tolerances are
float-rounding allowances, not statistical slack: all statements checked
here are theorems, so any real violation is an implementation bug.

The enumerated-universe checks build finite worlds (a handful of points
with explicit source and target masses, a grid of bounded linear scorers
as the whole hypothesis space) where suprema and the best joint predictor
are computed by exhaustion, letting the three distribution-level bounds be
checked with no estimation error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..divergence import (
    SampleSet,
    ScorerGrid,
    divergence_exact_variant,
    linear_scorer,
    margin_error,
    mcsd_divergence_adversarial,
    mcsd_divergence_exact,
    pac_bound_report,
    rademacher_estimate,
    zero_one_error,
)
from ..margin import (
    argmax_label,
    absolute_margin,
    mcsd_hat_pointwise,
    mcsd_pointwise,
    mcsd_tilde_pointwise,
    phi_distance,
    ramp_loss,
    source_margin_loss,
)
from ..neural import Schedules, lambda_schedule, lr_schedule
from ..surrogates import softmax, sur_ce, sur_kl, sur_l1
from ..synthdata import gen_gauss_blobs

__all__ = [
    "CheckResult",
    "TheoryReport",
    "ToyUniverse",
    "build_universe",
    "run_theory_checks",
    "check_prop3_identity",
]


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
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


def _random_scores(rng: np.random.Generator, k: int, rho: float) -> np.ndarray:
    """Centered scores with mixed magnitude relative to the margin width."""
    scale = rho * (0.2, 1.0, 3.0)[rng.integers(3)]
    s = rng.uniform(-2.0 * scale, 2.0 * scale, size=k)
    return s - s.mean()


# ---------------------------------------------------------------------------
# Pointwise identities and inequalities.
# ---------------------------------------------------------------------------


def check_ramp(seed: int, trials: int) -> CheckResult:
    """Range, exact kinks, monotonicity and the 1/rho Lipschitz property."""
    rng = np.random.default_rng(seed)
    worst_lip = 0.0
    ok = True
    for _ in range(trials):
        rho = float(rng.uniform(0.1, 10.0))
        x, y = rng.uniform(-3 * rho, 3 * rho, size=2)
        vx, vy = ramp_loss(x, rho), ramp_loss(y, rho)
        ok &= 0.0 <= vx <= 1.0
        ok &= (vx >= vy) == (x <= y) or vx == vy
        lip = abs(vx - vy) - abs(x - y) / rho
        worst_lip = max(worst_lip, lip)
        ok &= ramp_loss(0.0, rho) == 1.0 and ramp_loss(rho, rho) == 0.0
    passed = ok and worst_lip <= 1e-12
    return CheckResult("ramp_properties", passed, {"worst_lipschitz_excess": worst_lip})


def check_margin_decision(seed: int, trials: int) -> CheckResult:
    """All absolute margins >= 0 with one > 0 forces the argmax decision."""
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        f = _random_scores(rng, k, 1.0)
        y = int(rng.integers(1, k + 1))
        mu = absolute_margin(f, y)
        if np.all(mu >= 0) and np.any(mu > 0) and argmax_label(f) != y:
            violations += 1
    return CheckResult("margin_decision_property", violations == 0, {"violations": violations})


def check_prop3_identity(
    seed: int,
    trials: int,
    ks: tuple[int, ...] = (2, 3, 5, 10),
    rhos: tuple[float, ...] = (0.5, 1.0, 5.0),
    tol: float = 1e-12,
    mutant_rho_scale: float = 1.0,
) -> CheckResult:
    """K times the pointwise disagreement equals the per-component sum.

    ``mutant_rho_scale`` deliberately corrupts the per-component side's
    margin width; anything but 1.0 must make this check fail.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in ks:
        for rho in rhos:
            for _ in range(trials):
                f1 = _random_scores(rng, k, rho)
                f2 = _random_scores(rng, k, rho)
                lhs = k * mcsd_pointwise(f1, f2, rho)
                rhs = float(np.sum(phi_distance(f1, f2, rho * mutant_rho_scale, k)))
                worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        "per_component_identity",
        worst <= tol,
        {"worst_abs_gap": worst, "tol": tol, "mutant_rho_scale": mutant_rho_scale},
    )


def check_pointwise_lemmas(seed: int, trials: int) -> CheckResult:
    """The two pointwise inequalities behind the matrix-form bound.

    (a) 0-1 error of f is at most f-prime's margin loss plus the pointwise
    disagreement; (b) the pointwise disagreement is at most the sum of the
    two margin losses.
    """
    rng = np.random.default_rng(seed)
    worst_a = worst_b = -np.inf
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        rho = float(rng.uniform(0.2, 5.0))
        f, fp = _random_scores(rng, k, rho), _random_scores(rng, k, rho)
        y = int(rng.integers(1, k + 1))
        m = mcsd_pointwise(f, fp, rho)
        err = 1.0 if argmax_label(f) != y else 0.0
        worst_a = max(worst_a, err - source_margin_loss(fp, y, rho) - m)
        worst_b = max(
            worst_b, m - source_margin_loss(f, y, rho) - source_margin_loss(fp, y, rho)
        )
    passed = worst_a <= 1e-12 and worst_b <= 1e-12
    return CheckResult(
        "pointwise_lemmas", passed, {"worst_excess_a": worst_a, "worst_excess_b": worst_b}
    )


def check_variant_lemmas(seed: int, trials: int) -> CheckResult:
    """Decision-level analogues of the pointwise lemmas, plus structure:
    the saturated form is 0/1 and implies the ramped form equals 1."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    structure_ok = True
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        rho = float(rng.uniform(0.2, 5.0))
        f, fp = _random_scores(rng, k, rho), _random_scores(rng, k, rho)
        y = int(rng.integers(1, k + 1))
        err = 1.0 if argmax_label(f) != y else 0.0
        lf, lfp = source_margin_loss(f, y, rho), source_margin_loss(fp, y, rho)
        for form in (mcsd_tilde_pointwise, mcsd_hat_pointwise):
            v = form(f, fp, rho)
            worst = max(worst, err - lfp - v, v - lf - lfp)
        hat = mcsd_hat_pointwise(f, fp, rho)
        tilde = mcsd_tilde_pointwise(f, fp, rho)
        structure_ok &= hat in (0.0, 1.0)
        structure_ok &= (hat != 1.0) or (tilde == 1.0)
    return CheckResult(
        "decision_level_lemmas",
        structure_ok and worst <= 1e-12,
        {"worst_excess": worst, "structure_ok": structure_ok},
    )


def check_mcsd_metric(seed: int, trials: int) -> CheckResult:
    """Pointwise disagreement: non-negative, symmetric, zero at identity,
    triangle inequality, and bounded by K."""
    rng = np.random.default_rng(seed)
    worst_tri = -np.inf
    ok = True
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        rho = float(rng.uniform(0.2, 5.0))
        f1, f2, f3 = (_random_scores(rng, k, rho) for _ in range(3))
        d12 = mcsd_pointwise(f1, f2, rho)
        d21 = mcsd_pointwise(f2, f1, rho)
        d13 = mcsd_pointwise(f1, f3, rho)
        d23 = mcsd_pointwise(f2, f3, rho)
        ok &= abs(d12 - d21) <= 1e-15 and -1e-15 <= d12 <= k
        ok &= mcsd_pointwise(f1, f1, rho) == 0.0
        worst_tri = max(worst_tri, d13 - d12 - d23)
    return CheckResult(
        "pointwise_metric_properties",
        ok and worst_tri <= 1e-12,
        {"worst_triangle_excess": worst_tri},
    )


def check_surrogate_identities(seed: int, trials: int) -> CheckResult:
    """Cross-entropy / KL / entropy identity, ordering, L1 structure, and
    witnesses that the symmetrized KL and CE are not metrics."""
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    ok = True
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        p1 = softmax(rng.normal(0, 2, size=k))
        p2 = softmax(rng.normal(0, 2, size=k))
        p3 = softmax(rng.normal(0, 2, size=k))
        ent = lambda p: -float(np.dot(p, np.log(p)))
        worst_identity = max(
            worst_identity,
            abs(sur_ce(p1, p2) - (sur_kl(p1, p2) + 0.5 * (ent(p1) + ent(p2)))),
        )
        ok &= sur_ce(p1, p2) >= sur_kl(p1, p2) - 1e-12 >= -1e-12
        ok &= abs(sur_l1(p1, p2) - sur_l1(p2, p1)) <= 1e-15
        ok &= sur_l1(p1, p3) <= sur_l1(p1, p2) + sur_l1(p2, p3) + 1e-12
        ok &= 0.0 <= sur_l1(p1, p2) <= 2.0 / k + 1e-15
    # quadratic-at-zero divergences overshoot the direct route through a
    # nearby midpoint; a peaked midpoint does the same for the CE form
    p, q, r = np.array([0.4, 0.6]), np.array([0.5, 0.5]), np.array([0.6, 0.4])
    kl_violation = sur_kl(p, r) - sur_kl(p, q) - sur_kl(q, r)
    pc = np.array([0.999, 0.001])
    qc = np.array([0.998, 0.002])
    rc = np.array([0.001, 0.999])
    ce_violation = sur_ce(pc, rc) - sur_ce(pc, qc) - sur_ce(qc, rc)
    ok &= kl_violation > 0 and ce_violation > 0
    return CheckResult(
        "surrogate_identities",
        ok and worst_identity <= 1e-12,
        {
            "worst_identity_gap": worst_identity,
            "kl_triangle_violation": float(kl_violation),
            "ce_triangle_violation": float(ce_violation),
        },
    )


# ---------------------------------------------------------------------------
# Enumerated universes for the distribution-level bounds.
# ---------------------------------------------------------------------------


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
    """Worst bound excess per divergence form; negative means satisfied."""
    src = SampleSet(u.points, u.labels)
    scores = u.grid.evaluate(u.points)
    n_cand = len(u.grid)
    src_errs = np.array(
        [margin_error(scores[i], u.labels, u.rho, u.p_mass) for i in range(n_cand)]
    )
    tgt_errs = np.array(
        [margin_error(scores[i], u.labels, u.rho, u.q_mass) for i in range(n_cand)]
    )
    tgt_01 = np.array([zero_one_error(scores[i], u.labels, u.q_mass) for i in range(n_cand)])
    lam = float(np.min(src_errs + tgt_errs))
    gaps = {}
    d_matrix = mcsd_divergence_exact(
        src, src, u.grid, u.rho, src_weights=u.p_mass, tgt_weights=u.q_mass
    ).value
    gaps["matrix"] = float(np.max(tgt_01 - (src_errs + d_matrix + lam)))
    for variant in ("tilde", "hat"):
        d_var = divergence_exact_variant(
            src, src, u.grid, u.rho, variant, src_weights=u.p_mass, tgt_weights=u.q_mass
        ).value
        gaps[variant] = float(np.max(tgt_01 - (src_errs + d_var + lam)))
    return gaps


def check_bound_universes(seed: int, n_universes: int) -> CheckResult:
    """Every enumerated universe satisfies all three distribution bounds."""
    worst = {"matrix": -np.inf, "tilde": -np.inf, "hat": -np.inf}
    rhos = (0.5, 1.0, 5.0)
    for i in range(n_universes):
        u = build_universe(seed + i, rho=rhos[i % len(rhos)])
        for name, gap in _universe_bound_gaps(u).items():
            worst[name] = max(worst[name], gap)
    passed = all(v <= 1e-9 for v in worst.values())
    return CheckResult(
        "enumerated_universe_bounds",
        passed,
        {"worst_excess_" + k: v for k, v in worst.items()} | {"n_universes": n_universes},
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
    worst_tri = -np.inf
    worst_neg = np.inf
    best_asym = 0.0
    forms: list[tuple[str, Callable]] = [
        ("matrix", lambda a, b: mcsd_divergence_exact(a, b, grid, 1.0).value),
        ("tilde", lambda a, b: divergence_exact_variant(a, b, grid, 1.0, "tilde").value),
        ("hat", lambda a, b: divergence_exact_variant(a, b, grid, 1.0, "hat").value),
    ]
    for _ in range(6):
        sets = [
            SampleSet(rng.normal(rng.uniform(-2, 2, size=2), 1.0, size=(int(rng.integers(4, 12)), 2)))
            for _ in range(3)
        ]
        for _, fn in forms:
            dab, dba = fn(sets[0], sets[1]), fn(sets[1], sets[0])
            dbc = fn(sets[1], sets[2])
            dac = fn(sets[0], sets[2])
            worst_neg = min(worst_neg, dab, dba, dbc, dac)
            worst_tri = max(worst_tri, dac - dab - dbc)
            best_asym = max(best_asym, abs(dab - dba))
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
    worst = 0.0
    for i in range(11):
        p = i / 10.0
        lr_ref = s.eta0 * np.exp(-s.beta * np.log1p(s.alpha * p))
        lam_ref = np.tanh(s.gamma * p / 2.0)
        worst = max(
            worst,
            abs(lr_schedule(p, s) - lr_ref),
            abs(lambda_schedule(p, s) - lam_ref),
        )
    ok = abs(lr_schedule(0.0, s) - 0.01) <= 1e-15 and abs(lambda_schedule(0.0, s)) <= 1e-15
    return CheckResult("schedule_closed_forms", worst <= 1e-12 and ok, {"worst_gap": worst})


def run_theory_checks(
    seed: int = 0, trials: int = 2000, n_universes: int = 20
) -> TheoryReport:
    """Run the whole suite; every check must pass on a correct build."""
    if trials < 1:
        raise ValueError("trials must be >= 1, got %r" % trials)
    if n_universes < 1:
        raise ValueError("n_universes must be >= 1, got %r" % n_universes)
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
