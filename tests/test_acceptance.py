"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Criteria 6 and 7 share one deterministic 9-method, 10-seed
run matrix on rotated moons (a couple of minutes); the accuracy floors in
those tests were measured on the first calibration runs of this exact
design and are frozen here as regression thresholds.
"""

import time

import numpy as np
import pytest

from mcsda.divergence import (
    SampleSet,
    ScorerGrid,
    linear_scorer,
    mcsd_divergence_adversarial,
    mcsd_divergence_exact,
    violation_tensor,
)
from mcsda.harness.config import ExperimentConfig
from mcsda.harness.surface import SURFACE_MEASURES, emit_surface_grid
from mcsda.harness.theory import build_universe, check_bound_universes
from mcsda.harness.trainers import run_experiment
from mcsda.losses import registered_losses
from mcsda.margin import (
    argmax_label,
    mcsd_hat_pointwise,
    mcsd_pointwise,
    mcsd_tilde_pointwise,
    phi_distance,
    ramp_loss,
    relative_margin,
)
from mcsda.neural import Schedules, lambda_schedule, lr_schedule
from mcsda.surrogates import softmax, sur_ce, sur_kl, sur_l1
from mcsda.synthdata import gen_gauss_blobs, gen_rotated_moons, make_openset, make_partial
from test_losses import finite_difference_audit


def _centered(rng, n, k, scale):
    raw = rng.normal(0.0, scale, size=(n, k))
    return raw - raw.mean(axis=1, keepdims=True)


def test_criterion_01_per_component_identity():
    """K times the pointwise disagreement equals the per-component sum."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for k in (2, 3, 5, 10):
        for rho in (0.5, 1.0, 5.0):
            f1 = _centered(rng, 10_000, k, 2.5 * rho)
            f2 = _centered(rng, 10_000, k, 2.5 * rho)
            lhs = np.abs(violation_tensor(f1, rho) - violation_tensor(f2, rho)).sum(axis=(1, 2))
            rhs = phi_distance(f1, f2, rho, k).sum(axis=-1)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"identity gap {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_02_pointwise_inequalities():
    """Error and disagreement bounds hold on 1e5 random draws."""
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    violations = 0
    worst = -np.inf
    for k in (2, 3, 5, 10):
        for rho in (0.3, 0.7, 1.0, 2.5, 5.0):
            n = 5000
            f1 = _centered(rng, n, k, 2.0 * rho)
            f2 = _centered(rng, n, k, 2.0 * rho)
            y = rng.integers(1, k + 1, size=n)
            signs = np.where(np.arange(1, k + 1)[None, :] == y[:, None], 1.0, -1.0)
            loss1 = ramp_loss(signs * f1, rho).sum(axis=1)
            loss2 = ramp_loss(signs * f2, rho).sum(axis=1)
            err2 = (np.argmax(f2, axis=1) + 1 != y).astype(float)
            mcsd = np.abs(violation_tensor(f1, rho) - violation_tensor(f2, rho)).sum(
                axis=(1, 2)
            ) / k
            own2 = f2.max(axis=1)
            agree = np.argmax(f1, axis=1) == np.argmax(f2, axis=1)
            margins = np.where(agree, own2, -own2)
            tilde = ramp_loss(margins, rho / 2.0)
            hat = (margins <= 0.0).astype(float)
            for lhs, rhs in (
                (err2, loss1 + mcsd),
                (mcsd, loss1 + loss2),
                (err2, loss1 + tilde),
                (tilde, loss1 + loss2),
                (hat, tilde),
            ):
                gap = lhs - rhs
                violations += int(np.count_nonzero(gap > 1e-12))
                worst = max(worst, float(gap.max()))
    elapsed = time.perf_counter() - start
    assert violations == 0, f"{violations} violations, worst excess {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_03_enumerated_universe_bounds():
    """All three distribution-level bounds hold on 20 enumerated universes."""
    start = time.perf_counter()
    result = check_bound_universes(0, 20)
    elapsed = time.perf_counter() - start
    assert result.passed, result.details
    assert result.details["n_universes"] == 20
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_04_gradient_audit():
    """Every registered loss matches central finite differences."""
    start = time.perf_counter()
    worst = {}
    for loss in registered_losses():
        worst[loss.name] = finite_difference_audit(
            loss, np.random.default_rng(4), n_inputs=100, tol=1e-5
        )
    elapsed = time.perf_counter() - start
    assert len(worst) == 10
    assert max(worst.values()) <= 1e-5, worst
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_05_divergence_oracle_agreement():
    """Exact divergence equals a re-coded enumerator; ascent never beats it."""
    u = build_universe(3)
    scores = u.grid.evaluate(u.points)
    n_cand = len(u.grid)
    best, best_pair = -np.inf, None
    for i in range(n_cand):
        for j in range(n_cand):
            per_point = np.array(
                [
                    mcsd_pointwise(scores[i, n], scores[j, n], u.rho)
                    for n in range(u.points.shape[0])
                ]
            )
            gap = float(u.q_mass @ per_point) - float(u.p_mass @ per_point)
            if gap > best:
                best, best_pair = gap, (i, j)
    exact = mcsd_divergence_exact(
        SampleSet(u.points), SampleSet(u.points), u.grid, u.rho,
        src_weights=u.p_mass, tgt_weights=u.q_mass,
    )
    assert exact.value == pytest.approx(best, abs=1e-12)
    assert exact.pair == best_pair

    rng = np.random.default_rng(5)
    src = np.concatenate([rng.normal(c, 0.6, size=(20, 2)) for c in (-2.0, 0.0, 2.0)])
    tgt = np.concatenate([rng.normal(c, 0.6, size=(20, 2)) for c in (-0.5, 1.5, 3.5)])
    adv = mcsd_divergence_adversarial(src, tgt, k=3, rho=1.0, steps=120, seed=0)
    scorers = []
    for w1, b1, w2, b2 in adv.visited:
        scorers.append(linear_scorer(w1, b1))
        scorers.append(linear_scorer(w2, b2))
    snapped = mcsd_divergence_exact(src, tgt, ScorerGrid(scorers, 3), 1.0)
    assert adv.value <= snapped.value + 1e-12
    assert adv.value > 1e-3  # the shift is real and the ascent finds some of it


RUN_METHODS = (
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

# first-calibration 10-seed means on this design, kept for reference:
# source_only 0.7627, l1 0.8462, kl 0.9118, ce 0.8972, mdd 0.8882,
# dann 0.9037, symmnets 0.9828, no_Lt 0.5245, no_adv 0.7608
SURROGATE_GAP_FLOORS = {
    "mcdal_l1": 0.04,
    "mcdal_kl": 0.07,
    "mcdal_ce": 0.06,
    "mcdal_mdd_variant": 0.06,
    "mcdal_dann": 0.07,
}


@pytest.fixture(scope="module")
def moons_matrix():
    """10-seed mean target accuracy per method, and the seconds the 90 runs
    took."""
    start = time.perf_counter()
    means = {}
    for method in RUN_METHODS:
        accs = []
        for seed in range(10):
            pair = gen_rotated_moons(600, 600, 30.0, noise_sd=0.05, seed=seed)
            cfg = ExperimentConfig(
                method=method,
                epochs=120,
                batch_size=32,
                seed=seed,
                schedules=Schedules(eta0=0.05),
            )
            accs.append(run_experiment(pair, cfg).final_target_acc)
        means[method] = float(np.mean(accs))
    return means, time.perf_counter() - start


@pytest.mark.slow
def test_criterion_06_adaptation_beats_source_only(moons_matrix):
    """Every surrogate beats the unadapted baseline; the symmetric trainer
    at least matches the best surrogate up to one accuracy point.  The 90
    runs behind it finish within 300 s."""
    means, seconds = moons_matrix
    base = means["source_only"]
    assert base > 0.70, means
    for method, floor in SURROGATE_GAP_FLOORS.items():
        assert means[method] > base, (method, means)
        assert means[method] - base >= floor, (method, means)
    best_surrogate = max(means[m] for m in SURROGATE_GAP_FLOORS)
    assert means["symmnets_v2"] >= best_surrogate - 0.01, means
    assert means["symmnets_v2"] - base >= 0.11, means
    assert seconds < 300.0, seconds


@pytest.mark.slow
def test_criterion_07_ablation_ordering(moons_matrix):
    """Both ablations lose; the non-adversarial one learns nothing extra."""
    means, _ = moons_matrix
    symm = means["symmnets_v2"]
    no_adv = means["symmnets_v2_no_adv"]
    no_lt = means["symmnets_v2_no_Lt"]
    assert symm > no_adv + 0.05, means
    assert symm > no_lt + 0.05, means
    # "no useful adaptation": solid classifier, no gain over the baseline
    assert no_adv > 0.65, means
    assert no_adv <= means["source_only"] + 0.02, means


@pytest.mark.slow
def test_criterion_08_partial_weights_ordering():
    """Estimated class weights rank source-exclusive below shared, all seeds."""
    for seed in range(10):
        pair = make_partial(
            gen_gauss_blobs(4, 150, (1.0, 0.5), seed=seed), [1, 2]
        )
        cfg = ExperimentConfig(
            method="symmnets_v2",
            epochs=60,
            batch_size=32,
            seed=seed,
            schedules=Schedules(eta0=0.05),
        )
        omega = run_experiment(pair, cfg).omega
        assert omega is not None
        exclusive = float(np.mean(omega[2:]))
        shared = float(np.mean(omega[:2]))
        assert exclusive < shared, (seed, omega)


@pytest.mark.slow
def test_criterion_09_openset_unknown_gain():
    """Oversampling the super class lifts unknown-class accuracy, 10-seed means."""
    unknown = {1.0: [], 6.0: []}
    for seed in range(10):
        base = gen_gauss_blobs(6, 150, (1.0, 0.5), seed=seed, std=1.5)
        pair = make_openset(base, [1, 2, 3], [4], [5, 6])
        for nu in unknown:
            cfg = ExperimentConfig(
                method="symmnets_v2",
                epochs=60,
                batch_size=32,
                seed=seed,
                nu=nu,
                schedules=Schedules(eta0=0.05),
            )
            unknown[nu].append(run_experiment(pair, cfg).unknown_acc)
    lo, hi = np.mean(unknown[1.0]), np.mean(unknown[6.0])
    assert hi > lo + 0.05, (lo, hi)


def test_criterion_10_schedules_and_coupling():
    """Closed-form schedules at 11 grid points; the adversarial and
    weight-blend knobs track the annealed weight in the metrics stream."""
    for sched in (Schedules(), Schedules(eta0=0.05, alpha=7.0, beta=0.6, gamma=8.0)):
        for i in range(11):
            p = i / 10.0
            want_lr = sched.eta0 * (1.0 + sched.alpha * p) ** (-sched.beta)
            want_lam = 2.0 / (1.0 + np.exp(-sched.gamma * p)) - 1.0
            assert abs(lr_schedule(p, sched) - want_lr) <= 1e-12
            assert abs(lambda_schedule(p, sched) - want_lam) <= 1e-12

    blobs = gen_gauss_blobs(3, 40, shift_vector=(0.6, 0.3), seed=0, std=0.5)
    res = run_experiment(
        blobs, ExperimentConfig(method="mcdal_kl", epochs=6, seed=0)
    )
    assert len(res.metrics) == 6
    for rec in res.metrics:
        assert rec.zeta == rec.lambda_p

    partial = make_partial(gen_gauss_blobs(4, 40, (0.6, 0.3), seed=1, std=0.5), [1, 2])
    res = run_experiment(
        partial, ExperimentConfig(method="symmnets_v2", epochs=6, seed=0)
    )
    for rec in res.metrics:
        assert rec.zeta == rec.lambda_p
        assert rec.xi == rec.lambda_p


def test_criterion_11_surface_grids():
    """Surfaces agree with the per-point measures; the saturated one is 0/1."""
    fixed = np.array([10.0, -5.0, -5.0])
    rho = 5.0
    rng = np.random.default_rng(11)
    for which in SURFACE_MEASURES:
        grid = emit_surface_grid(which, rho, resolution=31, span=15.0)
        for _ in range(100):
            i, j = rng.integers(0, 31, size=2)
            v = np.array([grid.a_grid[i], grid.b_grid[j], -grid.a_grid[i] - grid.b_grid[j]])
            if which == "mcsd":
                want = mcsd_pointwise(fixed, v, rho)
            elif which == "tilde":
                want = mcsd_tilde_pointwise(fixed, v, rho)
            elif which == "hat":
                want = mcsd_hat_pointwise(fixed, v, rho)
            elif which == "md":
                want = float(ramp_loss(relative_margin(v, argmax_label(fixed)), rho))
            else:
                fn = {"l1": sur_l1, "kl": sur_kl, "ce": sur_ce}[which]
                want = fn(softmax(fixed), softmax(v))
            assert grid.values[i, j] == pytest.approx(want, abs=1e-12), which
        if which == "hat":
            assert set(np.unique(grid.values).tolist()) <= {0.0, 1.0}
        if which in ("mcsd", "l1", "kl"):
            # node (a, b) = (10, -5) reproduces the pinned scorer exactly
            assert grid.values[25, 10] == 0.0, which
