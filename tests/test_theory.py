"""Theory suite: the batched checks replay the per-trial draws and fail
their mutants.

The oracle draw loops below make one trial's generator calls after
another and center each score draw with ``s - s.mean()``, as the
statements' per-trial form reads: every batched check must see exactly
their draws, centered to the same bits.
"""

import dataclasses
import sys

import numpy as np
import pytest

from mcsda import divergence, margin, surrogates
from mcsda.divergence import ScorerGrid
from mcsda.harness import theory
from mcsda.harness.cli import main
from mcsda.margin import _center


def random_scores(rng, k, rho):
    scale = rho * (0.2, 1.0, 3.0)[rng.integers(3)]
    s = rng.uniform(-2.0 * scale, 2.0 * scale, size=k)
    return s - s.mean()


def oracle_ramp(seed, trials):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        rho = float(rng.uniform(0.1, 10.0))
        x, y = rng.uniform(-3 * rho, 3 * rho, size=2)
        draws.append((rho, x, y))
    return draws


def oracle_margin_decision(seed, trials):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        f = random_scores(rng, k, 1.0)
        y = int(rng.integers(1, k + 1))
        draws.append((k, f, y))
    return draws


def oracle_prop3(seed, trials, ks=(2, 3, 5, 10), rhos=(0.5, 1.0, 5.0)):
    rng = np.random.default_rng(seed)
    draws = []
    for k in ks:
        for rho in rhos:
            for _ in range(trials):
                f1 = random_scores(rng, k, rho)
                f2 = random_scores(rng, k, rho)
                draws.append((k, rho, f1, f2))
    return draws


def oracle_lemmas(seed, trials):
    # the draws of both the pointwise and the decision-level lemma loops
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        rho = float(rng.uniform(0.2, 5.0))
        f, fp = random_scores(rng, k, rho), random_scores(rng, k, rho)
        y = int(rng.integers(1, k + 1))
        draws.append((k, rho, f, fp, y))
    return draws


def oracle_metric(seed, trials):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        rho = float(rng.uniform(0.2, 5.0))
        f1, f2, f3 = (random_scores(rng, k, rho) for _ in range(3))
        draws.append((k, rho, f1, f2, f3))
    return draws


def oracle_surrogates(seed, trials):
    # the loop applied softmax to each logit draw right away
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        z1 = rng.normal(0, 2, size=k)
        z2 = rng.normal(0, 2, size=k)
        z3 = rng.normal(0, 2, size=k)
        draws.append((k, z1, z2, z3))
    return draws


# check -> (its grouped draws, the oracle loop, the columns that are raw
# score draws, which the check centers per group); trial counts are those
# run_theory_checks passes at CLI defaults
DRAWS = {
    "check_ramp": (
        lambda s: theory._grouped(theory._draws(s, 2000, theory._ramp_draw), key=lambda d: None),
        lambda s: oracle_ramp(s, 2000),
        (),
    ),
    "check_margin_decision": (
        lambda s: theory._grouped(theory._draws(s, 2000, theory._decision_draw)),
        lambda s: oracle_margin_decision(s, 2000),
        (1,),
    ),
    "check_prop3_identity": (
        lambda s: theory._grouped(
            theory._prop3_draws(s, 500, (2, 3, 5, 10), (0.5, 1.0, 5.0)), key=lambda d: d[:2]
        ),
        lambda s: oracle_prop3(s, 500),
        (2, 3),
    ),
    "check_pointwise_lemmas": (
        lambda s: theory._grouped(theory._draws(s, 2000, theory._lemma_draw)),
        lambda s: oracle_lemmas(s, 2000),
        (2, 3),
    ),
    "check_variant_lemmas": (
        lambda s: theory._grouped(theory._draws(s, 2000, theory._lemma_draw)),
        lambda s: oracle_lemmas(s, 2000),
        (2, 3),
    ),
    "check_mcsd_metric": (
        lambda s: theory._grouped(theory._draws(s, 2000, theory._metric_draw)),
        lambda s: oracle_metric(s, 2000),
        (2, 3, 4),
    ),
    "check_surrogate_identities": (
        lambda s: theory._grouped(theory._draws(s, 500, theory._surrogate_draw)),
        lambda s: oracle_surrogates(s, 500),
        (),
    ),
}


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


class TestDrawReplay:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("check", sorted(DRAWS))
    def test_grouped_draws_equal_the_per_trial_loop(self, check, seed):
        grouped, oracle, centered = DRAWS[check]
        groups, where = grouped(seed)
        want = oracle(seed)
        assert len(where) == len(want)
        cols = {
            g: [_center(col) if j in centered else col for j, col in enumerate(arrays)]
            for g, arrays in groups.items()
        }
        assert sum(len(arrays[0]) for arrays in groups.values()) == len(want)
        for (g, row), draw in zip(where, want):
            assert len(cols[g]) == len(draw)
            for col, value in zip(cols[g], draw):
                assert bits(col[row]) == bits(value)


def scaled(fn, factor):
    """``fn`` with its result times ``factor``; a tuple result (a surrogate
    kernel's rows and probability gradients) is scaled entry by entry."""

    def mutant(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):
            return tuple(factor * x for x in out)
        return factor * out

    return mutant


def scale_everywhere(monkeypatch, module, name, factor):
    """Replace ``module.name`` by a scaled copy in every mcsda module that
    holds it, so the single-vector functions see the mutant too."""
    orig = getattr(module, name)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("mcsda") and vars(mod).get(name) is orig:
            monkeypatch.setattr(mod, name, scaled(orig, factor))


def run_check(check, seed=0, trials=400):
    if check == "check_prop3_identity":
        return theory.check_prop3_identity(seed, 100)
    return getattr(theory, check)(seed, trials)


class TestMutants:
    @pytest.mark.parametrize(
        "check, module, name, factor",
        [
            ("check_ramp", margin, "_ramp", 2.0),
            ("check_margin_decision", margin, "_absolute_margin", -1.0),
            ("check_prop3_identity", margin, "_matrix_disagreement", 2.0),
            ("check_pointwise_lemmas", divergence, "_mcsd_rows", 2.0),
            ("check_pointwise_lemmas", divergence, "_margin_violations", 0.5),
            ("check_variant_lemmas", margin, "_decision_level", 2.0),
            ("check_variant_lemmas", divergence, "_margin_violations", 0.5),
            ("check_mcsd_metric", divergence, "_mcsd_rows", 10.0),
            ("check_surrogate_identities", surrogates, "_ce", 1.5),
        ],
    )
    def test_scaled_kernel_fails_the_check(self, monkeypatch, check, module, name, factor):
        assert run_check(check).passed
        scale_everywhere(monkeypatch, module, name, factor)
        assert not run_check(check).passed

    @pytest.mark.parametrize(
        "check, name",
        [
            ("check_ramp", "_ramp"),
            ("check_margin_decision", "_absolute_margin"),
            ("check_prop3_identity", "_matrix_disagreement"),
            ("check_pointwise_lemmas", "_mcsd_rows"),
            ("check_variant_lemmas", "_decision_level"),
            ("check_mcsd_metric", "_mcsd_rows"),
            ("check_surrogate_identities", "_l1"),
        ],
    )
    def test_batched_drift_shows_in_the_single_vector_gap(self, monkeypatch, check, name):
        # one part in 1e6, in the suite's batched path only: the public
        # single-vector functions keep the real kernel
        monkeypatch.setattr(theory, name, scaled(getattr(theory, name), 1.0 + 1e-6))
        res = run_check(check)
        assert not res.passed
        assert res.details["single_vector_gap"] > 1e-12


def nan_in_batches(fn):
    """``fn`` with a NaN in the last entry of its result (of its first part
    when it returns a tuple) whenever that result holds more than 64
    entries.  Such a call is batched, and its last entry is the last row of
    a group of more than 64 rows, a draw the single-vector replay never
    sees; the single-vector calls return at most K entries untouched."""

    def mutant(*args, **kwargs):
        out = fn(*args, **kwargs)
        first = out[0] if isinstance(out, tuple) else out
        if np.size(first) > 64:
            first = np.array(first, dtype=np.float64)
            first.reshape(-1)[-1] = np.nan
            return (first,) + out[1:] if isinstance(out, tuple) else first
        return out

    return mutant


def nan_on_first_vector(fn):
    """``fn`` with NaN for its result on its first call that returns a
    single vector or scalar; every later call is untouched."""
    calls = []

    def mutant(*args, **kwargs):
        out = fn(*args, **kwargs)
        if np.ndim(out) <= 1 and not calls:
            calls.append(1)
            return np.multiply(out, np.nan)
        return out

    return mutant


def nan_hat_divergence(fn):
    """``divergence._exact`` with a NaN value for the 'hat' form."""

    def mutant(ss, st, ws, wt, rho, variant):
        res = fn(ss, st, ws, wt, rho, variant)
        return dataclasses.replace(res, value=np.nan) if variant == "hat" else res

    return mutant


def nan_schedule_midway(fn):
    """A schedule that returns NaN at progress 0.5, between the endpoints."""
    return lambda p, s: np.nan if p == 0.5 else fn(p, s)


BATCHED_KERNELS = [
    ("check_ramp", "_ramp"),
    ("check_margin_decision", "_center"),
    ("check_margin_decision", "_absolute_margin"),
    ("check_prop3_identity", "_center"),
    ("check_prop3_identity", "_matrix_disagreement"),
    ("check_prop3_identity", "_phi_distance"),
    ("check_pointwise_lemmas", "_center"),
    ("check_pointwise_lemmas", "_margin_violations"),
    ("check_pointwise_lemmas", "_matrix_disagreement"),
    ("check_pointwise_lemmas", "_mcsd_rows"),
    ("check_variant_lemmas", "_center"),
    ("check_variant_lemmas", "_margin_violations"),
    ("check_variant_lemmas", "_decision_margin"),
    ("check_variant_lemmas", "_decision_level"),
    ("check_mcsd_metric", "_center"),
    ("check_mcsd_metric", "_matrix_disagreement"),
    ("check_mcsd_metric", "_mcsd_rows"),
    ("check_surrogate_identities", "_softmax"),
    ("check_surrogate_identities", "_kl"),
    ("check_surrogate_identities", "_ce"),
    ("check_surrogate_identities", "_l1"),
    ("check_surrogate_identities", "_guarded_log"),
]

SINGLE_VECTOR_FUNCTIONS = [
    ("check_ramp", "ramp_loss"),
    ("check_margin_decision", "absolute_margin"),
    ("check_margin_decision", "argmax_label"),
    ("check_prop3_identity", "mcsd_pointwise"),
    ("check_prop3_identity", "phi_distance"),
    ("check_pointwise_lemmas", "mcsd_pointwise"),
    ("check_pointwise_lemmas", "source_margin_loss"),
    ("check_variant_lemmas", "mcsd_tilde_pointwise"),
    ("check_variant_lemmas", "mcsd_hat_pointwise"),
    ("check_variant_lemmas", "source_margin_loss"),
    ("check_mcsd_metric", "mcsd_pointwise"),
    ("check_surrogate_identities", "softmax"),
    ("check_surrogate_identities", "sur_kl"),
    ("check_surrogate_identities", "sur_ce"),
    ("check_surrogate_identities", "sur_l1"),
]


class TestFailsClosedOnNaN:
    """A NaN anywhere fails its check: the reductions keep it, and the
    single-vector gap does not overwrite it with a later difference."""

    @pytest.mark.parametrize("check, name", BATCHED_KERNELS)
    def test_nan_past_the_replayed_draws_fails_the_check(self, monkeypatch, check, name):
        assert run_check(check).passed
        monkeypatch.setattr(theory, name, nan_in_batches(getattr(theory, name)))
        res = run_check(check)
        assert not res.passed
        # the NaN rows lie past the first 64 draws, so the replay cannot see them
        assert res.details["single_vector_gap"] <= 1e-12

    @pytest.mark.parametrize("check, name", SINGLE_VECTOR_FUNCTIONS)
    def test_nan_from_a_single_vector_function_fails_the_check(self, monkeypatch, check, name):
        monkeypatch.setattr(theory, name, nan_on_first_vector(getattr(theory, name)))
        res = run_check(check)
        assert not res.passed
        assert np.isnan(res.details["single_vector_gap"])

    def test_replay_error_names_the_function_and_the_draw(self, monkeypatch):
        # the NaN probabilities of the first replayed draw reach sur_kl,
        # whose check rejects them
        monkeypatch.setattr(theory, "softmax", nan_on_first_vector(theory.softmax))
        error = run_check("check_surrogate_identities").details["replay_error"]
        assert error.startswith("sur_kl raised on draw 0: p1 must be finite")

    @pytest.mark.parametrize("name", ["lr_schedule", "lambda_schedule"])
    def test_nan_from_a_schedule_fails_the_check(self, monkeypatch, name):
        monkeypatch.setattr(theory, name, nan_schedule_midway(getattr(theory, name)))
        res = theory.check_schedules()
        assert not res.passed
        assert np.isnan(res.details["worst_gap"])

    def test_nan_divergence_fails_the_universe_and_property_checks(self, monkeypatch):
        for mod in (theory, divergence):
            monkeypatch.setattr(mod, "_exact", nan_hat_divergence(divergence._exact))
        universes = theory.check_bound_universes(7, 3)
        assert not universes.passed
        assert np.isnan(universes.details["worst_excess_hat"])
        assert not theory.check_divergence_properties(8).passed

    @pytest.mark.parametrize(
        "name, mutant",
        [
            ("_margin_violations", nan_in_batches),
            ("_center", nan_in_batches),
            ("source_margin_loss", nan_on_first_vector),
            ("lr_schedule", nan_schedule_midway),
            ("_exact", nan_hat_divergence),
        ],
    )
    def test_theory_check_exits_2(self, monkeypatch, capsys, name, mutant):
        monkeypatch.setattr(theory, name, mutant(getattr(theory, name)))
        assert main(["theory-check", "--trials", "400", "--universes", "3"]) == 2
        assert "THEORY CHECKS FAILED" in capsys.readouterr().out


class TestReport:
    def test_ascent_value_never_exceeds_the_enumeration_without_slack(self):
        # the ascent scores its pair with the same 1-D row dot as the grid
        # enumeration does, so the statement holds bit for bit
        res = theory.check_adversarial_estimator(0)
        assert res.passed
        assert res.details["ascent_value"] <= res.details["exact_over_visited"]

    def test_every_batched_check_reports_its_single_vector_gap(self):
        report = theory.run_theory_checks(seed=4, trials=300, n_universes=2)
        gaps = {c.name: c.details.get("single_vector_gap") for c in report.checks[:7]}
        assert all(gap is not None and 0.0 <= gap <= 1e-12 for gap in gaps.values()), gaps
        assert all("single_vector_gap" not in c.details for c in report.checks[7:])

    def test_universe_grid_is_evaluated_once(self, monkeypatch):
        calls = []
        evaluate = ScorerGrid.evaluate

        def counted(grid, points):
            calls.append(len(points))
            return evaluate(grid, points)

        monkeypatch.setattr(ScorerGrid, "evaluate", counted)
        for i, rho in enumerate((0.5, 1.0, 5.0)):
            calls.clear()
            u = theory.build_universe(i, rho=rho)
            theory._universe_bound_gaps(u)
            assert calls == [len(u.points)]

    def test_divergence_properties_evaluate_each_sample_once(self, monkeypatch):
        # six sample triples, each scored once for all three forms
        calls = []
        evaluate = ScorerGrid.evaluate

        def counted(grid, points):
            calls.append(len(points))
            return evaluate(grid, points)

        monkeypatch.setattr(ScorerGrid, "evaluate", counted)
        assert theory.check_divergence_properties(8).passed
        assert len(calls) == 18
