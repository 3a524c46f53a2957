"""Harness layer: verification suite, surfaces, configs, trainers, CLI.

The two classes at the bottom pin slow end-to-end invariants of the
adapted trainers (class reweighting on partial pairs, super-class
oversampling on open-set pairs) on frozen toy designs; together they
account for most of this file's runtime.
"""

import dataclasses
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from mcsda.harness import theory, trainers
from mcsda.harness.cli import main
from mcsda.harness.config import METHOD_ROWS, METHODS, ExperimentConfig, MetricsRecord
from mcsda.harness.surface import SURFACE_MEASURES, emit_surface_grid
from mcsda.divergence import ScorerGrid, mcsd_divergence_adversarial
from mcsda.harness.theory import (
    check_adversarial_estimator,
    check_prop3_identity,
    run_theory_checks,
)
from mcsda.harness.trainers import run_experiment
from mcsda.margin import (
    argmax_label,
    mcsd_hat_pointwise,
    mcsd_pointwise,
    mcsd_tilde_pointwise,
    ramp_loss,
    relative_margin,
)
from mcsda.neural import MlpScorer, Schedules, SgdMomentum, _write_json, lambda_schedule
from mcsda.neural import lr_schedule
from mcsda.surrogates import _ce, _kl, softmax, sur_ce, sur_kl, sur_l1
from mcsda.synthdata import gen_gauss_blobs, make_openset, make_partial, manifest_path, read_csv

CHECK_NAMES = {
    "ramp_properties",
    "margin_decision_property",
    "per_component_identity",
    "pointwise_lemmas",
    "decision_level_lemmas",
    "pointwise_metric_properties",
    "surrogate_identities",
    "enumerated_universe_bounds",
    "divergence_properties",
    "adversarial_estimator",
    "rademacher_sign_symmetric",
    "finite_sample_bound",
    "schedule_closed_forms",
}


class TestTheorySuite:
    def test_all_checks_pass_at_reduced_budget(self):
        # the full-budget run is exercised by the acceptance suite
        report = run_theory_checks(seed=0, trials=400, n_universes=6)
        assert report.all_passed
        assert {c.name for c in report.checks} == CHECK_NAMES
        assert len(report.checks) == len(CHECK_NAMES)

    def test_identity_check_catches_rho_mismatch(self):
        bad = check_prop3_identity(2, 100, mutant_rho_scale=0.5)
        assert not bad.passed
        assert bad.details["worst_abs_gap"] > 1.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            run_theory_checks(trials=0)
        with pytest.raises(ValueError):
            run_theory_checks(n_universes=0)
        with pytest.raises(ValueError, match="trials"):
            run_theory_checks(trials=2.5)
        with pytest.raises(ValueError, match="n_universes"):
            run_theory_checks(n_universes=1.5)

    def test_ascent_warning_reaches_the_report(self, monkeypatch):
        # the check's ascents converge within their budgets at seeds 9 and
        # 10; cut to 5 steps, the ascent at seed 10 is still improving
        assert check_adversarial_estimator(9).details["ascent_warning"] is None
        assert check_adversarial_estimator(10).details["ascent_warning"] is None
        ascent = theory.mcsd_divergence_adversarial

        def short(*args, **kwargs):
            return ascent(*args, **{**kwargs, "steps": 5})

        monkeypatch.setattr(theory, "mcsd_divergence_adversarial", short)
        # same data as the check itself
        rng = np.random.default_rng(10)
        src = rng.normal((-2.0, 0.0), 0.6, size=(40, 2))
        tgt = rng.normal((2.0, 0.0), 0.6, size=(40, 2))
        res = mcsd_divergence_adversarial(src, tgt, k=3, rho=1.0, steps=5, seed=10)
        assert res.warning == "ascent still improving after 5 steps"
        details = check_adversarial_estimator(10).to_json()["details"]
        assert details["ascent_warning"] == res.warning

    def test_report_roundtrip(self, tmp_path):
        report = run_theory_checks(seed=3, trials=100, n_universes=2)
        path = tmp_path / "report.json"
        report.write(path)
        parsed = json.loads(path.read_text())
        assert list(parsed)[0] == "schema_version"
        assert parsed["schema_version"] == 1
        assert parsed["seed"] == 3
        assert parsed["all_passed"] is True
        assert [c["name"] for c in parsed["checks"]] == [c.name for c in report.checks]


FIXED = np.array([10.0, -5.0, -5.0])
RHO = 5.0


def _grid(which, direction="fix_first"):
    return emit_surface_grid(which, RHO, resolution=31, span=15.0, direction=direction)


def _var(a, b):
    return np.array([a, b, -a - b])


class TestSurfaces:
    def test_write_that_raises_midway_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "surface.csv"
        grid = emit_surface_grid("mcsd", 1.0, resolution=3)
        grid.write_csv(path)
        before = path.read_bytes()
        # one row of values for three a-values: the second row fails
        short = dataclasses.replace(grid, which="hat", values=grid.values[:1])
        with pytest.raises(IndexError):
            short.write_csv(path)
        assert path.read_bytes() == before and list(tmp_path.iterdir()) == [path]

    def test_zero_at_the_pinned_scorer(self):
        # probe == reference: every disagreement measure vanishes except the
        # cross-entropy form, which bottoms out at the reference's entropy
        for which in ("mcsd", "tilde", "hat", "l1", "kl", "md"):
            g = _grid(which)
            ia = int(np.argmin(np.abs(g.a_grid - 10.0)))
            ib = int(np.argmin(np.abs(g.b_grid + 5.0)))
            assert g.a_grid[ia] == 10.0 and g.b_grid[ib] == -5.0
            assert g.values[ia, ib] == 0.0, which
        g = _grid("ce")
        p = softmax(FIXED)
        assert g.values[25, 10] == pytest.approx(-float(p @ np.log(p)), abs=1e-12)

    def test_hat_surface_is_binary(self):
        vals = np.unique(_grid("hat").values)
        assert set(vals.tolist()) <= {0.0, 1.0}
        assert vals.size == 2

    @pytest.mark.parametrize("which", SURFACE_MEASURES)
    def test_matches_pointwise_oracle_at_random_nodes(self, which):
        g = _grid(which)
        rng = np.random.default_rng(5)
        for _ in range(12):
            i, j = rng.integers(0, 31, size=2)
            v = _var(g.a_grid[i], g.b_grid[j])
            if which == "mcsd":
                want = mcsd_pointwise(FIXED, v, RHO)
            elif which == "tilde":
                want = mcsd_tilde_pointwise(FIXED, v, RHO)
            elif which == "hat":
                want = mcsd_hat_pointwise(FIXED, v, RHO)
            elif which == "md":
                want = float(ramp_loss(relative_margin(v, argmax_label(FIXED)), RHO))
            else:
                fn = {"l1": sur_l1, "kl": sur_kl, "ce": sur_ce}[which]
                want = fn(softmax(FIXED), softmax(v))
            assert g.values[i, j] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("which", ["kl", "ce"])
    def test_log_surfaces_clamp_through_the_counted_guard(self, which):
        # the pinned scorer's corners push probabilities below the 1e-12 floor
        g = _grid(which)
        aa, bb = np.meshgrid(g.a_grid, g.b_grid, indexing="ij")
        var = np.stack([aa, bb, -aa - bb], axis=-1).reshape(-1, 3)
        var = var - var.mean(axis=1, keepdims=True)
        fx = np.broadcast_to(FIXED - FIXED.mean(), var.shape)
        p1, p2 = softmax(fx), softmax(var)
        lp1, lp2 = np.log(np.maximum(p1, 1e-12)), np.log(np.maximum(p2, 1e-12))
        if which == "kl":
            want = 0.5 * ((p1 - p2) * (lp1 - lp2)).sum(axis=1)
        else:
            want = -0.5 * (p1 * lp2 + p2 * lp1).sum(axis=1)
        assert np.array_equal(g.values, want.reshape(g.values.shape))
        # the surface's kernel returns the count of the clamps it takes
        rows, _, _, clamps = {"kl": _kl, "ce": _ce}[which](p1, p2)
        assert np.array_equal(rows.reshape(g.values.shape), g.values)
        assert clamps == np.count_nonzero(p1 < 1e-12) + np.count_nonzero(p2 < 1e-12) > 0

    def test_direction_flip_swaps_the_asymmetric_arguments(self):
        g = _grid("tilde", direction="fix_second")
        rng = np.random.default_rng(6)
        for _ in range(12):
            i, j = rng.integers(0, 31, size=2)
            v = _var(g.a_grid[i], g.b_grid[j])
            assert g.values[i, j] == pytest.approx(
                mcsd_tilde_pointwise(v, FIXED, RHO), abs=1e-12
            )
        assert np.abs(_grid("tilde").values - g.values).max() > 0.5

    def test_csv_dump(self, tmp_path):
        g = emit_surface_grid("l1", 1.0, resolution=5, span=2.0)
        path = tmp_path / "surf.csv"
        g.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b,value"
        assert len(lines) == 26
        a, b, val = (float(x) for x in lines[1].split(","))
        assert (a, b) == (-2.0, -2.0)
        assert val == g.values[0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            emit_surface_grid("banana", 1.0)
        with pytest.raises(ValueError):
            emit_surface_grid("mcsd", 1.0, direction="sideways")
        with pytest.raises(ValueError):
            emit_surface_grid("mcsd", 1.0, resolution=1)
        with pytest.raises(ValueError):
            emit_surface_grid("mcsd", 0.0)
        with pytest.raises(ValueError):
            emit_surface_grid("mcsd", 1.0, fixed=(1.0, 2.0))
        with pytest.raises(ValueError):
            emit_surface_grid("kl", float("nan"))
        with pytest.raises(ValueError):
            emit_surface_grid("tilde", 1.0, fixed=(np.inf, 0.0, 0.0))

    def test_span_keeps_the_grid_finite(self):
        # a span whose grid overflows is named, before any numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^span must be"):
                emit_surface_grid("mcsd", 1.0, resolution=3, span=1e308)
            widest = emit_surface_grid("mcsd", 1.0, resolution=3, span=np.finfo(float).max / 4)
        assert np.isfinite(widest.values).all()


class TestConfig:
    def test_json_roundtrip_preserves_everything(self):
        cfg = ExperimentConfig(
            method="mcdal_kl",
            rho=2.0,
            epochs=7,
            hidden=(8, 4),
            schedules=Schedules(eta0=0.05),
            zeta=0.3,
        )
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_integral_sizes_are_stored_as_ints(self):
        cfg = ExperimentConfig(epochs=3.0, batch_size=np.int64(16), seed=2.0, hidden=[8.0, 4])
        assert (cfg.epochs, cfg.batch_size, cfg.seed, cfg.hidden) == (3, 16, 2, (8, 4))
        assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed) + cfg.hidden)
        assert json.loads(json.dumps(cfg.to_json()))["epochs"] == 3

    def test_validation(self):
        for kwargs in (
            {"method": "banana"},
            {"rho": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"eval_head": "g"},
            {"method": "mcdal_kl", "eval_head": "ft"},
            {"method": "source_only", "eval_head": "fs"},
            {"method": "symmnets_v2", "eval_head": "f"},
            {"zeta": 1.5},
            {"xi": -0.1},
            {"nu": 0.0},
            {"rho": float("nan")},
            {"rho": float("inf")},
            {"rho": 1e-320},
            {"rho": 5e-324},
            {"nu": float("nan")},
            {"nu": float("inf")},
            {"zeta": float("nan")},
            {"aux_task_weight": float("nan")},
            {"schedules": {"eta0": float("nan")}},
            {"schedules": {"eta0": float("inf")}},
            {"schedules": {"alpha": float("nan")}},
            {"schedules": {"beta": float("inf")}},
            {"schedules": {"gamma": float("nan")}},
            {"schedules": {"momentum": float("nan")}},
            {"epochs": float("nan")},
            {"epochs": 2.5},
            {"batch_size": float("inf")},
            {"seed": float("nan")},
            {"feature_dim": 0},
            {"hidden": [8, float("nan")]},
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(**kwargs)

    def test_surrogate_name_derived_from_method(self):
        assert ExperimentConfig(method="mcdal_kl").surrogate == "kl"
        assert ExperimentConfig(method="mcdal_mdd_variant").surrogate == "mdd_variant"
        assert ExperimentConfig(method="source_only").surrogate is None
        assert ExperimentConfig(method="symmnets_v2").surrogate is None

    @pytest.mark.parametrize(
        "method,head",
        [
            ("source_only", "f"),
            ("mcdal_ce", "f"),
            ("symmnets_v2", "ft"),
            ("symmnets_v2_no_adv", "ft"),
            ("symmnets_v2_no_Lt", "fs"),
        ],
    )
    def test_auto_eval_head(self, method, head):
        assert ExperimentConfig(method=method).resolve_eval_head() == head

    def test_explicit_eval_head_wins(self):
        cfg = ExperimentConfig(method="symmnets_v2", eval_head="fs")
        assert cfg.resolve_eval_head() == "fs"

    def test_dump(self, tmp_path):
        path = tmp_path / "cfg.json"
        ExperimentConfig(method="mcdal_l1").dump(path)
        assert json.loads(path.read_text())["method"] == "mcdal_l1"

    def test_metrics_record_is_one_json_line(self):
        rec = MetricsRecord(
            epoch=0,
            method="source_only",
            seed=1,
            lr=0.01,
            lambda_p=0.0,
            zeta=None,
            xi=None,
            losses={"task": 1.0},
            source_acc=0.5,
            target_acc=0.25,
            divergence_proxy=None,
            clamp_events=0,
        )
        parsed = json.loads(rec.to_json_line())
        assert parsed["method"] == "source_only"
        assert parsed["zeta"] is None
        assert parsed["nan_flag"] is False
        assert "omega" in parsed and "unknown_acc" in parsed


def _easy_pair(seed=0):
    return gen_gauss_blobs(3, 40, shift_vector=(0.6, 0.3), seed=seed, std=0.5)


class TestTrainerRuns:
    def test_source_only_schema_and_schedules(self):
        cfg = ExperimentConfig(
            method="source_only", epochs=6, seed=0, schedules=Schedules(eta0=0.05)
        )
        res = run_experiment(_easy_pair(), cfg)
        assert res.converged
        assert len(res.metrics) == cfg.epochs
        keys = set(json.loads(res.metrics[0].to_json_line()))
        for rec in res.metrics:
            line = json.loads(rec.to_json_line())
            assert set(line) == keys
            p = rec.epoch / cfg.epochs
            assert rec.lr == lr_schedule(p, cfg.schedules)
            assert rec.lambda_p == lambda_schedule(p, cfg.schedules)
            assert rec.zeta is None and rec.xi is None
            assert rec.divergence_proxy is None
        assert 0.0 <= res.final_target_acc <= 1.0
        assert isinstance(res.model, MlpScorer)

    def test_adversarial_weight_follows_annealed_lambda(self):
        cfg = ExperimentConfig(
            method="mcdal_l1", epochs=5, seed=1, schedules=Schedules(eta0=0.05)
        )
        res = run_experiment(_easy_pair(), cfg)
        for rec in res.metrics:
            assert rec.zeta == rec.lambda_p
            assert isinstance(rec.divergence_proxy, float)
            assert {"task", "aux_task", "disagreement"} <= set(rec.losses)

    def test_fixed_adversarial_weight(self):
        cfg = ExperimentConfig(method="mcdal_ce", epochs=3, seed=1, zeta=0.25)
        res = run_experiment(_easy_pair(), cfg)
        assert all(rec.zeta == 0.25 for rec in res.metrics)

    def test_binary_domain_head_has_no_pairwise_proxy(self):
        cfg = ExperimentConfig(method="mcdal_dann", epochs=3, seed=2)
        res = run_experiment(_easy_pair(), cfg)
        assert all(rec.divergence_proxy is None for rec in res.metrics)

    def test_aux_task_weight_zero_silences_aux_loss(self):
        cfg = ExperimentConfig(method="mcdal_l1", epochs=3, seed=0, aux_task_weight=0.0)
        res = run_experiment(_easy_pair(), cfg)
        assert all(rec.losses["aux_task"] == 0.0 for rec in res.metrics)

    def test_partial_run_reports_omega_and_xi(self):
        pair = make_partial(gen_gauss_blobs(4, 40, (0.6, 0.3), seed=3, std=0.5), [1, 2])
        cfg = ExperimentConfig(
            method="symmnets_v2", epochs=4, seed=0, schedules=Schedules(eta0=0.05)
        )
        res = run_experiment(pair, cfg)
        for rec in res.metrics:
            assert rec.xi == rec.lambda_p
            assert isinstance(rec.omega, list) and len(rec.omega) == 4
            assert max(rec.omega) == pytest.approx(1.0)
        assert res.omega is not None and res.omega.shape == (4,)

    def test_openset_run_reports_split_accuracies(self):
        base = gen_gauss_blobs(6, 30, (0.6, 0.3), seed=4, std=0.8)
        pair = make_openset(base, [1, 2, 3], [4], [5, 6])
        cfg = ExperimentConfig(method="symmnets_v2", epochs=3, seed=0, nu=2.0)
        res = run_experiment(pair, cfg)
        assert res.os_all is not None and res.os_shared is not None
        assert res.unknown_acc is not None
        for rec in res.metrics:
            assert rec.os_all is not None and rec.unknown_acc is not None

    def test_stalled_run_is_flagged_not_converged(self):
        pair = gen_gauss_blobs(4, 50, shift_vector=(1.0, 0.5), seed=0, std=3.0)
        cfg = ExperimentConfig(
            method="source_only", epochs=4, seed=0, schedules=Schedules(eta0=1e-9)
        )
        res = run_experiment(pair, cfg)
        assert not res.converged

    def test_transient_dip_does_not_flag_convergence(self):
        # adversarial runs dip for an epoch when the annealed weight kicks
        # in; only sustained second-half failure should trip the flag
        from mcsda.synthdata import gen_rotated_moons

        pair = gen_rotated_moons(600, 600, 30.0, noise_sd=0.05, seed=0)
        cfg = ExperimentConfig(
            method="symmnets_v2",
            epochs=120,
            batch_size=32,
            seed=0,
            schedules=Schedules(eta0=0.05),
        )
        res = run_experiment(pair, cfg)
        half = [r.target_acc for r in res.metrics if r.epoch >= 60]
        assert min(half) < 0.75  # the fixture really does dip
        assert res.final_target_acc > 0.95
        assert res.converged

    def test_outdir_artifacts(self, tmp_path):
        cfg = ExperimentConfig(
            method="source_only", epochs=3, seed=7, outdir=str(tmp_path)
        )
        res = run_experiment(_easy_pair(), cfg)
        run_dir = tmp_path / "source_only_seed7"
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(l)["method"] == "source_only" for l in lines)
        assert json.loads((run_dir / "config.json").read_text())["seed"] == 7
        summary = json.loads((run_dir / "result.json").read_text())
        assert summary["final_target_acc"] == res.final_target_acc
        assert summary["notes"] == []
        reloaded = MlpScorer.load(run_dir / "model.ckpt")
        pts = _easy_pair().target.points
        assert np.array_equal(
            reloaded.forward(pts).raw["f"], res.model.forward(pts).raw["f"]
        )

    def test_nan_step_keeps_checkpoint_finite(self, tmp_path, monkeypatch):
        real_step = trainers._symmnets_step
        seen = {}

        def nan_batch_step(model, src_x, *args, **kwargs):
            seen.setdefault("before", {k: v.copy() for k, v in model.params().items()})
            bad = src_x.copy()
            bad[0, 0] = np.nan
            return real_step(model, bad, *args, **kwargs)

        monkeypatch.setattr(trainers, "_symmnets_step", nan_batch_step)
        cfg = ExperimentConfig(method="symmnets_v2", epochs=3, seed=0, outdir=str(tmp_path))
        res = run_experiment(_easy_pair(), cfg)
        assert len(res.metrics) == 1 and res.metrics[0].nan_flag
        assert not res.converged
        run_dir = tmp_path / "symmnets_v2_seed0"
        summary = json.loads((run_dir / "result.json").read_text())
        assert summary["notes"] == ["stopped at epoch 0: non-finite scores"]
        saved = MlpScorer.load(run_dir / "model.ckpt").params()
        for name, value in seen["before"].items():
            assert np.array_equal(res.model.params()[name], value), name
            assert np.array_equal(saved[name], value), name

    def test_interrupted_writes_leave_no_partial_files(self, tmp_path, monkeypatch):
        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        cfg = ExperimentConfig(method="source_only", epochs=1, seed=0, outdir=str(tmp_path))
        res = run_experiment(_easy_pair(), cfg)
        run_dir = tmp_path / "source_only_seed0"
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        # the checkpoint fails after its header and first parameters are written
        params = dict(res.model.params(), **{"psi1.w": Unwritable()})
        monkeypatch.setattr(res.model, "params", lambda: params)
        for d in (fresh, run_dir):
            with pytest.raises(OSError):
                res.model.save(d / "model.ckpt")
        monkeypatch.undo()
        # no file under the final name and no temporary file in a fresh
        # directory; an earlier run's files are left whole
        assert list(fresh.iterdir()) == []
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        # the summary fails partway through its JSON, after a good checkpoint
        for d in (fresh, run_dir):
            with pytest.raises(TypeError):
                trainers._finalize(cfg, _easy_pair(), res.model, res.metrics, d, notes=[object()])
        assert [p.name for p in fresh.iterdir()] == ["model.ckpt"]
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    @pytest.mark.parametrize(
        "method, domain",
        [
            pytest.param(m, "source", id=m)
            for m in ("source_only", "mcdal_kl", "mcdal_mdd_variant", "mcdal_dann", "symmnets_v2")
        ]
        + [
            pytest.param(m, "target", id="target-" + m)
            for m in (
                "mcdal_l1",
                "mcdal_kl",
                "mcdal_ce",
                "mcdal_mdd_variant",
                "mcdal_dann",
                "symmnets_v2",
            )
        ],
    )
    def test_nan_source_point_stops_every_method(self, method, domain, tmp_path):
        pair = _easy_pair()
        getattr(pair, domain).points[0, 0] = np.nan
        cfg = ExperimentConfig(method=method, epochs=3, seed=0, outdir=str(tmp_path))
        res = run_experiment(pair, cfg)
        assert len(res.metrics) == 1 and res.metrics[0].nan_flag
        assert res.metrics[0].divergence_proxy is None
        assert not res.converged
        assert res.notes == ["stopped at epoch 0: non-finite scores"]
        run_dir = tmp_path / ("%s_seed0" % method)
        assert json.loads((run_dir / "result.json").read_text())["converged"] is False
        saved = MlpScorer.load(run_dir / "model.ckpt").params()
        assert all(np.isfinite(v).all() for v in saved.values())
        # the one full batch held the point, so no step was taken
        heads = METHOD_ROWS[method].head_widths(pair.k)
        init = MlpScorer(2, heads, seed=trainers._seeds(cfg)[0])
        for name, value in init.params().items():
            assert np.array_equal(saved[name], value), name

    def test_nan_target_point_stops_partial_run(self, tmp_path):
        # the once-per-epoch class-weight forward sees the target before any step
        pair = make_partial(gen_gauss_blobs(4, 40, (0.6, 0.3), seed=3, std=0.5), [1, 2])
        pair.target.points[0, 0] = np.nan
        cfg = ExperimentConfig(method="symmnets_v2", epochs=2, seed=0, outdir=str(tmp_path))
        res = run_experiment(pair, cfg)
        assert len(res.metrics) == 1 and res.metrics[0].nan_flag
        assert res.metrics[0].divergence_proxy is None
        assert not res.converged
        assert res.notes == ["stopped at epoch 0: non-finite scores"]
        run_dir = tmp_path / "symmnets_v2_seed0"
        assert json.loads((run_dir / "result.json").read_text())["converged"] is False
        saved = MlpScorer.load(run_dir / "model.ckpt").params()
        assert all(np.isfinite(v).all() for v in saved.values())

    @pytest.mark.parametrize(
        "write",
        [
            lambda path, bad: _write_json(path, {"ok": 1, "bad": bad}),
            lambda path, bad: theory.TheoryReport(
                0, [theory.CheckResult("c", True, {"bad": bad})]
            ).write(path),
        ],
        ids=["write_json", "theory_report"],
    )
    def test_json_dump_that_raises_midway_leaves_no_file(self, write, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(TypeError):
            write(path, object())
        assert list(tmp_path.iterdir()) == []
        # an earlier file under the final name is left whole
        _write_json(path, {"ok": 1})
        with pytest.raises(TypeError):
            write(path, object())
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == '{\n  "ok": 1\n}\n'

    def test_every_method_name_dispatches(self):
        pair = _easy_pair()
        for method in METHODS:
            cfg = ExperimentConfig(method=method, epochs=1, seed=0)
            res = run_experiment(pair, cfg)
            assert res.method == method and len(res.metrics) == 1


def _clamping_runs():
    """(pair, config) of runs whose steps clamp: a learning rate of 3.0
    saturates the heads within a few epochs, and a full-batch limit of 1
    makes several mini-batch steps per epoch."""
    blobs = _easy_pair()
    partial = make_partial(gen_gauss_blobs(4, 40, (0.6, 0.3), seed=3, std=0.5), [1, 2])
    base = gen_gauss_blobs(6, 30, (0.6, 0.3), seed=4, std=0.8)
    openset = make_openset(base, [1, 2, 3], [4], [5, 6])
    runs = [(blobs, m) for m in METHODS] + [(partial, "symmnets_v2"), (openset, "symmnets_v2")]
    for pair, method in runs:
        cfg = ExperimentConfig(
            method=method, epochs=6, seed=0, batch_size=32, full_batch_limit=1, nu=2.0,
            schedules=Schedules(eta0=3.0),
        )
        yield pytest.param(pair, cfg, id="%s-%s" % (pair.mode, method))


class TestClampEvents:
    """An epoch's ``clamp_events`` is the sum of the counts its steps
    return; no guarded log outside the steps reaches it."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pair, cfg", _clamping_runs())
    def test_epoch_clamp_events_sum_their_steps_counts(self, pair, cfg, monkeypatch):
        per_epoch = []  # the counts each epoch's steps return
        real_family_step, real_batches = trainers._family_step, trainers._epoch_batches

        def counting_family_step(*args):
            step = real_family_step(*args)

            def counted(*step_args):
                out = step(*step_args)
                per_epoch[-1].append(out[2])
                return out

            return counted

        def batches(*args):
            per_epoch.append([])
            return real_batches(*args)

        monkeypatch.setattr(trainers, "_family_step", counting_family_step)
        monkeypatch.setattr(trainers, "_epoch_batches", batches)
        res = run_experiment(pair, cfg)
        assert [r.clamp_events for r in res.metrics] == [sum(c) for c in per_epoch]
        assert all(len(c) > 1 for c in per_epoch)
        assert all(isinstance(n, int) for c in per_epoch for n in c)
        assert sum(r.clamp_events for r in res.metrics) > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["mcdal_kl", "symmnets_v2"])
    def test_a_clamp_between_steps_leaves_the_records(self, method, monkeypatch):
        cfg = ExperimentConfig(method=method, epochs=6, seed=0, schedules=Schedules(eta0=3.0))
        want = [r.to_json_line() for r in run_experiment(_easy_pair(), cfg).metrics]
        real_gap = trainers._mcsd_gap

        def gap_after_a_clamp(*args):
            sur_kl([1.0, 0.0], [0.5, 0.5])  # a guarded log that clamps, between steps
            return real_gap(*args)

        monkeypatch.setattr(trainers, "_mcsd_gap", gap_after_a_clamp)
        got = [r.to_json_line() for r in run_experiment(_easy_pair(), cfg).metrics]
        assert got == want
        assert sum(json.loads(line)["clamp_events"] for line in got) > 0


class TestCli:
    @pytest.fixture()
    def blobs_csv(self, tmp_path):
        path = tmp_path / "blobs.csv"
        rc = main(
            [
                "gen-data", "--out", str(path), "--generator", "blobs",
                "--k", "3", "--n-per-class", "40", "--shift", "0.6,0.3",
                "--std", "0.5", "--seed", "0",
            ]
        )
        assert rc == 0
        return path

    def test_gen_data_writes_csv_and_manifest(self, blobs_csv):
        pair = read_csv(blobs_csv)
        assert pair.k == 3 and pair.source.n == 120

    def test_gen_data_openset_mode(self, tmp_path):
        path = tmp_path / "os.csv"
        rc = main(
            [
                "gen-data", "--out", str(path), "--generator", "blobs",
                "--k", "6", "--n-per-class", "30", "--mode", "openset",
                "--shared", "1,2,3", "--src-extra", "4", "--tgt-extra", "5,6",
            ]
        )
        assert rc == 0
        pair = read_csv(path)
        assert pair.mode == "openset" and pair.k_shared == 3

    def test_gen_data_partial_needs_kept_classes(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "gen-data", "--out", str(tmp_path / "p.csv"),
                    "--generator", "blobs", "--mode", "partial",
                ]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--out", "{out}", "--generator", "blobs", "--mode", "partial"],
            ["gen-data", "--out", "{out}", "--mode", "openset", "--shared", "1,2"],
            ["train", "--data", "{missing}", "--outdir", "{out}"],
            ["pac-report", "--data", "{missing}", "--out", "{out}"],
            ["train", "--data", "{truncated}", "--outdir", "{out}"],
            ["train", "--data", "{data}", "--config", "{missing}", "--outdir", "{out}"],
            ["train", "--data", "{data}", "--config", "{truncated}", "--outdir", "{out}"],
            ["pac-report", "--data", "{truncated}", "--out", "{out}"],
            ["pac-report", "--data", "{keyless}", "--out", "{out}"],
            ["pac-report", "--data", "{data}", "--grid-size", "0", "--out", "{out}"],
            ["pac-report", "--data", "{data}", "--sigma-draws", "1", "--out", "{out}"],
            ["pac-report", "--data", "{data}", "--delta", "0", "--out", "{out}"],
            ["pac-report", "--data", "{data}", "--delta", "1", "--out", "{out}"],
            ["pac-report", "--data", "{data}", "--delta", "nan", "--out", "{out}"],
            ["theory-check", "--trials", "0", "--out", "{out}"],
            ["surface", "--out", "{out}", "--which", "hat", "--rho", "0"],
            ["surface", "--out", "{out}", "--which", "tilde", "--rho", "1e-320"],
            ["pac-report", "--data", "{data}", "--rho", "1e-320", "--out", "{out}"],
            ["train", "--data", "{data}", "--rho", "1e-320", "--epochs", "1", "--outdir", "{out}"],
            ["gen-data", "--out", "{out}", "--seed", "-1"],
            ["theory-check", "--seed", "-1", "--out", "{out}"],
            ["pac-report", "--data", "{data}", "--seed", "-1", "--out", "{out}"],
            # values the library rejects: one BAD ARGUMENT line
            ["gen-data", "--out", "{out}", "--generator", "blobs", "--k", "1"],
            ["gen-data", "--out", "{out}", "--mode", "partial", "--kept", "1,2"],
            ["gen-data", "--out", "{out}", "--generator", "blobs", "--shift", "1,2,3"],
            ["gen-data", "--out", "{out}", "--noise", "-1"],
            ["gen-data", "--out", "{out}", "--n-src", "1"],
            ["surface", "--out", "{out}", "--which", "mcsd", "--rho", "1", "--fixed", "1,2"],
            ["surface", "--out", "{out}", "--which", "mcsd", "--rho", "1", "--span", "nan"],
        ],
        ids=lambda argv: "-".join(a.strip("-{}") for a in argv if a not in ("--out", "{out}")),
    )
    def test_failure_paths_exit_2(self, argv, blobs_csv, tmp_path, capsys):
        # a file cut inside its fourth data row, next to an intact manifest
        truncated = tmp_path / "truncated.csv"
        lines = blobs_csv.read_text().splitlines(keepends=True)
        truncated.write_text("".join(lines[:4]) + lines[4][:8])
        shutil.copy(manifest_path(blobs_csv), manifest_path(truncated))
        # an intact file whose manifest lacks the class count
        keyless = tmp_path / "keyless.csv"
        shutil.copy(blobs_csv, keyless)
        manifest = json.loads(manifest_path(blobs_csv).read_text())
        del manifest["k"]
        manifest_path(keyless).write_text(json.dumps(manifest))
        out = tmp_path / "out"
        files = {"data": blobs_csv, "missing": tmp_path / "missing.csv", "truncated": truncated}
        files["keyless"] = keyless
        argv = [a.format(out=out, **files) for a in argv]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == 2
        assert "Traceback" not in captured.out + captured.err
        # argparse's usage error goes to stderr; every other path prints one line
        lines = captured.out.splitlines()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("BAD ")), lines
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--out", "{out}"],
            ["surface", "--out", "{out}", "--which", "mcsd", "--rho", "1", "--resolution", "3"],
            ["pac-report", "--data", "{data}", "--sigma-draws", "20", "--out", "{out}"],
            ["theory-check", "--trials", "100", "--universes", "1", "--out", "{out}"],
            ["train", "--data", "{data}", "--epochs", "1", "--outdir", "{out}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output_exits_2(self, argv, blobs_csv, tmp_path, capsys):
        # nothing can be created below a regular file
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / "out"
        before = sorted(tmp_path.iterdir())
        rc = main([a.format(out=out, data=blobs_csv) for a in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert "Traceback" not in captured.out + captured.err
        # one line: theory-check tries the path before any check runs
        [line] = captured.out.splitlines()
        assert line.startswith("BAD ARGUMENT: cannot write %s" % out), line
        assert sorted(tmp_path.iterdir()) == before and blocker.read_text() == "kept\n"

    def test_theory_check_out_naming_a_directory_exits_2_before_the_suite(self, tmp_path, capsys):
        out = tmp_path / "reports"
        out.mkdir()
        argv = ["theory-check", "--trials", "100", "--universes", "1", "--out", str(out)]
        assert main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["BAD ARGUMENT: cannot write %s: Is a directory" % out]
        assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "pac-report"])
    @pytest.mark.parametrize(
        "manifest",
        [[], "str", {"k": None}, {"k": 3.5}, {"k_shared": None}],
        ids=["list", "string", "null_k", "fractional_k", "null_k_shared"],
    )
    def test_malformed_sidecar_is_bad_data(self, command, manifest, blobs_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        shutil.copy(blobs_csv, bad)
        if isinstance(manifest, dict):
            manifest = json.loads(manifest_path(blobs_csv).read_text()) | manifest
        manifest_path(bad).write_text(json.dumps(manifest))
        rc = main([command, "--data", str(bad)] + (["--epochs", "1"] if command == "train" else []))
        captured = capsys.readouterr()
        assert rc == 2 and "Traceback" not in captured.out + captured.err
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("BAD DATA: "), lines

    def test_train_exit_codes(self, blobs_csv, tmp_path):
        rc = main(
            [
                "train", "--data", str(blobs_csv), "--method", "source_only",
                "--epochs", "4", "--seed", "0", "--eta0", "0.05",
            ]
        )
        assert rc == 0
        hard = tmp_path / "hard.csv"
        main(
            [
                "gen-data", "--out", str(hard), "--generator", "blobs",
                "--k", "4", "--n-per-class", "50", "--std", "3.0", "--seed", "0",
            ]
        )
        rc = main(
            [
                "train", "--data", str(hard), "--method", "source_only",
                "--epochs", "4", "--seed", "0", "--eta0", "1e-9",
            ]
        )
        assert rc == 3

    def test_train_bad_config_exits_2(self, blobs_csv, tmp_path, capsys):
        runs = tmp_path / "runs"
        unknown_key, invalid_value = {"epochz": 3}, {"epochs": 0}
        non_finite = {"method": "mcdal_kl", "rho": float("nan"), "outdir": str(runs)}
        # a head the method does not build
        foreign_head = {"method": "symmnets_v2", "eval_head": "f", "outdir": str(runs)}
        for bad in (unknown_key, invalid_value, non_finite, foreign_head):
            cfg_path = tmp_path / "bad.json"
            cfg_path.write_text(json.dumps(bad))
            rc = main(["train", "--data", str(blobs_csv), "--config", str(cfg_path)])
            assert rc == 2
            out = capsys.readouterr().out.strip().splitlines()
            assert len(out) == 1 and out[0].startswith("BAD CONFIG: ")
        # an empty path is a file that does not exist, not the default config
        rc = main(["train", "--data", str(blobs_csv), "--config", "", "--outdir", str(runs)])
        assert rc == 2
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("BAD CONFIG: ")
        for method, head in (("mcdal_kl", "ft"), ("source_only", "fs")):
            argv = ["--method", method, "--eval-head", head, "--outdir", str(runs)]
            assert main(["train", "--data", str(blobs_csv), *argv]) == 2
            out = capsys.readouterr().out.strip().splitlines()
            assert len(out) == 1 and out[0].startswith("BAD CONFIG: ")
        assert not runs.exists()

    @pytest.mark.parametrize(
        "config,flags",
        [
            ([1, 2], ["--epochs", "1"]),
            ("text", ["--epochs", "1"]),
            ({"schedules": 5}, []),
            ({"schedules": "abc"}, ["--eta0", "0.1"]),
            ({"outdir": 5}, []),
            ({"zeta_on_adversary": "no"}, []),
        ],
        ids=["list", "string", "int_schedules", "str_schedules", "int_outdir", "str_flag"],
    )
    def test_train_config_of_the_wrong_type_exits_2(
        self, config, flags, blobs_csv, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # where a relative run directory would go
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        before = sorted(tmp_path.iterdir())
        rc = main(["train", "--data", str(blobs_csv), "--config", str(cfg_path), *flags])
        captured = capsys.readouterr()
        assert rc == 2 and "Traceback" not in captured.out + captured.err
        [line] = captured.out.splitlines()
        assert line.startswith("BAD CONFIG: "), line
        assert sorted(tmp_path.iterdir()) == before  # no run directory

    def test_train_bound_violation_exits_2(self, blobs_csv, tmp_path, capsys, monkeypatch):
        def violated(*args, **kwargs):
            raise ArithmeticError("disagreement bound violated on a source batch: 1 > 0")

        monkeypatch.setattr(trainers, "_symmnets_step", violated)
        out = tmp_path / "runs"
        rc = main(
            [
                "train", "--data", str(blobs_csv), "--method", "symmnets_v2",
                "--epochs", "2", "--outdir", str(out),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().out.startswith("BOUND VIOLATED: disagreement bound")
        assert (out / "symmnets_v2_seed0" / "metrics.jsonl").read_text() == ""

    def test_bound_violation_leaves_config_and_finished_epochs(
        self, blobs_csv, tmp_path, capsys, monkeypatch
    ):
        real_step = trainers._symmnets_step
        calls = []

        def violated_in_second_epoch(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:  # the blobs pair fits one full batch per epoch
                raise ArithmeticError("disagreement bound violated on a source batch: 1 > 0")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(trainers, "_symmnets_step", violated_in_second_epoch)
        out = tmp_path / "runs"
        rc = main(
            [
                "train", "--data", str(blobs_csv), "--method", "symmnets_v2",
                "--epochs", "3", "--outdir", str(out),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().out.startswith("BOUND VIOLATED: ")
        run_dir = out / "symmnets_v2_seed0"
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "metrics.jsonl"]
        assert json.loads((run_dir / "config.json").read_text())["epochs"] == 3
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [0]

    def test_train_config_file_with_flag_overrides(self, blobs_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"method": "source_only", "epochs": 12, "schedules": {"eta0": 0.05}})
        )
        out = tmp_path / "runs"
        rc = main(
            [
                "train", "--data", str(blobs_csv), "--config", str(cfg_path),
                "--epochs", "8", "--zeta-on-adversary", "--outdir", str(out),
            ]
        )
        assert rc == 0
        dumped = json.loads((out / "source_only_seed0" / "config.json").read_text())
        assert dumped["epochs"] == 8  # flag beats file
        assert dumped["schedules"]["eta0"] == 0.05  # file beats default
        assert dumped["zeta_on_adversary"] is True
        lines = (out / "source_only_seed0" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 8

    def test_theory_check_cli(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["theory-check", "--trials", "150", "--universes", "3", "--out", str(report)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count(" PASS") == 13
        assert "all checks passed" in out
        assert json.loads(report.read_text())["all_passed"] is True

    def test_theory_check_prints_warnings_as_notes(self, capsys, monkeypatch):
        warning = "ascent still improving after 80 steps"
        ascent = theory.mcsd_divergence_adversarial

        def warned(*args, **kwargs):
            return dataclasses.replace(ascent(*args, **kwargs), warning=warning)

        argv = ["theory-check", "--trials", "100", "--universes", "2"]
        assert main(argv) == 0
        assert "note:" not in capsys.readouterr().out
        monkeypatch.setattr(theory, "mcsd_divergence_adversarial", warned)
        assert main(argv) == 0
        notes = [l for l in capsys.readouterr().out.splitlines() if l.startswith("note:")]
        assert notes == ["note: adversarial_estimator: " + warning]

    def test_surface_cli(self, tmp_path):
        path = tmp_path / "hat.csv"
        rc = main(
            [
                "surface", "--out", str(path), "--which", "hat",
                "--rho", "5", "--resolution", "11",
            ]
        )
        assert rc == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 122
        assert {float(l.split(",")[2]) for l in lines[1:]} <= {0.0, 1.0}

    def test_surface_span_that_overflows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "mcsd.csv"
        argv = ["surface", "--which", "mcsd", "--rho", "1", "--span", "1e308",
                "--resolution", "3", "--out", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        assert rc == 2
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith("BAD ARGUMENT: span must be"), line
        assert not path.exists()

    def test_pac_report_cli(self, blobs_csv, tmp_path):
        report = tmp_path / "pac.json"
        rc = main(
            [
                "pac-report", "--data", str(blobs_csv), "--rho", "1.0",
                "--grid-size", "6", "--sigma-draws", "300", "--out", str(report),
            ]
        )
        assert rc == 0
        parsed = json.loads(report.read_text())
        assert parsed["holds"] is True
        assert parsed["lambda"] >= 0.0
        assert parsed["lhs_target_err"] <= parsed["rhs_total"]

    def test_pac_report_evaluates_the_grid_once_per_sample(
        self, blobs_csv, tmp_path, monkeypatch
    ):
        calls = []
        evaluate = ScorerGrid.evaluate

        def counted(grid, points):
            scores = evaluate(grid, points)
            calls.append(scores.shape[1])
            return scores

        monkeypatch.setattr(ScorerGrid, "evaluate", counted)
        rc = main(["pac-report", "--data", str(blobs_csv), "--out", str(tmp_path / "pac.json")])
        assert rc == 0
        pair = read_csv(blobs_csv)
        assert calls == [pair.source.n, pair.target.n]


GUARDED = (
    "softmax",
    "log_loss_with_grads",
    "mcsd_rows",
    "phi_distance",
    "disagreement_bound_gap",
    "_check_scores",
)


def _raise_on_public_checks(monkeypatch):
    """Replace each validating public function in GUARDED by a raising stub in
    every mcsda module that binds it."""

    def stub(name):
        def raising(*args, **kwargs):
            raise AssertionError("%s called on data that is already checked" % name)

        return raising

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("mcsda"):
            for name in GUARDED:
                if name in vars(mod):
                    monkeypatch.setattr(mod, name, stub(name))


class TestChecksAtThePublicEdge:
    """Code that holds checked data calls kernels, not the public functions
    that would check the data again, and computes the same values."""

    @staticmethod
    def exercise() -> list:
        pair = _easy_pair()
        xs, ys, xt = pair.source.points[:24], pair.source.labels[:24], pair.target.points[:24]
        d = xs.shape[1]
        out = []
        for method in METHODS:
            cfg = ExperimentConfig(method=method, rho=2.0)  # SymmNets steps bind rho
            model = MlpScorer(d, METHOD_ROWS[method].head_widths(pair.k), seed=0)
            step = trainers._family_step(cfg, model)
            values, grads, clamps = step(model, xs, ys - 1, xt, 0.5, np.ones(pair.k))
            if METHOD_ROWS[method].family.name == "symmnets":
                assert {"bound_lhs", "bound_rhs"} <= set(values)
            out += list(values.values()) + [grads, clamps]
        heads = METHOD_ROWS["symmnets_v2"].proxy
        model = MlpScorer(d, METHOD_ROWS["symmnets_v2"].head_widths(pair.k), seed=1)
        src, tgt = (model.forward(s.points, heads=heads).raw for s in (pair.source, pair.target))
        out.append(trainers._mcsd_gap(src, tgt, heads, 2.0))
        out += [emit_surface_grid(which, 5.0, resolution=9).values for which in SURFACE_MEASURES]
        return out

    def test_checked_paths_run_on_kernels_with_the_same_values(self, monkeypatch):
        want = self.exercise()
        _raise_on_public_checks(monkeypatch)
        got = self.exercise()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestBenchmarkTracing:
    def test_every_traced_name_resolves(self):
        # the traced benchmark run wraps these names; a rename must fail here
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans._TARGETS
        for modname, attr, _, _ in spans._TARGETS:
            obj = importlib.import_module(modname)
            for part in attr.split("."):
                assert hasattr(obj, part), "%s.%s" % (modname, attr)
                obj = getattr(obj, part)
            assert callable(obj), "%s.%s" % (modname, attr)

    def test_traced_runs_count_one_sgd_step_per_step(self):
        # what ``perfbench/run.py --trace 1`` does, in a fresh process:
        # install() wraps every target (a method as found in its class's
        # dict), and the traced runs must count one ``neural.sgd_step`` span
        # per SGD step of the benchmark's own step rule
        root = Path(__file__).resolve().parents[1]
        script = textwrap.dedent(
            """
            import json, sys
            sys.path.insert(0, sys.argv[1])
            import mcsda.harness.cli
            from mcsda.harness.config import ExperimentConfig
            from mcsda.harness.trainers import run_experiment
            from mcsda.synthdata import gen_gauss_blobs
            from spans import Tracer, install
            from worker import expected_steps

            tracer = Tracer()
            install(tracer, full_rows=33)
            pair = gen_gauss_blobs(3, 40, shift_vector=(0.6, 0.3), seed=0, std=0.5)
            steps = 0
            for method in ("source_only", "mcdal_kl", "symmnets_v2"):
                cfg = ExperimentConfig(method=method, epochs=2, batch_size=32,
                                       full_batch_limit=64)
                run_experiment(pair, cfg)
                steps += expected_steps(pair, cfg)
            sgd = tracer.name_id("neural.sgd_step")
            spans = sum(n == sgd for n in tracer.name)
            print(json.dumps({"steps": steps, "sgd_step_spans": spans}))
            """
        )
        paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        proc = subprocess.run(
            [sys.executable, "-c", script, str(root / "perfbench")],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout.splitlines()[-1])
        assert counts["sgd_step_spans"] == counts["steps"] == 24


class TestOneOptimizerStepPerSgdStep:
    @pytest.mark.parametrize("method", ["source_only", "mcdal_kl", "symmnets_v2"])
    def test_short_run(self, method, monkeypatch):
        shapes = []
        real = SgdMomentum.step

        def counted(opt, grad, lr):
            shapes.append(np.shape(grad))
            return real(opt, grad, lr)

        monkeypatch.setattr(SgdMomentum, "step", counted)
        # 120 points per domain in batches of 32: four SGD steps per epoch
        cfg = ExperimentConfig(method=method, epochs=3, batch_size=32, full_batch_limit=64)
        res = run_experiment(_easy_pair(), cfg)
        assert len(res.metrics) == 3 and not any(r.nan_flag for r in res.metrics)
        assert shapes == [res.model.theta.shape] * 12


class TestPartialReweightingHelps:
    """Estimated class weights beat flat weights on a hard partial pair.

    Design chosen so the excluded source classes genuinely confuse the
    target-path head at evaluation time unless they are down-weighted:
    four heavily overlapping classes (sd 2.2), target keeping only two.
    Ten-seed means, fully deterministic.
    """

    def test_estimated_weights_beat_flat_weights(self):
        active, flat = [], []
        for seed in range(10):
            pair = make_partial(
                gen_gauss_blobs(4, 100, (1.0, 0.5), seed=seed, std=2.2), [1, 2]
            )
            for xi, sink in ((None, active), (0.0, flat)):
                cfg = ExperimentConfig(
                    method="symmnets_v2",
                    epochs=60,
                    batch_size=32,
                    seed=seed,
                    xi=xi,
                    schedules=Schedules(eta0=0.05),
                )
                sink.append(run_experiment(pair, cfg).final_target_acc)
        assert np.mean(active) > np.mean(flat)
        assert np.mean(active) > 0.85 and np.mean(flat) > 0.80


@pytest.mark.slow
class TestOversamplingTrend:
    """Unknown-class accuracy rises with the oversampling factor.

    Ten-seed means per factor on a frozen open-set design.  The unknown
    rate may wobble a step by a couple of points at the high end (batches
    starve of shared classes), so each step gets a 0.02 allowance while
    the endpoint comparison stays strict; the shared-class rate must be
    non-increasing from some factor onward, the usual price of routing
    more mass to the super class.
    """

    def test_unknown_accuracy_rises_and_shared_accuracy_pays(self):
        factors = (1.0, 2.0, 4.0, 6.0, 8.0)
        unknown = {nu: [] for nu in factors}
        shared = {nu: [] for nu in factors}
        for seed in range(10):
            base = gen_gauss_blobs(6, 150, (1.0, 0.5), seed=seed, std=1.5)
            pair = make_openset(base, [1, 2, 3], [4], [5, 6])
            for nu in factors:
                cfg = ExperimentConfig(
                    method="symmnets_v2",
                    epochs=80,
                    batch_size=64,
                    seed=seed,
                    nu=nu,
                    schedules=Schedules(eta0=0.05),
                )
                res = run_experiment(pair, cfg)
                unknown[nu].append(res.unknown_acc)
                shared[nu].append(res.os_shared)
        u = [float(np.mean(unknown[nu])) for nu in factors]
        s = [float(np.mean(shared[nu])) for nu in factors]
        for lo, hi in zip(u, u[1:]):
            assert hi >= lo - 0.02
        assert u[factors.index(6.0)] > u[factors.index(1.0)]
        tail_ok = any(
            all(b <= a + 1e-9 for a, b in zip(s[i:], s[i + 1 :])) for i in range(3)
        )
        assert tail_ok
