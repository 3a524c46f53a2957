"""Command-line front end.

Five subcommands: ``gen-data`` writes a synthetic domain pair to CSV,
``train`` runs one experiment on such a file, ``theory-check`` runs the
brute-force verification suite, ``surface`` dumps a disagreement surface,
and ``pac-report`` assembles the finite-sample bound on a data file.

Exit codes: 0 on success; 2 on a bad argument (argparse's usage error,
also for out-of-range numbers and missing mode flags; ``BAD ARGUMENT``
when ``gen-data`` or ``surface`` rejects a combination of values, when
``pac-report``'s ``--rho`` is so small that the bound's right side
overflows, or when an output path cannot be written, with no file left
under its name and, for ``theory-check``, no check run), a bad training
config or config file (``BAD CONFIG``, with no run directory made: no such
file, bad JSON, not a JSON object, or a field unknown, out of range or of
the wrong type), a missing or malformed data file or sidecar
(``BAD DATA``), or a failed theory check or bound; 3 when training does
not converge.  Notes (``note: ...``) follow a result: why a run stopped,
or a theory check's warning, such as an ascent still improving at its step
budget.  Argument defaults mirror the library defaults; ``train`` can
also read a JSON config file, whose values the flags given override
(``--eta0`` the one in its ``schedules``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from ..divergence import BoundViolation, SampleSet, ScorerGrid, linear_scorer, pac_bound_report
from ..margin import _check_count, _check_real, _check_rho
from ..neural import _write_json
from ..synthdata import gen_gauss_blobs, gen_rotated_moons, make_openset, make_partial, read_csv, write_csv
from .config import EVAL_HEADS, METHODS, ExperimentConfig
from .surface import SURFACE_MEASURES, emit_surface_grid
from .theory import run_theory_checks
from .trainers import run_experiment

__all__ = ["main"]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _number(kind: type, check):
    """An argparse type: ``check``, one of ``margin``'s checkers, on the value
    ``kind`` parses; argparse turns a rejection into exit 2."""

    def parse(text: str):
        v = kind(text)
        try:
            return check(v)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = kind.__name__
    return parse


def _count(least: int):
    """An argparse type: an integer of at least ``least``."""
    return _number(int, lambda v: _check_count(v, "value", least))


def _read_data(path):
    """The domain pair in a data file, or None after a ``BAD DATA`` line."""
    try:
        return read_csv(path)
    except (OSError, KeyError, ValueError) as exc:  # KeyError: a manifest key is missing
        print("BAD DATA: %s" % exc)
        return None


def _generate(args):
    """The domain pair ``gen-data`` asks for."""
    if args.generator == "moons":
        pair = gen_rotated_moons(
            args.n_src, args.n_tgt, args.angle, noise_sd=args.noise, seed=args.seed
        )
    else:
        pair = gen_gauss_blobs(
            args.k,
            args.n_per_class,
            shift_vector=_float_list(args.shift),
            seed=args.seed,
            std=args.std,
            radius=args.radius,
        )
    if args.mode == "partial":
        if not args.kept:
            args.error("--kept is required for partial mode")
        pair = make_partial(pair, _int_list(args.kept))
    elif args.mode == "openset":
        if not (args.shared and args.src_extra and args.tgt_extra):
            args.error("--shared, --src-extra and --tgt-extra are required for openset mode")
        pair = make_openset(
            pair, _int_list(args.shared), _int_list(args.src_extra), _int_list(args.tgt_extra)
        )
    return pair


def _cmd_gen_data(args) -> int:
    try:
        pair = _generate(args)
    except ValueError as exc:  # a value the generators reject
        print("BAD ARGUMENT: %s" % exc)
        return 2
    write_csv(pair, args.out)
    print(
        "wrote %s (%s, k=%d, k_shared=%d, %d source / %d target points)"
        % (args.out, pair.mode, pair.k, pair.k_shared, pair.source.n, pair.target.n)
    )
    return 0


def _cmd_train(args) -> int:
    # the parser suppresses the defaults of the config flags, so ``args``
    # holds exactly the flags given, and those beat the file's values
    flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if f.name in args}
    try:
        data = {}
        if args.config is not None:  # an empty path is a missing file
            with open(args.config) as fh:
                data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a config file must hold a JSON object, got %s" % type(data).__name__)
        schedules = data.get("schedules", {})
        if "eta0" in args and isinstance(schedules, dict):  # else the config rejects it
            flags["schedules"] = {**schedules, "eta0": args.eta0}
        cfg = ExperimentConfig.from_json({**data, **flags})
    except (OSError, TypeError, ValueError) as exc:  # OSError: a missing file
        print("BAD CONFIG: %s" % exc)
        return 2
    pair = _read_data(args.data)
    if pair is None:
        return 2
    try:
        result = run_experiment(pair, cfg)
    except BoundViolation as exc:  # SymmNets' per-step disagreement bound
        print("BOUND VIOLATED: %s" % exc)
        return 2
    line = "%s seed=%d converged=%s source_acc=%.4f target_acc=%.4f" % (
        result.method,
        result.seed,
        result.converged,
        result.final_source_acc,
        result.final_target_acc,
    )
    if result.os_all is not None:
        line += " os_all=%.4f os_shared=%.4f unknown=%.4f" % (
            result.os_all,
            result.os_shared,
            result.unknown_acc,
        )
    print(line)
    for note in result.notes:
        print("note: %s" % note)
    return 0 if result.converged else 3


def _cmd_theory_check(args) -> int:
    if args.out:  # an unwritable report path fails now, not after the suite
        if Path(args.out).is_dir():
            raise IsADirectoryError("Is a directory")
        tempfile.TemporaryFile(dir=Path(args.out).parent).close()
    report = run_theory_checks(seed=args.seed, trials=args.trials, n_universes=args.universes)
    for check in report.checks:
        print("%-32s %s" % (check.name, "PASS" if check.passed else "FAIL"))
        if not check.passed:
            print("    %s" % json.dumps(check.details, sort_keys=True, default=str))
        for key, value in check.details.items():
            if key.endswith("_warning") and value is not None:
                print("note: %s: %s" % (check.name, value))
    if args.out:
        report.write(args.out)
        print("report written to %s" % args.out)
    print("all checks passed" if report.all_passed else "THEORY CHECKS FAILED")
    return 0 if report.all_passed else 2


def _cmd_surface(args) -> int:
    try:
        grid = emit_surface_grid(
            args.which,
            args.rho,
            resolution=args.resolution,
            span=args.span,
            fixed=tuple(_float_list(args.fixed)),
            direction=args.direction,
        )
    except ValueError as exc:
        print("BAD ARGUMENT: %s" % exc)
        return 2
    grid.write_csv(args.out)
    print(
        "wrote %s (%s, rho=%g, %dx%d values in [%g, %g])"
        % (
            args.out,
            args.which,
            args.rho,
            grid.values.shape[0],
            grid.values.shape[1],
            grid.values.min(),
            grid.values.max(),
        )
    )
    return 0


def _cmd_pac_report(args) -> int:
    pair = _read_data(args.data)
    if pair is None:
        return 2
    tgt = SampleSet(pair.target.points, pair.eval_target_labels())
    rng = np.random.default_rng(args.seed)
    spread = max(float(pair.source.points.std()), 1e-6)
    scorers = [
        linear_scorer(
            rng.normal(0.0, 1.0 / spread, size=(pair.k, pair.source.points.shape[1])),
            rng.normal(0.0, 0.5, size=pair.k),
        )
        for _ in range(args.grid_size)
    ]
    grid = ScorerGrid(scorers, pair.k)
    try:
        report = pac_bound_report(
            pair.source,
            tgt,
            grid,
            rho=args.rho,
            delta=args.delta,
            sigma_draws=args.sigma_draws,
            seed=args.seed,
        )
    except BoundViolation as exc:
        print("BOUND VIOLATED: %s" % exc)
        return 2
    except ValueError as exc:  # a rho so small that the bound overflows
        print("BAD ARGUMENT: %s" % exc)
        return 2
    if args.out:
        _write_json(args.out, report.to_json())
        print("report written to %s" % args.out)
    print(
        "target_err=%.4f <= rhs=%.4f (divergence=%.4f, lambda=%.4f, holds=%s)"
        % (report.lhs_target_err, report.rhs_total, report.divergence, report.lambda_joint, report.holds)
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcsda",
        description="Margin-based scoring disagreement: data, training, checks, surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic domain pair to CSV")
    g.add_argument("--out", required=True)
    g.add_argument("--generator", choices=("moons", "blobs"), default="moons")
    g.add_argument("--mode", choices=("closed", "partial", "openset"), default="closed")
    g.add_argument("--seed", type=_count(0), default=0)
    g.add_argument("--n-src", type=int, default=600, help="moons: source sample size")
    g.add_argument("--n-tgt", type=int, default=600, help="moons: target sample size")
    g.add_argument("--angle", type=float, default=30.0, help="moons: target rotation, degrees")
    g.add_argument("--noise", type=float, default=0.1, help="moons: coordinate noise sd")
    g.add_argument("--k", type=int, default=4, help="blobs: class count")
    g.add_argument("--n-per-class", type=int, default=150, help="blobs: points per class")
    g.add_argument("--shift", default="1.0,0.5", help="blobs: target mean shift, comma separated")
    g.add_argument("--std", type=float, default=1.0, help="blobs: per-class sd")
    g.add_argument("--radius", type=float, default=4.0, help="blobs: class-mean ring radius")
    g.add_argument("--kept", default=None, help="partial: classes the target keeps, e.g. 1,2")
    g.add_argument("--shared", default=None, help="openset: shared classes, e.g. 1,2,3")
    g.add_argument("--src-extra", default=None, help="openset: source-only classes")
    g.add_argument("--tgt-extra", default=None, help="openset: target-only (unknown) classes")
    g.set_defaults(func=_cmd_gen_data, error=g.error)

    t = sub.add_parser(
        "train", help="run one experiment on a data CSV", argument_default=argparse.SUPPRESS
    )
    t.add_argument("--data", required=True)
    t.add_argument("--config", default=None, help="JSON config; flags below override it")
    t.add_argument("--method", choices=METHODS)
    t.add_argument("--rho", type=float)
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--seed", type=int)
    t.add_argument("--zeta", type=float)
    t.add_argument("--xi", type=float)
    t.add_argument("--nu", type=float)
    t.add_argument("--eta0", type=float, help="base learning rate")
    t.add_argument("--aux-task-weight", type=float, dest="aux_task_weight")
    t.add_argument("--eval-head", choices=EVAL_HEADS, dest="eval_head")
    t.add_argument("--zeta-on-adversary", action="store_true", dest="zeta_on_adversary")
    t.add_argument("--outdir")
    t.set_defaults(func=_cmd_train)

    c = sub.add_parser("theory-check", help="run the brute-force verification suite")
    c.add_argument("--seed", type=_count(0), default=0)
    c.add_argument("--trials", type=_count(1), default=2000)
    c.add_argument("--universes", type=_count(1), default=20)
    c.add_argument("--out", default=None, help="optional JSON report path")
    c.set_defaults(func=_cmd_theory_check)

    s = sub.add_parser("surface", help="dump one disagreement surface to CSV")
    s.add_argument("--out", required=True)
    s.add_argument("--which", choices=SURFACE_MEASURES, required=True)
    s.add_argument("--rho", type=_number(float, _check_rho), required=True)
    s.add_argument("--resolution", type=_count(2), default=121)
    s.add_argument("--span", type=float, default=15.0)
    s.add_argument("--fixed", default="10,-5,-5", help="pinned scores, comma separated")
    s.add_argument("--direction", choices=("fix_first", "fix_second"), default="fix_first")
    s.set_defaults(func=_cmd_surface)

    p = sub.add_parser("pac-report", help="finite-sample bound report on a data CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--rho", type=_number(float, _check_rho), default=1.0)
    delta = _number(float, lambda v: _check_real(v, "delta", 0, 1, open_low=True, open_high=True))
    p.add_argument("--delta", type=delta, default=0.05)
    p.add_argument("--grid-size", type=_count(1), dest="grid_size", default=12)
    p.add_argument("--sigma-draws", type=_count(2), dest="sigma_draws", default=2000)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=_cmd_pac_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # the commands catch their reads, so this is an output that cannot be
        # written: ``--out``, or for ``train`` a path in its run directory
        path = getattr(args, "out", None) or exc.filename
        print("BAD ARGUMENT: cannot write %s: %s" % (path, exc.strerror or exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
