"""Experiment harness: configs, trainers, theory checks, surfaces, CLI."""

from .config import (
    METHODS,
    SURROGATES,
    ExperimentConfig,
    MetricsRecord,
)
from .trainers import RunResult, run_experiment
from .theory import TheoryReport, run_theory_checks
from .surface import SurfaceGrid, emit_surface_grid

__all__ = [
    "METHODS",
    "SURROGATES",
    "ExperimentConfig",
    "MetricsRecord",
    "RunResult",
    "run_experiment",
    "TheoryReport",
    "run_theory_checks",
    "SurfaceGrid",
    "emit_surface_grid",
]
