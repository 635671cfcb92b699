"""Analysis drivers behind the paper's figures: scaling sweeps,
efficiency comparisons, and runtime-composition breakdowns."""

from .ablation import AblationResult, decomposition_ablation, run_ablation
from .composition import COMPOSITION_KEYS, CompositionPoint, composition_series
from .crossover import Crossover, find_crossovers, first_crossover
from .report import full_report
from .portability import (
    PortabilityReport,
    performance_portability,
    study_portability,
)
from .sweep import (
    SUNSPOT_MAX_GPUS,
    BackendComparison,
    ScalingSeries,
    backend_comparison,
    native_hardware_comparison,
    workload_schedule,
)
from .tables import format_mflups, render_series, render_table

__all__ = [
    "AblationResult",
    "run_ablation",
    "decomposition_ablation",
    "ScalingSeries",
    "BackendComparison",
    "backend_comparison",
    "native_hardware_comparison",
    "workload_schedule",
    "SUNSPOT_MAX_GPUS",
    "full_report",
    "Crossover",
    "find_crossovers",
    "first_crossover",
    "performance_portability",
    "PortabilityReport",
    "study_portability",
    "CompositionPoint",
    "composition_series",
    "COMPOSITION_KEYS",
    "render_table",
    "render_series",
    "format_mflups",
]
