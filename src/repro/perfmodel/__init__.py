"""The paper's GPU performance model (Eqs. 1-4), MFLUPS conversions, and
the piecewise strong-scaling schedules."""

from .attribution import (
    PhaseAttribution,
    attribute_phases,
    machine_reference,
)
from .mflups import iteration_time_from_mflups, mflups, speedup
from .model import (
    BYTES_PER_UPDATE_D3Q19,
    HALO_BYTES_PER_SITE_D3Q19,
    OverlapPrediction,
    PredictedIteration,
    comm_surface_sites,
    face_count,
    predict_iteration,
    predict_iteration_overlap,
    streamcollide_time,
)
from .fit import FitResult, fit_sc_efficiency
from .sensitivity import (
    Sensitivity,
    dominant_resource,
    sensitivity_analysis,
    sensitivity_sweep,
)
from .scaling import (
    AORTA_SPACINGS_MM,
    CYLINDER_SCALES,
    SECTION_COUNTS,
    PiecewiseSchedule,
    ScalingPoint,
    aorta_schedule,
    cylinder_schedule,
)

__all__ = [
    "streamcollide_time",
    "face_count",
    "comm_surface_sites",
    "predict_iteration",
    "PredictedIteration",
    "predict_iteration_overlap",
    "OverlapPrediction",
    "BYTES_PER_UPDATE_D3Q19",
    "HALO_BYTES_PER_SITE_D3Q19",
    "PhaseAttribution",
    "attribute_phases",
    "machine_reference",
    "mflups",
    "iteration_time_from_mflups",
    "speedup",
    "ScalingPoint",
    "PiecewiseSchedule",
    "cylinder_schedule",
    "aorta_schedule",
    "CYLINDER_SCALES",
    "AORTA_SPACINGS_MM",
    "SECTION_COUNTS",
    "FitResult",
    "fit_sc_efficiency",
    "Sensitivity",
    "sensitivity_analysis",
    "sensitivity_sweep",
    "dominant_resource",
]
