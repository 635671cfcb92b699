"""The paper's GPU performance model (Eqs. 1-4), its hardware-knob
sensitivity, and the piecewise strong-scaling schedules.

MFLUPS is defined once, in :mod:`repro.perf.efficiency`, and re-exported
here; the byte prices come from :mod:`repro.perf.calibrate` and
:mod:`repro.perf.simulate`.
"""

from ..perf.efficiency import mflups
from .attribution import (
    PhaseAttribution,
    attribute_phases,
    machine_reference,
)
from .model import (
    BYTES_PER_UPDATE_D3Q19,
    OverlapPrediction,
    PredictedIteration,
    comm_surface_sites,
    face_count,
    predict_iteration,
    predict_iteration_overlap,
    streamcollide_time,
)
from .sensitivity import (
    Sensitivity,
    dominant_resource,
    sensitivity_analysis,
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
    "PhaseAttribution",
    "attribute_phases",
    "machine_reference",
    "mflups",
    "ScalingPoint",
    "PiecewiseSchedule",
    "cylinder_schedule",
    "aorta_schedule",
    "CYLINDER_SCALES",
    "AORTA_SPACINGS_MM",
    "SECTION_COUNTS",
    "Sensitivity",
    "sensitivity_analysis",
    "dominant_resource",
]
