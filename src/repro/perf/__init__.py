"""Trace-driven performance simulation: trace builders, calibration, the
pricing engine, and the paper's three metrics (MFLUPS, application and
architectural efficiency)."""

from .calibrate import (
    BYTES_PER_UPDATE,
    KERNEL_LAUNCHES_PER_STEP,
    OCCUPANCY_HALF_SITES,
    Calibration,
    bytes_per_update,
    get_calibration,
    kernel_launches_per_step,
    occupancy,
)
from .efficiency import (
    application_efficiency,
    architectural_efficiency,
    mflups,
)
from .roofline import (
    STREAMCOLLIDE_CHARACTER,
    KernelCharacter,
    RooflinePoint,
    roofline_analysis,
)
from .simulate import (
    HALO_BYTES_PER_SITE,
    PricingOverrides,
    RankCost,
    RunCost,
    price_run,
)
from .trace import (
    COARSE_AORTA_SPACING_MM,
    RankTrace,
    RunTrace,
    aorta_trace,
    coarse_cylinder_scale,
    cylinder_trace,
    trace_for,
)

__all__ = [
    "RankTrace",
    "RunTrace",
    "cylinder_trace",
    "aorta_trace",
    "trace_for",
    "coarse_cylinder_scale",
    "COARSE_AORTA_SPACING_MM",
    "Calibration",
    "get_calibration",
    "bytes_per_update",
    "kernel_launches_per_step",
    "occupancy",
    "BYTES_PER_UPDATE",
    "KERNEL_LAUNCHES_PER_STEP",
    "OCCUPANCY_HALF_SITES",
    "RankCost",
    "RunCost",
    "PricingOverrides",
    "price_run",
    "HALO_BYTES_PER_SITE",
    "mflups",
    "application_efficiency",
    "architectural_efficiency",
    "KernelCharacter",
    "RooflinePoint",
    "roofline_analysis",
    "STREAMCOLLIDE_CHARACTER",
]
