"""The run shell's workload table: what separates HARVEY from its proxy.

Every name ``HarveyConfig.workload`` accepts is one row here.  The shell
(:class:`~repro.harvey.app.HarveyApp`) builds from the row and the trace
layer (:func:`repro.perf.trace.trace_for`) prices the same row, so "HARVEY
= capped + bisection, proxy = periodic cylinder + quadrants" is said once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .geometry.registry import geometry_names
from .proxy import PROXY_BODY_FORCE, PROXY_GEOMETRY, PROXY_SCHEME

__all__ = ["Workload", "workload_table"]


@dataclass(frozen=True)
class Workload:
    """One row: the application the simulator prices it as (and the span
    prefix), the zoo geometry, periodic ends or inlet/outlet caps, the
    :data:`repro.decomp.DECOMPOSERS` key, and the uniform body force
    (capped rows are inlet-driven and carry none)."""

    app: str
    geometry: str
    periodic: bool
    scheme: str
    force: Optional[Tuple[float, float, float]] = None


def workload_table() -> Dict[str, Workload]:
    """Workload name -> row: HARVEY's row for every zoo geometry (capped,
    bisection-balanced, inlet-driven) plus the paper's proxy."""
    table = {
        name: Workload("harvey", name, periodic=False, scheme="bisection")
        for name in geometry_names()
    }
    table["proxy"] = Workload(
        "proxy", PROXY_GEOMETRY, periodic=True, scheme=PROXY_SCHEME,
        force=(PROXY_BODY_FORCE, 0.0, 0.0),
    )
    return table
