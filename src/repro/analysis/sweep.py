"""Scaling-sweep drivers: the data behind Figs. 3-6.

These functions tie the stack together: schedules from
:mod:`repro.perfmodel.scaling`, traces from :mod:`repro.perf.trace`,
pricing from :mod:`repro.perf.simulate`, predictions from
:mod:`repro.perfmodel.model`, and the efficiency metrics from
:mod:`repro.perf.efficiency`.  Benchmarks and the CLI render their output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.errors import PerfModelError
from ..hardware.machine import Machine
from ..hardware.systems import all_machines
from ..models.registry import models_for_machine
from ..perf.calibrate import bytes_per_update
from ..perf.efficiency import application_efficiency, architectural_efficiency
from ..perf.simulate import price_run
from ..perf.trace import RunTrace, trace_for
from ..perfmodel.model import predict_iteration
from ..perfmodel.scaling import (
    PiecewiseSchedule,
    aorta_schedule,
    cylinder_schedule,
)

__all__ = [
    "SUNSPOT_MAX_GPUS",
    "ScalingSeries",
    "workload_schedule",
    "native_hardware_comparison",
    "backend_comparison",
    "BackendComparison",
]

#: The Sunspot testbed could only provide 256 tiles (Section 9.2).
SUNSPOT_MAX_GPUS = 256


@dataclass
class ScalingSeries:
    """One line of a scaling figure."""

    label: str
    gpu_counts: List[int] = field(default_factory=list)
    mflups: List[float] = field(default_factory=list)

    def append(self, n_gpus: int, value: float) -> None:
        self.gpu_counts.append(n_gpus)
        self.mflups.append(value)

    def at(self, n_gpus: int) -> float:
        try:
            return self.mflups[self.gpu_counts.index(n_gpus)]
        except ValueError as exc:
            raise PerfModelError(
                f"series {self.label!r} has no point at {n_gpus} GPUs"
            ) from exc


def workload_schedule(workload: str, machine: Optional[Machine] = None) -> PiecewiseSchedule:
    """The piecewise schedule for a workload, truncated for Sunspot."""
    schedules = {"cylinder": cylinder_schedule, "aorta": aorta_schedule}
    if workload not in schedules:
        raise PerfModelError(f"unknown workload {workload!r}")
    sched = schedules[workload]()
    if machine is not None and machine.name == "Sunspot":
        sched = sched.truncated(SUNSPOT_MAX_GPUS)
    return sched


def _predicted_mflups(
    machine: Machine, trace: RunTrace, app: str
) -> float:
    pred = predict_iteration(
        machine,
        trace.total_fluid,
        trace.n_ranks,
        bytes_per_update=bytes_per_update(app),
    )
    return pred.mflups


def native_hardware_comparison(workload: str) -> Dict[str, Dict[str, ScalingSeries]]:
    """Fig. 3 (cylinder) / Fig. 4 (aorta): each system's native model.

    Returns ``{system: {"harvey": ..., "proxy": ..., "predicted": ...}}``
    (no proxy entry for the aorta).
    """
    out: Dict[str, Dict[str, ScalingSeries]] = {}
    for machine in all_machines():
        sched = workload_schedule(workload, machine)
        native = machine.native_model
        harvey = ScalingSeries(f"{machine.name} HARVEY")
        proxy = ScalingSeries(f"{machine.name} LBM-Proxy-App")
        predicted = ScalingSeries(f"{machine.name} Ideal Prediction")
        for point in sched.points:
            tr = trace_for(workload, "harvey", point.size, point.n_gpus)
            rc = price_run(tr, machine, native, "harvey")
            harvey.append(point.n_gpus, rc.mflups)
            predicted.append(
                point.n_gpus, _predicted_mflups(machine, tr, "harvey")
            )
            if workload == "cylinder":
                trp = trace_for(workload, "proxy", point.size, point.n_gpus)
                rcp = price_run(trp, machine, native, "proxy")
                proxy.append(point.n_gpus, rcp.mflups)
        series = {"harvey": harvey, "predicted": predicted}
        if proxy.gpu_counts:
            series["proxy"] = proxy
        out[machine.name] = series
    return out


@dataclass
class BackendComparison:
    """Fig. 5/6 data for one system: raw MFLUPS plus both efficiencies.

    ``raw[app][model]`` is a :class:`ScalingSeries`;
    ``app_efficiency[app][model]`` and
    ``arch_efficiency[app][model]`` are per-count lists aligned with
    ``gpu_counts``.
    """

    system: str
    workload: str
    gpu_counts: List[int]
    raw: Dict[str, Dict[str, ScalingSeries]]
    predicted: ScalingSeries
    app_efficiency: Dict[str, Dict[str, List[float]]]
    arch_efficiency: Dict[str, Dict[str, List[float]]]

    def best_model(self, app: str, n_gpus: int) -> str:
        """Which implementation wins for an app at a GPU count."""
        series = self.raw[app]
        return max(series, key=lambda m: series[m].at(n_gpus))


def backend_comparison(
    machine: Machine, workload: str
) -> BackendComparison:
    """Fig. 5 (cylinder) / Fig. 6 (aorta) for one system: every ported
    model, application and architectural efficiencies."""
    sched = workload_schedule(workload, machine)
    counts = sched.gpu_counts()
    apps = ["harvey"] if workload == "aorta" else ["harvey", "proxy"]
    models = models_for_machine(machine)
    raw: Dict[str, Dict[str, ScalingSeries]] = {a: {} for a in apps}
    predicted = ScalingSeries(f"{machine.name} Idealized Prediction")
    for point in sched.points:
        tr = trace_for(workload, "harvey", point.size, point.n_gpus)
        predicted.append(
            point.n_gpus, _predicted_mflups(machine, tr, "harvey")
        )
    for app in apps:
        for model in models:
            series = ScalingSeries(f"{app}-{model}")
            for point in sched.points:
                tr = trace_for(workload, app, point.size, point.n_gpus)
                rc = price_run(tr, machine, model, app)
                series.append(point.n_gpus, rc.mflups)
            raw[app][model] = series
    app_eff = {
        app: application_efficiency(
            {m: s.mflups for m, s in raw[app].items()}
        )
        for app in apps
    }
    arch_eff: Dict[str, Dict[str, List[float]]] = {}
    for app in apps:
        arch_eff[app] = {}
        pred_list = []
        for point in sched.points:
            tr = trace_for(workload, app, point.size, point.n_gpus)
            pred_list.append(_predicted_mflups(machine, tr, app))
        for model, series in raw[app].items():
            arch_eff[app][model] = architectural_efficiency(
                series.mflups, pred_list
            )
    return BackendComparison(
        system=machine.name,
        workload=workload,
        gpu_counts=counts,
        raw=raw,
        predicted=predicted,
        app_efficiency=app_eff,
        arch_efficiency=arch_eff,
    )
