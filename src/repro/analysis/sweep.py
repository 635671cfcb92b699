"""Scaling-sweep drivers: the data behind Figs. 3-6.

These functions tie the stack together: schedules from
:mod:`repro.perfmodel.scaling`, traces from :mod:`repro.perf.trace`,
pricing from :mod:`repro.perf.simulate`, predictions from
:mod:`repro.perfmodel.model`, and the efficiency metrics from
:mod:`repro.perf.efficiency`.  :func:`price_point` is the one place a
scaling point is priced; the sweeps here, the Fig.-7 composition and the
campaign's ``perf`` cells all call it.  :mod:`repro.analysis.report`
renders the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import PerfModelError
from ..hardware.machine import Machine
from ..hardware.systems import all_machines
from ..models.registry import models_for_machine
from ..perf.calibrate import bytes_per_update
from ..perf.efficiency import application_efficiency, architectural_efficiency
from ..perf.simulate import RunCost, price_run
from ..perf.trace import trace_for
from ..perfmodel.model import predict_iteration
from ..perfmodel.scaling import (
    PiecewiseSchedule,
    aorta_schedule,
    cylinder_schedule,
)
from ..perfmodel.sensitivity import Sensitivity, sensitivity_analysis
from ..workloads import workload_table

__all__ = [
    "SUNSPOT_MAX_GPUS",
    "ScalingSeries",
    "workload_schedule",
    "price_point",
    "native_hardware_comparison",
    "backend_comparison",
    "BackendComparison",
    "sensitivity_sweep",
]

#: The Sunspot testbed could only provide 256 tiles (Section 9.2).
SUNSPOT_MAX_GPUS = 256

#: Legend names of the apps in Figs. 3/4.
_APP_LABELS = {"harvey": "HARVEY", "proxy": "LBM-Proxy-App"}


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


def _apps(workload: str) -> List[str]:
    """HARVEY, then every other app whose workload row runs this
    geometry (the proxy runs the cylinder only)."""
    return ["harvey"] + [
        row.app
        for row in workload_table().values()
        if row.app != "harvey" and row.geometry == workload
    ]


def price_point(
    machine: Machine,
    model: str,
    workload: str,
    app: str,
    size: float,
    n_gpus: int,
) -> Tuple[RunCost, float]:
    """Price one scaling point: ``(cost, predicted_mflups)``.

    ``cost`` is the simulated run of ``app`` on ``workload`` at ``size``
    over ``n_gpus`` under ``model``; ``predicted_mflups`` is the Eq.-1
    ideal prediction for the same fluid, GPU count and app byte count.
    """
    trace = trace_for(workload, app, size, n_gpus)
    cost = price_run(trace, machine, model, app)
    predicted = predict_iteration(
        machine,
        trace.total_fluid,
        trace.n_ranks,
        bytes_per_update=bytes_per_update(app),
    )
    return cost, predicted.mflups


def native_hardware_comparison(workload: str) -> Dict[str, Dict[str, ScalingSeries]]:
    """Fig. 3 (cylinder) / Fig. 4 (aorta): each system's native model.

    Returns ``{system: {"harvey": ..., "proxy": ..., "predicted": ...}}``
    (no proxy entry for the aorta).
    """
    apps = _apps(workload)
    out: Dict[str, Dict[str, ScalingSeries]] = {}
    for machine in all_machines():
        series = {
            app: ScalingSeries(f"{machine.name} {_APP_LABELS[app]}")
            for app in apps
        }
        predicted = ScalingSeries(f"{machine.name} Ideal Prediction")
        for point in workload_schedule(workload, machine).points:
            for app in apps:
                cost, ideal = price_point(
                    machine, machine.native_model, workload, app,
                    point.size, point.n_gpus,
                )
                series[app].append(point.n_gpus, cost.mflups)
                if app == "harvey":
                    predicted.append(point.n_gpus, ideal)
        out[machine.name] = {**series, "predicted": predicted}
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
    apps = _apps(workload)
    raw: Dict[str, Dict[str, ScalingSeries]] = {a: {} for a in apps}
    ideal: Dict[str, List[float]] = {}
    for app in apps:
        for model in models_for_machine(machine):
            priced = [
                price_point(machine, model, workload, app, p.size, p.n_gpus)
                for p in sched.points
            ]
            raw[app][model] = ScalingSeries(
                f"{app}-{model}", list(counts), [c.mflups for c, _ in priced]
            )
        # the prediction depends on the app and the point, not the model
        ideal[app] = [pred for _, pred in priced]
    return BackendComparison(
        system=machine.name,
        workload=workload,
        gpu_counts=counts,
        raw=raw,
        predicted=ScalingSeries(
            f"{machine.name} Idealized Prediction", list(counts),
            ideal["harvey"],
        ),
        app_efficiency={
            app: application_efficiency(
                {m: s.mflups for m, s in raw[app].items()}
            )
            for app in apps
        },
        arch_efficiency={
            app: {
                m: architectural_efficiency(s.mflups, ideal[app])
                for m, s in raw[app].items()
            }
            for app in apps
        },
    )


def sensitivity_sweep(
    gpu_counts: Sequence[int], sites_per_gpu: float
) -> List[Sensitivity]:
    """Weak-scaling elasticities on every system at each of
    ``gpu_counts`` it can run (Sunspot stops at :data:`SUNSPOT_MAX_GPUS`)."""
    return [
        sensitivity_analysis(machine, sites_per_gpu * n, n)
        for machine in all_machines()
        for n in gpu_counts
        if n <= machine.max_ranks
        and not (machine.name == "Sunspot" and n > SUNSPOT_MAX_GPUS)
    ]
