"""The Pennycook performance-portability metric.

The paper's related work (refs. [5], [11], [14], [15]) evaluates codes
with the P3HPC community's standard metric (Pennycook, Sewall & Lee):
for an application *a* solving problem *p* on a platform set *H*,

    PP(a, p, H) = |H| / sum_{i in H} 1 / e_i(a, p)     if a runs on all
                  0                                     otherwise

— the harmonic mean of the efficiencies ``e_i`` over the platforms, zero
when any platform is unsupported.  With architectural efficiency it
measures how much of each machine a code exploits; with application
efficiency, how close it comes to the best-known implementation.

Applied to this study it quantifies Section 10's trade-off: Kokkos is
the only implementation with nonzero PP over all four systems, while the
per-platform ports score higher on the machines they support but zero
over the full set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..core.errors import PerfModelError
from ..hardware.systems import all_machines
from ..models.registry import MODEL_NAMES
from .sweep import backend_comparison, workload_schedule

__all__ = [
    "KOKKOS_FAMILY",
    "performance_portability",
    "portability_pivot",
    "PortabilityReport",
    "study_portability",
]

#: The Kokkos code base as one implementation (Section 10): on each
#: platform it runs through the best ``kokkos-*`` backend present there.
KOKKOS_FAMILY = "kokkos (any backend)"


def performance_portability(efficiencies: Sequence[float]) -> float:
    """Harmonic-mean PP over one efficiency per platform.

    An efficiency of 0 (or a missing platform, encoded as 0) makes the
    metric 0, per the definition.
    """
    effs = list(efficiencies)
    if not effs:
        raise PerfModelError("need at least one platform")
    for e in effs:
        if e < 0 or e > 1.0 + 1e-9:
            raise PerfModelError(f"efficiency {e} outside [0, 1]")
    if any(e == 0.0 for e in effs):
        return 0.0
    return len(effs) / sum(1.0 / e for e in effs)


def portability_pivot(
    samples: Iterable[Tuple[str, str, float]],
    platforms: Sequence[str],
    implementations: Sequence[str],
) -> Dict[str, Dict[str, Any]]:
    """PP of each implementation over ``platforms`` from
    ``(platform, implementation, efficiency)`` samples.

    Each sample is clamped to 1; an implementation's platform efficiency
    is the mean of its samples there, 0 where it has none (PP = 0).
    Returns ``{implementation: {"pp", "mean_efficiency", "supported"}}``
    in ``implementations`` order (the order of ``platforms`` is the
    order of the harmonic sum), plus a :data:`KOKKOS_FAMILY` row when
    any implementation is a ``kokkos-*`` backend.
    """
    per_cell: Dict[Tuple[str, str], List[float]] = {}
    for platform, impl, eff in samples:
        per_cell.setdefault((platform, impl), []).append(min(eff, 1.0))

    def mean(platform: str, impl: str) -> float:
        got = per_cell.get((platform, impl))
        return sum(got) / len(got) if got else 0.0

    def row(effs: List[float]) -> Dict[str, Any]:
        return {
            "pp": performance_portability(effs),
            "mean_efficiency": dict(zip(platforms, effs)),
            "supported": [p for p, e in zip(platforms, effs) if e > 0],
        }

    out = {
        impl: row([mean(p, impl) for p in platforms])
        for impl in implementations
    }
    kokkos = [i for i in implementations if i.startswith("kokkos-")]
    if kokkos:
        out[KOKKOS_FAMILY] = row(
            [max(mean(p, i) for i in kokkos) for p in platforms]
        )
    return out


@dataclass(frozen=True)
class PortabilityReport:
    """PP of every implementation over the four-system set."""

    workload: str
    n_gpus: int
    efficiency_kind: str  # "application" | "architectural"
    per_model: Dict[str, float]
    per_model_supported: Dict[str, List[str]]

    def best_universal(self) -> str:
        """The implementation with the highest nonzero PP."""
        nonzero = {m: v for m, v in self.per_model.items() if v > 0}
        if not nonzero:
            raise PerfModelError("no implementation covers all platforms")
        return max(nonzero, key=nonzero.get)


def study_portability(
    workload: str = "cylinder",
    n_gpus: int = 64,
    efficiency_kind: str = "architectural",
    app: str = "harvey",
) -> PortabilityReport:
    """PP of every programming model over the paper's four systems.

    Platforms where a model was not ported contribute efficiency 0
    (PP = 0), exactly as the metric prescribes.  ``n_gpus`` must be a
    point of the workload's schedule; Sunspot, whose budget ends at
    :data:`~repro.analysis.sweep.SUNSPOT_MAX_GPUS`, reuses its largest
    point above that — the metric needs one efficiency per platform.
    """
    if efficiency_kind not in ("application", "architectural"):
        raise PerfModelError(
            "efficiency_kind must be 'application' or 'architectural'"
        )
    counts = workload_schedule(workload).gpu_counts()
    if n_gpus not in counts:
        raise PerfModelError(
            f"{n_gpus} GPUs is not a point of the {workload} schedule; "
            f"valid counts: {', '.join(map(str, counts))}"
        )
    machines = all_machines()
    samples: List[Tuple[str, str, float]] = []
    for machine in machines:
        comp = backend_comparison(machine, workload)
        table = (
            comp.app_efficiency
            if efficiency_kind == "application"
            else comp.arch_efficiency
        )
        idx = comp.gpu_counts.index(min(n_gpus, comp.gpu_counts[-1]))
        samples += [
            (machine.name, model, series[idx])
            for model, series in table[app].items()
        ]
    pivot = portability_pivot(
        samples, [m.name for m in machines], MODEL_NAMES
    )
    return PortabilityReport(
        workload=workload,
        n_gpus=n_gpus,
        efficiency_kind=efficiency_kind,
        per_model={k: v["pp"] for k, v in pivot.items()},
        per_model_supported={k: v["supported"] for k, v in pivot.items()},
    )
