"""Sensitivity analysis of the performance model.

The paper's contribution (6) is "evaluation of the impact of hardware
architecture on the choice of programming model and code performance".
This module quantifies that impact analytically: for any scaling point it
reports the elasticity of predicted MFLUPS with respect to each hardware
knob — device memory bandwidth, interconnect bandwidth, and interconnect
latency — identifying which resource bounds the run where.

Elasticity is the dimensionless ``d log(MFLUPS) / d log(knob)``: 1.0
means performance is fully bound by that knob, 0.0 means insensitive.
Elasticities over the (bandwidth-type) knobs sum to ~1 for this model.
The weak-scaling sweep over the paper's systems that ``repro
sensitivity`` and the report print is
:func:`repro.analysis.sweep.sensitivity_sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict

from ..core.errors import PerfModelError
from ..hardware.interconnect import LinkSpec, LinkTier
from ..hardware.machine import Machine
from .model import BYTES_PER_UPDATE_D3Q19, predict_iteration

__all__ = ["Sensitivity", "sensitivity_analysis", "dominant_resource"]

#: Relative perturbation used for the central differences.
_EPS = 0.01


@dataclass(frozen=True)
class Sensitivity:
    """Elasticities of predicted performance at one scaling point."""

    machine: str
    n_gpus: int
    total_fluid: float
    memory_bandwidth: float
    interconnect_bandwidth: float
    interconnect_latency: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "memory_bandwidth": self.memory_bandwidth,
            "interconnect_bandwidth": self.interconnect_bandwidth,
            "interconnect_latency": self.interconnect_latency,
        }


def _with_scaled_gpu_bw(machine: Machine, factor: float) -> Machine:
    gpu = replace(
        machine.node.gpu,
        mem_bandwidth_tbs=machine.node.gpu.mem_bandwidth_tbs * factor,
    )
    return replace(machine, node=replace(machine.node, gpu=gpu))


def _with_scaled_link(
    machine: Machine, bw_factor: float, lat_factor: float
) -> Machine:
    links = dict(machine.node.links)
    old = links[LinkTier.INTER_NODE]
    links[LinkTier.INTER_NODE] = LinkSpec(
        old.name, old.bandwidth_gbs * bw_factor, old.latency_s * lat_factor
    )
    return replace(machine, node=replace(machine.node, links=links))


def sensitivity_analysis(
    machine: Machine,
    total_fluid: float,
    n_gpus: int,
    bytes_per_update: float = BYTES_PER_UPDATE_D3Q19,
) -> Sensitivity:
    """Elasticities of the Eq. 1-4 prediction at one scaling point."""
    if not (math.isfinite(total_fluid) and total_fluid > 0) or n_gpus < 1:
        raise PerfModelError(
            "need finite positive fluid and at least one GPU, got "
            f"{total_fluid} sites on {n_gpus} GPUs"
        )

    def elasticity(scaled: Callable[[float], Machine]) -> float:
        """Central-difference log-log derivative of predicted MFLUPS with
        respect to the knob ``scaled(factor)`` multiplies."""
        up, down = (
            predict_iteration(
                scaled(factor), total_fluid, n_gpus,
                bytes_per_update=bytes_per_update,
            ).mflups
            for factor in (1 + _EPS, 1 - _EPS)
        )
        return (math.log(up) - math.log(down)) / (
            math.log(1 + _EPS) - math.log(1 - _EPS)
        )

    return Sensitivity(
        machine=machine.name,
        n_gpus=n_gpus,
        total_fluid=float(total_fluid),
        memory_bandwidth=elasticity(
            lambda f: _with_scaled_gpu_bw(machine, f)
        ),
        interconnect_bandwidth=elasticity(
            lambda f: _with_scaled_link(machine, f, 1.0)
        ),
        # latency elasticity is negative (more latency, less throughput)
        interconnect_latency=elasticity(
            lambda f: _with_scaled_link(machine, 1.0, f)
        ),
    )


def dominant_resource(sens: Sensitivity) -> str:
    """Which knob bounds performance at this point."""
    table = {
        "memory_bandwidth": sens.memory_bandwidth,
        "interconnect_bandwidth": sens.interconnect_bandwidth,
        "interconnect_latency": abs(sens.interconnect_latency),
    }
    return max(table, key=table.get)
