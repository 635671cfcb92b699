"""Simulated hardware: GPU, link, node, and machine specifications for the
four systems of the paper (Table 1)."""

from .gpu import GPUSpec
from .host import host_bandwidth_gbs, host_fingerprint
from .interconnect import LinkSpec, LinkTier
from .machine import Machine, RankPlacement
from .node import NodeSpec
from .systems import (
    CRUSHER,
    POLARIS,
    SUMMIT,
    SUNSPOT,
    all_machines,
    get_machine,
    machine_names,
)

__all__ = [
    "GPUSpec",
    "LinkSpec",
    "LinkTier",
    "NodeSpec",
    "Machine",
    "RankPlacement",
    "SUMMIT",
    "POLARIS",
    "CRUSHER",
    "SUNSPOT",
    "get_machine",
    "all_machines",
    "machine_names",
    "host_fingerprint",
    "host_bandwidth_gbs",
]
