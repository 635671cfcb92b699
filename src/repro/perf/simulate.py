"""The trace-driven performance simulator.

Prices a :class:`~repro.perf.trace.RunTrace` on a simulated machine under
a programming model, producing per-rank cost breakdowns and the
iteration time (the slowest rank, as in any bulk-synchronous code).  The
pricing follows the paper's own structure:

* compute — the Eq. 1 bandwidth bound, degraded by the calibrated
  stream-collide efficiency and the occupancy factor, plus per-launch
  overhead;
* communication — each halo event priced by the PingPong link model for
  the specific rank pair (placement-aware: same package / intra-node /
  inter-node), serialised per rank as in Eq. 2;
* memory transfers — per-step boundary/monitoring traffic over the
  CPU-GPU link; host-staged MPI (HIP on Summit) routes halo bytes through
  here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.errors import PerfModelError
from ..hardware.interconnect import LinkTier
from ..hardware.machine import Machine
from ..models.registry import gpu_aware_mpi
from ..telemetry.metrics import get_registry
from ..telemetry.spans import get_tracer
from .calibrate import (
    BYTES_PER_UPDATE,
    Calibration,
    bytes_per_update,
    get_calibration,
    kernel_launches_per_step,
    occupancy,
)
from .efficiency import mflups
from .trace import RunTrace

__all__ = [
    "RankCost",
    "RunCost",
    "PricingOverrides",
    "price_run",
    "HALO_BYTES_PER_SITE",
]

#: Packed halo payload per site.  Only the populations crossing a
#: subdomain face must move — 5 of the 19 D3Q19 directions per axis face —
#: which is what production LBM codes pack and send, and what the
#: overlapped pipeline of :mod:`repro.lbm.distributed` packs.  Both the
#: simulator and the Eq. 2 model (:mod:`repro.perfmodel.model`) price it.
HALO_BYTES_PER_SITE = 5 * 8

#: Fixed per-step monitoring download (residuals, stability checks).
MONITOR_BYTES = 4096

#: Per-site payload of the boundary-condition staging transfers.
BC_BYTES_PER_SITE = 4 * 8

#: HARVEY streams a macroscopic-field slice off every device each step
#: (monitoring/in-situ visualisation); sized as one subdomain face of
#: 8 double-precision fields.
SLICE_BYTES_PER_FACE_SITE = 8 * 8


@dataclass(frozen=True)
class PricingOverrides:
    """What-if knobs for ablation studies (defaults = the paper setup).

    Attributes
    ----------
    halo_bytes_per_site:
        Exchange payload per halo site; 40 B is the packed 5-population
        face exchange, 152 B the naive all-19 exchange.
    comm_overlap:
        Fraction of communication hidden under computation (0 = the
        paper's fully serialised Eq. 2 assumption, 1 = perfect overlap).
    occupancy_enabled:
        Disable to remove the latency-hiding model (pure bandwidth).
    gpu_aware:
        Force GPU-aware MPI on/off regardless of the platform
        (:func:`~repro.models.registry.gpu_aware_mpi`).
    """

    halo_bytes_per_site: float = HALO_BYTES_PER_SITE
    comm_overlap: float = 0.0
    occupancy_enabled: bool = True
    gpu_aware: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.halo_bytes_per_site <= 0:
            raise PerfModelError("halo payload must be positive")
        if not 0.0 <= self.comm_overlap <= 1.0:
            raise PerfModelError("comm_overlap must be in [0, 1]")


_DEFAULT_OVERRIDES = PricingOverrides()


@dataclass(frozen=True)
class RankCost:
    """Per-iteration cost breakdown of one rank, in seconds."""

    rank: int
    t_compute: float
    t_comm: float
    t_h2d: float
    t_d2h: float
    comm_overlap: float = 0.0

    @property
    def t_total(self) -> float:
        """Iteration contribution; overlapped communication hides under
        compute up to the overlap fraction."""
        visible_comm = self.t_comm * (1.0 - self.comm_overlap)
        hidden = self.t_comm - visible_comm
        base = max(self.t_compute, hidden)
        return base + visible_comm + self.t_h2d + self.t_d2h

    def fractions(self) -> Dict[str, float]:
        """Composition of this rank's runtime (sums to 1)."""
        total = self.t_total
        if total <= 0:
            raise PerfModelError("rank has zero runtime")
        return {
            "streamcollide": self.t_compute / total,
            "communication": self.t_comm / total,
            "h2d": self.t_h2d / total,
            "d2h": self.t_d2h / total,
        }


@dataclass(frozen=True)
class RunCost:
    """Priced run: per-rank costs and aggregate throughput."""

    machine: str
    model: str
    app: str
    workload: str
    n_gpus: int
    total_fluid: float
    ranks: Tuple[RankCost, ...]
    oom: bool

    @property
    def t_iteration(self) -> float:
        """Bulk-synchronous iteration time: the slowest rank."""
        return max(r.t_total for r in self.ranks)

    @property
    def slowest_rank(self) -> RankCost:
        return max(self.ranks, key=lambda r: r.t_total)

    @property
    def mflups(self) -> float:
        return mflups(self.total_fluid, self.t_iteration)

    def composition(self) -> Dict[str, float]:
        """Runtime composition of the slowest rank (Fig. 7's metric:
        "the GPU with the greatest runtime")."""
        return self.slowest_rank.fractions()


#: Device-side storage per fluid site: double-buffered distributions plus
#: the neighbour table and flags (used for the memory-capacity check).
STORAGE_BYTES_PER_SITE = BYTES_PER_UPDATE["harvey"] + 8


def _rank_cost(
    trace: RunTrace,
    machine: Machine,
    gpu_aware: bool,
    cal: Calibration,
    app: str,
    rank_trace,
    overrides: PricingOverrides,
) -> RankCost:
    gpu = machine.node.gpu
    n = trace.n_ranks
    eff = cal.effective_sc(trace.workload, n)
    occ = (
        occupancy(max(rank_trace.fluid, 1.0), gpu.name)
        if overrides.occupancy_enabled
        else 1.0
    )
    bandwidth = gpu.mem_bandwidth_bytes_s * eff * occ
    bpu = bytes_per_update(app)
    t_compute = rank_trace.fluid * bpu / bandwidth
    t_compute += (
        kernel_launches_per_step(app)
        * gpu.kernel_launch_overhead_s
        * cal.launch_factor
    )

    cpu_gpu = machine.node.link(LinkTier.CPU_GPU)
    t_comm = 0.0
    t_h2d = 0.0
    t_d2h = 0.0
    for neighbor, sites in rank_trace.halo:
        nbytes = int(sites * overrides.halo_bytes_per_site)
        _tier, link = machine.link_between(rank_trace.rank, neighbor, n)
        # one receive and one (symmetric) send per neighbour, serialised
        t_event = 2.0 * link.message_time(nbytes)
        t_comm += t_event * cal.comm_factor
        if not gpu_aware:
            # staging through the host: D2H before send, H2D after
            # receive; part of the exchange path, so the model's
            # communication-overlap factor applies to it too
            t_d2h += cpu_gpu.message_time(nbytes) * cal.comm_factor
            t_h2d += cpu_gpu.message_time(nbytes) * cal.comm_factor

    # per-step boundary staging and monitoring (HARVEY only; the proxy
    # keeps everything device-resident between reports)
    if app == "harvey":
        bc_bytes = int(rank_trace.bc_sites * BC_BYTES_PER_SITE)
        if bc_bytes:
            t_h2d += cpu_gpu.message_time(bc_bytes)
            t_d2h += cpu_gpu.message_time(bc_bytes)
        face_sites = max(rank_trace.fluid, 1.0) ** (2.0 / 3.0)
        slice_bytes = int(face_sites * SLICE_BYTES_PER_FACE_SITE)
        t_d2h += cpu_gpu.message_time(slice_bytes + MONITOR_BYTES)
        t_h2d += cpu_gpu.message_time(MONITOR_BYTES)
    else:
        t_d2h += cpu_gpu.message_time(MONITOR_BYTES)

    return RankCost(
        rank=rank_trace.rank,
        t_compute=t_compute,
        t_comm=t_comm,
        t_h2d=t_h2d,
        t_d2h=t_d2h,
        comm_overlap=overrides.comm_overlap,
    )


def price_run(
    trace: RunTrace,
    machine: Machine,
    model_name: str,
    app: str,
    overrides: Optional[PricingOverrides] = None,
    tracer=None,
) -> RunCost:
    """Price one scaling point.

    ``app`` is ``"harvey"`` or ``"proxy"``; the model/system pair must be
    one the study ported (:func:`~repro.perf.calibrate.get_calibration`
    refuses the rest).  Pricing passes are traced (span
    ``perf.price_run``) and counted in the process metrics registry.
    """
    if trace.n_ranks > machine.max_ranks:
        raise PerfModelError(
            f"{trace.n_ranks} ranks exceed {machine.name}'s capacity "
            f"{machine.max_ranks}"
        )
    gpu_aware = gpu_aware_mpi(model_name, machine)
    if overrides is None:
        overrides = _DEFAULT_OVERRIDES
    if overrides.gpu_aware is not None:
        gpu_aware = overrides.gpu_aware
    if tracer is None:
        tracer = get_tracer()
    registry = get_registry()
    with tracer.span(
        "perf.price_run",
        machine=machine.name,
        model=model_name,
        app=app,
        n_gpus=trace.n_ranks,
    ):
        cal = get_calibration(machine.name, model_name, app)
        gpu = machine.node.gpu
        oom = any(
            r.fluid * STORAGE_BYTES_PER_SITE > gpu.memory_bytes
            for r in trace.ranks
        )
        ranks = tuple(
            _rank_cost(trace, machine, gpu_aware, cal, app, rt, overrides)
            for rt in trace.ranks
        )
    registry.counter("perf.runs_priced").inc()
    registry.counter("perf.ranks_priced").inc(trace.n_ranks)
    return RunCost(
        machine=machine.name,
        model=model_name,
        app=app,
        workload=trace.workload,
        n_gpus=trace.n_ranks,
        total_fluid=trace.total_fluid,
        ranks=ranks,
        oom=oom,
    )
