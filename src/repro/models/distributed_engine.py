"""Distributed execution through the programming-model backends.

The paper's production structure in miniature: one MPI rank per logical
GPU, each rank driving its own device through a programming-model
backend, halos exchanged through the communicator.  Two exchange paths,
matching Section 7.2.2:

* **GPU-aware** — send buffers leave the device directly (no host
  staging recorded on the ledger);
* **host-staged** — every halo hop costs a device-to-host download at
  the sender and a host-to-device upload at the receiver, visible in the
  per-device transfer ledgers (the configuration HIP-on-Summit was
  forced into).

Physics is bit-identical to :class:`repro.lbm.distributed.DistributedSolver`
and to the single-domain reference — asserted by the test suite — while
the ledgers make the staging cost *observable* rather than merely priced.

Rank phases run through the in-process lockstep executor (a barrier
after every phase); each rank drives only its own device/ledger.  The
interior/frontier overlap pipeline (``SolverConfig.overlap``) is
implemented in the functional solver only — the engine keeps the plain
barrier schedule, as its purpose is making per-device transfer ledgers
observable, not hiding exchange latency.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import ModelError
from ..core.kernels import Workspace, fused_stream_body_kernel
from ..decomp.partition import Partition
from ..geometry.flags import INLET, OUTLET
from ..lbm.boundary import PressureOutlet, VelocityInlet
from ..lbm.solver import SolverConfig
from ..lbm.stream import StepPlan
from ..runtime.simmpi import SimComm
from .base import ProgrammingModel
from .device import SimulatedDevice
from .registry import create_model

__all__ = ["DistributedModelEngine"]


class _EngineRank:
    """One rank: a device, a backend, and its local state."""

    def __init__(
        self,
        rank: int,
        model: ProgrammingModel,
        owned_global: np.ndarray,
        ghost_global: np.ndarray,
        f_init: np.ndarray,
        plan: StepPlan,
        send_ids: Dict[int, np.ndarray],
        recv_slots: Dict[int, np.ndarray],
        inlet: Optional[VelocityInlet],
        outlet: Optional[PressureOutlet],
    ) -> None:
        self.rank = rank
        self.model = model
        self.owned_global = owned_global
        self.ghost_global = ghost_global
        self.num_owned = int(owned_global.size)
        self.d_f = model.upload(f"f_rank{rank}", f_init)
        self.d_f_tmp = model.alloc(
            f"f_tmp_rank{rank}", f_init.shape, f_init.dtype
        )
        self.recv_slots = recv_slots
        self.inlet = inlet
        self.outlet = outlet
        self.d_flat_src = model.upload(
            f"stream_flat_src_rank{rank}", plan.flat_src.reshape(-1)
        )
        self.d_flat_dst = model.upload(
            f"stream_flat_dst_rank{rank}", plan.flat_dst().reshape(-1)
        )
        self.workspace = Workspace()
        self.send_flat: Dict[int, np.ndarray] = {}
        self.send_bufs: Dict[int, np.ndarray] = {}
        q, n_local = f_init.shape
        q_off = np.arange(q, dtype=np.int64)[:, None] * n_local
        for dst, ids in send_ids.items():
            self.send_flat[dst] = q_off + ids[None, :]
            self.send_bufs[dst] = np.empty((q, ids.size), dtype=np.float64)


class DistributedModelEngine:
    """Multi-rank run where every rank drives a model backend.

    Parameters
    ----------
    partition / config:
        As for the plain distributed solver.
    model_name:
        Backend every rank instantiates (``"cuda"``, ``"kokkos-sycl"``, ...).
    gpu_aware:
        When False, halo payloads stage through the host: a D2H at the
        sender and an H2D at the receiver per message, recorded on the
        device ledgers.
    """

    def __init__(
        self,
        partition: Partition,
        config: SolverConfig,
        model_name: str = "cuda",
        gpu_aware: bool = True,
        comm: Optional[SimComm] = None,
        model_factory: Optional[Callable[[int], ProgrammingModel]] = None,
        tracer=None,
    ) -> None:
        # reuse the reference solver's wiring (ghost sets, plans, BCs);
        # deferred imports keep this module out of the runtime/telemetry
        # import cycle
        from ..lbm.distributed import DistributedSolver
        from ..runtime.executor import make_executor
        from ..telemetry.metrics import get_registry
        from ..telemetry.spans import get_tracer

        if config.executor == "process":
            # the engine's rank state (simulated device buffers, SimComm
            # queues) lives in ordinary process memory, not shared
            # segments, so forked workers would mutate invisible copies
            raise ModelError(
                "the programming-model distributed engine supports "
                "executor='lockstep' only; the process "
                "tier needs shared-memory rank state, which the "
                "reference solver provides (lbm.distributed)"
            )
        reference = DistributedSolver(
            partition, config, comm=SimComm(partition.num_ranks)
        )
        self.partition = partition
        self.config = config
        self.lattice = reference.lattice
        self.collision = config.make_collision()
        self.gpu_aware = bool(gpu_aware)
        self.comm = comm if comm is not None else SimComm(partition.num_ranks)
        self.model_name = model_name
        self.tracer = get_tracer() if tracer is None else tracer
        self.executor = make_executor(
            config.executor, partition.num_ranks, tracer=self.tracer
        )
        self._launch_counter = get_registry().counter("model.launches")
        self.time = 0
        self._coords = reference.coords
        factory = model_factory or (
            lambda rank: create_model(model_name, SimulatedDevice(device_id=rank))
        )
        self.ranks: List[_EngineRank] = []
        for st in reference.ranks:
            self.ranks.append(
                _EngineRank(
                    rank=st.rank,
                    model=factory(st.rank),
                    owned_global=st.owned_global,
                    ghost_global=st.ghost_global,
                    f_init=st.f,
                    plan=st.step_plan,
                    send_ids=st.send_ids,
                    recv_slots=st.recv_slots,
                    inlet=st.inlet,
                    outlet=st.outlet,
                )
            )
        # setup uploads (initial state, plans) are not exchange traffic:
        # zero the ledgers so staging_bytes() reports per-step staging only
        for er in self.ranks:
            er.model.device.reset_ledger()

    # -- phases --------------------------------------------------------------
    def _collide(self, er: _EngineRank) -> None:
        lat = self.lattice
        collision = self.collision
        f = er.d_f.data()
        ws = er.workspace

        def body(idx: np.ndarray) -> None:
            collision.apply(lat, f, idx, workspace=ws)

        er.model.launch("collide", er.num_owned, body)

    def _pack_and_send(self, er: _EngineRank) -> None:
        for dst, payload in er.send_bufs.items():
            # allocation-free pack into the preallocated buffer (the
            # simulated transport copies payloads eagerly on send)
            np.take(
                er.d_f.data().reshape(-1),
                er.send_flat[dst],
                out=payload,
                mode="clip",
            )
            if not self.gpu_aware:
                # explicit download before handing the buffer to MPI;
                # the per-step staging buffer IS the modelled D2H cost
                host = np.empty_like(payload)  # repro: noqa[P202] host staging is what this path measures
                staging = er.model.alloc(
                    f"stage_out_{er.rank}_{dst}", payload.shape, payload.dtype
                )
                staging.data()[...] = payload
                er.model.to_host(host, staging)
                staging.free()
                payload = host
            self.comm.send(er.rank, dst, payload, tag=1)

    def _recv_and_unpack(self, er: _EngineRank) -> None:
        for src, slots in er.recv_slots.items():
            buf = self.comm.recv(er.rank, src, tag=1)
            if not self.gpu_aware:
                staging = er.model.upload(
                    f"stage_in_{er.rank}_{src}", buf
                )
                er.d_f.data()[:, slots] = staging.data()
                staging.free()
            else:
                er.d_f.data()[:, slots] = buf

    def _stream(self, er: _EngineRank) -> None:
        f_src = er.d_f.data()
        f_dst = er.d_f_tmp.data()
        # fused streaming + bounce-back: one launch over all links,
        # with an explicit destination map (owned nodes are a prefix
        # of the rank-local numbering but ghosts pad each row)
        src_flat = er.d_flat_src.data()
        dst_flat = er.d_flat_dst.data()
        fsrc = f_src.reshape(-1)
        fdst = f_dst.reshape(-1)

        def fused(idx: np.ndarray) -> None:
            fused_stream_body_kernel(fsrc, fdst, src_flat, idx, dst_flat)

        er.model.launch("stream_fused", src_flat.size, fused)
        er.d_f, er.d_f_tmp = er.d_f_tmp, er.d_f

    def _boundaries(self, er: _EngineRank) -> None:
        f = er.d_f.data()
        if er.inlet is not None:
            er.inlet.apply(self.lattice, f, self.time)
        if er.outlet is not None:
            er.outlet.apply(self.lattice, f, self.time)

    # -- per-rank phase bodies (dispatched through the executor) -----------
    def _phase_collide(self, rank: int) -> None:
        self._collide(self.ranks[rank])

    def _phase_pack_send(self, rank: int) -> None:
        self._pack_and_send(self.ranks[rank])

    def _phase_recv_unpack(self, rank: int) -> None:
        self._recv_and_unpack(self.ranks[rank])

    def _phase_stream(self, rank: int) -> None:
        self._stream(self.ranks[rank])

    def _phase_boundary(self, rank: int) -> None:
        er = self.ranks[rank]
        self._boundaries(er)
        er.model.synchronize()

    # -- public API -----------------------------------------------------------
    def step(self, num_steps: int = 1) -> None:
        if num_steps < 0:
            raise ModelError("num_steps must be non-negative")
        ex = self.executor
        launches_before = sum(er.model.launch_count for er in self.ranks)
        for _ in range(num_steps):
            self.comm.set_step(self.time)
            with self.tracer.span("step", step=self.time):
                ex.run_phase(self._phase_collide, name="collide")
                # pack/send and recv/unpack are separate phases: the barrier
                # between them guarantees every message is enqueued before
                # any rank receives
                ex.run_phase(self._phase_pack_send, name="exchange")
                ex.run_phase(self._phase_recv_unpack, name="exchange")
                ex.run_phase(self._phase_stream, name="stream")
                self.time += 1
                ex.run_phase(self._phase_boundary, name="boundary")
        launched = (
            sum(er.model.launch_count for er in self.ranks) - launches_before
        )
        if launched > 0:
            self._launch_counter.inc(launched)

    @property
    def num_nodes(self) -> int:
        return int(self._coords.shape[0])

    def gather_f(self) -> np.ndarray:
        out = np.empty((self.lattice.q, self.num_nodes), dtype=np.float64)
        for er in self.ranks:
            out[:, er.owned_global] = er.d_f.data()[:, : er.num_owned]
        return out

    def staging_bytes(self) -> Tuple[int, int]:
        """Total (D2H, H2D) bytes across the rank devices — nonzero only
        on the host-staged path."""
        d2h = sum(er.model.device.d2h_bytes() for er in self.ranks)
        h2d = sum(er.model.device.h2d_bytes() for er in self.ranks)
        return d2h, h2d
