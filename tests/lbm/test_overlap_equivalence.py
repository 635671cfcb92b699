"""The overlapped interior/frontier pipeline's wiring.

The overlapped step (the full-plan gather moved between the packed
exchange's post and its completion; the frontier finalized by direct
payload injection on both schedules) is a pure scheduling optimisation;
its ``array_equal`` rows against the barrier schedule live in the
conformance matrix (``tests/lbm/test_conformance.py``).  This file covers mass
conservation, the ``StepPlan.cross_links`` enumeration the packed exchange is wired from,
the packed halo-byte accounting, and the config validation.
"""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.decomp import grid_decompose
from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.lbm.distributed import DistributedSolver
from repro.lbm.solver import SolverConfig


def periodic_grid():
    return make_cylinder(CylinderSpec(scale=0.5, periodic=True))


def periodic_config(collision, **kw):
    return SolverConfig(
        tau=0.8,
        collision=collision,
        force=(1e-5, 0.0, 0.0),
        periodic=(True, False, False),
        **kw,
    )


class TestOverlappedEquivalence:
    def test_mass_conserved_on_overlap_path(self):
        grid = periodic_grid()
        part = grid_decompose(grid, 4)
        solver = DistributedSolver(part, periodic_config("bgk"))
        m0 = solver.mass()
        solver.step(12)
        assert solver.mass() == pytest.approx(m0, rel=1e-12)


class TestStepPlanPartition:
    def _plan(self, num_ranks, rank=None):
        grid = periodic_grid()
        part = grid_decompose(grid, num_ranks)
        solver = DistributedSolver(part, periodic_config("bgk"))
        states = solver.ranks if rank is None else [solver.ranks[rank]]
        return [(st.plan.step_plan, st.num_owned) for st in states]

    def test_single_rank_frontier_is_empty(self):
        grid = periodic_grid()
        part = grid_decompose(grid, 1)
        solver = DistributedSolver(part, periodic_config("bgk", overlap=True))
        plan = solver.ranks[0].plan
        assert plan.step_plan.cross_links().size == 0
        assert not plan.recv_flat and not plan.send_flat
        assert plan.step_plan.num_update == plan.num_owned

    def test_cross_links_enumerate_ghost_reads(self):
        for plan, num_owned in self._plan(4, rank=0):
            # a rank's buffers hold its owned nodes only: a remote read
            # is the halo placeholder, never a column of f
            assert plan.num_local == num_owned
            dst_flat = plan.cross_links()
            # the set matches a brute-force scan of the gather table
            mask = plan.flat_src == -1
            assert 0 < dst_flat.size == int(mask.sum())
            qi, col = np.nonzero(mask)
            expect_dst = qi * plan.num_local + plan.update_ids[col]
            assert np.array_equal(dst_flat, expect_dst)
            # every other source is a slot of the rank's own f
            rest = plan.flat_src[~mask]
            assert rest.min() >= 0 and rest.max() < plan.q * num_owned


class TestPackedExchangeAccounting:
    def test_packed_exchange_is_smaller_than_barrier(self):
        # the barrier schedule ships the packed payload too, and it is
        # smaller than a refill of every population of every remote node
        # some link reads
        grid = periodic_grid()
        part = grid_decompose(grid, 4)
        barrier = DistributedSolver(part, periodic_config("bgk"))
        overlap = DistributedSolver(
            part, periodic_config("bgk", overlap=True)
        )
        full_refill = sum(
            8 * st.plan.step_plan.q
            * np.unique(np.concatenate(list(st.plan.recv_global.values()))).size
            for st in barrier.ranks
        )
        assert barrier.halo_bytes_per_step() == overlap.halo_bytes_per_step()
        assert 0 < barrier.halo_bytes_per_step() < full_refill

    def test_both_schedules_ship_the_cross_links(self):
        # one exchange format: the schedule moves the completion, not
        # the payload — 8 bytes per cross link, wired and logged alike
        grid = periodic_grid()
        part = grid_decompose(grid, 4)
        steps = 2
        for overlap in (False, True):
            solver = DistributedSolver(
                part, periodic_config("bgk", overlap=overlap)
            )
            cross_links = sum(
                st.plan.step_plan.cross_links().size for st in solver.ranks
            )
            solver.step(steps)
            logged = sum(
                ev.nbytes for ev in solver.comm.log.events if ev.kind == "p2p"
            )
            assert solver.halo_bytes_per_step() == 8 * cross_links
            assert logged == steps * 8 * cross_links


class TestOverlapConfig:
    def test_unknown_executor_rejected(self):
        # the retired thread-pool name gets no silent fallback either
        for name in ("mpi", "parallel"):
            with pytest.raises(ConfigError, match="lockstep, process"):
                SolverConfig(executor=name)
