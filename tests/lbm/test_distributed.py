"""Distributed-solver equivalence and halo-exchange accounting."""

import os

import numpy as np
import pytest

from repro.core.errors import ConfigError, RuntimeSimError
from repro.decomp import (
    axis_decompose,
    bisection_decompose,
    grid_decompose,
    quadrant_decompose,
)
from repro.geometry import CylinderSpec, make_aorta, make_cylinder
from repro.lbm import (
    DistributedSolver,
    Solver,
    SolverConfig,
    load_checkpoint,
    load_fields,
    save_checkpoint,
    save_fields,
)
from repro.lbm.distributed import (
    BARRIER_SCHEDULE,
    ONE_PASS_SCHEDULE,
    OVERLAP_SCHEDULE,
    _overlap_window,
    schedule_for,
)
from repro.lbm.moments import density, velocity
from repro.models.compiled import compiled_available
from repro.runtime import RingTransport, SimComm, fork_available
from repro.runtime.shmem import leaked_segments

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs the POSIX fork start method"
)
compiled_only = pytest.mark.skipif(
    not compiled_available(), reason="no host C compiler available"
)

EXECUTORS = ["lockstep", pytest.param("process", marks=needs_fork)]


@pytest.fixture(scope="module")
def cylinder():
    return make_cylinder(CylinderSpec(scale=0.5))


@pytest.fixture(scope="module")
def aorta():
    return make_aorta(2.0)


CYL_CONFIG = dict(
    tau=0.8, force=(1e-6, 0.0, 0.0), periodic=(True, False, False)
)


class TestEquivalence:
    """Rung 3 of the validation ladder: distributed == single-domain."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 8])
    def test_cylinder_slabs_bitwise(self, cylinder, n_ranks):
        cfg = SolverConfig(**CYL_CONFIG)
        ref = Solver(cylinder, cfg)
        ref.step(15)
        part = axis_decompose(cylinder, n_ranks)
        dist = DistributedSolver(part, cfg)
        dist.step(15)
        assert np.array_equal(dist.gather_f(), ref.f)

    def test_cylinder_quadrants_bitwise(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG)
        ref = Solver(cylinder, cfg)
        ref.step(12)
        dist = DistributedSolver(quadrant_decompose(cylinder, 8), cfg)
        dist.step(12)
        assert np.array_equal(dist.gather_f(), ref.f)

    @pytest.mark.parametrize("n_ranks", [2, 5, 6])
    def test_aorta_bisection_bitwise(self, aorta, n_ranks):
        cfg = SolverConfig(tau=0.7, inlet_velocity=(0.0, 0.0, 0.02))
        ref = Solver(aorta, cfg)
        ref.step(10)
        dist = DistributedSolver(bisection_decompose(aorta, n_ranks), cfg)
        dist.step(10)
        assert np.array_equal(dist.gather_f(), ref.f)

    def test_aorta_block_decomposition_bitwise(self, aorta):
        """Even a badly balanced partition must be exact."""
        cfg = SolverConfig(tau=0.7, inlet_velocity=(0.0, 0.0, 0.02))
        ref = Solver(aorta, cfg)
        ref.step(8)
        dist = DistributedSolver(grid_decompose(aorta, 8), cfg)
        dist.step(8)
        assert np.array_equal(dist.gather_f(), ref.f)

    @pytest.mark.parametrize(
        "overlap", [False, True], ids=["barrier", "overlap"]
    )
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_pulsatile_inlet_bitwise(self, aorta, executor, overlap):
        # a time-dependent inlet pins where every tier reads ``time``
        from repro.harvey import PulsatileWaveform

        wave = PulsatileWaveform(peak_velocity=0.03, period_steps=20)
        cfg = SolverConfig(tau=0.8, inlet_velocity=wave)
        ref = Solver(aorta, cfg)
        ref.step(25)
        tier = SolverConfig(
            tau=0.8, inlet_velocity=wave, executor=executor, overlap=overlap
        )
        with DistributedSolver(bisection_decompose(aorta, 4), tier) as dist:
            dist.step(25)
            assert np.array_equal(dist.gather_f(), ref.f)


class TestCommunication:
    def test_halo_bytes_match_log(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG)
        part = axis_decompose(cylinder, 4)
        dist = DistributedSolver(part, cfg)
        dist.step(3)
        p2p = [e for e in dist.comm.log.events if e.kind == "p2p"]
        assert sum(e.nbytes for e in p2p) == 3 * dist.halo_bytes_per_step()

    def test_periodic_wrap_creates_end_to_end_exchange(self, cylinder):
        """Periodic x means rank 0 and the last rank are neighbours."""
        cfg = SolverConfig(**CYL_CONFIG)
        part = axis_decompose(cylinder, 4)
        dist = DistributedSolver(part, cfg)
        dist.step(1)
        pairs = set(dist.comm.log.bytes_by_pair())
        assert (0, 3) in pairs and (3, 0) in pairs

    def test_non_periodic_has_no_wraparound(self, aorta):
        cfg = SolverConfig(tau=0.7, inlet_velocity=(0.0, 0.0, 0.02))
        part = axis_decompose(aorta, 4, axis=2)
        dist = DistributedSolver(part, cfg)
        dist.step(1)
        pairs = set(
            (e.src, e.dst)
            for e in dist.comm.log.events
            if e.kind == "p2p"
        )
        assert (0, 3) not in pairs

    def test_exchange_symmetric_pairs(self, aorta):
        cfg = SolverConfig(tau=0.7, inlet_velocity=(0.0, 0.0, 0.02))
        dist = DistributedSolver(bisection_decompose(aorta, 6), cfg)
        dist.step(1)
        pairs = set(
            (e.src, e.dst)
            for e in dist.comm.log.events
            if e.kind == "p2p"
        )
        for (i, j) in pairs:
            assert (j, i) in pairs

    def test_mass_via_allreduce(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG)
        dist = DistributedSolver(axis_decompose(cylinder, 3), cfg)
        ref = Solver(cylinder, cfg)
        assert dist.mass() == pytest.approx(ref.mass())

    def test_external_comm_size_checked(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG)
        part = axis_decompose(cylinder, 4)
        from repro.core import RuntimeSimError

        with pytest.raises(RuntimeSimError, match="size"):
            DistributedSolver(part, cfg, comm=SimComm(3))

    def test_inlet_without_velocity_is_a_config_error(self, aorta):
        # the configuration is at fault, not the decomposition
        part = bisection_decompose(aorta, 2)
        with pytest.raises(ConfigError, match="inlet_velocity"):
            DistributedSolver(part, SolverConfig(tau=0.8))


class TestRankState:
    def test_owned_counts_match_partition(self, aorta):
        cfg = SolverConfig(tau=0.7, inlet_velocity=(0.0, 0.0, 0.02))
        part = bisection_decompose(aorta, 5)
        dist = DistributedSolver(part, cfg)
        for sub, st in zip(part.subdomains, dist.ranks):
            assert st.num_owned == sub.fluid_count

    def test_ghost_nodes_disjoint_from_owned(self, aorta):
        cfg = SolverConfig(tau=0.7, inlet_velocity=(0.0, 0.0, 0.02))
        dist = DistributedSolver(bisection_decompose(aorta, 4), cfg)
        for st in dist.ranks:
            assert st.f.shape == st.f_tmp.shape == (dist.lattice.q, st.num_owned)
            for carried in st.plan.recv_global.values():
                assert len(np.intersect1d(st.plan.owned_global, carried)) == 0

    def test_all_nodes_owned_exactly_once(self, aorta):
        cfg = SolverConfig(tau=0.7, inlet_velocity=(0.0, 0.0, 0.02))
        dist = DistributedSolver(bisection_decompose(aorta, 7), cfg)
        owned = np.concatenate([st.plan.owned_global for st in dist.ranks])
        assert owned.size == dist.num_nodes
        assert np.unique(owned).size == owned.size

    def test_velocity_matches_reference(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG)
        ref = Solver(cylinder, cfg)
        ref.step(30)
        dist = DistributedSolver(axis_decompose(cylinder, 4), cfg)
        dist.step(30)
        assert np.allclose(dist.velocity(), ref.velocity())


class TestDeclaredSchedule:
    """The step is one declaration executed by one loop over one transport."""

    def test_schedules_name_exactly_the_phase_bodies(self):
        scheduled = {
            phase.body
            for phase in BARRIER_SCHEDULE + OVERLAP_SCHEDULE + ONE_PASS_SCHEDULE
        }
        defined = {
            name
            for name, attr in vars(DistributedSolver).items()
            if name.startswith("_phase_") and callable(attr)
        }
        assert scheduled == defined
        assert len(defined) <= 7

    def test_span_order(self):
        assert [p.span for p in BARRIER_SCHEDULE] == [
            "collide", "exchange", "exchange", "stream", "frontier",
            "boundary",
        ]
        assert [p.span for p in OVERLAP_SCHEDULE] == [
            "collide", "exchange", "interior", "exchange", "frontier",
            "boundary",
        ]
        # one exchange: the schedules run the same bodies, reordered
        assert sorted(p.body for p in BARRIER_SCHEDULE) == sorted(
            p.body for p in OVERLAP_SCHEDULE
        )
        # one rank: collide + stream is one phase under the stream span
        assert [p.span for p in ONE_PASS_SCHEDULE] == ["stream", "boundary"]
        for schedule in (BARRIER_SCHEDULE, OVERLAP_SCHEDULE, ONE_PASS_SCHEDULE):
            assert [p.swaps for p in schedule].count(True) == 1

    def test_one_rank_selects_the_one_pass_under_either_overlap(self):
        for overlap in (False, True):
            assert schedule_for(1, overlap) is ONE_PASS_SCHEDULE
            assert schedule_for(2, overlap) is (
                OVERLAP_SCHEDULE if overlap else BARRIER_SCHEDULE
            )
        # no exchange phase, so no overlap window (it used to IndexError)
        assert _overlap_window(ONE_PASS_SCHEDULE) is None
        assert _overlap_window(BARRIER_SCHEDULE) is None
        assert _overlap_window(OVERLAP_SCHEDULE) == (1, 3)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_one_rank_phase_bytes_are_one_sweep(self, cylinder, overlap):
        # Eq. 1: 2 q 8 B per owned node for collide + stream together,
        # plus the tables the pass reads
        cfg = SolverConfig(**CYL_CONFIG, overlap=overlap)
        solver = DistributedSolver(axis_decompose(cylinder, 1), cfg)
        assert solver._schedule is ONE_PASS_SCHEDULE
        plan = solver.ranks[0].plan.step_plan
        sweep = solver.lattice.bytes_per_update() * solver.num_nodes
        assert solver.phase_bytes_per_step() == {
            "stream": sweep + 8 * plan.q * plan.num_update,
            "boundary": 0,
        }

    @pytest.mark.skipif(
        not compiled_available(), reason="no host C compiler available"
    )
    def test_one_rank_compiled_phase_bytes_count_the_tile_table(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG, backend="compiled-serial")
        solver = DistributedSolver(axis_decompose(cylinder, 1), cfg)
        tables = solver.ranks[0].tables
        assert tables is solver.ranks[0].plan.step_plan.tile_table
        sweep = solver.lattice.bytes_per_update() * solver.num_nodes
        assert solver.phase_bytes_per_step()["stream"] == sweep + sum(
            t.nbytes for t in tables
        )

    @pytest.mark.parametrize("overlap", [False, True])
    def test_phase_bytes_keyed_by_the_active_schedule(self, cylinder, overlap):
        cfg = SolverConfig(**CYL_CONFIG, overlap=overlap)
        solver = DistributedSolver(axis_decompose(cylinder, 2), cfg)
        schedule = OVERLAP_SCHEDULE if overlap else BARRIER_SCHEDULE
        assert set(solver.phase_bytes_per_step()) == {p.span for p in schedule}

    @pytest.mark.skipif(
        not fork_available(), reason="needs the POSIX fork start method"
    )
    @pytest.mark.parametrize("overlap", [False, True])
    def test_same_exchange_bodies_over_both_transports(self, cylinder, overlap):
        # the ring transport works within one process too, so the process
        # solver's exchange bodies can be driven here, unforked, next to
        # the SimComm solver's: same methods, same staged payloads
        part = axis_decompose(cylinder, 3)

        def exchanged(executor):
            cfg = SolverConfig(**CYL_CONFIG, overlap=overlap, executor=executor)
            with DistributedSolver(part, cfg) as solver:
                for rank in range(part.num_ranks):
                    solver._phase_collide(rank)
                for rank in range(part.num_ranks):
                    solver._phase_exchange_post(rank)
                for rank in range(part.num_ranks):
                    solver._phase_exchange_complete(rank)
                staged = [
                    {src: buf.copy() for src, buf in st.recv_bufs.items()}
                    for st in solver.ranks
                ]
                return type(solver._halo), solver._schedule, staged

        queue_type, queue_schedule, via_queue = exchanged("lockstep")
        ring_type, ring_schedule, via_ring = exchanged("process")
        assert queue_type is SimComm and ring_type is RingTransport
        assert queue_schedule is ring_schedule
        assert any(via_queue)
        for mine, theirs in zip(via_queue, via_ring):
            assert mine.keys() == theirs.keys()
            for src in mine:
                assert np.array_equal(mine[src], theirs[src])


class TestStepContract:
    """step() argument and lifecycle errors are the same on every executor."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_negative_num_steps_rejected(self, cylinder, executor):
        before = leaked_segments(os.getpid())
        cfg = SolverConfig(**CYL_CONFIG, executor=executor)
        with DistributedSolver(axis_decompose(cylinder, 2), cfg) as solver:
            with pytest.raises(ConfigError, match="non-negative"):
                solver.step(-3)
            assert solver.time == 0
            solver.step(0)  # zero steps stays a no-op
            assert solver.time == 0
        assert leaked_segments(os.getpid()) == before

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_step_after_close_rejected(self, cylinder, executor):
        before = leaked_segments(os.getpid())
        cfg = SolverConfig(**CYL_CONFIG, executor=executor)
        solver = DistributedSolver(axis_decompose(cylinder, 2), cfg)
        solver.step(2)
        solver.close()
        with pytest.raises(RuntimeSimError, match="closed"):
            solver.step(1)
        assert solver.time == 2
        solver.close()  # idempotent
        assert leaked_segments(os.getpid()) == before

    @pytest.mark.parametrize(
        "executor, backend",
        [
            pytest.param("lockstep", "numpy", id="lockstep-numpy"),
            pytest.param("process", "numpy", id="process-numpy", marks=needs_fork),
            pytest.param(
                "process", "compiled-serial", id="process-compiled-serial",
                marks=[needs_fork, compiled_only],
            ),
        ],
    )
    def test_observables_after_close_raise(
        self, cylinder, executor, backend, tmp_path, hard_time_bound
    ):
        # a closed process-tier f points into unmapped segments: reading
        # it must raise, not crash the interpreter (SIGSEGV)
        before = leaked_segments(os.getpid())
        cfg = SolverConfig(**CYL_CONFIG, executor=executor, backend=backend)
        solver = DistributedSolver(axis_decompose(cylinder, 2), cfg)
        solver.step(2)
        saved = save_checkpoint(solver, tmp_path / "open")
        solver.close()
        reads = [
            solver.gather_f,
            solver.mass,
            solver.velocity,
            lambda: save_checkpoint(solver, tmp_path / "closed"),
            lambda: load_checkpoint(solver, saved),
            lambda: save_fields(solver, tmp_path / "fields"),
        ]
        for read in reads:
            with pytest.raises(RuntimeSimError, match="solver is closed"):
                read()
        assert leaked_segments(os.getpid()) == before


GATHER_ROWS = [
    pytest.param({}, id="numpy-barrier"),
    pytest.param(
        {"backend": "compiled-serial", "overlap": True},
        id="compiled-serial-overlap",
        marks=compiled_only,
    ),
]


@pytest.mark.parametrize("kw", GATHER_ROWS)
class TestGatherContract:
    """``gather_f`` returns a fresh array the caller owns; every
    observable built on it is bit-for-bit the gathered state."""

    def test_each_call_is_a_fresh_snapshot(self, cylinder, kw):
        cfg = SolverConfig(**CYL_CONFIG, **kw)
        solver = DistributedSolver(axis_decompose(cylinder, 2), cfg)
        solver.step(2)
        first, second = solver.gather_f(), solver.gather_f()
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        kept = first.copy()
        solver.step(3)
        assert np.array_equal(first, kept)
        assert not np.array_equal(solver.gather_f(), kept)

    def test_observables_are_the_gathered_state(self, cylinder, kw, tmp_path):
        partition = axis_decompose(cylinder, 2)
        cfg = SolverConfig(**CYL_CONFIG, **kw)
        solver = DistributedSolver(partition, cfg)
        solver.step(3)
        f, u = solver.gather_f(), solver.velocity()
        assert np.array_equal(
            u, velocity(solver.lattice, f, solver.collision.force)
        )
        fields = load_fields(save_fields(solver, tmp_path / "fields"))
        at = tuple(solver.coords.T)
        assert np.array_equal(fields["velocity"][at], u.astype(np.float32))
        assert np.array_equal(
            fields["density"][at], density(f).astype(np.float32)
        )
        restored = DistributedSolver(partition, cfg)
        load_checkpoint(restored, save_checkpoint(solver, tmp_path / "ckpt"))
        assert np.array_equal(restored.gather_f(), f)
        assert np.array_equal(restored.velocity(), u)
        solver.step(2)
        restored.step(2)
        assert np.array_equal(restored.gather_f(), solver.gather_f())
