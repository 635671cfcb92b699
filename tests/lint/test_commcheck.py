"""Communication-schedule verification, including the solver pre-flight."""

import pytest

from repro.core.errors import CommScheduleError
from repro.decomp import axis_decompose, bisection_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import DistributedSolver, SolverConfig
from repro.lint import (
    CommSchedule,
    check_schedule,
    schedule_from_rank_states,
    verify_schedule,
)

CYL_CONFIG = dict(
    tau=0.8, force=(1e-6, 0.0, 0.0), periodic=(True, False, False)
)


def _kinds(issues):
    return sorted(i.kind for i in issues)


class TestMatching:
    def test_valid_pairwise_exchange(self):
        sched = CommSchedule(2)
        sched.add_recv(0, 1, tag=1, count=8)
        sched.add_recv(1, 0, tag=1, count=8)
        sched.add_send(0, 1, tag=1, count=8)
        sched.add_send(1, 0, tag=1, count=8)
        assert check_schedule(sched) == []
        verify_schedule(sched)  # should not raise

    def test_unmatched_recv(self):
        # acceptance criterion: a hand-built schedule with an unmatched
        # recv is rejected
        sched = CommSchedule(2)
        sched.add_recv(1, 0, tag=1, count=8)
        issues = check_schedule(sched)
        assert "unmatched-recv" in _kinds(issues)
        with pytest.raises(CommScheduleError, match="S301"):
            verify_schedule(sched)

    def test_unmatched_send(self):
        sched = CommSchedule(2)
        sched.add_send(0, 1, tag=1, count=8)
        assert "unmatched-send" in _kinds(check_schedule(sched))

    def test_tag_collision(self):
        sched = CommSchedule(2)
        sched.add_recv(1, 0, tag=1)
        sched.add_recv(1, 0, tag=1)
        sched.add_send(0, 1, tag=1)
        sched.add_send(0, 1, tag=1)
        assert "tag-collision" in _kinds(check_schedule(sched))

    def test_count_mismatch(self):
        sched = CommSchedule(2)
        sched.add_recv(1, 0, tag=1, count=16)
        sched.add_send(0, 1, tag=1, count=8)
        assert "count-mismatch" in _kinds(check_schedule(sched))

    def test_zero_count_skips_count_check(self):
        sched = CommSchedule(2)
        sched.add_recv(1, 0, tag=1, count=0)
        sched.add_send(0, 1, tag=1, count=8)
        assert check_schedule(sched) == []

    def test_self_message_rejected(self):
        sched = CommSchedule(2)
        with pytest.raises(CommScheduleError):
            sched.add_send(0, 0, tag=1)

    def test_out_of_range_rank_rejected(self):
        sched = CommSchedule(2)
        with pytest.raises(CommScheduleError):
            sched.add_recv(0, 5, tag=1)


class TestProgress:
    def test_nonblocking_order_is_deadlock_free(self):
        # Isend/Irecv in any order complete (the solvers' pattern)
        sched = CommSchedule(2)
        sched.add_send(0, 1, tag=1)
        sched.add_recv(0, 1, tag=2)
        sched.add_send(1, 0, tag=2)
        sched.add_recv(1, 0, tag=1)
        assert check_schedule(sched) == []


class TestSolverPreflight:
    @pytest.fixture(scope="class")
    def cylinder(self):
        return make_cylinder(CylinderSpec(scale=0.5))

    def test_real_decomposition_passes(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG)
        part = axis_decompose(cylinder, 4)
        solver = DistributedSolver(part, cfg)  # validates by default
        sched = schedule_from_rank_states(solver.ranks, part.num_ranks)
        assert check_schedule(sched) == []
        assert sched.num_ops > 0

    def test_bisection_decomposition_passes(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG)
        part = bisection_decompose(cylinder, 3)
        solver = DistributedSolver(part, cfg)
        sched = schedule_from_rank_states(solver.ranks, part.num_ranks)
        assert check_schedule(sched) == []

    def test_corrupted_wiring_caught_preflight(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG)
        part = axis_decompose(cylinder, 2)
        solver = DistributedSolver(part, cfg, validate_schedule=False)
        # sabotage: rank 1 forgets its receive from rank 0
        solver.ranks[1].plan.recv_flat.pop(0)
        sched = schedule_from_rank_states(solver.ranks, part.num_ranks)
        assert "unmatched-send" in _kinds(check_schedule(sched))

    def test_count_disagreement_caught_preflight(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG)
        part = axis_decompose(cylinder, 2)
        solver = DistributedSolver(part, cfg, validate_schedule=False)
        recv_flat = solver.ranks[1].plan.recv_flat
        recv_flat[0] = recv_flat[0][:-1]  # one payload slot short
        sched = schedule_from_rank_states(solver.ranks, part.num_ranks)
        assert "count-mismatch" in _kinds(check_schedule(sched))

    def test_opt_out_skips_validation(self, cylinder):
        cfg = SolverConfig(**CYL_CONFIG)
        part = axis_decompose(cylinder, 2)
        solver = DistributedSolver(part, cfg, validate_schedule=False)
        solver.step(2)  # still runs fine; only the pre-flight was skipped


class TestOverlapSchedule:
    """The interior/frontier pipeline's post -> compute -> wait shape."""

    def _overlap_sched(self):
        sched = CommSchedule(2)
        for r, peer in ((0, 1), (1, 0)):
            sched.add_recv(r, peer, tag=1, count=5)
            sched.add_send(r, peer, tag=1, count=5)
            sched.add_compute(r)
            sched.add_wait(r, peer, tag=1, count=5)
        return sched

    def test_straddled_exchange_is_not_a_deadlock(self):
        """Regression: post/complete straddling a compute phase used to
        be inexpressible (and, modeled as extra recvs, miscounted as
        unmatched) — it must verify clean."""
        assert check_schedule(self._overlap_sched()) == []

    def test_wait_does_not_double_count_as_recv(self):
        sched = self._overlap_sched()
        issues = check_schedule(sched)
        assert "unmatched-recv" not in _kinds(issues)

    def test_wait_without_send_deadlocks(self):
        sched = CommSchedule(2)
        sched.add_recv(0, 1, tag=1)
        sched.add_compute(0)
        sched.add_wait(0, 1, tag=1)  # rank 1 never sends
        assert _kinds(check_schedule(sched)) == [
            "deadlock",
            "unmatched-recv",
        ]

    def test_compute_never_stalls(self):
        sched = CommSchedule(2)
        sched.add_compute(0)
        sched.add_compute(1)
        assert check_schedule(sched) == []

    def test_unknown_kind_still_rejected(self):
        from repro.lint.commcheck import CommOp

        with pytest.raises(CommScheduleError):
            CommOp("probe", 0, 1, 1)

    def test_overlap_solver_preflight_passes(self):
        cylinder = make_cylinder(CylinderSpec(scale=0.5))
        cfg = SolverConfig(**CYL_CONFIG, overlap=True)
        part = axis_decompose(cylinder, 4)
        solver = DistributedSolver(part, cfg)  # validates by default
        sched = schedule_from_rank_states(
            solver.ranks, part.num_ranks, overlap=True
        )
        assert check_schedule(sched) == []
        kinds = {
            op.kind for rank_ops in sched.ops for op in rank_ops
        }
        assert kinds == {"recv", "send", "compute", "wait"}

    def test_overlap_packed_counts_cross_checked(self):
        cylinder = make_cylinder(CylinderSpec(scale=0.5))
        cfg = SolverConfig(**CYL_CONFIG, overlap=True)
        part = axis_decompose(cylinder, 2)
        solver = DistributedSolver(part, cfg, validate_schedule=False)
        # sabotage: drop one link from rank 1's injection table
        recv_flat = solver.ranks[1].plan.recv_flat
        recv_flat[0] = recv_flat[0][:-1]
        sched = schedule_from_rank_states(
            solver.ranks, part.num_ranks, overlap=True
        )
        assert "count-mismatch" in _kinds(check_schedule(sched))
