"""Host-executor parallel-efficiency model (DESIGN §14)."""

import pytest

from repro.core.errors import PerfModelError
from repro.perfmodel import (
    overlap_step_time,
    parallel_efficiency,
    predicted_speedup,
    rank_concurrency,
)


class TestRankConcurrency:
    def test_lockstep_is_serial(self):
        assert rank_concurrency("lockstep", 8, 64) == 1.0

    def test_process_bounded_by_ranks_and_cores(self):
        assert rank_concurrency("process", 4, 64) == 4.0
        assert rank_concurrency("process", 8, 4) == 4.0
        assert rank_concurrency("process", 8, 1) == 1.0

    def test_validation(self):
        with pytest.raises(PerfModelError):
            rank_concurrency("lockstep", 0, 4)
        with pytest.raises(PerfModelError):
            rank_concurrency("lockstep", 4, 0)
        for executor in ("forked", "parallel"):
            with pytest.raises(PerfModelError, match="lockstep, process"):
                rank_concurrency(executor, 4, 4)


class TestEfficiency:
    def test_speedup_equals_concurrency(self):
        for ex in ("lockstep", "process"):
            assert predicted_speedup(ex, 4, 8) == rank_concurrency(ex, 4, 8)

    def test_efficiency_is_speedup_per_rank(self):
        for ex in ("lockstep", "process"):
            eff = parallel_efficiency(ex, 4, 8)
            assert eff == pytest.approx(predicted_speedup(ex, 4, 8) / 4)

    def test_process_perfect_when_cores_suffice(self):
        assert parallel_efficiency("process", 4, 8) == pytest.approx(1.0)

    def test_single_core_host_is_core_bound(self):
        # why 1-core numbers are labelled core-bound, never scaling results
        for ex in ("lockstep", "process"):
            for nr in (2, 4, 8):
                assert parallel_efficiency(ex, nr, 1) == pytest.approx(
                    1.0 / nr
                )


class TestOverlapStepTime:
    def test_comm_hidden_behind_interior(self):
        assert overlap_step_time(10.0, 2.0, 4.0) == 12.0

    def test_comm_bound_when_interior_short(self):
        assert overlap_step_time(3.0, 2.0, 9.0) == 11.0

    def test_frontier_always_pays(self):
        assert overlap_step_time(0.0, 5.0, 0.0) == 5.0

    def test_negative_rejected(self):
        with pytest.raises(PerfModelError):
            overlap_step_time(1.0, -0.1, 1.0)
