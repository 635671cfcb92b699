"""Phase access logging and the happens-before check."""

import numpy as np
import pytest

from repro.core.errors import RuntimeSimError
from repro.runtime.executor import LockstepExecutor, PhaseAccessLog
from repro.runtime.simmpi import SimComm


class TestPhaseAccessLog:
    def test_same_phase_cross_rank_write_read_conflicts(self):
        log = PhaseAccessLog()
        log.begin_phase("stream")
        log.record(0, "rank1.f", "write")
        log.record(1, "rank1.f", "read")
        conflicts = log.conflicts()
        assert len(conflicts) == 1
        c = conflicts[0]
        assert c.buffer == "rank1.f"
        assert set(c.ranks) == {0, 1}
        assert "stream" in c.describe()

    def test_write_write_conflicts(self):
        log = PhaseAccessLog()
        log.begin_phase("collide")
        log.record(0, "shared", "write")
        log.record(1, "shared", "write")
        assert len(log.conflicts()) == 1

    def test_barrier_orders_phases(self):
        # the same accesses in different epochs have a happens-before
        # edge through the phase barrier: no conflict
        log = PhaseAccessLog()
        log.begin_phase("collide")
        log.record(0, "rank1.f", "write")
        log.begin_phase("stream")
        log.record(1, "rank1.f", "read")
        assert log.conflicts() == []

    def test_same_rank_is_ordered_by_program_order(self):
        log = PhaseAccessLog()
        log.begin_phase("collide")
        log.record(0, "rank0.f", "write")
        log.record(0, "rank0.f", "read")
        assert log.conflicts() == []

    def test_reads_alone_never_conflict(self):
        log = PhaseAccessLog()
        log.begin_phase("post")
        log.record(0, "plan", "read")
        log.record(1, "plan", "read")
        assert log.conflicts() == []

    def test_locked_accesses_are_exempt(self):
        log = PhaseAccessLog()
        log.begin_phase("exchange")
        log.record(0, "comm.queue", "write", locked=True)
        log.record(1, "comm.queue", "read", locked=True)
        assert log.conflicts() == []

    def test_invalid_mode_rejected(self):
        log = PhaseAccessLog()
        log.begin_phase("p")
        with pytest.raises(RuntimeSimError, match="mode"):
            log.record(0, "b", "mutate")

    def test_clear_resets_records(self):
        log = PhaseAccessLog()
        log.begin_phase("p")
        log.record(0, "b", "write")
        log.record(1, "b", "write")
        log.clear()
        assert log.conflicts() == []


class TestExecutorIntegration:
    @pytest.mark.parametrize("cls", [LockstepExecutor])
    def test_run_phase_advances_epoch(self, cls):
        ex = cls(2)
        ex.access_log = PhaseAccessLog()
        seen = []

        def phase(rank):
            ex.access_log.record(rank, f"rank{rank}.f", "write")
            seen.append(rank)

        ex.run_phase(phase, name="collide")
        ex.run_phase(phase, name="stream")
        assert sorted(seen) == [0, 0, 1, 1]
        epochs = {r.epoch for r in ex.access_log.records}
        assert len(epochs) == 2
        assert ex.access_log.conflicts() == []

    def test_simcomm_records_under_lock(self):
        comm = SimComm(2)
        comm.access_log = PhaseAccessLog()
        comm.access_log.begin_phase("exchange")
        payload = np.arange(4.0)
        comm.send(0, 1, payload, tag=7)
        out = comm.recv(1, 0, tag=7)
        assert np.array_equal(out, payload)
        assert len(comm.access_log.records) == 2
        assert all(r.locked for r in comm.access_log.records)
        assert comm.access_log.conflicts() == []
