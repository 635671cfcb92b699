"""Shared-memory substrate: registry lifecycle, SPSC rings, transport."""

import os
import time

import numpy as np
import pytest

from repro.core.errors import RuntimeSimError, SanitizeError
from repro.runtime.shmem import (
    SEGMENT_PREFIX,
    RingBuffer,
    RingTransport,
    SegmentRegistry,
    leaked_segments,
)


class TestSegmentRegistry:
    def test_canonical_naming(self):
        with SegmentRegistry() as reg:
            name = reg.segment_name("rank0.f")
            assert name.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-")
            assert name.endswith("-rank0.f")

    def test_ndarray_zero_filled_and_tracked(self):
        with SegmentRegistry() as reg:
            arr = reg.ndarray("a", (19, 32))
            assert arr.shape == (19, 32)
            assert arr.dtype == np.float64
            assert not arr.any()
            assert reg.labels == ["a"]
            assert reg.nbytes >= arr.nbytes
            # the segment is visible while the registry is open
            assert leaked_segments(os.getpid())

    def test_duplicate_label_rejected(self):
        with SegmentRegistry() as reg:
            reg.ndarray("a", (4,))
            with pytest.raises(RuntimeSimError):
                reg.ndarray("a", (4,))

    def test_close_unlinks_everything(self):
        reg = SegmentRegistry()
        reg.ndarray("a", (8,))
        reg.ndarray("b", (8,))
        reg.close()
        assert leaked_segments(os.getpid()) == []
        reg.close()  # idempotent
        with pytest.raises(RuntimeSimError):
            reg.ndarray("c", (8,))

    def test_close_survives_live_views(self):
        reg = SegmentRegistry()
        arr = reg.ndarray("a", (8,))
        arr[:] = 3.0
        # live numpy views export the segment's buffer; close() must
        # still unlink the /dev/shm entry without raising (the views
        # themselves are dead after close — owners drop them first)
        reg.close()
        assert leaked_segments(os.getpid()) == []


class TestRingBuffer:
    def test_wraparound(self):
        with SegmentRegistry() as reg:
            ring = RingBuffer(reg, "r", items=4, capacity=2)
            out = np.empty(4)
            for i in range(5):  # 5 pushes through a capacity-2 ring
                ring.push(np.full(4, float(i)))
                ring.pop_into(out)
                assert np.array_equal(out, np.full(4, float(i)))
            assert len(ring) == 0

    def test_backpressure_blocks_then_drains(self):
        with SegmentRegistry() as reg:
            ring = RingBuffer(reg, "r", items=2, capacity=1)
            ring.push(np.zeros(2))
            with pytest.raises(RuntimeSimError, match="timed out"):
                ring.push(np.ones(2), timeout=0.05)
            out = np.empty(2)
            ring.pop_into(out)
            ring.push(np.ones(2))  # slot freed, push succeeds
            ring.pop_into(out)
            assert np.array_equal(out, np.ones(2))

    def test_empty_pop_times_out(self):
        with SegmentRegistry() as reg:
            ring = RingBuffer(reg, "r", items=2, capacity=2)
            with pytest.raises(RuntimeSimError, match="timed out"):
                ring.pop_into(np.empty(2), timeout=0.05)

    def test_wait_ends_when_the_creator_is_gone(self):
        with SegmentRegistry() as reg:
            ring = RingBuffer(reg, "r", items=2, capacity=2)
            # no process has pid -1: to this waiter the creator is not
            # its parent, as in a worker whose parent was killed
            ring._creator_pid = -1
            t0 = time.monotonic()
            with pytest.raises(RuntimeSimError, match="creating process"):
                ring.pop_into(np.empty(2), timeout=2.0)
            assert time.monotonic() - t0 < 1.0

    def test_torn_write_detected(self):
        with SegmentRegistry() as reg:
            ring = RingBuffer(reg, "r", items=2, capacity=2)
            ring.push(np.zeros(2))
            # simulate a producer crash mid-copy: post epoch never lands
            ring._post[0] = 0
            with pytest.raises(SanitizeError, match="torn"):
                ring.pop_into(np.empty(2))

    def test_size_mismatch_rejected(self):
        with SegmentRegistry() as reg:
            ring = RingBuffer(reg, "r", items=3, capacity=2)
            with pytest.raises(RuntimeSimError):
                ring.push(np.zeros(4))
            with pytest.raises(RuntimeSimError):
                ring.pop_into(np.empty(2))

    def test_validation(self):
        with SegmentRegistry() as reg:
            with pytest.raises(RuntimeSimError):
                RingBuffer(reg, "r", items=0)
            with pytest.raises(RuntimeSimError):
                RingBuffer(reg, "r2", items=2, capacity=0)


class TestRingTransport:
    def test_send_recv_roundtrip(self):
        with SegmentRegistry() as reg:
            tr = RingTransport(reg, [(0, 1, 4), (1, 0, 4)])
            tr.send(0, 1, np.arange(4.0))
            out = np.empty(4)
            tr.recv_into(1, 0, out)
            assert np.array_equal(out, np.arange(4.0))
            assert tr.pairs == [(0, 1), (1, 0)]
            assert tr.payload_items(0, 1) == 4

    def test_unwired_pair_rejected(self):
        with SegmentRegistry() as reg:
            tr = RingTransport(reg, [(0, 1, 4)])
            with pytest.raises(RuntimeSimError, match="no ring wired"):
                tr.send(1, 0, np.zeros(4))

    def test_duplicate_pair_rejected(self):
        with SegmentRegistry() as reg:
            with pytest.raises(RuntimeSimError, match="duplicate"):
                RingTransport(reg, [(0, 1, 4), (0, 1, 4)])
