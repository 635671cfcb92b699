"""Property-based tests spanning subsystems (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import CRUSHER, POLARIS, SUMMIT, all_machines
from repro.microbench import message_time
from repro.perf import cylinder_trace, price_run
from repro.perfmodel import face_count, predict_iteration
from repro.runtime import SimComm


class TestPlacementProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 512),
        machine_idx=st.integers(0, 3),
    )
    def test_placement_is_injective(self, n, machine_idx):
        """No two ranks share a (node, package, subdevice) slot."""
        machine = all_machines()[machine_idx]
        n = min(n, machine.max_ranks)
        slots = set()
        for r in range(n):
            p = machine.placement(r, n)
            slot = (p.node, p.package, p.subdevice)
            assert slot not in slots
            slots.add(slot)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.integers(0, 63),
        b=st.integers(0, 63),
    )
    def test_link_classification_symmetric(self, a, b):
        if a == b:
            return
        t1 = CRUSHER.classify_pair(a, b, 64)
        t2 = CRUSHER.classify_pair(b, a, 64)
        assert t1 == t2


class TestPricingProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        nbytes=st.integers(0, 1 << 24),
        gpu_aware=st.booleans(),
    )
    def test_message_time_monotone_in_size(self, nbytes, gpu_aware):
        t_small = message_time(SUMMIT, 0, 6, 12, nbytes, gpu_aware)
        t_large = message_time(SUMMIT, 0, 6, 12, nbytes + 4096, gpu_aware)
        assert t_large > t_small

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([2, 4, 8, 16, 32, 64]))
    def test_prediction_monotone_in_bandwidth(self, n):
        """A faster device never predicts slower (fixed comm)."""
        from dataclasses import replace

        from repro.hardware.node import NodeSpec

        slow = predict_iteration(SUMMIT, 1e8, n)
        gpu = replace(
            SUMMIT.node.gpu, mem_bandwidth_tbs=2 * SUMMIT.node.gpu.mem_bandwidth_tbs
        )
        node = NodeSpec(
            cpu_name=SUMMIT.node.cpu_name,
            cpus=SUMMIT.node.cpus,
            cores_per_cpu=SUMMIT.node.cores_per_cpu,
            gpu=gpu,
            packages=SUMMIT.node.packages,
            links=SUMMIT.node.links,
        )
        fast_machine = replace(SUMMIT, node=node)
        fast = predict_iteration(fast_machine, 1e8, n)
        assert fast.mflups > slow.mflups

    @settings(max_examples=8, deadline=None)
    @given(n=st.sampled_from([2, 4, 8, 16]))
    def test_priced_run_scales_with_problem(self, n):
        """Twice the problem never yields a faster iteration."""
        small = price_run(
            cylinder_trace(6.0, n, scheme="bisection", with_caps=True),
            POLARIS, "cuda", "harvey",
        )
        big = price_run(
            cylinder_trace(12.0, n, scheme="bisection", with_caps=True),
            POLARIS, "cuda", "harvey",
        )
        assert big.t_iteration > small.t_iteration
        # and throughput improves or holds (better occupancy, amortised
        # latency)
        assert big.mflups >= small.mflups * 0.95

    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(1, 10))
    def test_face_count_matches_closed_form(self, k):
        assert face_count(2**k) == 2 * min(k, 6)


class TestSimCommProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        payloads=st.lists(
            st.lists(st.floats(-10, 10), min_size=1, max_size=5),
            min_size=1,
            max_size=8,
        )
    )
    def test_fifo_per_channel(self, payloads):
        comm = SimComm(2)
        for payload in payloads:
            comm.send(0, 1, np.asarray(payload))
        for payload in payloads:
            out = comm.recv(1, 0)
            assert np.array_equal(out, np.asarray(payload))
        assert comm.pending_messages == 0

    @settings(max_examples=15, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=16))
    def test_allreduce_matches_numpy(self, values):
        comm = SimComm(len(values))
        assert comm.allreduce(values) == pytest.approx(
            float(np.asarray(values).sum()), rel=1e-12, abs=1e-9
        )


class TestTraceScalingProperties:
    @settings(max_examples=10, deadline=None)
    @given(factor=st.sampled_from([2.0, 3.0, 4.0]))
    def test_exact_volume_surface_scaling(self, factor):
        base = cylinder_trace(12.0, 8, scheme="bisection", with_caps=True)
        scaled = cylinder_trace(
            12.0 * factor, 8, scheme="bisection", with_caps=True
        )
        assert scaled.total_fluid == pytest.approx(
            base.total_fluid * factor**3, rel=1e-9
        )
        h_base = sum(r.halo_sites_total() for r in base.ranks)
        h_scaled = sum(r.halo_sites_total() for r in scaled.ranks)
        assert h_scaled == pytest.approx(h_base * factor**2, rel=1e-9)
