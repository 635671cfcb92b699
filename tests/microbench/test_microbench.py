"""BabelStream / PingPong / host STREAM microbenchmarks."""

import numpy as np
import pytest

from repro.core import HardwareError
from repro.hardware import CRUSHER, SUMMIT, SUNSPOT, GPUSpec, all_machines
from repro.microbench import (
    KERNEL_BYTES_PER_ELEMENT,
    message_time,
    run_babelstream,
    run_host_stream,
    run_pingpong,
)


class TestBabelStream:
    def test_recovers_spec_bandwidth_within_2pct(self):
        for machine in all_machines():
            result = run_babelstream(machine.node.gpu)
            assert result.measured_bandwidth_tbs == pytest.approx(
                machine.node.gpu.mem_bandwidth_tbs, rel=0.02
            )

    def test_all_five_kernels_present(self):
        result = run_babelstream(SUMMIT.node.gpu)
        assert {k.kernel for k in result.kernels} == set(
            KERNEL_BYTES_PER_ELEMENT
        )

    def test_triad_moves_3_streams(self):
        result = run_babelstream(SUMMIT.node.gpu, elements=1 << 20)
        triad = result.best("triad")
        assert triad.nbytes == 3 * 8 * (1 << 20)

    def test_dot_slower_than_nothing_but_positive(self):
        result = run_babelstream(SUMMIT.node.gpu)
        for k in result.kernels:
            assert k.time_s > 0
            assert k.bandwidth_tbs > 0

    def test_small_arrays_hit_launch_overhead(self):
        """At tiny sizes the measured bandwidth collapses (launch bound)."""
        big = run_babelstream(SUMMIT.node.gpu, elements=1 << 24)
        small = run_babelstream(SUMMIT.node.gpu, elements=1 << 10)
        assert (
            small.measured_bandwidth_tbs < 0.5 * big.measured_bandwidth_tbs
        )

    def test_oom_rejected(self):
        tiny = GPUSpec("tiny", "NVIDIA", 0.001, 1.0)
        with pytest.raises(HardwareError, match="exceeds"):
            run_babelstream(tiny)

    def test_efficiency_scales_bandwidth(self):
        full = run_babelstream(SUMMIT.node.gpu)
        half = run_babelstream(SUMMIT.node.gpu, stream_efficiency=0.5)
        assert half.measured_bandwidth_tbs == pytest.approx(
            full.measured_bandwidth_tbs / 2, rel=0.02
        )

    def test_bad_params(self):
        with pytest.raises(HardwareError):
            run_babelstream(SUMMIT.node.gpu, elements=0)
        with pytest.raises(HardwareError):
            run_babelstream(SUMMIT.node.gpu, stream_efficiency=1.5)


class TestPingPong:
    def test_latency_floor_is_smallest_message(self):
        result = run_pingpong(CRUSHER, 0, 1, num_ranks=2)
        assert result.zero_size_latency_s == result.samples[0].time_s

    def test_bandwidth_saturates_at_large_messages(self):
        result = run_pingpong(CRUSHER, 0, 1, num_ranks=2, max_exponent=26)
        assert result.asymptotic_bandwidth_gbs == pytest.approx(
            200.0, rel=0.05
        )  # GCD-GCD Infinity Fabric

    def test_tier_recorded(self):
        same_pkg = run_pingpong(CRUSHER, 0, 1, num_ranks=2)
        assert same_pkg.tier == "same_package"
        inter = run_pingpong(CRUSHER, 0, 8, num_ranks=16)
        assert inter.tier == "inter_node"

    def test_monotone_in_size(self):
        result = run_pingpong(SUNSPOT, 0, 12, num_ranks=24)
        times = [s.time_s for s in result.samples]
        assert times == sorted(times)

    def test_non_gpu_aware_adds_staging(self):
        """HIP on Summit: host staging makes every message slower."""
        aware = message_time(SUMMIT, 0, 6, 12, 1 << 20, gpu_aware=True)
        staged = message_time(SUMMIT, 0, 6, 12, 1 << 20, gpu_aware=False)
        assert staged > aware
        from repro.hardware import LinkTier

        cpu_gpu = SUMMIT.node.link(LinkTier.CPU_GPU)
        assert staged == pytest.approx(
            aware + 2 * cpu_gpu.message_time(1 << 20)
        )

    def test_bad_exponent(self):
        with pytest.raises(HardwareError):
            run_pingpong(CRUSHER, max_exponent=-1)


class TestHostStream:
    def test_reports_all_kernels(self):
        result = run_host_stream(elements=1 << 16, ntimes=2)
        assert set(result.bandwidth_gbs) == {"copy", "mul", "add", "triad"}
        assert all(v > 0 for v in result.bandwidth_gbs.values())

    def test_bad_params(self):
        with pytest.raises(HardwareError):
            run_host_stream(elements=0)
        with pytest.raises(HardwareError):
            run_host_stream(ntimes=0)
