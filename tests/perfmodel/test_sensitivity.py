"""Performance-model sensitivity analysis."""

import pytest

from repro.core import PerfModelError
from repro.hardware import CRUSHER, POLARIS, SUMMIT
from repro.analysis.sweep import sensitivity_sweep
from repro.perfmodel import (
    Sensitivity,
    dominant_resource,
    sensitivity_analysis,
)


class TestSensitivity:
    def test_single_gpu_fully_memory_bound(self):
        """With no communication, all elasticity sits on memory BW."""
        s = sensitivity_analysis(SUMMIT, 1e7, 1)
        assert s.memory_bandwidth == pytest.approx(1.0, abs=0.01)
        assert s.interconnect_bandwidth == pytest.approx(0.0, abs=0.01)
        assert s.interconnect_latency == pytest.approx(0.0, abs=0.01)

    def test_elasticities_sum_to_one_at_scale(self):
        """Bandwidth-type elasticities of a time-additive model sum ~1
        (latency contributes the small remainder)."""
        s = sensitivity_analysis(POLARIS, 1e9, 256)
        total = (
            s.memory_bandwidth
            + s.interconnect_bandwidth
            - s.interconnect_latency  # latency elasticity is negative
        )
        assert total == pytest.approx(1.0, abs=0.02)

    def test_communication_grows_with_strong_scaling(self):
        small = sensitivity_analysis(POLARIS, 1e9, 8)
        large = sensitivity_analysis(POLARIS, 1e9, 512)
        assert large.interconnect_bandwidth > small.interconnect_bandwidth
        assert large.memory_bandwidth < small.memory_bandwidth

    def test_latency_elasticity_nonpositive(self):
        s = sensitivity_analysis(SUMMIT, 1e8, 128)
        assert s.interconnect_latency <= 1e-9

    def test_dominant_resource_transition(self):
        """Compute-bound at low counts; Polaris' thin fabric takes over
        under extreme strong scaling."""
        low = sensitivity_analysis(POLARIS, 1e9, 2)
        assert dominant_resource(low) == "memory_bandwidth"
        high = sensitivity_analysis(POLARIS, 1e8, 1024)
        assert dominant_resource(high) == "interconnect_bandwidth"

    def test_crusher_less_network_sensitive_than_polaris(self):
        """The Fig. 7 story as an elasticity: Crusher's 4x fabric makes
        it less communication-bound at matched configuration."""
        p = sensitivity_analysis(POLARIS, 1e9, 512)
        c = sensitivity_analysis(CRUSHER, 1e9, 512)
        assert c.interconnect_bandwidth < p.interconnect_bandwidth

    def test_sweep_weak_scaling(self):
        sweep = [
            s for s in sensitivity_sweep((2, 16, 128), 2e6)
            if s.machine == SUMMIT.name
        ]
        assert [s.n_gpus for s in sweep] == [2, 16, 128]
        assert [s.total_fluid for s in sweep] == [4e6, 32e6, 256e6]
        # weak scaling: fixed work per GPU, comm share still grows with
        # the face count w until it saturates
        assert (
            sweep[-1].interconnect_bandwidth
            >= sweep[0].interconnect_bandwidth
        )

    def test_as_dict(self):
        s = sensitivity_analysis(SUMMIT, 1e7, 4)
        d = s.as_dict()
        assert set(d) == {
            "memory_bandwidth",
            "interconnect_bandwidth",
            "interconnect_latency",
        }

    def test_validation(self):
        with pytest.raises(PerfModelError):
            sensitivity_analysis(SUMMIT, 0, 4)
        with pytest.raises(PerfModelError):
            sensitivity_analysis(SUMMIT, 1e6, 0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PerfModelError):
                sensitivity_analysis(SUMMIT, bad, 4)
