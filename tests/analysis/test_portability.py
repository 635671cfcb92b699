"""Performance-portability metric (Pennycook PP)."""

import pytest

from repro.analysis import (
    performance_portability,
    study_portability,
)
from repro.core import PerfModelError


class TestMetric:
    def test_harmonic_mean(self):
        assert performance_portability([0.5, 0.5]) == pytest.approx(0.5)
        assert performance_portability([1.0, 0.25]) == pytest.approx(0.4)

    def test_zero_platform_zeroes_metric(self):
        assert performance_portability([0.9, 0.0, 0.8]) == 0.0

    def test_single_platform(self):
        assert performance_portability([0.7]) == pytest.approx(0.7)

    def test_harmonic_below_arithmetic(self):
        effs = [0.9, 0.5, 0.7]
        pp = performance_portability(effs)
        assert pp < sum(effs) / len(effs)

    def test_validation(self):
        with pytest.raises(PerfModelError):
            performance_portability([])
        with pytest.raises(PerfModelError):
            performance_portability([1.2])
        with pytest.raises(PerfModelError):
            performance_portability([-0.1])


class TestStudyPortability:
    @pytest.fixture(scope="class")
    def report(self):
        return study_portability("cylinder", 64, "architectural")

    def test_only_kokkos_codebase_has_nonzero_pp(self, report):
        """Section 10: Kokkos is the only implementation reaching all
        four systems, so it alone has a nonzero PP over the full set."""
        nonzero = {m for m, v in report.per_model.items() if v > 0}
        assert nonzero == {"kokkos (any backend)"}

    def test_kokkos_pp_is_meaningful(self, report):
        pp = report.per_model["kokkos (any backend)"]
        assert 0.2 < pp < 0.9
        assert report.best_universal() == "kokkos (any backend)"

    def test_per_platform_ports_cover_subsets(self, report):
        assert set(report.per_model_supported["cuda"]) == {
            "Polaris", "Summit"
        }
        assert set(report.per_model_supported["sycl"]) == {
            "Sunspot", "Crusher", "Polaris"
        }
        assert set(
            report.per_model_supported["kokkos (any backend)"]
        ) == {"Sunspot", "Crusher", "Polaris", "Summit"}

    def test_application_efficiency_variant(self):
        report = study_portability("cylinder", 16, "application")
        pp = report.per_model["kokkos (any backend)"]
        # against best-observed, the deployed Kokkos backends hold high
        # application efficiency on every system
        assert pp > 0.7

    def test_aorta_variant(self):
        report = study_portability("aorta", 64, "architectural")
        assert report.per_model["kokkos (any backend)"] > 0

    def test_validation(self):
        with pytest.raises(PerfModelError):
            study_portability("cylinder", 64, "geometric")

    @pytest.mark.parametrize("n_gpus", [0, 3, 5000])
    def test_gpu_count_outside_the_schedule_is_refused(self, n_gpus):
        # not silently answered at another schedule point
        with pytest.raises(PerfModelError, match="valid counts: 2, 4, 8"):
            study_portability("cylinder", n_gpus, "application")

    def test_sunspot_reuses_its_largest_point_past_its_budget(self):
        report = study_portability("cylinder", 512, "application")
        assert "Sunspot" in report.per_model_supported["sycl"]
