"""Trace generation, calibration, and the pricing engine."""

import numpy as np
import pytest

from repro.core import PerfModelError
from repro.geometry import cylinder_fluid_estimate
from repro.hardware import CRUSHER, POLARIS, SUMMIT, SUNSPOT, get_machine
from repro.perf import (
    Calibration,
    aorta_trace,
    bytes_per_update,
    coarse_cylinder_scale,
    cylinder_trace,
    get_calibration,
    kernel_launches_per_step,
    occupancy,
    price_run,
    trace_for,
)
from repro.perf.calibrate import OCCUPANCY_HALF_SITES


class TestTraceGeneration:
    def test_cylinder_fluid_matches_analytic(self):
        tr = cylinder_trace(12.0, 8, scheme="quadrant")
        assert tr.total_fluid == pytest.approx(
            cylinder_fluid_estimate(12.0), rel=0.08
        )

    def test_volume_scaling_exact(self):
        """Two targets sharing a coarse grid scale exactly as s^3."""
        a = cylinder_trace(12.0, 8, scheme="bisection", with_caps=True)
        b = cylinder_trace(24.0, 8, scheme="bisection", with_caps=True)
        assert b.total_fluid == pytest.approx(8 * a.total_fluid, rel=1e-9)

    def test_halo_scaling_quadratic(self):
        a = cylinder_trace(12.0, 8, scheme="bisection", with_caps=True)
        b = cylinder_trace(24.0, 8, scheme="bisection", with_caps=True)
        ha = sum(r.halo_sites_total() for r in a.ranks)
        hb = sum(r.halo_sites_total() for r in b.ranks)
        assert hb == pytest.approx(4 * ha, rel=1e-9)

    def test_quadrant_trace_equalised(self):
        tr = cylinder_trace(48.0, 64, scheme="quadrant")
        assert tr.imbalance == pytest.approx(1.0)

    def test_bisection_trace_keeps_real_imbalance(self):
        tr = aorta_trace(0.110, 16)
        assert tr.imbalance > 1.0

    def test_halo_pairs_symmetric(self):
        tr = aorta_trace(0.110, 8)
        pairs = {
            (r.rank, n) for r in tr.ranks for n, _s in r.halo
        }
        assert all((j, i) in pairs for (i, j) in pairs)

    def test_harvey_cylinder_has_bc_sites(self):
        capped = cylinder_trace(12.0, 4, scheme="bisection", with_caps=True)
        periodic = cylinder_trace(12.0, 4, scheme="quadrant", with_caps=False)
        assert sum(r.bc_sites for r in capped.ranks) > 0
        assert sum(r.bc_sites for r in periodic.ranks) == 0

    def test_aorta_has_bc_sites(self):
        tr = aorta_trace(0.110, 8)
        assert sum(r.bc_sites for r in tr.ranks) > 0

    def test_coarse_scale_rules(self):
        assert coarse_cylinder_scale(1024, "axis") >= 1024 / 84
        assert coarse_cylinder_scale(1024, "quadrant") < coarse_cylinder_scale(
            1024, "axis"
        )
        assert coarse_cylinder_scale(2, "bisection") == 3.0
        with pytest.raises(PerfModelError):
            coarse_cylinder_scale(0)

    def test_caching_returns_same_object(self):
        a = aorta_trace(0.110, 8)
        b = aorta_trace(0.110, 8)
        assert a is b

    def test_validation(self):
        with pytest.raises(PerfModelError):
            cylinder_trace(-1.0, 4)
        with pytest.raises(PerfModelError):
            aorta_trace(0.0, 4)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PerfModelError):
                cylinder_trace(bad, 4)
            with pytest.raises(PerfModelError):
                trace_for("aorta", "harvey", bad, 4)


class TestCalibration:
    def test_all_paper_combinations_present(self):
        from repro.models import AVAILABILITY

        for system, models in AVAILABILITY.items():
            for model in models:
                for app in ("harvey", "proxy"):
                    cal = get_calibration(system, model, app)
                    assert 0 < cal.sc_efficiency <= 1.0

    def test_unported_combination_rejected(self):
        with pytest.raises(PerfModelError, match="not ported"):
            get_calibration("Summit", "sycl", "harvey")

    def test_generic_machine_fallback(self):
        cal = get_calibration("MySystem", "cuda", "proxy")
        assert cal.sc_efficiency > 0

    def test_unknown_app(self):
        with pytest.raises(PerfModelError):
            get_calibration("Summit", "cuda", "miniapp")
        with pytest.raises(PerfModelError):
            bytes_per_update("miniapp")
        with pytest.raises(PerfModelError):
            kernel_launches_per_step("miniapp")

    def test_harvey_moves_more_bytes_than_proxy(self):
        """Indirect addressing costs HARVEY the neighbour-table reads."""
        assert bytes_per_update("harvey") == 456
        assert bytes_per_update("proxy") == 304

    def test_occupancy_saturating(self):
        assert occupancy(1e9, "V100") > 0.99
        assert occupancy(1e4, "V100") < 0.1
        values = [occupancy(10.0**k, "A100") for k in range(3, 9)]
        assert values == sorted(values)

    def test_pvc_needs_more_work_to_saturate(self):
        """The Sunspot occupancy story of Section 9.1."""
        p = 1e6
        assert occupancy(p, "PVC") < occupancy(p, "V100")
        assert (
            OCCUPANCY_HALF_SITES["PVC"]
            == max(OCCUPANCY_HALF_SITES.values())
        )

    def test_occupancy_validation(self):
        with pytest.raises(PerfModelError):
            occupancy(0.0, "V100")

    def test_calibration_validation(self):
        with pytest.raises(PerfModelError):
            Calibration(0.0)
        with pytest.raises(PerfModelError):
            Calibration(1.2)
        with pytest.raises(PerfModelError):
            Calibration(0.5, launch_factor=0.5)

    def test_aorta_decay_onset(self):
        cal = Calibration(0.4, aorta_scale_decay=-0.1, aorta_decay_onset=8)
        assert cal.effective_sc("aorta", 4) == pytest.approx(0.4)
        assert cal.effective_sc("aorta", 32) > 0.4
        assert cal.effective_sc("cylinder", 32) == pytest.approx(0.4)

    def test_effective_sc_capped_at_one(self):
        cal = Calibration(0.9, aorta_scale_decay=-0.5, aorta_decay_onset=2)
        assert cal.effective_sc("aorta", 1024) == 1.0


class TestPricing:
    def test_iteration_time_is_slowest_rank(self):
        tr = aorta_trace(0.110, 8)
        cost = price_run(tr, CRUSHER, "hip", "harvey")
        assert cost.t_iteration == max(r.t_total for r in cost.ranks)

    def test_composition_sums_to_one(self):
        tr = aorta_trace(0.110, 16)
        cost = price_run(tr, POLARIS, "cuda", "harvey")
        assert sum(cost.composition().values()) == pytest.approx(1.0)

    def test_higher_efficiency_means_faster(self):
        tr = cylinder_trace(12.0, 8, scheme="bisection", with_caps=True)
        cuda = price_run(tr, SUMMIT, "cuda", "harvey")
        kokkos = price_run(tr, SUMMIT, "kokkos-cuda", "harvey")
        assert cuda.mflups > kokkos.mflups

    def test_host_staged_mpi_adds_memcpy(self):
        tr = cylinder_trace(12.0, 16, scheme="bisection", with_caps=True)
        hip = price_run(tr, SUMMIT, "hip", "harvey")
        cuda = price_run(tr, SUMMIT, "cuda", "harvey")
        assert (
            hip.slowest_rank.t_h2d + hip.slowest_rank.t_d2h
            > cuda.slowest_rank.t_h2d + cuda.slowest_rank.t_d2h
        )

    def test_proxy_has_no_bc_staging(self):
        tr = cylinder_trace(12.0, 8, scheme="quadrant")
        cost = price_run(tr, POLARIS, "cuda", "proxy")
        # only the fixed monitoring download remains
        assert cost.slowest_rank.t_h2d == 0.0

    def test_unported_model_rejected(self):
        tr = cylinder_trace(12.0, 8, scheme="bisection", with_caps=True)
        with pytest.raises(Exception):
            price_run(tr, SUNSPOT, "cuda", "harvey")

    def test_capacity_check(self):
        tr = cylinder_trace(12.0, 2048, scheme="bisection", with_caps=True)
        with pytest.raises(PerfModelError, match="exceed"):
            price_run(tr, CRUSHER, "hip", "harvey")

    def test_oom_flag_on_summit_tiny_memory(self):
        """2 V100s cannot hold the 27.5um aorta (16 GB each)."""
        tr = aorta_trace(0.0275, 2)
        cost = price_run(tr, SUMMIT, "cuda", "harvey")
        assert cost.oom

    def test_no_oom_at_paper_configurations(self):
        tr = aorta_trace(0.0275, 1024)
        for machine in (SUMMIT, POLARIS, CRUSHER):
            cost = price_run(tr, machine, machine.native_model, "harvey")
            assert not cost.oom

    def test_mflups_consistency(self):
        tr = aorta_trace(0.110, 4)
        cost = price_run(tr, CRUSHER, "hip", "harvey")
        assert cost.mflups == pytest.approx(
            tr.total_fluid / cost.t_iteration / 1e6
        )
