"""The paper's Eqs. 1-4, MFLUPS, and scaling schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PerfModelError
from repro.hardware import CRUSHER, POLARIS, SUMMIT
from repro.perfmodel import (
    AORTA_SPACINGS_MM,
    CYLINDER_SCALES,
    PiecewiseSchedule,
    ScalingPoint,
    aorta_schedule,
    comm_surface_sites,
    cylinder_schedule,
    face_count,
    mflups,
    predict_iteration,
    streamcollide_time,
)


class TestSharedByteConstants:
    """The simulator (``perf``) and the model (``perfmodel``) price the
    same bytes: each constant has one definition, derived by the rest."""

    def test_halo_bytes_per_site_is_one_value(self):
        import inspect

        from repro.perf import HALO_BYTES_PER_SITE

        default = inspect.signature(predict_iteration).parameters[
            "halo_bytes_per_site"
        ].default
        assert default is HALO_BYTES_PER_SITE
        assert HALO_BYTES_PER_SITE == 5 * 8

    def test_bytes_per_update_is_one_value(self):
        from repro.core import D3Q19
        from repro.perf import BYTES_PER_UPDATE, STREAMCOLLIDE_CHARACTER
        from repro.perf.simulate import STORAGE_BYTES_PER_SITE
        from repro.perfmodel import BYTES_PER_UPDATE_D3Q19

        assert BYTES_PER_UPDATE_D3Q19 is BYTES_PER_UPDATE["proxy"]
        assert (
            BYTES_PER_UPDATE["proxy"]
            == D3Q19.bytes_per_update()
            == STREAMCOLLIDE_CHARACTER.bytes_per_site
            == 304
        )
        assert BYTES_PER_UPDATE["harvey"] == D3Q19.bytes_per_update() + 19 * 8
        assert STORAGE_BYTES_PER_SITE == BYTES_PER_UPDATE["harvey"] + 8


class TestEq1StreamCollide:
    def test_bytes_over_bandwidth(self):
        assert streamcollide_time(1e12, 1e12) == 1.0
        assert streamcollide_time(5e11, 1e12) == 0.5

    def test_validation(self):
        with pytest.raises(PerfModelError):
            streamcollide_time(-1, 1e12)
        with pytest.raises(PerfModelError):
            streamcollide_time(1e12, 0)


class TestEq4FaceCount:
    def test_values(self):
        assert face_count(1) == 0.0
        assert face_count(2) == 2.0
        assert face_count(4) == 4.0
        assert face_count(8) == 6.0
        assert face_count(64) == 12.0

    def test_caps_at_twelve(self):
        """w = 2*min(log2(n), 6): the 6 faces of a cube, both ways."""
        assert face_count(64) == face_count(1024) == 12.0

    def test_monotone_nondecreasing(self):
        values = [face_count(2**k) for k in range(11)]
        assert values == sorted(values)

    def test_bad_count(self):
        with pytest.raises(PerfModelError):
            face_count(0)


class TestEq3Surface:
    def test_cube_face_area(self):
        assert comm_surface_sites(1000) == pytest.approx(100.0)
        assert comm_surface_sites(8000) == pytest.approx(400.0)

    @settings(max_examples=20, deadline=None)
    @given(v=st.floats(1.0, 1e9))
    def test_two_thirds_scaling(self, v):
        assert comm_surface_sites(8 * v) == pytest.approx(
            4 * comm_surface_sites(v), rel=1e-9
        )


class TestPrediction:
    def test_single_gpu_has_no_comm(self):
        pred = predict_iteration(SUMMIT, 1e7, 1)
        assert pred.t_comm == 0.0
        assert pred.num_events == 0.0

    def test_eq1_value_at_one_gpu(self):
        pred = predict_iteration(SUMMIT, 1e7, 1)
        expected = 1e7 * 2 * 19 * 8 / (0.770e12)
        assert pred.t_streamcollide == pytest.approx(expected)

    def test_mflups_definition(self):
        pred = predict_iteration(POLARIS, 1e7, 4)
        assert pred.mflups == pytest.approx(
            1e7 / pred.t_iteration / 1e6
        )

    def test_custom_bytes_per_update(self):
        heavy = predict_iteration(SUMMIT, 1e7, 2, bytes_per_update=912)
        light = predict_iteration(SUMMIT, 1e7, 2, bytes_per_update=456)
        assert heavy.t_streamcollide == pytest.approx(
            2 * light.t_streamcollide
        )

    def test_more_gpus_higher_throughput_at_fixed_problem(self):
        values = [
            predict_iteration(CRUSHER, 1e9, n).mflups
            for n in (2, 8, 32, 128)
        ]
        assert values == sorted(values)

    def test_link_tier_selection(self):
        """Single-node runs are priced on intra-node links, multi-node
        on the network fabric."""
        small = predict_iteration(CRUSHER, 1e8, 8)  # one Crusher node
        large = predict_iteration(CRUSHER, 1e8, 16)  # two nodes
        # same w=6 events... n=8 -> w=6; n=16 -> w=8; compare per-event
        per_event_small = small.t_comm / small.num_events
        per_event_large = large.t_comm / large.num_events
        assert per_event_large < per_event_small  # faces shrink with n
        assert large.num_events > small.num_events

    def test_validation(self):
        with pytest.raises(PerfModelError):
            predict_iteration(SUMMIT, 0, 4)
        with pytest.raises(PerfModelError):
            predict_iteration(SUMMIT, 1e6, 0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PerfModelError):
                predict_iteration(POLARIS, bad, 4)


class TestMflups:
    def test_value(self):
        assert mflups(1e9, 2.0) == 500.0

    def test_every_mflups_is_this_one(self):
        from repro.perf import mflups as perf_mflups

        assert mflups is perf_mflups

    def test_validation(self):
        with pytest.raises(PerfModelError):
            mflups(1e6, 0.0)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(PerfModelError):
                mflups(bad, 1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PerfModelError):
                mflups(1e6, bad)


class TestSchedules:
    def test_paper_sizes(self):
        assert CYLINDER_SCALES == (12.0, 24.0, 48.0)
        assert AORTA_SPACINGS_MM == (0.110, 0.055, 0.0275)

    def test_gpu_counts_span_2_to_1024(self):
        sched = cylinder_schedule()
        counts = sched.gpu_counts()
        assert counts[0] == 2 and counts[-1] == 1024
        assert counts == sorted(counts)
        assert all(
            b / a == 2 for a, b in zip(counts, counts[1:])
        )

    def test_jumps_at_16_and_128(self):
        """The weak-scaling points of Figs. 3-6."""
        assert cylinder_schedule().jump_counts == [16, 128]
        assert aorta_schedule().jump_counts == [16, 128]

    def test_sizes_grow_with_sections(self):
        sched = cylinder_schedule()
        sizes = [p.size for p in sched.points]
        assert sizes == sorted(sizes)

    def test_aorta_spacing_shrinks_with_sections(self):
        sched = aorta_schedule()
        sizes = [p.size for p in sched.points]
        assert sizes == sorted(sizes, reverse=True)

    def test_truncation(self):
        sched = cylinder_schedule().truncated(256)
        assert max(sched.gpu_counts()) == 256
        with pytest.raises(PerfModelError):
            sched.truncated(1)

    def test_point_validation(self):
        with pytest.raises(PerfModelError):
            ScalingPoint(0, 12.0, 0)
        with pytest.raises(PerfModelError):
            ScalingPoint(2, -1.0, 0)

    def test_problem_grows_proportionally_to_gpus(self):
        """Section 8.1: 'grow the problem size proportionately to the
        increase in GPU count' — 8x GPUs per section, 2x linear size
        (8x fluid volume) for the cylinder."""
        a, b, c = CYLINDER_SCALES
        assert b / a == 2.0 and c / b == 2.0
        x, y, z = AORTA_SPACINGS_MM
        assert x / y == 2.0 and y / z == 2.0


class TestOverlapPrediction:
    def _predict(self, n_gpus=24, fluid=1e8, **kw):
        from repro.perfmodel import predict_iteration_overlap

        return predict_iteration_overlap(SUMMIT, fluid, n_gpus, **kw)

    def test_interior_frontier_partition_streamcollide(self):
        p = self._predict()
        assert p.t_interior + p.t_frontier == pytest.approx(
            p.base.t_streamcollide
        )

    def test_iteration_is_max_comm_interior_plus_frontier(self):
        p = self._predict()
        assert p.t_iteration == pytest.approx(
            max(p.base.t_comm, p.t_interior) + p.t_frontier
        )

    def test_hidden_plus_exposed_is_comm(self):
        p = self._predict()
        assert p.t_hidden + p.t_exposed == pytest.approx(p.base.t_comm)
        assert p.t_hidden >= 0
        assert p.t_exposed >= 0

    def test_never_slower_than_additive(self):
        """max(a, b) + c <= a + b + c: overlap is a pure win in-model."""
        for n in (2, 4, 8, 24, 96, 384):
            p = self._predict(n_gpus=n)
            assert p.t_iteration <= p.base.t_iteration + 1e-15
            assert p.speedup >= 1.0

    def test_single_gpu_degenerates_to_streamcollide(self):
        p = self._predict(n_gpus=1)
        assert p.base.t_comm == 0.0
        assert p.t_iteration == pytest.approx(p.base.t_streamcollide)

    def test_explicit_frontier_fraction(self):
        p = self._predict(frontier_fraction=0.25)
        assert p.frontier_fraction == 0.25
        assert p.t_frontier == pytest.approx(
            0.25 * p.base.t_streamcollide
        )

    def test_frontier_fraction_validated(self):
        with pytest.raises(PerfModelError):
            self._predict(frontier_fraction=1.5)
        with pytest.raises(PerfModelError):
            self._predict(frontier_fraction=-0.1)

    def test_comm_bound_regime_exposes_communication(self):
        """Tiny subdomains: comm exceeds interior, some stays exposed."""
        p = self._predict(fluid=5e3, n_gpus=64)
        assert p.t_exposed > 0
        assert p.t_hidden == pytest.approx(p.t_interior)

    def test_mflups_uses_overlapped_time(self):
        p = self._predict()
        assert p.mflups == pytest.approx(
            p.base.total_fluid / p.t_iteration / 1e6
        )
        assert p.mflups >= p.base.mflups
