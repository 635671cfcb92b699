"""Analysis drivers: sweeps, composition, table rendering."""

import pytest

from repro.analysis import (
    COMPOSITION_KEYS,
    CompositionPoint,
    ScalingSeries,
    backend_comparison,
    composition_series,
    format_mflups,
    native_hardware_comparison,
    render_series,
    render_table,
    workload_schedule,
)
from repro.core import PerfModelError
from repro.hardware import get_machine
from repro.perf import aorta_trace, cylinder_trace, trace_for


class TestTables:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [["1", "22"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_table_width_check(self):
        with pytest.raises(PerfModelError):
            render_table(["a"], [["1", "2"]])
        with pytest.raises(PerfModelError):
            render_table([], [])

    def test_render_series(self):
        out = render_series([2, 4], {"x": [1.0, 2.0]}, title="t")
        assert "t" in out and "1.000" in out

    def test_render_series_length_check(self):
        with pytest.raises(PerfModelError):
            render_series([2, 4], {"x": [1.0]})

    def test_format_mflups(self):
        assert format_mflups(1234.0) == "1.2k"
        assert format_mflups(2.5e6) == "2.50M"
        assert format_mflups(999.0) == "999"


class TestScalingSeries:
    def test_append_and_at(self):
        s = ScalingSeries("x")
        s.append(2, 10.0)
        s.append(4, 20.0)
        assert s.at(4) == 20.0

    def test_missing_point(self):
        s = ScalingSeries("x")
        with pytest.raises(PerfModelError):
            s.at(8)


class TestSchedulesAndTraces:
    def test_workload_schedule_truncates_sunspot(self):
        sched = workload_schedule("cylinder", get_machine("Sunspot"))
        assert max(sched.gpu_counts()) == 256
        full = workload_schedule("cylinder", get_machine("Summit"))
        assert max(full.gpu_counts()) == 1024

    def test_unknown_workload(self):
        with pytest.raises(PerfModelError):
            workload_schedule("carotid")

    def test_trace_for_schemes(self):
        harvey = trace_for("cylinder", "harvey", 12.0, 4)
        proxy = trace_for("cylinder", "proxy", 12.0, 4)
        assert harvey.scheme == "bisection"
        assert proxy.scheme.startswith("quadrant")
        # the traces the three deleted dispatch sites (analysis.sweep,
        # HarveyApp.performance_on, ProxyApp.performance_on) built
        assert harvey == cylinder_trace(
            12.0, 4, scheme="bisection", with_caps=True
        )
        assert proxy == cylinder_trace(
            12.0, 4, scheme="quadrant", with_caps=False
        )
        assert trace_for("aorta", "harvey", 0.110, 4) == aorta_trace(
            0.110, 4, scheme="bisection"
        )

    def test_trace_layer_models_the_papers_workloads_only(self):
        with pytest.raises(PerfModelError, match="trace layer"):
            trace_for("stenosis", "harvey", 1.0, 4)

    def test_proxy_cannot_run_aorta(self):
        with pytest.raises(PerfModelError, match="load"):
            trace_for("aorta", "proxy", 0.110, 4)

    def test_unknown_app(self):
        with pytest.raises(PerfModelError):
            trace_for("cylinder", "miniapp", 12.0, 4)


class TestSweeps:
    def test_hardware_comparison_structure(self):
        data = native_hardware_comparison("cylinder")
        assert set(data) == {"Summit", "Polaris", "Crusher", "Sunspot"}
        for name, series in data.items():
            assert set(series) == {"harvey", "predicted", "proxy"}
            assert len(series["harvey"].mflups) == len(
                series["harvey"].gpu_counts
            )

    def test_aorta_comparison_has_no_proxy(self):
        data = native_hardware_comparison("aorta")
        assert "proxy" not in data["Polaris"]

    def test_backend_comparison_efficiencies_bounded(self):
        comp = backend_comparison(get_machine("Crusher"), "cylinder")
        for app, table in comp.app_efficiency.items():
            for model, series in table.items():
                assert all(0 < v <= 1.0 + 1e-9 for v in series), (app, model)

    def test_backend_comparison_best_model(self):
        comp = backend_comparison(get_machine("Crusher"), "cylinder")
        assert comp.best_model("harvey", 2) == "hip"


class TestComposition:
    def test_composition_point_validation(self):
        with pytest.raises(PerfModelError):
            CompositionPoint(4, {"streamcollide": 0.5, "communication": 0.4,
                                 "h2d": 0.0, "d2h": 0.0})

    def test_series_keys(self):
        points = composition_series(get_machine("Polaris"))
        for p in points:
            assert set(p.fractions) == set(COMPOSITION_KEYS)

    def test_model_override(self):
        points = composition_series(
            get_machine("Polaris"), model="kokkos-cuda"
        )
        assert len(points) == 10
