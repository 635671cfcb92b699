"""The HARVEY application and its pulsatile waveform."""

import numpy as np
import pytest

from repro.core import ConfigError, PerfModelError
from repro.harvey import HarveyApp, HarveyConfig, PulsatileWaveform
from repro.hardware import CRUSHER, POLARIS, get_machine
from repro.runtime import fork_available


class TestPulsatileWaveform:
    def test_periodicity(self):
        wave = PulsatileWaveform(peak_velocity=0.05, period_steps=100)
        assert wave.speed(10) == pytest.approx(wave.speed(110))
        assert wave.speed(10) == pytest.approx(wave.speed(1010))

    def test_peak_in_systole(self):
        wave = PulsatileWaveform(
            peak_velocity=0.05, period_steps=100, systole_fraction=0.35
        )
        speeds = [wave.speed(t) for t in range(100)]
        assert max(speeds) == pytest.approx(0.05, rel=1e-2)
        assert np.argmax(speeds) < 35

    def test_diastolic_baseline(self):
        wave = PulsatileWaveform(
            peak_velocity=0.05, period_steps=100, diastolic_fraction=0.1
        )
        # late diastole sits at the baseline
        assert wave.speed(95) == pytest.approx(0.005, rel=0.05)

    def test_dicrotic_bump_after_systole(self):
        wave = PulsatileWaveform(peak_velocity=0.05, period_steps=1000)
        sys_end = wave.systole_fraction * 1000
        bump_window = [wave.speed(t) for t in range(int(sys_end), 600)]
        late = [wave.speed(t) for t in range(800, 1000)]
        assert max(bump_window) > max(late)

    def test_direction_normalised(self):
        wave = PulsatileWaveform(direction=(0.0, 0.0, 2.0))
        assert np.linalg.norm(wave.direction) == pytest.approx(1.0)
        vec = wave(0.0)
        assert vec.shape == (3,)
        assert vec[2] > 0 and vec[0] == 0

    def test_mean_speed_between_baseline_and_peak(self):
        wave = PulsatileWaveform(peak_velocity=0.05)
        mean = wave.mean_speed()
        assert 0.004 < mean < 0.05

    def test_validation(self):
        with pytest.raises(ConfigError):
            PulsatileWaveform(peak_velocity=0.0)
        with pytest.raises(ConfigError):
            PulsatileWaveform(peak_velocity=0.5)  # unstable for LBM
        with pytest.raises(ConfigError):
            PulsatileWaveform(period_steps=2)
        with pytest.raises(ConfigError):
            PulsatileWaveform(direction=(0, 0, 0))
        with pytest.raises(ConfigError):
            PulsatileWaveform(systole_fraction=1.5)


class TestHarveyConfig:
    def test_defaults(self):
        cfg = HarveyConfig()
        assert cfg.workload == "aorta"

    def test_validation(self):
        with pytest.raises(ConfigError):
            HarveyConfig(workload="carotid")
        with pytest.raises(ConfigError):
            HarveyConfig(resolution=-1)
        with pytest.raises(ConfigError):
            HarveyConfig(num_ranks=0)
        with pytest.raises(ConfigError):
            HarveyConfig(tau=0.4)
        with pytest.raises(ConfigError):
            HarveyConfig(steady_inlet_speed=0.5)
        for field in ("resolution", "tau", "stall_timeout_s"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ConfigError, match=f"{field} must be finite"):
                    HarveyConfig(**{field: bad})
        with pytest.raises(ConfigError):
            HarveyConfig(steady_inlet_speed=float("nan"))


class TestHarveyApp:
    @pytest.fixture(scope="class")
    def app(self):
        return HarveyApp(
            HarveyConfig(workload="aorta", resolution=2.0, num_ranks=4)
        )

    def test_uses_bisection(self, app):
        assert app.partition.scheme == "bisection"
        assert app.partition.num_ranks == 4

    def test_run_reports_health(self, app):
        report = app.run(steps=20)
        assert report.fluid_nodes == app.grid.num_fluid
        assert report.mflups > 0
        assert report.max_velocity > 0  # pulsatile inflow moves fluid
        assert report.comm_bytes > 0

    def test_load_balance_metrics(self, app):
        lb = app.load_balance()
        assert 1.0 <= lb["imbalance"] < 1.5
        assert lb["ranks"] == 4

    def test_cylinder_workload(self):
        app = HarveyApp(
            HarveyConfig(workload="cylinder", resolution=0.5, num_ranks=2)
        )
        report = app.run(steps=10)
        assert report.workload == "cylinder"
        assert report.mass_drift < 0.05

    def test_performance_projection(self, app):
        cost = app.performance_on(CRUSHER, n_gpus=64, resolution=0.110)
        assert cost.machine == "Crusher"
        assert cost.model == "hip"
        assert cost.app == "harvey"
        assert cost.mflups > 0

    def test_projection_model_override(self, app):
        cost = app.performance_on(
            POLARIS, model_name="kokkos-sycl", n_gpus=16, resolution=0.110
        )
        assert cost.model == "kokkos-sycl"

    def test_bad_steps(self, app):
        with pytest.raises(ConfigError):
            app.run(0)

    def test_custom_waveform_used(self):
        wave = PulsatileWaveform(peak_velocity=0.01, period_steps=40)
        app = HarveyApp(
            HarveyConfig(
                workload="aorta", resolution=2.5, num_ranks=2, waveform=wave
            )
        )
        report = app.run(steps=10)
        # inflow never exceeds the waveform's peak by much
        assert report.max_velocity < 0.05


class TestHarveyZooWorkloads:
    """The geometry zoo runs through the full distributed solver."""

    @pytest.mark.parametrize(
        "geometry", ["stenosis", "bifurcation", "aneurysm"]
    )
    def test_zoo_geometry_runs_healthy(self, geometry):
        app = HarveyApp(
            HarveyConfig(workload=geometry, resolution=0.5, num_ranks=2)
        )
        report = app.run(steps=3)
        assert report.workload == geometry
        assert report.fluid_nodes > 0
        assert report.mass_drift < 0.05
        assert report.max_velocity > 0
        assert np.isfinite(report.mflups)

    @pytest.mark.skipif(
        not fork_available(), reason="needs the POSIX fork start method"
    )
    def test_solver_mode_knobs(self):
        cfg = HarveyConfig(
            workload="cylinder", resolution=0.5, num_ranks=2,
            overlap=True, executor="process",
        )
        app = HarveyApp(cfg)
        try:
            report = app.run(steps=3)
        finally:
            app.close()
        assert report.mass_drift < 0.05

    def test_bad_executor(self):
        with pytest.raises(ConfigError, match="executor"):
            HarveyConfig(executor="fibers")

    @pytest.mark.parametrize(
        "tier",
        [
            dict(executor="parallel"),
            dict(backend="bogus"),
            dict(backend="compiled", sanitize=True),
        ],
    )
    def test_bad_tier_fails_before_geometry(self, monkeypatch, tier):
        """A cell no solver can run is rejected by the config itself, not
        by ``_build_solver`` after the geometry build and bisection."""

        def unreachable(*args, **kwargs):
            raise AssertionError("geometry built for an invalid tier")

        monkeypatch.setattr("repro.harvey.app.build_geometry", unreachable)
        with pytest.raises(ConfigError, match="expected one of|requires"):
            HarveyApp(HarveyConfig(workload="cylinder", **tier))

    def test_zoo_projection_unsupported(self):
        app = HarveyApp(
            HarveyConfig(workload="stenosis", resolution=0.5, num_ranks=2)
        )
        with pytest.raises(PerfModelError, match="trace layer"):
            app.performance_on(CRUSHER, n_gpus=4)
