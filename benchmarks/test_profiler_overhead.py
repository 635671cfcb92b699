"""Guard: profiler-enabled runs stay within 5% of telemetry-off runs.

The profiling layer (live tracer spans per rank per phase, step-work
counters, window gauges) must be cheap enough to leave on for real
measurement runs — otherwise the profile distorts the very numbers it
reports.  This bench times the distributed step with a live tracer
attached against the default null-tracer path and holds the gap to the
budget ``repro.telemetry.profile`` promises.
"""

from __future__ import annotations

import time

import pytest

from repro.decomp import axis_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import DistributedSolver, SolverConfig
from repro.runtime.procexec import fork_available
from repro.telemetry.spans import Tracer


@pytest.fixture(scope="module")
def grid():
    return make_cylinder(CylinderSpec(scale=1.5))


@pytest.fixture(scope="module")
def config():
    return SolverConfig(
        tau=0.8,
        force=(1e-6, 0.0, 0.0),
        periodic=(True, False, False),
        overlap=True,
    )


def _min_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_profiler_enabled_overhead(grid, config):
    partition = axis_decompose(grid, 4)
    tracer = Tracer()
    profiled = DistributedSolver(partition, config, tracer=tracer)
    plain = DistributedSolver(partition, config)
    assert profiled.tracer.enabled
    assert not plain.tracer.enabled

    steps = 5  # amortize per-call noise over several iterations
    profiled.step(2)
    plain.step(2)

    def profiled_step():
        tracer.clear()  # steady-state span buffer, like windowed runs
        profiled.step(steps)

    t_profiled = _min_time(profiled_step, repeats=7)
    t_plain = _min_time(lambda: plain.step(steps), repeats=7)
    # 5% relative budget with a small absolute floor for timer noise
    assert t_profiled <= t_plain * 1.05 + 5e-4 * steps, (
        f"profiler-enabled step {t_profiled / steps * 1e3:.2f} ms vs "
        f"telemetry-off {t_plain / steps * 1e3:.2f} ms"
    )


@pytest.mark.skipif(
    not fork_available(), reason="needs the POSIX fork start method"
)
def test_dormant_telemetry_plane_overhead(grid, monkeypatch):
    """With no tracer attached, the plane (one heartbeat per phase, no
    span traffic) must cost <5% on the process-executor step."""
    partition = axis_decompose(grid, 4)
    config = SolverConfig(
        tau=0.8,
        force=(1e-6, 0.0, 0.0),
        periodic=(True, False, False),
        executor="process",
    )
    # plane_enabled() is read once at executor build time, so the env
    # must be set before each solver is constructed
    monkeypatch.delenv("REPRO_TELEMETRY_PLANE", raising=False)
    with_plane = DistributedSolver(partition, config)
    monkeypatch.setenv("REPRO_TELEMETRY_PLANE", "off")
    without_plane = DistributedSolver(partition, config)
    try:
        assert with_plane.plane is not None
        assert without_plane.plane is None

        steps = 5
        with_plane.step(2)
        without_plane.step(2)
        t_plane = _min_time(lambda: with_plane.step(steps), repeats=7)
        t_bare = _min_time(lambda: without_plane.step(steps), repeats=7)
    finally:
        with_plane.close()
        without_plane.close()
    assert t_plane <= t_bare * 1.05 + 5e-4 * steps, (
        f"dormant-plane step {t_plane / steps * 1e3:.2f} ms vs "
        f"plane-off {t_bare / steps * 1e3:.2f} ms"
    )
