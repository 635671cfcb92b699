"""The kernel microbenchmark: warmup exclusion and the compiled tier.

Timing assertions here are structural (keys, positivity, flattening),
never about magnitudes — CI machines are too noisy for that.  The one
behavioural timing test pins the JIT-warmup contract: the first call to
a benchmarked function is never a timed rep.
"""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.microbench.kernels import (
    WARMUP_REPS,
    KernelBenchResult,
    KernelTiming,
    _best_seconds,
    _compiled_variants,
    run_kernel_bench,
)
from repro.models.compiled import PROVIDER_ENV, compiled_available

compiled_only = pytest.mark.skipif(
    not compiled_available(),
    reason="no compiled provider (numba or host C compiler) available",
)


class TestBestSeconds:
    def test_first_call_is_never_timed(self):
        """A one-off expensive first call (JIT compile) must not count."""
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] == 1:
                # simulate a compile: burn real wall time once
                x = np.zeros(200_000)
                for _ in range(50):
                    x = x + 1.0

        fast = _best_seconds(fn, reps=3)
        assert calls["n"] == 3 + WARMUP_REPS
        # re-run with the compile already done: timings must be in the
        # same ballpark, i.e. the slow first call was excluded
        again = _best_seconds(fn, reps=3)
        assert fast < 50 * again + 1e-3

    def test_warmup_zero_times_every_call(self):
        calls = {"n": 0}
        _best_seconds(lambda: calls.__setitem__("n", calls["n"] + 1),
                      reps=2, warmup=0)
        assert calls["n"] == 2


class TestTimingSchema:
    def make(self, compiled=None):
        return KernelTiming(
            name="step",
            fused_seconds=1.0,
            fused_mflups=10.0,
            compiled=compiled or {},
        )

    def test_numpy_only_has_no_compiled_keys(self):
        d = self.make().to_dict()
        assert d == {"fused_seconds": 1.0, "fused_mflups": 10.0}
        assert not any(k.startswith("compiled") for k in d)
        assert self.make().best_compiled_speedup is None

    def test_compiled_variants_flatten(self):
        t = self.make(compiled={
            "compiled_serial": {
                "seconds": 0.5, "mflups": 20.0, "speedup": 2.0,
            },
            "compiled_parallel": {
                "seconds": 0.25, "mflups": 40.0, "speedup": 4.0,
            },
        })
        d = t.to_dict()
        assert d["compiled_serial_speedup"] == 2.0
        assert d["compiled_parallel_mflups"] == 40.0
        assert t.best_compiled_speedup == 4.0

    def test_result_backend_key_only_when_set(self):
        timings = {"step": self.make()}
        plain = KernelBenchResult(
            workload="cylinder", scale=0.25, fluid_nodes=10, steps=2,
            reps=1, bytes_per_update=456, timings=timings,
        )
        assert "backend" not in plain.to_dict()
        assert plain.compiled_step_speedup is None
        tiered = KernelBenchResult(
            workload="cylinder", scale=0.25, fluid_nodes=10, steps=2,
            reps=1, bytes_per_update=456,
            timings={"step": self.make(compiled={
                "compiled_serial": {
                    "seconds": 0.5, "mflups": 20.0, "speedup": 2.0,
                },
            })},
            backend="compiled",
        )
        doc = tiered.to_dict()
        assert doc["backend"] == "compiled"
        assert doc["compiled_step_speedup"] == 2.0


class TestRunKernelBench:
    def test_numpy_run_structure(self):
        result = run_kernel_bench(scale=0.25, steps=2, reps=1)
        assert set(result.timings) == {"collide", "stream", "step"}
        assert result.backend is None
        assert result.timings["step"].fused_mflups > 0
        assert "step_speedup" not in result.to_dict()
        assert result.meta is not None
        assert "backend" not in result.meta["config"]

    def test_numpy_alias_is_none(self):
        result = run_kernel_bench(scale=0.25, steps=2, reps=1,
                                  backend="numpy")
        assert result.backend is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_kernel_bench(steps=0)
        with pytest.raises(ConfigError):
            run_kernel_bench(reps=0)

    @compiled_only
    def test_compiled_run_adds_tier_columns(self):
        result = run_kernel_bench(scale=0.25, steps=2, reps=1,
                                  backend="compiled-serial")
        assert result.backend == "compiled-serial"
        step = result.timings["step"]
        assert set(step.compiled) == {"compiled_serial"}
        entry = step.compiled["compiled_serial"]
        assert entry["seconds"] > 0 and entry["mflups"] > 0
        assert result.compiled_step_speedup == entry["speedup"]
        assert result.meta["config"]["backend"] == "compiled-serial"

    def test_unavailable_backend_raises(self, monkeypatch):
        from repro.core.errors import BackendUnavailableError
        from repro.models.compiled import reset_detection_cache

        monkeypatch.setenv(PROVIDER_ENV, "none")
        reset_detection_cache()
        try:
            with pytest.raises(BackendUnavailableError):
                run_kernel_bench(scale=0.25, steps=2, reps=1,
                                 backend="compiled")
        finally:
            reset_detection_cache()


class TestCompiledVariants:
    @compiled_only
    def test_alias_expands_serial_first(self):
        variants = _compiled_variants("compiled")
        assert variants[0] == "compiled-serial"
        assert set(variants) <= {"compiled-serial", "compiled-parallel"}

    @compiled_only
    def test_concrete_backend_passes_through(self):
        assert _compiled_variants("compiled-serial") == ["compiled-serial"]
