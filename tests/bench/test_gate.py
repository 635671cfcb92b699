"""The performance gate: drift detection, noise bands, CLI exit codes."""

import copy
import json

import pytest

from repro.bench import compare_results, make_meta
from repro.cli import main
from repro.core.errors import BenchmarkError


def kernels_result(mflups=100.0, speedup=3.0, backend="compiled-serial"):
    """A minimal but schema-complete kernels result document.

    ``speedup`` is the compiled tier's over the fused NumPy kernels;
    ``backend=None`` gives the NumPy-only document (no relative metric).
    """
    kernels = {}
    for name in ("collide", "stream", "step"):
        kernels[name] = {"fused_seconds": 1.0, "fused_mflups": mflups}
        if backend is not None:
            kernels[name].update(
                compiled_serial_seconds=1.0 / speedup,
                compiled_serial_mflups=mflups * speedup,
                compiled_serial_speedup=speedup,
            )
    tier = {} if backend is None else {
        "backend": backend, "compiled_step_speedup": speedup,
    }
    return {
        **tier,
        "benchmark": "kernels",
        "workload": "cylinder",
        "scale": 0.5,
        "fluid_nodes": 1890,
        "steps": 5,
        "reps": 2,
        "bytes_per_update": 304,
        "kernels": kernels,
        "meta": make_meta({"scale": 0.5, "steps": 5, "reps": 2}),
    }


def overlap_result(mflups=50.0, speedup=1.4):
    ranks = []
    for nr in (2, 4):
        modes = {
            m: {
                "seconds": 0.1,
                "mflups": mflups,
                "halo_bytes_per_step": 1000,
            }
            for m in ("lockstep", "overlap")
        }
        ranks.append(
            {
                "num_ranks": nr,
                "modes": modes,
                "overlap_speedup": speedup,
                "halo_reduction": 2.0,
            }
        )
    return {
        "benchmark": "overlap",
        "workload": "cylinder",
        "scale": 0.5,
        "fluid_nodes": 1890,
        "steps": 8,
        "reps": 5,
        "ranks": ranks,
        "meta": make_meta(
            {"scale": 0.5, "steps": 8, "reps": 5, "rank_counts": [2, 4]}
        ),
    }


class TestCompareResults:
    def test_identical_results_pass(self):
        base = kernels_result()
        report = compare_results(base, copy.deepcopy(base))
        assert report.exit_code == 0
        assert not report.regressions
        # same config + same host: absolutes compared, nothing skipped
        assert not report.skipped
        compared = {c.metric for c in report.comparisons}
        assert "compiled_step_speedup" in compared
        assert "kernels.step.fused_mflups" in compared

    def test_injected_slowdown_regresses(self):
        base = kernels_result(speedup=3.0)
        slow = kernels_result(speedup=3.0)
        # 1.5x slowdown of every timing: compiled speedups drop to 2.0
        for k in slow["kernels"].values():
            k["compiled_serial_speedup"] = 2.0
            k["fused_mflups"] /= 1.5
        slow["compiled_step_speedup"] = 2.0
        report = compare_results(base, slow, tolerance=0.15)
        assert report.exit_code == 1
        regressed = {c.metric for c in report.regressions}
        assert "compiled_step_speedup" in regressed
        assert "kernels.step.fused_mflups" in regressed

    def test_within_band_drift_is_ok(self):
        base = kernels_result(speedup=3.0)
        wobble = kernels_result(speedup=3.0 * 0.9)  # -10% < 15% band
        wobble["meta"]["config"] = base["meta"]["config"]
        report = compare_results(base, wobble, tolerance=0.15)
        assert report.exit_code == 0
        assert all(c.status in ("ok", "improved") for c in report.comparisons)

    def test_absolute_metrics_skipped_on_config_mismatch(self):
        base = kernels_result()
        other = kernels_result()
        other["steps"] = 20  # different timed work
        report = compare_results(base, other)
        skipped = dict(report.skipped)
        assert "kernels.step.fused_mflups" in skipped
        assert "configs differ" in skipped["kernels.step.fused_mflups"]
        # relative speedups still compared
        assert any(
            c.metric == "compiled_step_speedup" for c in report.comparisons
        )

    def test_absolute_metrics_skipped_on_host_mismatch(self):
        base = kernels_result()
        base["meta"]["host"] = {
            "hostname": "polaris-login", "machine": "x86_64",
            "system": "Linux", "cpu_count": 256,
        }
        report = compare_results(base, kernels_result())
        skipped = dict(report.skipped)
        assert "kernels.step.fused_mflups" in skipped
        assert "host fingerprints differ" in skipped["kernels.step.fused_mflups"]

    def test_compiled_tier_metrics_are_gated(self):
        base = kernels_result(speedup=4.0)
        bad = kernels_result(speedup=4.0 * 0.5)  # -50% compiled regression
        bad["meta"]["config"] = base["meta"]["config"]
        report = compare_results(base, bad, tolerance=0.15)
        assert report.exit_code == 1
        regressed = {c.metric for c in report.regressions}
        assert "kernels.step.compiled_serial_speedup" in regressed
        assert "compiled_step_speedup" in regressed
        # the NumPy tier is untouched and stays green
        assert "kernels.step.fused_mflups" not in regressed

    def test_compiled_and_numpy_results_are_different_families(self):
        base = kernels_result(backend=None)
        tiered = kernels_result()
        report = compare_results(base, tiered)
        skipped = dict(report.skipped)
        assert "kernels.step.fused_mflups" in skipped
        assert "configs differ" in skipped["kernels.step.fused_mflups"]

    def test_noise_history_widens_the_band(self):
        base = kernels_result(speedup=3.0)
        current = kernels_result(speedup=3.0 * 0.8)  # -20% > 15% band
        # history wobbling +/-20% around the mean -> cv ~ 0.16,
        # effective band = min(max(.15, 2*cv), .5) ~ 0.33
        history = [
            kernels_result(speedup=s) for s in (2.4, 3.0, 3.6, 2.5, 3.5)
        ]
        quiet = compare_results(base, current, tolerance=0.15)
        noisy = compare_results(
            base, current, tolerance=0.15, history=history
        )
        step_quiet = next(
            c for c in quiet.comparisons if c.metric == "compiled_step_speedup"
        )
        step_noisy = next(
            c for c in noisy.comparisons if c.metric == "compiled_step_speedup"
        )
        assert step_quiet.regressed
        assert step_noisy.noise_cv > 0
        assert step_noisy.effective_tolerance > 0.15
        assert not step_noisy.regressed

    def test_noise_band_clamped_at_max_tolerance(self):
        base = kernels_result(speedup=3.0)
        history = [
            kernels_result(speedup=s) for s in (1.0, 3.0, 9.0)
        ]
        report = compare_results(
            base, kernels_result(), tolerance=0.15, history=history,
            max_tolerance=0.5,
        )
        assert all(
            c.effective_tolerance <= 0.5 for c in report.comparisons
        )

    def test_overlap_kind_metrics(self):
        base = overlap_result(speedup=1.5)
        slow = overlap_result(speedup=1.1)
        report = compare_results(base, slow, tolerance=0.15)
        regressed = {c.metric for c in report.regressions}
        assert "ranks.0.overlap_speedup" in regressed
        assert "ranks.1.overlap_speedup" in regressed

    def test_mismatched_kinds_rejected(self):
        with pytest.raises(BenchmarkError, match="cannot compare"):
            compare_results(kernels_result(), overlap_result())

    def test_unknown_kind_rejected(self):
        bad = {"benchmark": "pingpong"}
        with pytest.raises(BenchmarkError, match="unknown benchmark kind"):
            compare_results(bad, dict(bad))

    def test_out_of_range_tolerance_rejected(self):
        base = kernels_result()
        for tol in (0.0, 1.0, -0.1):
            with pytest.raises(BenchmarkError, match="tolerance"):
                compare_results(base, base, tolerance=tol)


class TestGateCLI:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return str(path)

    def test_clean_pass_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", kernels_result())
        cur = self._write(tmp_path / "cur.json", kernels_result())
        rc = main(
            ["perf", "gate", "--baseline", base, "--current", cur,
             "--history", str(tmp_path / "none.jsonl")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "no drift beyond tolerance" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        base = self._write(
            tmp_path / "base.json", kernels_result(speedup=3.0)
        )
        cur = self._write(
            tmp_path / "cur.json", kernels_result(speedup=1.5)
        )
        rc = main(
            ["perf", "gate", "--baseline", base, "--current", cur,
             "--history", str(tmp_path / "none.jsonl")]
        )
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_report_out_artifact(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", overlap_result())
        cur = self._write(tmp_path / "cur.json", overlap_result())
        report = tmp_path / "drift.json"
        rc = main(
            ["perf", "gate", "--baseline", base, "--current", cur,
             "--history", str(tmp_path / "none.jsonl"),
             "--report-out", str(report)]
        )
        assert rc == 0
        docs = json.loads(report.read_text())
        assert [d["benchmark"] for d in docs] == ["overlap"]
        assert docs[0]["regressed"] is False

    def test_missing_baselines_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["perf", "gate"])
        assert rc == 2
        assert "no baselines" in capsys.readouterr().err
