"""The performance gate: noise-aware drift detection against baselines.

Compares a current benchmark result document against a committed
baseline (``BENCH_kernels.json`` / ``BENCH_overlap.json``) metric by
metric.  Two classes of metric are treated differently:

* **relative** metrics (compiled-vs-NumPy speedups, overlap-vs-lockstep
  speedups, halo byte reduction) are dimensionless ratios of two
  timings taken on the same host in the same process — they transfer
  between machines and are always compared;
* **absolute** metrics (MFLUPS) only mean something between runs on the
  same host with the same benchmark configuration, so they are compared
  only when the two results' config signatures and host fingerprints
  match, and skipped (with the reason recorded) otherwise.

Tolerance is noise-aware: when ``BENCH_HISTORY.jsonl`` holds enough
comparable records of a metric, its observed coefficient of variation
widens the band — a metric that historically wobbles ±10% should not
fail the gate at -16% under a 15% default.  The effective band is
``clamp(tolerance, noise_multiplier * cv, max_tolerance)``.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import BenchmarkError
from ..hardware.host import fingerprints_match
from .history import config_signature, extract_metric

__all__ = ["MetricComparison", "DriftReport", "compare_results"]


@dataclass(frozen=True)
class MetricComparison:
    """One metric's baseline-vs-current verdict.

    All gated metrics are higher-is-better (speedups, MFLUPS,
    byte-reduction factors), so a regression is a drop below
    ``baseline * (1 - effective_tolerance)``.
    """

    metric: str
    baseline: float
    current: float
    tolerance: float
    noise_cv: float
    effective_tolerance: float

    @property
    def ratio(self) -> float:
        return (
            self.current / self.baseline
            if self.baseline > 0
            else float("inf")
        )

    @property
    def change(self) -> float:
        """Signed fractional change vs baseline (-0.2 = 20% slower)."""
        return self.ratio - 1.0

    @property
    def regressed(self) -> bool:
        return self.current < self.baseline * (1 - self.effective_tolerance)

    @property
    def improved(self) -> bool:
        return self.current > self.baseline * (1 + self.effective_tolerance)

    @property
    def status(self) -> str:
        if self.regressed:
            return "REGRESSED"
        if self.improved:
            return "improved"
        return "ok"


@dataclass
class DriftReport:
    """All metric comparisons for one baseline/current pair."""

    benchmark: str
    comparisons: List[MetricComparison] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricComparison]:
        return [c for c in self.comparisons if c.regressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "regressed": bool(self.regressions),
            "comparisons": [
                {
                    "metric": c.metric,
                    "baseline": c.baseline,
                    "current": c.current,
                    "change": c.change,
                    "tolerance": c.tolerance,
                    "noise_cv": c.noise_cv,
                    "effective_tolerance": c.effective_tolerance,
                    "status": c.status,
                }
                for c in self.comparisons
            ],
            "skipped": [
                {"metric": m, "reason": r} for m, r in self.skipped
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_text(self) -> str:
        lines = [f"perf gate: {self.benchmark}"]
        width = max(
            (len(c.metric) for c in self.comparisons), default=6
        )
        for c in self.comparisons:
            lines.append(
                f"  {c.metric:<{width}}  "
                f"{c.baseline:>10.3f} -> {c.current:>10.3f}  "
                f"({c.change:+7.1%}, band +/-{c.effective_tolerance:.0%})"
                f"  {c.status}"
            )
        for metric, reason in self.skipped:
            lines.append(f"  {metric}: skipped ({reason})")
        n_reg = len(self.regressions)
        if n_reg:
            lines.append(
                f"  => {n_reg} regression(s) beyond tolerance"
            )
        else:
            lines.append(
                f"  => no drift beyond tolerance "
                f"({len(self.comparisons)} metrics compared)"
            )
        return "\n".join(lines)


def _metric_paths(result: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """(relative, absolute) metric paths for one result document."""
    kind = result.get("benchmark")
    relative: List[str] = []
    absolute: List[str] = []
    if kind == "kernels":
        kernels = result.get("kernels", {})
        for name in sorted(kernels):
            # fused_mflups, plus the compiled-tier columns
            # (compiled_serial_speedup, ...) when the baseline has them
            entry = kernels.get(name) or {}
            for key in sorted(entry):
                if key.endswith("_speedup"):
                    relative.append(f"kernels.{name}.{key}")
                elif key.endswith("_mflups"):
                    absolute.append(f"kernels.{name}.{key}")
        if "compiled_step_speedup" in result:
            relative.append("compiled_step_speedup")
    elif kind == "overlap":
        ranks = result.get("ranks", [])
        for i, rank in enumerate(ranks):
            if not isinstance(rank, dict):
                continue
            relative.append(f"ranks.{i}.overlap_speedup")
            relative.append(f"ranks.{i}.halo_reduction")
            absolute.append(f"ranks.{i}.modes.overlap.mflups")
            # executor-scaling columns (parallel efficiency per mode)
            # gate alongside when the baseline recorded them; on 1-core
            # hosts compare_results annotates these instead of gating
            modes = rank.get("modes") or {}
            for mode in sorted(modes):
                entry = modes.get(mode) or {}
                if mode == "lockstep" or not isinstance(entry, dict):
                    continue
                if "parallel_efficiency" in entry:
                    relative.append(
                        f"ranks.{i}.modes.{mode}.parallel_efficiency"
                    )
    else:
        raise BenchmarkError(
            f"unknown benchmark kind {kind!r}; expected kernels or overlap"
        )
    return relative, absolute


def _noise_cv(
    history: Sequence[Dict[str, Any]],
    current: Dict[str, Any],
    metric: str,
    min_samples: int,
) -> float:
    """Coefficient of variation of a metric over comparable history.

    Only records with the current result's config signature and host
    fingerprint contribute — cross-host or cross-config history says
    nothing about this machine's run-to-run noise.
    """
    sig = config_signature(current)
    host = (current.get("meta") or {}).get("host")
    values: List[float] = []
    for record in history:
        if config_signature(record) != sig:
            continue
        if not fingerprints_match(
            (record.get("meta") or {}).get("host"), host
        ):
            continue
        value = extract_metric(record, metric)
        if value is not None and math.isfinite(value):
            values.append(value)
    if len(values) < min_samples:
        return 0.0
    mean = statistics.fmean(values)
    if mean == 0:
        return 0.0
    return statistics.pstdev(values) / abs(mean)


def compare_results(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance: float = 0.15,
    history: Sequence[Dict[str, Any]] = (),
    noise_multiplier: float = 2.0,
    max_tolerance: float = 0.5,
    min_noise_samples: int = 3,
) -> DriftReport:
    """Compare one current result against its baseline.

    Both documents must be the same benchmark kind.  Raises
    :class:`~repro.core.errors.BenchmarkError` on mismatched kinds or an
    out-of-range tolerance.
    """
    if not 0 < tolerance < 1:
        raise BenchmarkError("tolerance must be in (0, 1)")
    kind = baseline.get("benchmark")
    if kind != current.get("benchmark"):
        raise BenchmarkError(
            f"cannot compare {kind!r} baseline against "
            f"{current.get('benchmark')!r} result"
        )
    relative, absolute = _metric_paths(baseline)
    report = DriftReport(benchmark=str(kind))

    # executor-scaling metrics (process rows, parallel efficiencies)
    # are meaningless on a host that cannot run ranks
    # concurrently: annotate them as core-bound instead of gating
    cpu_count = (
        ((current.get("meta") or {}).get("host") or {}).get("cpu_count")
    )
    core_bound = isinstance(cpu_count, int) and cpu_count <= 1

    def is_executor_scaling(metric: str) -> bool:
        return "parallel" in metric or "process" in metric

    if core_bound:
        reason = (
            f"core-bound host (cpu_count={cpu_count}): executor-scaling "
            "metric annotated, not gated"
        )
        for metric in [m for m in relative if is_executor_scaling(m)]:
            relative.remove(metric)
            report.skipped.append((metric, reason))
        for metric in [m for m in absolute if is_executor_scaling(m)]:
            absolute.remove(metric)
            report.skipped.append((metric, reason))

    same_config = config_signature(baseline) == config_signature(current)
    same_host = fingerprints_match(
        (baseline.get("meta") or {}).get("host"),
        (current.get("meta") or {}).get("host"),
    )

    def compare_one(metric: str) -> None:
        b = extract_metric(baseline, metric)
        c = extract_metric(current, metric)
        if b is None or c is None:
            report.skipped.append(
                (metric, "missing from baseline or current result")
            )
            return
        if not (math.isfinite(b) and math.isfinite(c)) or b <= 0:
            report.skipped.append((metric, "non-finite value"))
            return
        cv = _noise_cv(history, current, metric, min_noise_samples)
        effective = min(
            max(tolerance, noise_multiplier * cv), max_tolerance
        )
        report.comparisons.append(
            MetricComparison(
                metric=metric,
                baseline=b,
                current=c,
                tolerance=tolerance,
                noise_cv=cv,
                effective_tolerance=effective,
            )
        )

    for metric in relative:
        compare_one(metric)
    if not same_config:
        for metric in absolute:
            report.skipped.append(
                (metric, "absolute metric; benchmark configs differ")
            )
    elif not same_host:
        for metric in absolute:
            report.skipped.append(
                (metric, "absolute metric; host fingerprints differ")
            )
    else:
        for metric in absolute:
            compare_one(metric)
    return report
