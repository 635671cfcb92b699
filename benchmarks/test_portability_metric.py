"""Performance-portability metric over the study (Section 10, quantified).

Not a paper table — the paper argues its Kokkos-vs-specialised-ports
trade-off qualitatively; this bench computes the P3HPC community's PP
metric (harmonic-mean efficiency over the platform set) for every
implementation, which is how the related work ([5], [11], [14], [15])
quantifies exactly this trade-off.
"""

from __future__ import annotations

import pytest

from repro.analysis import study_portability
from repro.analysis.report import portability_table, roofline_table
from repro.perf import roofline_analysis
from repro.hardware import all_machines


def test_portability_metric_regenerates(benchmark, write_artifact):
    report = benchmark.pedantic(
        lambda: study_portability("cylinder", 64, "architectural"),
        rounds=1,
        iterations=1,
    )
    app_report = study_portability("cylinder", 64, "application")
    write_artifact(
        "portability_metric.txt", portability_table(report, app_report)
    )
    # Section 10's trade-off, quantified: only the Kokkos code base has
    # nonzero PP over the whole platform set...
    nonzero = {m for m, v in report.per_model.items() if v > 0}
    assert nonzero == {"kokkos (any backend)"}
    # ...and its PP against best-observed performance is high
    assert app_report.per_model["kokkos (any backend)"] > 0.7


def test_roofline_regenerates(benchmark, write_artifact):
    def build():
        return [roofline_analysis(m.node.gpu) for m in all_machines()]

    points = benchmark.pedantic(build, rounds=1, iterations=1)
    write_artifact("roofline.txt", roofline_table(points))
    # the Section 6 premise: memory-bound on every device in the study
    assert all(p.memory_bound for p in points)
