"""Fig. 3 — hardware comparison on the idealized cylinder.

Piecewise strong scaling (sizes 12/24/48 over GPU counts 2-1024) of
HARVEY and the LBM proxy app under each system's *native* programming
model, against the performance-model predictions.  Asserted claims:

* HIP/Crusher HARVEY performs worse than the other native models at
  small GPU counts (< 8) but becomes competitive from ~64 GPUs;
* the proxy app consistently outperforms HARVEY, ~2x on average;
* predictions upper-bound the simulated measurements;
* Sunspot's native SYCL shows weak-scaling jump discontinuities at the
  section boundaries (16 and 128 GPUs);
* the HIP proxy app edges out the CUDA proxy app on A100 at high
  GPU counts.
"""

from __future__ import annotations

import pytest

from repro.analysis import native_hardware_comparison
from repro.analysis.report import hardware_figure


@pytest.fixture(scope="module")
def fig3():
    return native_hardware_comparison("cylinder")


def test_fig3_regenerates(benchmark, fig3, write_artifact):
    data = benchmark.pedantic(
        lambda: native_hardware_comparison("cylinder"),
        rounds=1,
        iterations=1,
    )
    write_artifact("fig3_cylinder_hw.txt", hardware_figure(data, "cylinder"))
    assert set(data) == {"Summit", "Polaris", "Crusher", "Sunspot"}
    # run the claim checks here too so `--benchmark-only` verifies them
    test_hip_crusher_worst_at_small_counts(data)
    test_hip_crusher_competitive_from_64(data)
    test_proxy_outperforms_harvey_about_2x(data)
    test_predictions_upper_bound_measurements(data)
    test_sunspot_weak_scaling_jumps(data)
    test_hip_proxy_edges_cuda_proxy_at_high_counts(data)


def test_hip_crusher_worst_at_small_counts(fig3):
    for n in (2, 4):
        crusher = fig3["Crusher"]["harvey"].at(n)
        for other in ("Summit", "Polaris", "Sunspot"):
            assert crusher < fig3[other]["harvey"].at(n), (
                f"Crusher should trail {other} at {n} GPUs"
            )


def test_hip_crusher_competitive_from_64(fig3):
    # "became competitive for multi-node runs, particularly beginning at
    # about 64 GPUs, at which point it generally outperforms the native
    # HARVEY implementations on Summit and Sunspot" — "generally": it
    # must win the majority of the >= 64 points against each
    for n in (64, 128, 256):
        assert fig3["Crusher"]["harvey"].at(n) > fig3["Summit"][
            "harvey"
        ].at(n)
    sunspot_wins = sum(
        1
        for n in (64, 128, 256)
        if fig3["Crusher"]["harvey"].at(n) > fig3["Sunspot"]["harvey"].at(n)
    )
    assert sunspot_wins >= 2


def test_proxy_outperforms_harvey_about_2x(fig3):
    ratios = []
    for system, series in fig3.items():
        for n, harvey, proxy in zip(
            series["harvey"].gpu_counts,
            series["harvey"].mflups,
            series["proxy"].mflups,
        ):
            assert proxy > harvey, f"{system}@{n}: proxy should win"
            ratios.append(proxy / harvey)
    mean_ratio = sum(ratios) / len(ratios)
    # "a speedup of approximately 2 on average"
    assert 1.5 < mean_ratio < 2.6, mean_ratio


def test_predictions_upper_bound_measurements(fig3):
    for system, series in fig3.items():
        for n, measured in zip(
            series["harvey"].gpu_counts, series["harvey"].mflups
        ):
            assert measured <= series["predicted"].at(n) * 1.02, (
                f"{system}@{n}: measurement exceeds the ideal prediction"
            )


def test_sunspot_weak_scaling_jumps(fig3):
    """Per-GPU throughput jumps upward when the problem grows (16, 128)."""
    series = fig3["Sunspot"]["harvey"]
    per_gpu = {
        n: m / n for n, m in zip(series.gpu_counts, series.mflups)
    }
    # within a strong-scaling section, per-GPU throughput decays ...
    assert per_gpu[8] < per_gpu[4] < per_gpu[2]
    # ... and recovers discontinuously at the weak-scaling points
    assert per_gpu[16] > per_gpu[8]
    assert per_gpu[128] > per_gpu[64]


def test_hip_proxy_edges_cuda_proxy_at_high_counts(fig3):
    # "the HIP proxy app appears to edge out the CUDA proxy app on A100
    # near the 1024 GPU count"
    assert (
        fig3["Crusher"]["proxy"].at(1024) > fig3["Polaris"]["proxy"].at(1024)
    )
    # while at small counts the A100 proxy is comfortably ahead
    assert fig3["Polaris"]["proxy"].at(4) > fig3["Crusher"]["proxy"].at(4)
