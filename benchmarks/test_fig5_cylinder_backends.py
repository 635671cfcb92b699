"""Fig. 5 — software-backend comparison on the cylinder.

For each of the four systems, every ported programming model runs the
cylinder piecewise scaling for both HARVEY and the proxy app; the bench
regenerates the application-efficiency (first row of Fig. 5) and
architectural-efficiency (second row) series and asserts the paper's
per-system observations.
"""

from __future__ import annotations

import pytest

from repro.analysis import backend_comparison
from repro.analysis.report import backend_figure
from repro.hardware import get_machine


@pytest.fixture(scope="module")
def fig5():
    return {
        name: backend_comparison(get_machine(name), "cylinder")
        for name in ("Summit", "Polaris", "Crusher", "Sunspot")
    }


def test_fig5_regenerates(benchmark, fig5, write_artifact):
    bc = benchmark.pedantic(
        lambda: backend_comparison(get_machine("Summit"), "cylinder"),
        rounds=1,
        iterations=1,
    )
    write_artifact(
        "fig5_cylinder_backends.txt", backend_figure(list(fig5.values()))
    )
    assert set(bc.raw["harvey"]) == {
        "cuda", "hip", "kokkos-cuda", "kokkos-openacc"
    }
    # run the claim checks here too so `--benchmark-only` verifies them
    test_availability_matches_figure_legends(fig5)
    test_summit_hip_proxy_on_par_with_cuda(fig5)
    test_summit_hip_harvey_lags_native_but_wins_lowest_count(fig5)
    test_summit_kokkos_openacc_beats_kokkos_cuda(fig5)
    test_polaris_sycl_closely_matches_native_cuda(fig5)
    test_polaris_proxy_kokkos_ordering(fig5)
    test_polaris_harvey_kokkos_openacc_worst(fig5)
    test_crusher_native_hip_best_and_arch_efficiency_low(fig5)
    test_crusher_kokkos_hip_proxy_beats_sycl_proxy(fig5)
    test_sunspot_kokkos_sycl_beats_native_sycl(fig5)
    test_sunspot_chipstar_hip_proxy_worst(fig5)
    test_sunspot_truncated_at_256(fig5)


def test_availability_matches_figure_legends(fig5):
    assert set(fig5["Polaris"].raw["harvey"]) == {
        "cuda", "sycl", "kokkos-cuda", "kokkos-sycl", "kokkos-openacc"
    }
    assert set(fig5["Crusher"].raw["harvey"]) == {"hip", "sycl", "kokkos-hip"}
    assert set(fig5["Sunspot"].raw["harvey"]) == {"sycl", "hip", "kokkos-sycl"}


def test_summit_hip_proxy_on_par_with_cuda(fig5):
    """Fig. 5(a,e): HIP-on-CUDA-backend proxy overlaps native CUDA."""
    eff = fig5["Summit"].app_efficiency["proxy"]
    for hip_eff in eff["hip"]:
        assert hip_eff > 0.93


def test_summit_hip_harvey_lags_native_but_wins_lowest_count(fig5):
    eff = fig5["Summit"].app_efficiency["harvey"]
    # the exception at the lowest task count
    assert eff["hip"][0] >= eff["cuda"][0]
    # generally lags beyond it
    lag_points = sum(
        1 for h, c in zip(eff["hip"][2:], eff["cuda"][2:]) if h < c
    )
    assert lag_points >= 6


def test_summit_kokkos_openacc_beats_kokkos_cuda(fig5):
    """"Kokkos-OpenACC consistently outperform Kokkos-CUDA irrespective
    of performance measure, especially evident for the proxy apps."""
    for app in ("harvey", "proxy"):
        for measure in ("app_efficiency", "arch_efficiency"):
            series = getattr(fig5["Summit"], measure)[app]
            for acc, cud in zip(
                series["kokkos-openacc"], series["kokkos-cuda"]
            ):
                assert acc > cud


def test_polaris_sycl_closely_matches_native_cuda(fig5):
    eff = fig5["Polaris"].app_efficiency["harvey"]
    for sycl_eff in eff["sycl"]:
        assert sycl_eff > 0.9
    # and SYCL beats every Kokkos variant (the Section 10 trade-off)
    for i in range(len(eff["sycl"])):
        for kk in ("kokkos-cuda", "kokkos-sycl", "kokkos-openacc"):
            assert eff["sycl"][i] > eff[kk][i]


def test_polaris_proxy_kokkos_ordering(fig5):
    """Proxy on Polaris: Kokkos-CUDA ~ Kokkos-OpenACC, Kokkos-SYCL worst."""
    eff = fig5["Polaris"].app_efficiency["proxy"]
    for i in range(len(eff["kokkos-sycl"])):
        assert eff["kokkos-sycl"][i] < eff["kokkos-cuda"][i]
        assert eff["kokkos-sycl"][i] < eff["kokkos-openacc"][i]
        ratio = eff["kokkos-cuda"][i] / eff["kokkos-openacc"][i]
        assert 0.9 < ratio < 1.15  # "on par"


def test_polaris_harvey_kokkos_openacc_worst(fig5):
    eff = fig5["Polaris"].app_efficiency["harvey"]
    for i in range(len(eff["kokkos-openacc"])):
        assert eff["kokkos-openacc"][i] < eff["kokkos-cuda"][i]
        assert eff["kokkos-openacc"][i] < eff["kokkos-sycl"][i]


def test_crusher_native_hip_best_and_arch_efficiency_low(fig5):
    comp = fig5["Crusher"]
    eff = comp.app_efficiency["harvey"]
    for i in range(len(eff["hip"])):
        assert eff["hip"][i] == pytest.approx(1.0)
    # "architectural efficiencies appear to be particularly low on Crusher"
    for model, series in comp.arch_efficiency["harvey"].items():
        for v in series:
            assert v < 0.5, (model, v)


def test_crusher_kokkos_hip_proxy_beats_sycl_proxy(fig5):
    eff = fig5["Crusher"].app_efficiency["proxy"]
    for kh, sy in zip(eff["kokkos-hip"], eff["sycl"]):
        assert kh > sy


def test_sunspot_kokkos_sycl_beats_native_sycl(fig5):
    """"Kokkos-SYCL implementations outperform the corresponding native
    SYCL codes nearly across the board."""
    comp = fig5["Sunspot"]
    for app in ("harvey", "proxy"):
        raw = comp.raw[app]
        wins = sum(
            1
            for k, s in zip(
                raw["kokkos-sycl"].mflups, raw["sycl"].mflups
            )
            if k > s
        )
        assert wins >= len(raw["sycl"].mflups) - 1


def test_sunspot_chipstar_hip_proxy_worst(fig5):
    """"the HIP proxy app performs the worst among all programming
    models considered for the platform."""
    raw = fig5["Sunspot"].raw["proxy"]
    for i in range(len(raw["hip"].mflups)):
        for other in ("sycl", "kokkos-sycl"):
            assert raw["hip"].mflups[i] < raw[other].mflups[i]


def test_sunspot_truncated_at_256(fig5):
    assert max(fig5["Sunspot"].gpu_counts) == 256
