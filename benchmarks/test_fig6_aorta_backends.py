"""Fig. 6 — software-backend comparison on the aorta (HARVEY only).

Application and architectural efficiencies of every ported model on the
realistic workload, per system.  Asserted claims focus on the aorta-
specific observations of Section 9.2.
"""

from __future__ import annotations

import pytest

from repro.analysis import backend_comparison
from repro.analysis.report import backend_figure
from repro.hardware import get_machine


@pytest.fixture(scope="module")
def fig6():
    return {
        name: backend_comparison(get_machine(name), "aorta")
        for name in ("Summit", "Polaris", "Crusher", "Sunspot")
    }


@pytest.fixture(scope="module")
def fig5_crusher():
    return backend_comparison(get_machine("Crusher"), "cylinder")


def test_fig6_regenerates(benchmark, fig6, write_artifact):
    bc = benchmark.pedantic(
        lambda: backend_comparison(get_machine("Crusher"), "aorta"),
        rounds=1,
        iterations=1,
    )
    write_artifact(
        "fig6_aorta_backends.txt", backend_figure(list(fig6.values()))
    )
    assert "proxy" not in bc.raw
    # run the claim checks here too so `--benchmark-only` verifies them
    test_summit_hip_wins_lowest_count_then_drops(fig6)
    test_summit_kokkos_openacc_beats_kokkos_cuda_on_aorta(fig6)
    test_polaris_kokkos_openacc_disparity_most_pronounced_on_aorta(fig6)
    test_crusher_kokkos_hip_diverges_from_sycl_with_scale(fig6)
    test_sunspot_kokkos_sycl_best_on_aorta(fig6)
    test_native_best_everywhere_except_sunspot(fig6)
    test_crusher_sycl_cliff_on_aorta(
        fig6, backend_comparison(get_machine("Crusher"), "cylinder")
    )


def test_summit_hip_wins_lowest_count_then_drops(fig6):
    """"at the lowest task count ... under both workloads, the HIP
    HARVEY implementation outperforms the other HARVEY versions,
    followed by a steep drop in performance on the aorta."""
    eff = fig6["Summit"].app_efficiency["harvey"]
    assert eff["hip"][0] == pytest.approx(1.0)
    for other in ("cuda", "kokkos-cuda", "kokkos-openacc"):
        assert eff["hip"][0] >= eff[other][0]
    # the drop: efficiency at scale is clearly below the first point
    assert min(eff["hip"][3:]) < eff["hip"][0] - 0.05


def test_summit_kokkos_openacc_beats_kokkos_cuda_on_aorta(fig6):
    eff = fig6["Summit"].app_efficiency["harvey"]
    for acc, cud in zip(eff["kokkos-openacc"], eff["kokkos-cuda"]):
        assert acc > cud


def test_polaris_kokkos_openacc_disparity_most_pronounced_on_aorta(
    fig6,
):
    """"The disparity between Kokkos-OpenACC and other programming
    models is most pronounced on the aorta geometry."""
    eff = fig6["Polaris"].app_efficiency["harvey"]
    for i in range(len(eff["kokkos-openacc"])):
        assert eff["kokkos-openacc"][i] < eff["kokkos-cuda"][i]
        assert eff["kokkos-openacc"][i] < eff["kokkos-sycl"][i]
        assert eff["kokkos-openacc"][i] < eff["sycl"][i]


def test_crusher_sycl_cliff_on_aorta(fig6, fig5_crusher):
    """Fig. 6(c): SYCL HARVEY app efficiency on the aorta drops
    precipitously after the first data point; yet its lowest aorta point
    stays above its highest cylinder point, which flat-lines."""
    aorta_eff = fig6["Crusher"].app_efficiency["harvey"]["sycl"]
    assert aorta_eff[0] == max(aorta_eff)
    assert aorta_eff[-1] < aorta_eff[0] - 0.15  # sustained drop with scale
    cylinder_eff = fig5_crusher.app_efficiency["harvey"]["sycl"]
    assert min(aorta_eff) > max(cylinder_eff)
    # the cylinder line flat-lines in comparison
    spread = max(cylinder_eff) - min(cylinder_eff)
    assert spread < 0.15


def test_crusher_kokkos_hip_diverges_from_sycl_with_scale(fig6):
    eff = fig6["Crusher"].app_efficiency["harvey"]
    gap_start = eff["kokkos-hip"][0] - eff["sycl"][0]
    gap_end = eff["kokkos-hip"][-1] - eff["sycl"][-1]
    assert gap_end > gap_start


def test_sunspot_kokkos_sycl_best_on_aorta(fig6):
    """Kokkos-SYCL was the best performing overall on Sunspot, the
    exception to native-is-best (Sections 9.2 and 10)."""
    eff = fig6["Sunspot"].app_efficiency["harvey"]
    for i in range(len(eff["kokkos-sycl"])):
        assert eff["kokkos-sycl"][i] == pytest.approx(1.0)
        assert eff["sycl"][i] < 1.0


def test_native_best_everywhere_except_sunspot(fig6):
    for name in ("Summit", "Polaris", "Crusher"):
        comp = fig6[name]
        native = get_machine(name).native_model
        # native wins at the majority of GPU counts (HIP's low-count win
        # on Summit is the documented exception)
        wins = sum(
            1
            for n in comp.gpu_counts
            if comp.best_model("harvey", n) == native
        )
        assert wins >= len(comp.gpu_counts) - 1
    sunspot = fig6["Sunspot"]
    assert all(
        sunspot.best_model("harvey", n) == "kokkos-sycl"
        for n in sunspot.gpu_counts
    )
