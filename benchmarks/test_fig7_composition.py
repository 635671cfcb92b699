"""Fig. 7 — composition of runtimes (HARVEY aorta, slowest GPU).

Stream-collide vs. communication vs. CPU<->GPU memcopy fractions across
the piecewise strong scaling on Polaris (A100), Crusher (MI250X GCDs)
and Sunspot (PVC tiles).  Asserted claims:

* communication time increases with the number of GPUs on every system;
* the communication proportion orders Polaris > Sunspot > Crusher
  (fewest GPUs per node on Polaris; the 4x-bandwidth interconnect
  "greatly diminishes the cost of internodal communication on Crusher");
* the memory-transfer slivers are present but small.
"""

from __future__ import annotations

import pytest

from repro.analysis import composition_series
from repro.analysis.composition import FIG7_SYSTEMS as SYSTEMS
from repro.analysis.report import composition_figure
from repro.hardware import get_machine


@pytest.fixture(scope="module")
def fig7():
    return {
        name: composition_series(get_machine(name)) for name in SYSTEMS
    }


def test_fig7_regenerates(benchmark, fig7, write_artifact):
    series = benchmark.pedantic(
        lambda: composition_series(get_machine("Polaris")),
        rounds=1,
        iterations=1,
    )
    write_artifact("fig7_composition.txt", composition_figure(fig7))
    assert len(series) >= 9
    # run the claim checks here too so `--benchmark-only` verifies them
    test_fractions_sum_to_one(fig7)
    for system in SYSTEMS:
        test_communication_grows_with_gpu_count(fig7, system)
    test_comm_proportion_ordering_matches_paper(fig7)
    test_memcpy_slivers_present_but_small(fig7)
    test_streamcollide_dominates_at_low_counts(fig7)


def test_fractions_sum_to_one(fig7):
    for points in fig7.values():
        for p in points:
            assert sum(p.fractions.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("system", SYSTEMS)
def test_communication_grows_with_gpu_count(fig7, system):
    points = fig7[system]
    assert points[-1].comm_fraction > points[0].comm_fraction
    # monotone over the section starts (2 -> 16 -> 128)
    by_count = {p.n_gpus: p.comm_fraction for p in points}
    assert by_count[16] > by_count[2]
    assert by_count[128] > by_count[16]


def test_comm_proportion_ordering_matches_paper(fig7):
    """Polaris > Sunspot > Crusher at matched GPU counts."""
    for n in (32, 64, 128, 256):
        fractions = {
            name: next(p for p in fig7[name] if p.n_gpus == n).comm_fraction
            for name in SYSTEMS
        }
        assert fractions["Polaris"] > fractions["Sunspot"] > fractions[
            "Crusher"
        ], (n, fractions)


def test_memcpy_slivers_present_but_small(fig7):
    for name, points in fig7.items():
        for p in points:
            assert 0.0 < p.memcpy_fraction < 0.10, (name, p.n_gpus)


def test_streamcollide_dominates_at_low_counts(fig7):
    for points in fig7.values():
        first = points[0]
        assert first.fractions["streamcollide"] > 0.9
