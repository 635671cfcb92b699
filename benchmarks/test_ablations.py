"""Ablation benches for the design choices DESIGN.md calls out.

Beyond the paper's tables/figures: quantify what each modelling and
implementation choice contributes, and where the hardware sensitivity
sits (the paper's contribution 6, made quantitative).
"""

from __future__ import annotations

import pytest

from repro.analysis import decomposition_ablation, run_ablation
from repro.analysis.report import ablation_table, sensitivity_table
from repro.analysis.sweep import sensitivity_sweep
from repro.hardware import all_machines, get_machine
from repro.perf import aorta_trace
from repro.perfmodel import dominant_resource


@pytest.fixture(scope="module")
def trace512():
    return aorta_trace(0.0275, 512)


def test_ablation_table_regenerates(benchmark, trace512, write_artifact):
    def build():
        return {
            machine.name: run_ablation(
                trace512, machine, machine.native_model, "harvey"
            )
            for machine in (get_machine("Polaris"), get_machine("Crusher"))
        }

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    write_artifact(
        "ablations.txt",
        ablation_table(
            results, "Ablations: aorta @ 27.5um, 512 GPUs, native models"
        ),
    )
    by_key = {
        (system, r.name): r.impact
        for system, system_results in results.items()
        for r in system_results
    }
    # packed halo exchange and overlap matter more on the thin fabric
    assert by_key[("Polaris", "halo_payload_all19")] < by_key[
        ("Crusher", "halo_payload_all19")
    ]
    assert by_key[("Polaris", "perfect_comm_overlap")] > by_key[
        ("Crusher", "perfect_comm_overlap")
    ]
    # every host-staging ablation hurts
    assert by_key[("Polaris", "host_staged_mpi")] < 0
    assert by_key[("Crusher", "host_staged_mpi")] < 0


def test_decomposition_ablation_regenerates(benchmark, write_artifact):
    def build():
        return {
            m.name: [decomposition_ablation(m, 0.110, 16)]
            for m in all_machines()
        }

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    write_artifact(
        "ablation_decomposition.txt",
        ablation_table(
            results,
            "Decomposition ablation (baseline: bisection, ablated: block "
            "grid): HARVEY aorta @ 110um, 16 GPUs",
        ),
    )
    # the bisection balancer wins on every system
    for (r,) in results.values():
        assert r.impact < -0.10


def test_sensitivity_sweep_regenerates(benchmark, write_artifact):
    points = benchmark.pedantic(
        sensitivity_sweep, args=((2, 64, 1024), 4e6), rounds=1, iterations=1
    )
    write_artifact("sensitivity.txt", sensitivity_table(points))
    # at 2 GPUs every system is memory-bandwidth-bound
    for s in points:
        if s.n_gpus == 2:
            assert dominant_resource(s) == "memory_bandwidth"
