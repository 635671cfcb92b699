"""Table 1 — system node characteristics.

Regenerates the hardware table, with GPU memory bandwidth measured by
the (simulated) BabelStream exactly as the paper's footnote describes,
and asserts the published per-system values.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import table1
from repro.hardware import all_machines, get_machine
from repro.microbench import run_babelstream

#: Paper Table 1 rows: (cores/CPU, logical GPUs/node, memory GB, BW TB/s).
PAPER_TABLE1 = {
    "Sunspot": (52, 12, 64, 0.997),
    "Crusher": (64, 8, 64, 1.28),
    "Polaris": (32, 4, 40, 1.30),
    "Summit": (21, 6, 16, 0.770),
}


def test_table1_regenerates(benchmark, write_artifact):
    text = benchmark(table1, all_machines())
    write_artifact("table1_systems.txt", text)
    assert all(name in text for name in PAPER_TABLE1)


@pytest.mark.parametrize("system", sorted(PAPER_TABLE1))
def test_table1_values_match_paper(system):
    cores, gpus, mem, bw = PAPER_TABLE1[system]
    machine = get_machine(system)
    assert machine.node.cores_per_cpu == cores
    assert machine.logical_gpus_per_node == gpus
    assert machine.node.gpu.memory_gb == mem
    measured = run_babelstream(machine.node.gpu).measured_bandwidth_tbs
    # the measurement includes launch overhead, so allow 2%
    assert measured == pytest.approx(bw, rel=0.02)


def test_node_counts_match_section4():
    assert get_machine("Sunspot").num_nodes == 128
    assert get_machine("Crusher").num_nodes == 128
    assert get_machine("Polaris").num_nodes == 560
    assert get_machine("Summit").num_nodes == 4600
