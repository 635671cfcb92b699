"""One renderer per paper artefact, and the report that concatenates them.

Each function below takes the analysis result it renders and returns
its table(s) as text: the ``repro`` verb for the artefact prints it, the
``benchmarks/test_*_regenerates`` bench writes it to
``benchmarks/output/``, and :func:`full_report` (``repro report``)
concatenates all of them.  Paper reference values live in the benches'
assertions, not here.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..hardware.interconnect import LinkTier
from ..hardware.machine import Machine
from ..hardware.systems import all_machines, get_machine
from ..microbench.babelstream import run_babelstream
from ..perf.roofline import RooflinePoint, roofline_analysis
from ..perfmodel.sensitivity import Sensitivity, dominant_resource
from ..porting import (
    apply_manual_fixes,
    corpus_line_count,
    dpct_translate,
    harvey_corpus,
    hipify,
    port_to_kokkos,
)
from .ablation import AblationResult, ablation_study
from .composition import FIG7_SYSTEMS, CompositionPoint, composition_series
from .portability import PortabilityReport, study_portability
from .sweep import (
    BackendComparison,
    ScalingSeries,
    backend_comparison,
    native_hardware_comparison,
    sensitivity_sweep,
)
from .tables import render_series, render_table

__all__ = [
    "table1",
    "porting_tables",
    "hardware_figure",
    "backend_figure",
    "composition_figure",
    "portability_table",
    "ablation_table",
    "sensitivity_table",
    "roofline_table",
    "full_report",
]


def table1(machines: Sequence[Machine]) -> str:
    """Table 1: node characteristics, with the GPU memory bandwidth the
    (simulated) BabelStream measures."""
    rows = []
    for m in machines:
        bw = run_babelstream(m.node.gpu).measured_bandwidth_tbs
        cpu_gpu = m.node.link(LinkTier.CPU_GPU)
        inter = m.node.link(LinkTier.INTER_NODE)
        rows.append(
            [
                m.name,
                f"{m.node.cpus}x {m.node.cpu_name}",
                str(m.node.cores_per_cpu),
                f"{m.node.packages}x {m.node.gpu.name}",
                str(m.logical_gpus_per_node),
                f"{m.node.gpu.memory_gb:g} GB",
                f"{bw:.3f} TB/s",
                f"{cpu_gpu.name} ({cpu_gpu.bandwidth_gbs:g} GB/s)",
                f"{inter.name} ({inter.bandwidth_gbs:g} GB/s)",
            ]
        )
    return render_table(
        [
            "System", "CPU", "Cores/CPU", "GPU", "GPUs/node", "GPU Mem",
            "GPU Mem BW*", "GPU-CPU", "Interconnect",
        ],
        rows,
        "Table 1: system node characteristics (*BabelStream-measured)",
    )


def porting_tables(files: Dict[str, str]) -> str:
    """Tables 2 and 3 from one pass of the three porting paths over a
    CUDA corpus: the DPCT warning breakdown, then the manual lines each
    port needed."""
    dpct = dpct_translate(files)
    _fixed, dpct_changed = apply_manual_fixes(dpct)
    hip = hipify(files).manual_lines_needed
    kokkos = port_to_kokkos(files).stats
    lines = corpus_line_count(files)
    table2 = render_table(
        ["Category", "Frequency(%)"],
        [
            [cat, f"{pct:.2f}"]
            for cat, pct in dpct.warning_breakdown().items()
        ],
        f"Table 2: DPCT warning breakdown ({len(dpct.warnings)} warnings "
        f"over {len(files)} files, {lines} lines)",
    )
    table3 = render_table(
        ["", "DPCT", "HIPify", "Kokkos"],
        [
            ["lines added", "0", str(hip.added), str(kokkos.added)],
            ["lines changed", str(dpct_changed), str(hip.changed),
             str(kokkos.changed)],
            ["time scale", "weeks", "days", "months"],
        ],
        f"Table 3: manual lines needed for ports (miniature corpus: "
        f"{lines} lines; HARVEY is ~10x larger)",
    )
    return f"{table2}\n\n{table3}"


def hardware_figure(
    data: Dict[str, Dict[str, ScalingSeries]], workload: str
) -> str:
    """Figs. 3/4: per system, the MFLUPS of every series of
    :func:`~repro.analysis.sweep.native_hardware_comparison`."""
    blocks = []
    for system, series in data.items():
        lines = {s.label.removeprefix(f"{system} "): s.mflups
                 for s in series.values()}
        blocks.append(
            render_series(
                series["harvey"].gpu_counts, lines, value_format="{:.0f}",
                title=f"{system} — {workload} piecewise scaling (MFLUPS)",
            )
        )
    return "\n\n".join(blocks)


def backend_figure(comps: Sequence[BackendComparison]) -> str:
    """Figs. 5/6: per system and app, the application then the
    architectural efficiency of every ported model."""
    blocks = []
    for comp in comps:
        for app in comp.app_efficiency:
            for kind, table in (
                ("application", comp.app_efficiency),
                ("architectural", comp.arch_efficiency),
            ):
                blocks.append(
                    render_series(
                        comp.gpu_counts, table[app],
                        title=f"{comp.system} {comp.workload} {app}: "
                        f"{kind} efficiency",
                    )
                )
    return "\n\n".join(blocks)


def composition_figure(series: Dict[str, List[CompositionPoint]]) -> str:
    """Fig. 7: the slowest GPU's runtime shares per system and count."""
    blocks = []
    for system, points in series.items():
        rows = [
            [str(p.n_gpus)]
            + [
                f"{100 * share:.1f}%"
                for share in (
                    p.fractions["streamcollide"], p.comm_fraction,
                    p.fractions["h2d"], p.fractions["d2h"],
                    p.memcpy_fraction,
                )
            ]
            for p in points
        ]
        blocks.append(
            render_table(
                ["GPUs", "streamcollide", "communication", "H2D", "D2H",
                 "memcpy"],
                rows,
                f"{system}: HARVEY aorta runtime composition (slowest GPU)",
            )
        )
    return "\n\n".join(blocks)


def portability_table(
    arch: PortabilityReport, app: PortabilityReport
) -> str:
    """Pennycook PP of every implementation under architectural and
    application efficiency, with the platforms it reaches."""
    names = [m.name for m in all_machines()]
    rows = [
        [
            model,
            f"{pp:.3f}",
            f"{app.per_model[model]:.3f}",
            f"{len(arch.per_model_supported[model])}/{len(names)}",
        ]
        for model, pp in arch.per_model.items()
    ]
    return render_table(
        ["implementation", "PP (arch eff)", "PP (app eff)", "platforms"],
        rows,
        f"Pennycook performance portability over {{{', '.join(names)}}} "
        f"@ {arch.n_gpus} GPUs ({arch.workload})",
    )


def ablation_table(
    results: Dict[str, List[AblationResult]], title: str
) -> str:
    """Baseline vs ablated MFLUPS of every ablation, per system."""
    rows = [
        [system, r.name, f"{r.baseline_mflups:.0f}",
         f"{r.ablated_mflups:.0f}", f"{100 * r.impact:+.1f}%"]
        for system, system_results in results.items()
        for r in system_results
    ]
    return render_table(
        ["system", "ablation", "baseline", "ablated", "impact"], rows, title
    )


def sensitivity_table(points: Sequence[Sensitivity]) -> str:
    """Elasticities of the Eq. 1-4 prediction and the bounding resource
    (a weak-scaling sweep: one site count per GPU)."""
    rows = [
        [s.machine, str(s.n_gpus), f"{s.memory_bandwidth:.2f}",
         f"{s.interconnect_bandwidth:.2f}",
         f"{s.interconnect_latency:.3f}", dominant_resource(s)]
        for s in points
    ]
    sites = points[0].total_fluid / points[0].n_gpus
    return render_table(
        ["system", "GPUs", "dMem BW", "dNet BW", "dNet lat", "bound by"],
        rows,
        "Performance-model elasticities "
        f"(weak scaling, {sites:.0e} sites/GPU)",
    )


def roofline_table(points: Sequence[RooflinePoint]) -> str:
    """Roofline placement of the stream-collide kernel per device."""
    rows = [
        [p.device, f"{p.arithmetic_intensity:.2f}",
         f"{p.ridge_intensity:.1f}", p.bound,
         f"{p.attainable_gflops:.0f}", f"{100 * p.peak_fraction:.1f}%"]
        for p in points
    ]
    return render_table(
        ["device", "AI (F/B)", "ridge", "bound", "GFLOP/s cap",
         "of FP64 peak"],
        rows,
        "Roofline placement of the D3Q19 stream-collide kernel",
    )


def full_report(include_backends: bool = True) -> str:
    """Every artefact at its ``repro`` verb's defaults, as one string."""
    sections = [
        ("Table 1 — system node characteristics", table1(all_machines())),
        ("Tables 2 & 3 — porting tools", porting_tables(harvey_corpus())),
    ]
    for fig, workload in (("Fig. 3", "cylinder"), ("Fig. 4", "aorta")):
        sections.append(
            (
                f"{fig} — {workload} hardware comparison (native models)",
                hardware_figure(
                    native_hardware_comparison(workload), workload
                ),
            )
        )
    if include_backends:
        sections.append(
            (
                "Figs. 5/6 — software-backend efficiencies",
                backend_figure(
                    [
                        backend_comparison(m, workload)
                        for workload in ("cylinder", "aorta")
                        for m in all_machines()
                    ]
                ),
            )
        )
    polaris = get_machine("Polaris")
    sections += [
        (
            "Fig. 7 — runtime compositions",
            composition_figure(
                {n: composition_series(get_machine(n)) for n in FIG7_SYSTEMS}
            ),
        ),
        (
            "Extension — Pennycook performance portability",
            portability_table(
                study_portability("cylinder", 64, "architectural"),
                study_portability("cylinder", 64, "application"),
            ),
        ),
        (
            "Extension — design-choice ablations",
            ablation_table(
                {polaris.name: ablation_study(polaris, 0.055, 128)},
                "Polaris: aorta @ 0.055 mm, 128 GPUs",
            ),
        ),
        (
            "Extension — performance-model sensitivity",
            sensitivity_table(sensitivity_sweep((2, 16, 128, 1024), 4e6)),
        ),
        (
            "Extension — roofline",
            roofline_table([roofline_analysis(m.node.gpu)
                            for m in all_machines()]),
        ),
    ]
    rule = "=" * 72
    return (
        "Reproduction report — Martin et al., SC-W 2023\n"
        "Performance Evaluation of Heterogeneous GPU Programming "
        "Frameworks\nfor Hemodynamic Simulations\n"
        + "".join(
            f"\n{rule}\n{title}\n{rule}\n\n{body}\n"
            for title, body in sections
        )
    )
