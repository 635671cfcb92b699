"""Command-line interface: ``python -m repro <command>`` or ``repro``.

Commands
--------
``systems``
    Print Table 1 (node characteristics with simulated BabelStream).
``proxy``
    Run the LBM proxy app functionally and report MFLUPS + physics checks.
``harvey``
    Run the HARVEY app functionally on a coarse workload.
``scaling``
    Piecewise scaling sweep for a workload on one or all systems (Figs. 3/4).
``backends``
    Software-backend efficiency comparison for one system (Figs. 5/6).
``composition``
    Runtime-composition breakdown (Fig. 7).
``porting``
    Run the porting tools on the CUDA corpus (Tables 2/3).
``portability``
    Pennycook performance-portability metric over the four systems.
``ablation``
    What-if repricing of the simulator's design choices.
``sensitivity``
    Hardware-knob elasticities of the performance model.
``roofline``
    Roofline placement of the stream-collide kernel per device.
``report``
    Regenerate the full reproduction report (all tables and figures).
``telemetry``
    Inspect telemetry artefacts: ``summarize`` a ``--trace-out`` file,
    or ``postmortem`` a crash bundle written by ``--postmortem-out``.
``profile``
    Profiling layer (``run``): spans + byte counters joined with the
    performance model into per-phase/per-window efficiency tables.
``lint``
    Static-analysis gate: backend-conformance, hot-path purity, and
    communication-schedule rules over the source tree.
``campaign``
    Declarative sweep engine (``run``, ``resume``, ``status``,
    ``report``): expand a JSON spec into content-addressed cells,
    execute the missing ones into a resumable result store, and pivot
    the store into scaling/composition/portability reports.

The functional run commands (``proxy``, ``harvey``) are one run shell
with one set of tier flags; both accept ``--trace-out PATH`` (Chrome
``trace_event`` JSON, loadable in ``chrome://tracing`` / Perfetto) and
``--metrics-out PATH`` (JSON, or CSV when the path ends in ``.csv``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import report as artefacts
from .core.errors import HardwareError
from .hardware.machine import Machine
from .hardware.systems import all_machines, get_machine

__all__ = ["main", "build_parser"]


def _cmd_systems(args: argparse.Namespace) -> int:
    print(artefacts.table1(all_machines()))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro harvey`` and ``repro proxy``: one shell, two verbs."""
    from .core.errors import BackendUnavailableError
    from .harvey import HarveyApp, HarveyConfig
    from .proxy import poiseuille_agreement

    resolution = max(args.resolution, 2.5) if args.quick else args.resolution
    ranks = min(args.ranks, 2) if args.quick else args.ranks
    steps = min(args.steps, 5) if args.quick else args.steps
    telemetry = None  # the zero-overhead path unless an output is asked for
    if args.trace_out or args.metrics_out:
        from .telemetry import Telemetry

        telemetry = Telemetry()
    try:
        app = HarveyApp(
            HarveyConfig(
                workload=args.workload,
                resolution=resolution,
                num_ranks=ranks,
                overlap=args.overlap,
                executor=args.executor,
                sanitize=args.sanitize,
                backend=args.backend,
                stall_timeout_s=args.stall_timeout,
                postmortem_out=args.postmortem_out,
            ),
            tracer=telemetry.tracer if telemetry else None,
        )
    except BackendUnavailableError as exc:
        print(f"error: backend {args.backend!r}: {exc}", file=sys.stderr)
        return 2
    if telemetry:
        telemetry.attach_app(app)
    try:
        report = app.run(steps)
        if app.preset.app == "proxy":
            what = f"scale={resolution:g}"
            checks = f"Poiseuille agreement={poiseuille_agreement(app):.3f}"
        else:
            what = f"workload={report.workload}"
            checks = (
                f"max |u|={report.max_velocity:.4f}  "
                f"imbalance={app.load_balance()['imbalance']:.3f}"
            )
        # the plane writes the bundle itself on worker death / stall /
        # sanitizer failure; on a clean run, honour the flag with an
        # end-of-run state dump (process tier only)
        if args.postmortem_out:
            written = app.write_postmortem(reason="end-of-run")
            if written:
                print(f"  postmortem bundle written to {written}")
    finally:
        app.close()
    print(
        f"{app.preset.app}: {what} ranks={report.num_ranks} "
        f"steps={report.steps} fluid={report.fluid_nodes}"
    )
    print(
        f"  wall MFLUPS={report.mflups:.3f}  "
        f"mass drift={report.mass_drift:.2e}  {checks}"
    )
    if telemetry:
        telemetry.record_report(report)
        for path in telemetry.write(args.trace_out, args.metrics_out):
            print(f"  telemetry written to {path}")
    return 0


def _cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    from .core.errors import TelemetryError
    from .telemetry import summarize_trace_file

    try:
        print(summarize_trace_file(args.trace))
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_telemetry_postmortem(args: argparse.Namespace) -> int:
    from .core.errors import TelemetryError
    from .telemetry import load_postmortem, render_postmortem

    try:
        print(render_postmortem(load_postmortem(args.bundle)))
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_profile_run(args: argparse.Namespace) -> int:
    import json

    from .core.errors import BackendUnavailableError, ReproError
    from .telemetry import get_registry, write_metrics
    from .telemetry.profile import (
        render_profile,
        run_profile,
        write_profile_trace,
    )
    from .telemetry.spans import Tracer

    tracer = Tracer()
    try:
        profile = run_profile(
            scale=args.scale,
            num_ranks=args.ranks,
            steps=args.steps,
            window_steps=args.window,
            overlap=args.schedule == "overlap",
            executor=args.executor,
            bandwidth_gbs=args.bandwidth,
            machine=args.machine,
            tracer=tracer,
            backend=args.backend,
        )
    except BackendUnavailableError as exc:
        print(f"error: backend {args.backend!r}: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(profile, indent=2, sort_keys=True))
    else:
        print(render_profile(profile))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(profile, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"profile written to {args.output}")
    if args.trace_out:
        path = write_profile_trace(tracer, profile, args.trace_out)
        print(f"trace (with embedded profile) written to {path}")
    if args.metrics_out:
        path = write_metrics(get_registry(), args.metrics_out)
        print(f"metrics written to {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from .lint import LintEngine, load_baseline, write_baseline

    paths = [pathlib.Path(p) for p in args.paths]
    if not paths:
        # default target: the installed repro package itself
        paths = [pathlib.Path(__file__).resolve().parent]
    engine = LintEngine()
    if args.select:
        rule_ids = [r.strip() for r in args.select.split(",") if r.strip()]
        engine = engine.select(rule_ids)
    baseline = load_baseline(args.baseline) if args.baseline else None
    report = engine.run(paths, baseline=baseline)
    if args.write_baseline:
        write_baseline(args.write_baseline, report.violations)
        print(
            f"baseline with {len(report.violations)} fingerprint(s) "
            f"written to {args.write_baseline}"
        )
        return 0
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return report.exit_code


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .analysis import native_hardware_comparison

    data = native_hardware_comparison(args.workload)
    if args.system:
        data = {args.system.name: data[args.system.name]}
    print(artefacts.hardware_figure(data, args.workload))
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from .analysis import backend_comparison

    comp = backend_comparison(args.system, args.workload)
    print(artefacts.backend_figure([comp]))
    return 0


def _cmd_composition(args: argparse.Namespace) -> int:
    from .analysis.composition import FIG7_SYSTEMS, composition_series

    print(
        artefacts.composition_figure(
            {n: composition_series(get_machine(n)) for n in FIG7_SYSTEMS}
        )
    )
    return 0


def _cmd_porting(args: argparse.Namespace) -> int:
    from .porting import harvey_corpus

    print(artefacts.porting_tables(harvey_corpus()))
    return 0


def _cmd_portability(args: argparse.Namespace) -> int:
    from .analysis import study_portability
    from .core.errors import PerfModelError

    try:
        arch = study_portability(args.workload, args.gpus, "architectural")
    except PerfModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    app = study_portability(args.workload, args.gpus, "application")
    print(artefacts.portability_table(arch, app))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from .analysis.ablation import ablation_study

    m = args.system
    print(
        artefacts.ablation_table(
            {m.name: ablation_study(m, args.spacing, args.gpus)},
            f"{m.name}: aorta @ {args.spacing} mm, {args.gpus} GPUs",
        )
    )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .analysis.sweep import sensitivity_sweep

    points = sensitivity_sweep((2, 16, 128, 1024), args.sites_per_gpu)
    print(artefacts.sensitivity_table(points))
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from .perf import roofline_analysis

    print(
        artefacts.roofline_table(
            [roofline_analysis(m.node.gpu) for m in all_machines()]
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    text = artefacts.full_report(include_backends=not args.brief)
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _campaign_setup(args: argparse.Namespace):
    """Load the spec and open its store (shared by all subcommands)."""
    import pathlib

    from .campaign import ResultStore, load_spec

    spec = load_spec(args.spec)
    store_path = args.store or str(
        pathlib.Path("campaign_results") / spec.name
    )
    return spec, ResultStore(store_path)


def _print_campaign_report(report) -> None:
    print(
        f"campaign {report.campaign}: total={report.total} "
        f"executed={report.executed} resumed={report.resumed} "
        f"failed={report.failed} pruned={report.pruned} "
        f"remaining={report.remaining}"
    )
    for failure in report.failures:
        print(
            f"  FAILED {failure['cell']}: {failure['error']}",
            file=sys.stderr,
        )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import run_campaign
    from .core.errors import CampaignError

    try:
        spec, store = _campaign_setup(args)
        report = run_campaign(
            spec,
            store,
            force=getattr(args, "force", False),
            max_cells=args.max_cells,
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_campaign_report(report)
    if args.assert_resumed and report.executed > 0:
        print(
            f"error: --assert-resumed, but {report.executed} cell(s) "
            "executed instead of resuming from the store",
            file=sys.stderr,
        )
        return 1
    return 1 if report.failed else 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import campaign_status
    from .core.errors import CampaignError

    try:
        spec, store = _campaign_setup(args)
        status = campaign_status(spec, store)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"campaign {status['campaign']}: {status['done']}/{status['total']} "
        f"done, {status['pending']} pending, {status['failed']} failed, "
        f"{status['pruned']} pruned "
        f"({status['store_records']} store records)"
    )
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .campaign import build_report, render_report
    from .core.errors import CampaignError

    try:
        spec, store = _campaign_setup(args)
        text = render_report(build_report(store), args.format)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(text, end="")
    return 0


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    from .models.compiled import COMPILED_BACKENDS

    parser.add_argument(
        "--backend",
        choices=["numpy", *COMPILED_BACKENDS],
        default="numpy",
        help="kernel execution backend (default: %(default)s); the "
        "compiled tiers need numba or a host C compiler",
    )


def _machine(name: str) -> Machine:
    try:
        return get_machine(name)
    except HardwareError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_system_arg(
    parser: argparse.ArgumentParser, default: Optional[str]
) -> None:
    """The one ``--system``: a Table-1 name in any case, resolved by
    ``get_machine`` at parse time (an unknown name exits 2)."""
    parser.add_argument(
        "--system", type=_machine, default=default,
        help=f"Table-1 system, any case (default: {default or 'all'})",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON of the run's spans",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="dump run metrics (JSON, or CSV if PATH ends in .csv)",
    )


def _add_run_verb(sub, verb: str, help: str, steps: int) -> argparse.ArgumentParser:
    """Register a functional-run verb on the one shell: the rank/step
    counts and every tier flag are declared here, once for both verbs."""
    from .runtime.executor import EXECUTOR_KINDS

    p = sub.add_parser(verb, help=help)
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument(
        "--overlap", action="store_true",
        help="use the overlapped interior/frontier pipeline",
    )
    p.add_argument(
        "--executor", choices=EXECUTOR_KINDS, default="lockstep",
        help="rank-phase executor (default: lockstep)",
    )
    p.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime sanitizer (NaN canaries, epoch "
        "tracking)",
    )
    p.add_argument(
        "--stall-timeout", type=float, default=60.0, metavar="SECONDS",
        help="process-executor heartbeat timeout before a rank is "
        "diagnosed as stalled (default: 60)",
    )
    p.add_argument(
        "--postmortem-out", default=None, metavar="PATH",
        help="write the telemetry plane's postmortem JSON bundle here "
        "(on worker death, stall, or sanitizer failure — and at end "
        "of a clean run); process executor only",
    )
    _add_backend_arg(p)
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_run)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="print Table 1").set_defaults(
        func=_cmd_systems
    )

    from .runtime.executor import EXECUTOR_KINDS
    from .workloads import workload_table

    p = _add_run_verb(sub, "proxy", "run the proxy app functionally", 200)
    p.add_argument(
        "--scale", dest="resolution", metavar="SCALE", type=float, default=1.0
    )
    p.set_defaults(workload="proxy", quick=False)

    p = _add_run_verb(sub, "harvey", "run HARVEY functionally", 100)
    p.add_argument(
        "--workload", choices=list(workload_table()), default="aorta"
    )
    p.add_argument("--resolution", type=float, default=1.5)
    p.add_argument(
        "--quick", action="store_true",
        help="CI preset: coarse resolution, <=2 ranks, <=5 steps",
    )

    p = sub.add_parser("scaling", help="piecewise scaling (Figs. 3/4)")
    p.add_argument(
        "--workload", choices=["cylinder", "aorta"], default="cylinder"
    )
    _add_system_arg(p, None)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("backends", help="backend comparison (Figs. 5/6)")
    _add_system_arg(p, "Summit")
    p.add_argument(
        "--workload", choices=["cylinder", "aorta"], default="cylinder"
    )
    p.set_defaults(func=_cmd_backends)

    p = sub.add_parser("composition", help="runtime composition (Fig. 7)")
    p.set_defaults(func=_cmd_composition)

    p = sub.add_parser("porting", help="porting tools (Tables 2/3)")
    p.set_defaults(func=_cmd_porting)

    p = sub.add_parser(
        "portability", help="Pennycook PP metric over the systems"
    )
    p.add_argument(
        "--workload", choices=["cylinder", "aorta"], default="cylinder"
    )
    p.add_argument("--gpus", type=int, default=64)
    p.set_defaults(func=_cmd_portability)

    p = sub.add_parser("ablation", help="design-choice what-ifs")
    _add_system_arg(p, "Polaris")
    p.add_argument("--spacing", type=float, default=0.055)
    p.add_argument("--gpus", type=int, default=128)
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser(
        "sensitivity", help="hardware-knob elasticities of the model"
    )
    p.add_argument("--sites-per-gpu", type=float, default=4e6)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("roofline", help="kernel roofline per device")
    p.set_defaults(func=_cmd_roofline)

    p = sub.add_parser(
        "report", help="regenerate the full reproduction report"
    )
    p.add_argument("--output", default=None, help="write to a file")
    p.add_argument(
        "--brief", action="store_true",
        help="skip the per-backend efficiency sections",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "telemetry", help="inspect telemetry artefacts"
    )
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    ps = tsub.add_parser(
        "summarize",
        help="Fig.-7-style phase-composition table from a trace file",
    )
    ps.add_argument("trace", help="path to a --trace-out JSON file")
    ps.set_defaults(func=_cmd_telemetry_summarize)
    pp = tsub.add_parser(
        "postmortem",
        help="render a postmortem bundle written by --postmortem-out "
        "(rank states, exit codes, last heartbeats with their phase)",
    )
    pp.add_argument("bundle", help="path to a postmortem JSON bundle")
    pp.set_defaults(func=_cmd_telemetry_postmortem)

    p = sub.add_parser(
        "profile",
        help="profiling layer: spans + byte counters joined with the "
        "performance model",
    )
    prsub = p.add_subparsers(dest="profile_command", required=True)
    pr = prsub.add_parser(
        "run",
        help="profile the distributed step on the cylinder: per-phase "
        "and per-window MFLUPS, achieved bandwidth, architectural "
        "efficiency, hidden-vs-exposed communication, load imbalance",
    )
    pr.add_argument(
        "--scale", type=float, default=1.0,
        help="cylinder geometry scale factor (default: 1.0)",
    )
    pr.add_argument(
        "--ranks", type=int, default=4,
        help="rank count to decompose over (default: 4)",
    )
    pr.add_argument(
        "--steps", type=int, default=40,
        help="total iterations to profile (default: 40)",
    )
    pr.add_argument(
        "--window", type=int, default=10, metavar="STEPS",
        help="step-window size for the per-window tables (default: 10)",
    )
    pr.add_argument(
        "--schedule", choices=["overlap", "barrier"], default="overlap",
        help="step schedule to profile (default: overlap)",
    )
    pr.add_argument(
        "--executor", choices=EXECUTOR_KINDS, default="lockstep",
        help="rank-phase executor (default: lockstep)",
    )
    pr.add_argument(
        "--bandwidth", type=float, default=None, metavar="GBS",
        help="host memory-bandwidth bound in GB/s (default: measure "
        "with the host STREAM microbenchmark)",
    )
    pr.add_argument(
        "--machine", default=None,
        help="Table-1 system to quote the simulated model prediction "
        "for (e.g. Polaris)",
    )
    pr.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    pr.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the profile document as JSON",
    )
    _add_backend_arg(pr)
    _add_telemetry_args(pr)
    pr.set_defaults(func=_cmd_profile_run)

    p = sub.add_parser(
        "lint", help="run the static-analysis rules over the source tree"
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories to check (default: the repro package)",
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppress violations whose fingerprints appear in FILE",
    )
    p.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="record current violations as the accepted baseline and exit 0",
    )
    p.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids or family prefixes to run "
        "(e.g. C101,P202 or K,W)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "campaign",
        help="declarative sweep engine with a resumable result store",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    def _add_campaign_common(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("spec", help="campaign spec JSON file")
        cp.add_argument(
            "--store", default=None, metavar="DIR",
            help="result-store directory (default: "
            "campaign_results/<campaign name>)",
        )

    cr = csub.add_parser(
        "run", help="execute the campaign's missing cells"
    )
    _add_campaign_common(cr)
    cr.add_argument(
        "--force", action="store_true",
        help="recompute cells that already completed",
    )
    cr.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="execute at most N cells this pass (resumed cells are free)",
    )
    cr.add_argument(
        "--assert-resumed", action="store_true",
        help="exit 1 if any cell executed (CI resume check: a second "
        "run over a complete store must be 100%% resumed)",
    )
    cr.set_defaults(func=_cmd_campaign_run)

    cs = csub.add_parser(
        "resume",
        help="finish an interrupted campaign (run, never forced)",
    )
    _add_campaign_common(cs)
    cs.add_argument("--max-cells", type=int, default=None, metavar="N")
    cs.set_defaults(
        func=_cmd_campaign_run, force=False, assert_resumed=False
    )

    ct = csub.add_parser(
        "status", help="where the campaign stands against its store"
    )
    _add_campaign_common(ct)
    ct.set_defaults(func=_cmd_campaign_status)

    cp = csub.add_parser(
        "report",
        help="pivot the result store into scaling/composition/"
        "portability tables (no cells are re-run)",
    )
    _add_campaign_common(cp)
    cp.add_argument(
        "--format", choices=["text", "json", "csv"], default="text",
        help="report format (default: text)",
    )
    cp.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to a file instead of stdout",
    )
    cp.set_defaults(func=_cmd_campaign_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
