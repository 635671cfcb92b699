"""The profiling layer: spans + byte counters joined with the perf model.

``run_profile`` drives the run shell's ``"proxy"`` workload (the paper's
periodic cylinder on quadrant slabs) with a live tracer attached and,
per step-window, joins three sources the rest of the repo keeps separate:

* **telemetry spans** — per-rank, per-phase wall time from the executor's
  phase instrumentation (the Fig. 7 raw material); under
  ``executor="process"`` these are the workers' own spans, sent back on
  each dispatch's ack (:mod:`repro.telemetry.plane`), so the per-rank
  numbers are measured in the forked ranks rather than proxied from the
  parent's dispatch loop.  Each window, and the whole run, reduces
  through :func:`~repro.telemetry.summary.phase_stats`, the reducer
  ``repro telemetry summarize`` uses;
* **byte/update counters** — the fused engine's gather bytes, the halo
  pack/unpack bytes, and the collide FLUP count from the metrics
  registry;
* **the performance model** — Eq. 1 applied against the *host's*
  measured STREAM bandwidth (:func:`repro.hardware.host_bandwidth_gbs`),
  plus the simulated Table-1 machine prediction as a reference point.

Per window and per phase the join yields measured MFLUPS, achieved
bandwidth, architectural efficiency against the model bound (clamped
into the paper's (0, 1] scale; the raw ratio is kept alongside),
hidden-vs-exposed communication under the overlapped pipeline, and a
load-imbalance gauge (max over mean rank busy time).  Each window's
headline numbers are published live through the metrics registry
(``profile.window.*`` gauges), and the whole profile embeds into the
Chrome trace as a ``repro.profile`` metadata event so
``repro telemetry summarize`` can re-render the efficiency tables from
the trace file alone.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Union

from ..analysis.tables import render_table
from ..core.errors import ConfigError, TelemetryError
from ..hardware.host import host_bandwidth_gbs, host_fingerprint
from ..perf.efficiency import mflups
from ..perfmodel.attribution import attribute_phases, machine_reference
from ..perfmodel.model import BYTES_PER_UPDATE_D3Q19
from .export import TRACE_PID, chrome_trace
from .metrics import get_registry
from .spans import Tracer
from .summary import PhaseStats, phase_stats

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "PROFILE_EVENT_NAME",
    "run_profile",
    "render_profile",
    "profile_metadata_event",
    "profile_from_events",
    "write_profile_trace",
]

PROFILE_SCHEMA_VERSION = 1

#: Name of the Chrome-trace metadata event carrying an embedded profile.
PROFILE_EVENT_NAME = "repro.profile"

#: Counters snapshotted around the profiled run (deltas reported).
_COUNTER_NAMES = (
    "lbm.collide.flups",
    "lbm.stream.bytes_gathered",
    "lbm.halo.bytes_packed",
    "lbm.halo.bytes_unpacked",
)

_PathLike = Union[str, pathlib.Path]


def _snapshot_counters() -> Dict[str, int]:
    registry = get_registry()
    return {name: registry.counter(name).value for name in _COUNTER_NAMES}


def _efficiency(
    stats: PhaseStats, owned_total: int, steps: int, bound_mflups: float
) -> Dict[str, Any]:
    """The headline numbers of ``steps`` iterations' phase stats."""
    if stats.wall_s <= 0:
        raise TelemetryError(
            "profiled window recorded no step spans; is the tracer attached?"
        )
    measured = mflups(owned_total * steps, stats.wall_s)
    ratio = measured / bound_mflups
    comm = sum(stats.comm_s.values())
    hidden = sum(stats.hidden_s.values())
    return {
        "steps": steps,
        "seconds": stats.wall_s,
        "mflups": measured,
        "bandwidth_gbs": measured * 1e6 * BYTES_PER_UPDATE_D3Q19 / 1e9,
        "bandwidth_ratio": ratio,
        "arch_efficiency": min(1.0, ratio),
        "comm_seconds": comm,
        "hidden_seconds": hidden,
        "exposed_seconds": comm - hidden,
        "hidden_fraction": hidden / comm if comm > 0 else 0.0,
        "imbalance": stats.imbalance,
    }


def run_profile(
    scale: float = 1.0,
    num_ranks: int = 4,
    steps: int = 40,
    window_steps: int = 10,
    overlap: bool = True,
    executor: str = "lockstep",
    bandwidth_gbs: Optional[float] = None,
    machine: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    backend: str = "numpy",
) -> Dict[str, Any]:
    """Profile the distributed step on the proxy workload.

    Runs ``steps`` iterations in windows of ``window_steps``, publishing
    each window's numbers through the registry's ``profile.window.*``
    gauges as it completes.  ``bandwidth_gbs`` overrides the host STREAM
    measurement (useful for deterministic tests); ``machine`` names a
    Table-1 system to quote the simulated model prediction for.  Pass a
    ``tracer`` to keep the spans for a subsequent trace export
    (:func:`write_profile_trace`); one is created internally otherwise.
    ``backend`` selects the kernel tier
    (:class:`~repro.lbm.solver.SolverConfig`), so the achieved-GB/s and
    architectural-efficiency tables compare NumPy against the compiled
    kernels on equal footing.
    """
    # the shell import stays deferred: telemetry loads early in the
    # package's import cycle
    from ..harvey import HarveyApp, HarveyConfig

    if steps < 1:
        raise ConfigError("steps must be positive")
    if not 1 <= window_steps <= steps:
        raise ConfigError("window_steps must lie in [1, steps]")
    if bandwidth_gbs is not None and not (
        math.isfinite(bandwidth_gbs) and bandwidth_gbs > 0
    ):
        raise ConfigError(
            f"bandwidth_gbs must be finite and positive, got {bandwidth_gbs}"
        )

    tracer = tracer if tracer is not None else Tracer()
    config = HarveyConfig(
        workload="proxy",
        resolution=scale,
        num_ranks=int(num_ranks),
        overlap=overlap,
        executor=executor,
        backend=backend,
    )
    # the context manager releases process-tier workers and shared
    # segments on every exit, a failed window included
    with HarveyApp(config, tracer=tracer) as app:
        solver = app.solver
        fluid_nodes = solver.num_nodes
        solver.step(2)  # warm: plans compiled, buffers faulted in
        tracer.clear()

        if bandwidth_gbs is None:
            # size the STREAM arrays near the solver's working set so the
            # bound sees comparable cache behaviour
            elements = min(
                1 << 24, max(1 << 20, solver.lattice.q * fluid_nodes)
            )
            bandwidth_gbs = host_bandwidth_gbs(elements=elements, ntimes=3)
        # Eq. 1: the updates one second of host bandwidth pays for
        bound_mflups = mflups(bandwidth_gbs * 1e9 / BYTES_PER_UPDATE_D3Q19, 1.0)

        registry = get_registry()
        g_mflups = registry.gauge("profile.window.mflups")
        g_eff = registry.gauge("profile.window.arch_efficiency")
        g_hidden = registry.gauge("profile.window.hidden_fraction")
        g_imb = registry.gauge("profile.window.imbalance")
        c_windows = registry.counter("profile.windows")

        counters_before = _snapshot_counters()
        windows: List[Dict[str, Any]] = []
        span_idx = 0
        done = 0
        w = 0
        while done < steps:
            n = min(window_steps, steps - done)
            solver.step(n)
            stats = _efficiency(
                phase_stats(tracer.spans[span_idx:]),
                fluid_nodes,
                n,
                bound_mflups,
            )
            span_idx = len(tracer.spans)
            stats["window"] = w
            stats["first_step"] = done
            windows.append(stats)
            # live emission: each window lands in the registry as it closes
            g_mflups.set(stats["mflups"])
            g_eff.set(stats["arch_efficiency"])
            g_hidden.set(stats["hidden_fraction"])
            g_imb.set(stats["imbalance"])
            c_windows.inc()
            done += n
            w += 1
        counters_after = _snapshot_counters()

        # whole-run totals and per-phase attribution against the Eq.-1
        # floor, from the same reduction over every profiled span
        run = phase_stats(tracer.spans)
        totals = _efficiency(run, fluid_nodes, steps, bound_mflups)
        attributions = attribute_phases(
            run.phase_totals,
            solver.phase_bytes_per_step(),
            bandwidth_gbs * 1e9,
            steps,
        )

    profile: Dict[str, Any] = {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "workload": "cylinder",
        "scale": float(scale),
        "num_ranks": int(num_ranks),
        "steps": int(steps),
        "window_steps": int(window_steps),
        "overlap": bool(overlap),
        "executor": executor,
        "backend": backend,
        "fluid_nodes": fluid_nodes,
        "bytes_per_update": BYTES_PER_UPDATE_D3Q19,
        "host": host_fingerprint(),
        "host_bandwidth_gbs": float(bandwidth_gbs),
        "bound_mflups": bound_mflups,
        "counters": {
            name: counters_after[name] - counters_before[name]
            for name in _COUNTER_NAMES
        },
        "phases": [a.to_dict() for a in attributions],
        "windows": windows,
        "totals": {
            k: totals[k]
            for k in (
                "seconds", "mflups", "bandwidth_ratio", "arch_efficiency",
                "hidden_fraction", "imbalance",
            )
        },
    }
    if machine is not None:
        from ..hardware.systems import get_machine

        profile["reference"] = machine_reference(
            get_machine(machine), fluid_nodes, num_ranks, overlap=overlap
        )
    return profile


def render_profile(profile: Dict[str, Any]) -> str:
    """The Figs. 3–6-style efficiency view of one profile document."""
    schedule = "overlap" if profile.get("overlap") else "barrier"
    head = [
        f"profile: {profile['workload']} scale={profile['scale']:g} "
        f"ranks={profile['num_ranks']} steps={profile['steps']} "
        f"({schedule} schedule, {profile['executor']} executor, "
        f"{profile.get('backend', 'numpy')} backend)",
        f"host STREAM bound: {profile['host_bandwidth_gbs']:.2f} GB/s "
        f"-> {profile['bound_mflups']:.1f} MFLUPS "
        f"(Eq. 1 at {profile['bytes_per_update']} B/update)",
    ]
    if "reference" in profile:
        ref = profile["reference"]
        head.append(
            f"model reference ({ref['machine']}): "
            f"{ref['predicted_mflups']:.0f} MFLUPS predicted at "
            f"{profile['num_ranks']} GPUs"
        )

    phase_rows = []
    for p in profile["phases"]:
        bw = p["bandwidth_gbs"]
        eff = p["efficiency"]
        phase_rows.append(
            [
                p["phase"],
                f"{p['seconds_per_step'] * 1e3:.3f}",
                f"{bw:.2f}" if bw is not None else "-",
                f"{p['bound_seconds_per_step'] * 1e3:.3f}",
                f"{eff:.2f}" if eff is not None else "-",
            ]
        )
    phase_table = render_table(
        ["Phase", "ms/step", "GB/s", "Bound ms", "Arch eff"],
        phase_rows,
        "per-phase attribution (measured vs Eq.-1 floor)",
    )

    window_rows = [
        [
            str(s["window"]),
            str(s["steps"]),
            f"{s['mflups']:.2f}",
            f"{s['bandwidth_gbs']:.2f}",
            f"{s['arch_efficiency']:.2f}",
            f"{100 * s['hidden_fraction']:.0f}%",
            f"{s['imbalance']:.2f}",
        ]
        for s in profile["windows"]
    ]
    window_table = render_table(
        ["Window", "Steps", "MFLUPS", "GB/s", "Arch eff", "Hidden", "Imbal"],
        window_rows,
        "per-window efficiency (paper Figs. 3-6 quantities)",
    )

    t = profile["totals"]
    tail = (
        f"totals: {t['mflups']:.2f} MFLUPS, arch efficiency "
        f"{t['arch_efficiency']:.2f} (raw ratio {t['bandwidth_ratio']:.2f}),"
        f" hidden comm {100 * t['hidden_fraction']:.0f}%, "
        f"imbalance {t['imbalance']:.2f}"
    )
    return "\n".join(head) + f"\n\n{phase_table}\n\n{window_table}\n\n{tail}"


def profile_metadata_event(profile: Dict[str, Any]) -> Dict[str, Any]:
    """The Chrome metadata event embedding a profile into a trace."""
    return {
        "name": PROFILE_EVENT_NAME,
        "ph": "M",
        "pid": TRACE_PID,
        "tid": 0,
        "args": {"profile": profile},
    }


def profile_from_events(
    events: Sequence[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """The embedded profile of a loaded trace, or None."""
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == PROFILE_EVENT_NAME:
            profile = ev.get("args", {}).get("profile")
            if not isinstance(profile, dict):
                raise TelemetryError(
                    "repro.profile metadata event without a profile payload"
                )
            return profile
    return None


def write_profile_trace(
    tracer: Tracer, profile: Dict[str, Any], path: _PathLike
) -> pathlib.Path:
    """Write the run's Chrome trace with the profile embedded."""
    doc = chrome_trace(tracer)
    doc["traceEvents"].append(profile_metadata_event(profile))
    out = pathlib.Path(path)
    out.write_text(json.dumps(doc, indent=1))
    return out
