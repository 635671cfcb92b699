"""The ladder benchmark: end-to-end harvey runs and a rung for every layer.

Three ways in (see README.md):

``run.py``
    the whole ladder — every workload, 1 discarded warm-up child, 5
    measured children, the traced child and the layer probes — printed as
    tables with a reconciliation, optionally written with ``--out``.
``run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload for the PR driver: the last line of stdout is
    one JSON object with the end-to-end (``--trace 0``) or per-layer
    (``--trace 1``) metrics ``BENCHMARK.json`` declares.
``run.py --compare A.json B.json``
    one verdict per (metric, workload) between two ``--out`` files.

Metric names, units, directions and bounds are read from ``BENCHMARK.json``
so they are written down once.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: everything a run writes (kernel cache, temp files) stays in the checkout
WORK = HERE / ".work"

#: config is ``HarveyConfig`` keyword arguments; steps are cut from the
#: issue's 250/400/600/3000 so one child's loop is ~2.5 s on the 2-core
#: host and a driver run fits its time cap (ISSUE 11: "cut steps, not
#: workloads").  Longer loops buy nothing: step times on the shared host
#: drift over minutes, so a run twice as long is no steadier.
WORKLOADS = {
    "aorta_4r_default": {"config": {}, "steps": 100},
    "cyl_1r_compiled": {
        "config": {
            "workload": "cylinder",
            "resolution": 3.0,
            "num_ranks": 1,
            "backend": "compiled",
        },
        "steps": 160,
    },
    "aorta_2r_proc_overlap": {
        "config": {
            "resolution": 0.7,
            "num_ranks": 2,
            "executor": "process",
            "overlap": True,
            "backend": "compiled-serial",
        },
        "steps": 250,
    },
    "cyl_2r_proc_small": {
        "config": {
            "workload": "cylinder",
            "resolution": 1.0,
            "num_ranks": 2,
            "executor": "process",
            "overlap": True,
            "backend": "compiled-serial",
        },
        "steps": 1200,
    },
}

MEASURED_CHILDREN = 5
MIN_CHILDREN = 3  # driver runs: at least this many, then until --seconds
MAX_CHILDREN = 8
CHILD_TIMEOUT_S = 150
PHASES = ("collide", "exchange", "stream", "interior", "frontier", "boundary")
WALL_LEGS = ("import", "ctor", "first_step", "loop", "gather", "close")
RESIDUAL_WARN = 0.05
REWARM_FACTOR = 1.5
STREAM_CAP_BYTES = 1 << 30
SMOKE_STREAM_CAP_BYTES = 1 << 25


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- inputs --------------------------------------------------------------


def workload_config(name: str, seed: int) -> dict:
    """Every ``HarveyConfig`` field for ``name``; seed 0 is the nominal input.

    Other seeds move tau, the inlet speed and — slightly — the resolution,
    so the voxelisation and the partition cuts differ from seed to seed.
    The resolution moves by +-0.2 %, not the issue's +-3 %: node count goes
    with its cube, and the driver reads the spread of ``wall_s`` and
    ``peak_rss_mb`` *across* seeds against their bounds.
    """
    from repro.harvey import HarveyConfig

    config = dataclasses.asdict(HarveyConfig(**WORKLOADS[name]["config"]))
    if seed:
        rng = random.Random(seed)
        config["tau"] = rng.uniform(0.7, 0.9)
        config["steady_inlet_speed"] = rng.uniform(0.015, 0.025)
        config["resolution"] *= 1 + rng.uniform(-0.002, 0.002)
    return config


def workload_steps(name: str, smoke: bool) -> int:
    steps = WORKLOADS[name]["steps"]
    return max(3, steps // 10) if smoke else steps


# -- children ------------------------------------------------------------


def keep_writes_in_checkout() -> None:
    """Point the kernel cache and temp files of this process and every
    child at ``.work`` (the driver allows writes inside the checkout only)."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CC_CACHE"] = str(WORK / "cc_cache")
    os.environ["TMPDIR"] = str(tmp)


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def unlink_segments(pid: int) -> None:
    """A killed child cannot unlink its own ``/dev/shm`` segments."""
    from repro.runtime.shmem import leaked_segments

    for name in leaked_segments(pid):
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass


def rewarm_pages(mb: float) -> None:
    """Touch and free ``mb`` MiB so the next child gets pages still backed.

    On a ballooned microVM the guest hands free pages back to the
    hypervisor about 2 s after they were freed, and a process that is
    given such pages pays a host fault for each: set-up of
    ``cyl_1r_compiled`` then takes 2.8-4.0 s instead of 1.3 s, and which
    of the two a child gets depends on the gap since the last one ended.
    Re-warming 1.5 x the workload's peak RSS just before the spawn puts
    every child in the warm case — as the discarded first child does for
    the page cache and the kernel cache — and ``setup_s`` repeats to a
    few per cent instead of being bimodal.
    """
    if mb:
        import numpy as np

        np.ones(int(REWARM_FACTOR * mb) << 20, dtype=np.uint8)


def spawn(script, spec, env_extra=None, warm_mb=0.0) -> dict:
    """Run one child to completion; its last stdout line is the result.

    ``wall_s`` is spawn -> exit as this process sees it.  A child that
    exits non-zero, times out or prints no JSON comes back with
    ``failed`` set and whatever it reported under ``errors``.
    """
    rewarm_pages(warm_mb)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), json.dumps(spec), repr(t0)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, **(env_extra or {})},
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        stdout, stderr = proc.communicate()
        unlink_segments(proc.pid)
        stderr += f"\ntimed out after {CHILD_TIMEOUT_S} s"
    except BaseException:
        kill_group(proc)
        proc.wait()
        unlink_segments(proc.pid)
        raise
    wall = time.perf_counter() - t0
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    errors = list(result.get("errors", []))
    if (proc.returncode != 0 or not result) and not errors:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        errors = [f"exit {proc.returncode}: {tail[0]}"]
    result.update(errors=errors, failed=bool(errors), wall_s=wall)
    return result


def run_cell(config, steps, traced=False, env_extra=None, warm_mb=0.0) -> dict:
    spec = {"config": config, "steps": steps, "traced": traced}
    return spawn("cell.py", spec, env_extra, warm_mb)


def steady_ms(child: dict) -> list:
    """Per-step times in ms, first step (setup) excluded."""
    return [1e3 * s for s in child["step_s"][1:]]


def child_mflups(child: dict) -> float:
    steady = child["step_s"][1:]
    return child["fluid_nodes"] * len(steady) / sum(steady) / 1e6


class Tally:
    """Children attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list = []

    def add(self, label: str, child: dict) -> bool:
        self.attempted += 1
        if child.get("failed"):
            self.errors.append(f"{label}: {'; '.join(child['errors'])}")
            return False
        return True

    @property
    def failed(self) -> int:
        return len(self.errors)


# -- end to end ----------------------------------------------------------


def measure(name, seed, tally, *, count=None, seconds=None, smoke=False):
    """The untraced children of one workload and their end-to-end medians."""
    config = workload_config(name, seed)
    steps = workload_steps(name, smoke)
    warm_mb = 0.0
    if not smoke:
        # discarded: fills the page cache and the compiled-kernel cache,
        # and sizes the memory re-warmed before each child that follows
        warm_up = run_cell(config, 1)
        if tally.add(f"{name} warm-up", warm_up):
            warm_mb = warm_up["peak_rss_mb"]
    children = []
    began = time.perf_counter()

    def enough() -> bool:
        if count is not None:
            return len(children) >= count
        return len(children) >= MAX_CHILDREN or (
            len(children) >= MIN_CHILDREN
            and time.perf_counter() - began >= seconds
        )

    while not enough():
        child = run_cell(config, steps, warm_mb=warm_mb)
        if tally.add(f"{name} child {len(children)}", child):
            children.append(child)
        elif tally.failed >= MIN_CHILDREN:
            break  # a workload that keeps failing will not recover
    if len({c["fsum"] for c in children}) > 1:
        tally.attempted += 1
        tally.errors.append(f"{name}: gather_f().sum() differs across children")
    return children


def summarize(samples: list) -> dict:
    out = {"value": statistics.median(samples), "n": len(samples)}
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    out["samples"] = samples
    return out


def end_to_end(children: list) -> dict:
    pooled = [ms for c in children for ms in steady_ms(c)]
    e2e = {
        "wall_s": summarize([c["wall_s"] for c in children]),
        "setup_s": summarize([c["setup_s"] for c in children]),
        "mflups": summarize([child_mflups(c) for c in children]),
        # quartiles over per-child medians; the value pools every step
        "step_ms_p50": summarize(
            [statistics.median(steady_ms(c)) for c in children]
        ),
        "peak_rss_mb": summarize([c["peak_rss_mb"] for c in children]),
    }
    e2e["step_ms_p50"].update(value=statistics.median(pooled), n=len(pooled))
    return e2e


# -- host roofline -------------------------------------------------------


def llc_bytes() -> int | None:
    """Size of cpu0's last-level cache as sysfs reports it."""
    best = (0, None)
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in base.glob("index*"):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1])
        size = int(text[:-1]) * scale if scale else int(text)
        best = max(best, (level, size))
    return best[1]


def stream_workers(count: int, elements: int, ntimes: int) -> float:
    """Summed triad GB/s of ``count`` concurrent host-STREAM workers."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "rungs.py"), "--stream",
             str(elements), str(ntimes)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        for _ in range(count)
    ]
    try:
        for proc in procs:
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("host-STREAM worker failed to start")
        total = 0.0
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        for proc in procs:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            total += json.loads(stdout.strip().splitlines()[-1])["triad_gbs"]
        return total
    finally:
        for proc in procs:
            if proc.poll() is None:
                kill_group(proc)
                proc.wait()


def host_roofline(smoke: bool) -> dict:
    """Host STREAM by the sheet's rule: arrays of 4 x LLC, both stated.

    The arrays are capped (1 GiB each; 32 MiB for ``--smoke``); when the
    cap binds, or the LLC size is unknown, the bandwidth may be
    cache-assisted and every ``*.arch_eff`` is reported null with this
    reason instead of a flattering ratio.
    """
    from repro.perfmodel.model import BYTES_PER_UPDATE_D3Q19

    llc = llc_bytes()
    cap = SMOKE_STREAM_CAP_BYTES if smoke else STREAM_CAP_BYTES
    want = 4 * llc if llc else cap
    array_bytes = min(want, cap)
    no_eff = None
    if llc is None:
        no_eff = "last-level cache size unknown"
    elif want > cap:
        no_eff = (
            f"4 x LLC = {want / 2**20:.0f} MiB exceeds the "
            f"{cap / 2**20:.0f} MiB array cap"
        )
    elements = array_bytes // 8
    cores = nproc()
    single = stream_workers(1, elements, 2)
    # concurrent workers split the arrays so the total stays 4 x LLC
    allcores = stream_workers(cores, max(1, elements // cores), 2)
    return {
        "no_arch_eff": no_eff,
        "metrics": {
            "hoststream.triad_gbs": single,
            "hoststream.triad_gbs_allcores": allcores,
            "hoststream.array_mb": array_bytes / 2**20,
            "hoststream.llc_mb": llc / 2**20 if llc else None,
            "perfmodel.eq1_bound_mflups": (
                single * 1e9 / BYTES_PER_UPDATE_D3Q19 / 1e6
            ),
        },
    }


# -- per layer -----------------------------------------------------------


def trace(name, seed, untraced, host, tally, smoke=False) -> dict:
    """The traced child, its comparison children and the layer probes.

    Returns ``{"metrics", "why_null", "notes", "reconciliation"}``;
    ``metrics`` has every per-layer name, ``None`` where ``why_null``
    explains.
    """
    config = workload_config(name, seed)
    steps = workload_steps(name, smoke)
    ranks = config["num_ranks"]
    is_process = config["executor"] == "process"

    warm_mb = 0.0 if smoke or not untraced else untraced[0]["peak_rss_mb"]
    traced = run_cell(config, steps, traced=True, warm_mb=warm_mb)
    plane_off = run_cell(
        config,
        steps,
        env_extra={"REPRO_TELEMETRY_PLANE": "off"},
        warm_mb=warm_mb,
    )
    rungs = spawn(
        "rungs.py",
        {"config": config, "rep_budget_s": 0.05 if smoke else 0.3},
        warm_mb=warm_mb,
    )
    ok = tally.add(f"{name} traced child", traced)
    ok &= tally.add(f"{name} plane-off child", plane_off)
    ok &= tally.add(f"{name} layer probes", rungs)
    single = None
    if is_process and nproc() >= ranks:
        single = run_cell(
            {**config, "num_ranks": 1, "executor": "lockstep",
             "overlap": False},
            max(3, steps // 4),
            warm_mb=warm_mb,
        )
        ok &= tally.add(f"{name} single-rank child", single)
    if not ok or not untraced:
        return {}

    m = dict(rungs["metrics"])
    why = {}
    legs = traced["legs_s"]
    steady = steady_ms(traced)
    step_ms = statistics.fmean(steady)
    traced_p50 = statistics.median(steady)
    pooled = sorted(ms for c in untraced for ms in steady_ms(c))
    untraced_p50 = statistics.median(pooled)

    # harvey.app
    for leg in ("import", "ctor", "first_step", "gather", "close"):
        m[f"harvey.{leg}_s"] = legs[leg]
    legs_sum = sum(legs[leg] for leg in WALL_LEGS)
    m["harvey.unattributed_s"] = traced["wall_s"] - legs_sum
    m["harvey.step_ms_p95"] = pooled[math.ceil(0.95 * len(pooled)) - 1]
    m["harvey.step_ms_p99"] = pooled[math.ceil(0.99 * len(pooled)) - 1]
    m["harvey.leaked_segments"] = sum(
        c["leaked_segments"]
        for c in [*untraced, traced, plane_off, *([single] if single else [])]
    )

    # lbm.distributed, steady state
    phase_sum = 0.0
    for phase in PHASES:
        ms = 1e3 * traced["phase_s"].get(phase, 0.0) / len(steady)
        m[f"lbm.distributed.phase.{phase}_ms"] = ms
        phase_sum += ms
    m["lbm.distributed.step_unattributed_ms"] = step_ms - phase_sum
    m["lbm.distributed.halo_bytes_per_step"] = traced["halo_bytes_per_step"]
    m["lbm.distributed.halo_msgs_per_step"] = traced["halo_msgs_per_step"]
    m["lbm.distributed.overhead_vs_single"] = (
        traced_p50 / m["lbm.solver.step_ms"]
    )

    # runtime.procexec / runtime.shmem
    m["runtime.procexec.fork_s"] = traced.get("fork_s", 0.0)
    m["runtime.procexec.parent_cpu_share"] = traced["loop_cpu_s"] / legs["loop"]
    m["runtime.shmem.segment_mb"] = traced["segment_mb"]
    key = "runtime.procexec.speedup_vs_single"
    if single is not None:
        m[key] = statistics.median(
            [child_mflups(c) for c in untraced]
        ) / child_mflups(single)
    else:
        m[key] = None
        why[key] = (
            f"core_bound: {nproc()} core(s) < {ranks} ranks"
            if is_process
            else "lockstep executor: one process, nothing to scale"
        )

    # telemetry
    m["telemetry.plane.step_cost_ms"] = untraced_p50 - statistics.median(
        steady_ms(plane_off)
    )
    m["telemetry.trace_overhead_share"] = (
        traced_p50 - untraced_p50
    ) / untraced_p50

    # host roofline and the efficiencies it is the denominator of
    m.update(host["metrics"])
    if m["hoststream.llc_mb"] is None:
        why["hoststream.llc_mb"] = "not reported by sysfs"
    nodes = m["geometry.fluid_nodes"]
    bound = m["perfmodel.eq1_bound_mflups"]
    kernel_ms = {
        # NumPy has no one-pass kernel: the pair the solver runs
        "core.kernels.arch_eff": (
            m["core.kernels.collide_ms"] + m["lbm.stream.apply_ms"]
        ),
        # the one-pass kernel Eq. 1's byte count describes
        "models.compiled.arch_eff": m["models.compiled.fused_step_ms"],
    }
    for key, ms in kernel_ms.items():
        if host["no_arch_eff"]:
            m[key] = None
            why[key] = host["no_arch_eff"]
        else:
            m[key] = nodes / (ms / 1e3) / 1e6 / bound

    return {
        "metrics": m,
        "why_null": why,
        "notes": {
            **rungs["notes"],
            "harvey.step_ms_p95/p99": f"n = {len(pooled)} untraced steps",
            "traced steps": len(steady),
        },
        "reconciliation": {
            "step": {
                "phases_ms": phase_sum,
                "unattributed_ms": step_ms - phase_sum,
                "step_ms": step_ms,
                "residual_share": (step_ms - phase_sum) / step_ms,
            },
            "wall": {
                "legs_s": legs_sum,
                "unattributed_s": traced["wall_s"] - legs_sum,
                "wall_s": traced["wall_s"],
                "residual_share": (
                    (traced["wall_s"] - legs_sum) / traced["wall_s"]
                ),
            },
        },
    }


# -- provenance ----------------------------------------------------------


def make_meta(seed: int, smoke: bool) -> dict:
    """``repro.bench.history.make_meta`` plus what ROADMAP asks to trend."""
    from repro.bench.history import make_meta as history_meta
    from repro.harvey import HarveyConfig
    from repro.lbm.solver import SolverConfig
    from repro.models.compiled import compiled_provider
    from repro.telemetry.plane import plane_enabled

    meta = history_meta(
        {
            "seed": seed,
            "smoke": smoke,
            "steps": {w: workload_steps(w, smoke) for w in WORKLOADS},
            "measured_children": 1 if smoke else MEASURED_CHILDREN,
        }
    )
    meta.update(
        nproc=nproc(),
        # one core: nothing here may be quoted as a scaling result
        core_bound=nproc() < 2,
        compiled_provider=compiled_provider(),
        telemetry_plane="on" if plane_enabled() else "off",
        src_lines=sum(
            len(p.read_text().splitlines()) for p in SRC.rglob("*.py")
        ),
        config_flags=len(dataclasses.fields(SolverConfig))
        + len(dataclasses.fields(HarveyConfig)),
    )
    return meta


# -- the whole ladder ----------------------------------------------------


def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def print_table(title: str, names: list, rows: list) -> None:
    """``rows`` are ``(metric, unit, [cell per workload])``."""
    print(f"\n{title}")
    widths = [max(14, len(n)) for n in names]
    head = "".join(f"{n:>{w + 2}}" for n, w in zip(names, widths))
    print(f"{'metric':<42}{'unit':<9}{head}")
    for metric, unit, cells in rows:
        body = "".join(f"{c:>{w + 2}}" for c, w in zip(cells, widths))
        print(f"{metric:<42}{unit:<9}{body}")


def run_ladder(seed: int, smoke: bool, out_path: str | None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    doc = {
        "benchmark": "ladder",
        "meta": make_meta(seed, smoke),
        "workloads": {},
    }
    host = host_roofline(smoke)
    count = 1 if smoke else MEASURED_CHILDREN
    for name in names:
        tally = Tally()
        children = measure(name, seed, tally, count=count, smoke=smoke)
        layers = trace(name, seed, children, host, tally, smoke)
        doc["workloads"][name] = {
            "config": workload_config(name, seed),
            "steps": workload_steps(name, smoke),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "errors": tally.errors,
            "end_to_end": end_to_end(children) if children else {},
            "per_layer": layers.get("metrics", {}),
            "why_null": layers.get("why_null", {}),
            "notes": layers.get("notes", {}),
            "reconciliation": layers.get("reconciliation", {}),
        }
        print(f"{name}: {tally.attempted} children, {tally.failed} failed",
              file=sys.stderr)

    results = doc["workloads"]
    rows = []
    for metric in bench["end_to_end"]:
        cells = []
        for name in names:
            stat = results[name]["end_to_end"].get(metric["name"])
            cells.append(f"{fmt(stat['value'])} (n={stat['n']})" if stat else "-")
        rows.append((metric["name"], metric["unit"], cells))
    rows.append((
        "failed_share", "fraction",
        [fmt(results[n]["failed"] / results[n]["attempted"]) for n in names],
    ))
    print_table(
        f"End to end — median over {count} untraced child(ren) per workload",
        names, rows,
    )
    rows = [
        (
            metric["name"], metric["unit"],
            [fmt(results[n]["per_layer"].get(metric["name"])) for n in names],
        )
        for metric in bench["per_layer"]
    ]
    print_table("Per layer — traced child and layer probes", names, rows)

    print("\nNulls and notes")
    for name in names:
        for key, reason in results[name]["why_null"].items():
            print(f"  {name}: {key} = null — {reason}")
        for key, note in results[name]["notes"].items():
            print(f"  {name}: {key}: {note}")
    print("\nReconciliation")
    for name in names:
        rec = results[name]["reconciliation"]
        if not rec:
            continue
        step, wall = rec["step"], rec["wall"]
        print(
            f"  {name}: phases {step['phases_ms']:.3f} ms + unattributed "
            f"{step['unattributed_ms']:.3f} ms = traced step "
            f"{step['step_ms']:.3f} ms"
        )
        print(
            f"  {name}: legs {wall['legs_s']:.3f} s + unattributed "
            f"{wall['unattributed_s']:.3f} s = traced wall "
            f"{wall['wall_s']:.3f} s"
        )
        for what, part in (("step", step), ("wall", wall)):
            if abs(part["residual_share"]) > RESIDUAL_WARN:
                print(
                    f"  WARNING {name}: {what} residual is "
                    f"{100 * part['residual_share']:.1f} % of its total"
                )
    failed = sum(r["failed"] for r in results.values())
    for name in names:
        for error in results[name]["errors"]:
            print(f"FAILED {error}")
    if out_path:
        pathlib.Path(out_path).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


# -- one driver run ------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    bench = load_benchmark()
    tally = Tally()
    if traced:
        # first, as in the whole ladder: its 3 GiB of arrays change what
        # memory the kernel hands the children that follow
        host = host_roofline(False)
        children = measure(name, seed, tally, count=1)
        layers = trace(name, seed, children, host, tally)
        values = layers.get("metrics", {})
        declared = bench["per_layer"]
        for key, reason in layers.get("why_null", {}).items():
            print(f"{key} = null (reported as 0): {reason}")
        # the result line carries numbers only: an explained null reads 0
        values = {k: 0.0 if v is None else v for k, v in values.items()}
    else:
        children = measure(name, seed, tally, seconds=seconds)
        values = (
            {k: v["value"] for k, v in end_to_end(children).items()}
            if children
            else {}
        )
        declared = bench["end_to_end"]
    for error in tally.errors:
        print(f"FAILED {error}")
    if not values:
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    for key, metric in metrics.items():
        print(f"{key} = {fmt(metric['value'])} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if tally.failed else 0


# -- compare -------------------------------------------------------------


def verdict(metric: dict, a: dict, b: dict) -> tuple:
    """``(worse_by, verdict)`` for one metric on one workload.

    ``worse_by`` is B's median against A's as a share of A's, positive
    when worse.  The choosing-metrics rule: a spread (the wider of the two
    interquartile ranges) above the bound makes the row ``unresolved``
    unless every run of B beats every run of A.
    """
    sign = 1 if metric["better"] == "lower" else -1
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    iqr = max(s.get("q3", s["value"]) - s.get("q1", s["value"]) for s in (a, b))
    spread = iqr / a["value"]
    if sign > 0:
        b_sweeps = max(b["samples"]) < min(a["samples"])
    else:
        b_sweeps = min(b["samples"]) > max(a["samples"])
    if b_sweeps or (-worse_by > spread and spread <= metric["bound"]):
        return worse_by, "improved"
    if spread > metric["bound"]:
        return worse_by, "unresolved"
    if worse_by > metric["bound"]:
        return worse_by, "regressed"
    return worse_by, "unchanged"


def quartile_cell(stat: dict) -> str:
    q1, q3 = stat.get("q1", stat["value"]), stat.get("q3", stat["value"])
    return f"{fmt(stat['value'])} [{fmt(q1)}, {fmt(q3)}]"


def compare(path_a: str, path_b: str) -> int:
    bench = load_benchmark()
    docs = [json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b)]
    print(
        f"{'metric':<13}{'workload':<23}{'A median [q1, q3]':>34}"
        f"{'B median [q1, q3]':>34}{'worse by':>10}{'bound':>7}  verdict"
    )
    bad = 0
    for metric in bench["end_to_end"]:
        for workload in bench["workloads"]:
            name = workload["name"]
            a, b = (
                d["workloads"][name]["end_to_end"][metric["name"]] for d in docs
            )
            worse_by, word = verdict(metric, a, b)
            bad += word in ("regressed", "unresolved")
            print(
                f"{metric['name']:<13}{name:<23}{quartile_cell(a):>34}"
                f"{quartile_cell(b):>34}"
                f"{100 * worse_by:>9.1f}%{100 * metric['bound']:>6.0f}%  {word}"
            )
    for doc, label in zip(docs, "AB"):
        failed = sum(w["failed"] for w in doc["workloads"].values())
        if failed:
            print(f"{label}: {failed} failed child(ren) — failed_share must be 0")
            bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--smoke", action="store_true",
                        help="steps / 10, one child: a schema check, no numbers")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; the benchmark measures "
              "the repository it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    keep_writes_in_checkout()
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_ladder(args.seed, args.smoke, args.out)


if __name__ == "__main__":
    sys.exit(main())
