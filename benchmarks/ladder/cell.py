"""One end-to-end harvey run in a fresh process: the ladder's unit of work.

``cell.py SPEC_JSON T_SPAWN`` walks the public path a user of ``repro
harvey`` walks — ``HarveyConfig`` -> ``HarveyApp`` -> ``solver.step(1)`` x N
-> ``solver.gather_f()`` -> ``app.close()`` — timing each leg against the
parent's spawn clock (``time.perf_counter`` is the system-wide monotonic
clock on Linux, so the parent's reading and ours are comparable), checks
the result, and prints one JSON object as its last line.

With ``"traced": true`` the same path runs with the benchmark's own timers
wrapped around the executor's public ``run_phase`` / ``start`` — nothing
under ``src/`` is instrumented.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import sys
import time

_T_MAIN = time.perf_counter()
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

# correctness limits every child asserts (ISSUE 11, satellite 1)
MAX_MASS_DRIFT = 0.05
MAX_SPEED = 0.3


def _time_calls(obj, method: str, totals: dict, key=None) -> None:
    """Wrap ``obj.method`` to add its wall time to ``totals``.

    Keyed by ``key``, or by the call's ``name=`` argument (the phase name
    the solver gives ``run_phase``) when no key is fixed.
    """
    inner = getattr(obj, method)

    def timed(*args, **kwargs):
        t = time.perf_counter()
        inner(*args, **kwargs)
        k = key or kwargs.get("name")
        totals[k] = totals.get(k, 0.0) + time.perf_counter() - t

    setattr(obj, method, timed)


def _vm_hwm_kb(pid) -> int:
    """Peak RSS of a live process, from ``/proc/<pid>/status``.

    Not ``ru_maxrss``: a process started by vfork + exec inherits its
    parent's high-water mark there, so both this child (started by a
    parent that re-warms pages) and ``RUSAGE_CHILDREN`` (which holds the
    compiler probes the kernel cache forks) would report someone else's.
    """
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _segment_mb(pid: int) -> float:
    from repro.runtime.shmem import leaked_segments

    total = 0
    for name in leaked_segments(pid):
        try:
            total += os.stat(os.path.join("/dev/shm", name)).st_size
        except OSError:
            pass
    return total / 2**20


def main(argv) -> int:
    spec = json.loads(argv[1])
    t_spawn = float(argv[2])
    steps = int(spec["steps"])
    traced = bool(spec.get("traced"))

    sys.path.insert(0, str(SRC))
    import numpy as np

    from repro.harvey import HarveyApp, HarveyConfig
    from repro.lbm.moments import velocity
    from repro.runtime.shmem import leaked_segments

    t_imported = time.perf_counter()
    app = HarveyApp(HarveyConfig(**spec["config"]))
    t_built = time.perf_counter()

    solver = app.solver
    extras: dict = {}
    phase_s: dict = {}
    if traced:
        _time_calls(solver.executor, "run_phase", phase_s)
        if hasattr(solver.executor, "start"):  # the process executor's fork
            _time_calls(solver.executor, "start", extras, key="fork_s")
    mass0 = solver.mass()
    logged0 = len(solver.comm.log)  # mass() logs its allreduce
    t_ready = time.perf_counter()

    step_s = []
    for i in range(steps):
        t = time.perf_counter()
        solver.step(1)
        step_s.append(time.perf_counter() - t)
        if i == 0:
            # setup ends when the first step returns (lazy fork, first
            # touch); phase totals restart so they cover steady state only
            t_first = time.perf_counter()
            cpu0 = time.process_time()
            phase_s.clear()
    t_looped = time.perf_counter()
    loop_cpu_s = time.process_time() - cpu0

    halo_msgs = (len(solver.comm.log) - logged0) / steps
    f = solver.gather_f()
    t_gathered = time.perf_counter()

    errors = []
    fsum = float(f.sum())
    if not np.isfinite(f).all():
        errors.append("non-finite f")
    mass_drift = abs(solver.mass() - mass0) / mass0
    if not mass_drift < MAX_MASS_DRIFT:
        errors.append(f"mass drift {mass_drift:.3g}")
    max_u = float(
        np.linalg.norm(
            velocity(solver.lattice, f, solver.collision.force), axis=1
        ).max()
    )
    if not max_u < MAX_SPEED:
        errors.append(f"max |u| {max_u:.3g}")
    if traced:
        extras["halo_bytes_per_step"] = solver.halo_bytes_per_step()
        extras["halo_msgs_per_step"] = halo_msgs
        extras["segment_mb"] = _segment_mb(os.getpid())

    # the executor's workers are alive until close(); count the largest
    workers_kb = max(
        (_vm_hwm_kb(p.pid) for p in multiprocessing.active_children()),
        default=0,
    )
    t_checked = time.perf_counter()
    app.close()
    t_closed = time.perf_counter()
    leaked = leaked_segments(os.getpid())
    if leaked:
        errors.append(f"{len(leaked)} leaked segment(s)")

    rss_kb = _vm_hwm_kb("self") + workers_kb
    print(
        json.dumps(
            {
                "errors": errors,
                "fluid_nodes": solver.num_nodes,
                "steps": steps,
                "setup_s": t_first - t_spawn,
                "legs_s": {
                    "startup": _T_MAIN - t_spawn,
                    "import": t_imported - _T_MAIN,
                    "ctor": t_built - t_imported,
                    "first_step": t_first - t_ready,
                    "loop": t_looped - t_first,
                    "gather": t_gathered - t_looped,
                    "checks": (t_ready - t_built) + (t_checked - t_gathered),
                    "close": t_closed - t_checked,
                },
                "step_s": step_s,
                "loop_cpu_s": loop_cpu_s,
                "phase_s": phase_s,
                "fsum": fsum,
                "mass_drift": mass_drift,
                "max_u": max_u,
                "leaked_segments": len(leaked),
                "peak_rss_mb": rss_kb / 1024,
                **extras,
            }
        )
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
