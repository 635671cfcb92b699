"""Wall-clock kernel throughput benchmark: fused NumPy vs compiled.

Backs the ``repro bench kernels`` CLI subcommand.  Unlike the simulated
BabelStream/PingPong microbenchmarks (which feed the *performance model*),
this one times the *functional* kernels for real on the cylinder workload
and reports MFLUPS — million fluid-lattice updates per second, the paper's
headline metric — for three kernels:

* ``collide`` — the workspace-backed allocation-free collision operator;
* ``stream`` — the fused single-gather
  :class:`~repro.lbm.stream.StepPlan` streaming pass;
* ``step`` — the full solver iteration through ``Solver.step``.

With ``backend`` set to a compiled variant each kernel additionally gets
a compiled tier (:mod:`repro.models.compiled`): the same StepPlan IR
executed by numba-JIT or generated-C kernels, with the ``step`` row
running the single-pass fused stream+collide pipeline.  Requesting
``backend="compiled"`` measures both the serial and the
parallel/prange variant when the provider can thread.

Every timed callable runs untimed warmup repetitions first (JIT
compilation, library loading, and cache faulting are excluded from the
timing, so compiled speedups are not understated and the NumPy baselines
are not skewed).

Alongside MFLUPS it records the perf model's one-pass byte accounting
(``Lattice.bytes_per_update``) so throughput converts directly to the
effective bandwidth the paper's Eq. 1 prices.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..bench.history import make_meta
from ..core.errors import ConfigError
from ..geometry.cylinder import CylinderSpec, make_cylinder
from ..lbm.solver import Solver, SolverConfig

__all__ = ["KernelTiming", "KernelBenchResult", "run_kernel_bench"]

#: Untimed repetitions before each timed section (JIT/load exclusion).
WARMUP_REPS = 1


@dataclass(frozen=True)
class KernelTiming:
    """Throughput of one kernel on the NumPy (and compiled) tiers."""

    name: str
    fused_seconds: float
    fused_mflups: float
    #: compiled tiers keyed by variant (``compiled_serial`` /
    #: ``compiled_parallel``), each ``{seconds, mflups, speedup}`` with
    #: speedup measured against the *fused NumPy* path
    compiled: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def best_compiled_speedup(self) -> Optional[float]:
        """Best compiled-vs-fused speedup across variants (None if no tier)."""
        if not self.compiled:
            return None
        return max(entry["speedup"] for entry in self.compiled.values())

    def to_dict(self) -> Dict[str, float]:
        out = {
            "fused_seconds": self.fused_seconds,
            "fused_mflups": self.fused_mflups,
        }
        for variant, entry in sorted(self.compiled.items()):
            out[f"{variant}_seconds"] = entry["seconds"]
            out[f"{variant}_mflups"] = entry["mflups"]
            out[f"{variant}_speedup"] = entry["speedup"]
        return out


@dataclass(frozen=True)
class KernelBenchResult:
    """Full result of a ``repro bench kernels`` run."""

    workload: str
    scale: float
    fluid_nodes: int
    steps: int
    reps: int
    bytes_per_update: int
    timings: Dict[str, KernelTiming]
    #: provenance block (schema version, git sha, host fingerprint,
    #: timestamp, config echo) — what the perf gate and the history
    #: store key comparability on
    meta: Optional[dict] = None
    #: requested backend (None for the NumPy-only run); results carrying
    #: a compiled tier form their own baseline family in the perf gate
    backend: Optional[str] = None

    @property
    def compiled_step_speedup(self) -> Optional[float]:
        """Best compiled step speedup over the fused NumPy step."""
        return self.timings["step"].best_compiled_speedup

    def to_dict(self) -> dict:
        out = {
            "benchmark": "kernels",
            "workload": self.workload,
            "scale": self.scale,
            "fluid_nodes": self.fluid_nodes,
            "steps": self.steps,
            "reps": self.reps,
            "bytes_per_update": self.bytes_per_update,
            "kernels": {
                name: t.to_dict() for name, t in self.timings.items()
            },
        }
        if self.backend is not None:
            out["backend"] = self.backend
            compiled_step = self.compiled_step_speedup
            if compiled_step is not None:
                out["compiled_step_speedup"] = compiled_step
        if self.meta is not None:
            out["meta"] = self.meta
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def format_text(self) -> str:
        lines = [
            f"kernel throughput on cylinder scale={self.scale:g} "
            f"({self.fluid_nodes} fluid nodes, {self.steps} steps x "
            f"{self.reps} reps, best-of, {WARMUP_REPS} warmup rep(s))",
            f"bytes/update (perf-model one-pass accounting): "
            f"{self.bytes_per_update}",
            f"{'kernel':<10} {'fused MFLUPS':>14}",
        ]
        for name, t in self.timings.items():
            lines.append(f"{name:<10} {t.fused_mflups:>14.3f}")
        variants = sorted(
            {v for t in self.timings.values() for v in t.compiled}
        )
        for variant in variants:
            lines.append(
                f"{'kernel':<10} {variant + ' MFLUPS':>24} "
                f"{'vs fused':>10}"
            )
            for name, t in self.timings.items():
                entry = t.compiled.get(variant)
                if entry is None:
                    continue
                lines.append(
                    f"{name:<10} {entry['mflups']:>24.3f} "
                    f"{entry['speedup']:>9.2f}x"
                )
        return "\n".join(lines)


def _best_seconds(
    fn: Callable[[], None], reps: int, warmup: int = WARMUP_REPS
) -> float:
    """Best-of-``reps`` wall time of ``fn`` (standard min-timing).

    Runs ``warmup`` untimed repetitions first so first-call costs — JIT
    compilation in the numba provider, shared-object loading in the cgen
    provider, page faults everywhere — never land in a timed rep.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _compiled_variants(backend: str) -> List[str]:
    """Concrete variants one bench run measures for ``backend``."""
    from ..models.compiled import parallel_supported, require_compiled

    require_compiled(backend if backend != "compiled" else "compiled")
    if backend == "compiled":
        variants = ["compiled-serial"]
        if parallel_supported():
            variants.append("compiled-parallel")
        return variants
    return [backend]


def run_kernel_bench(
    scale: float = 1.0,
    steps: int = 20,
    reps: int = 3,
    tau: float = 0.8,
    force_x: float = 1e-5,
    backend: Optional[str] = None,
) -> KernelBenchResult:
    """Time collide/stream/step on the periodic force-driven cylinder.

    Every solver advances warm iterations first so buffers and caches
    are hot; each timed section then runs ``steps`` iterations ``reps``
    times after :data:`WARMUP_REPS` untimed warmup calls, keeping the
    best.  ``backend`` adds a compiled tier (see module docstring);
    ``None``/``"numpy"`` keeps the NumPy-only benchmark.
    """
    if steps < 1 or reps < 1:
        raise ConfigError("steps and reps must be positive")
    if backend == "numpy":
        backend = None
    grid = make_cylinder(CylinderSpec(scale=scale, periodic=True))
    common = dict(
        tau=tau,
        force=(force_x, 0.0, 0.0),
        periodic=(True, False, False),
    )
    base = Solver(grid, SolverConfig(**common))
    base.step(2)
    n = base.num_nodes
    lat = base.lattice

    compiled_solvers: Dict[str, Solver] = {}
    if backend is not None:
        for variant in _compiled_variants(backend):
            solver = Solver(
                grid, SolverConfig(backend=variant, **common)
            )
            solver.step(2)  # JIT/compile + fault buffers before timing
            compiled_solvers[variant] = solver

    def compiled_tier(
        fns: Dict[str, Callable[[], None]], fused_seconds: float
    ) -> Dict[str, Dict[str, float]]:
        tier: Dict[str, Dict[str, float]] = {}
        updates = n * steps / 1e6
        for variant, fn in fns.items():
            t = _best_seconds(fn, reps)
            tier[variant.replace("-", "_")] = {
                "seconds": t,
                "mflups": updates / t,
                "speedup": fused_seconds / t if t > 0 else float("inf"),
            }
        return tier

    def time_kernel(
        name: str,
        fused_fn: Callable[[], None],
        compiled_fns: Dict[str, Callable[[], None]],
    ) -> KernelTiming:
        seconds = _best_seconds(fused_fn, reps)
        return KernelTiming(
            name=name,
            fused_seconds=seconds,
            fused_mflups=n * steps / 1e6 / seconds,
            compiled=compiled_tier(compiled_fns, seconds),
        )

    timings: Dict[str, KernelTiming] = {}

    def collide_numpy() -> None:
        for _ in range(steps):
            base.collision.apply(
                lat, base.f, base.all_ids, workspace=base._workspace
            )

    def collide_compiled(solver: Solver) -> Callable[[], None]:
        def run() -> None:
            for _ in range(steps):
                solver._kern.collide(solver.f, solver.num_nodes)

        return run

    timings["collide"] = time_kernel(
        "collide",
        collide_numpy,
        {v: collide_compiled(s) for v, s in compiled_solvers.items()},
    )

    def stream_numpy() -> None:
        for _ in range(steps):
            base.step_plan.apply(base.f, base._f_tmp)

    def stream_compiled(solver: Solver) -> Callable[[], None]:
        tables = solver.step_plan.kernel_tables()

        def run() -> None:
            for _ in range(steps):
                solver._kern.stream(solver.f, solver._f_tmp, *tables)

        return run

    timings["stream"] = time_kernel(
        "stream",
        stream_numpy,
        {v: stream_compiled(s) for v, s in compiled_solvers.items()},
    )

    def step_compiled(solver: Solver) -> Callable[[], None]:
        return lambda: solver.step(steps)

    timings["step"] = time_kernel(
        "step",
        lambda: base.step(steps),
        {v: step_compiled(s) for v, s in compiled_solvers.items()},
    )

    config_echo = {
        "scale": float(scale),
        "steps": int(steps),
        "reps": int(reps),
        "tau": float(tau),
        "force_x": float(force_x),
    }
    if backend is not None:
        config_echo["backend"] = backend
    return KernelBenchResult(
        workload="cylinder",
        scale=float(scale),
        fluid_nodes=n,
        steps=int(steps),
        reps=int(reps),
        bytes_per_update=lat.bytes_per_update(),
        timings=timings,
        meta=make_meta(config_echo),
        backend=backend,
    )
