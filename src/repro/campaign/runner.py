"""Campaign planning and cell execution.

``plan_campaign`` expands a spec into cells, validates every cell's
parameters against its runner, and applies *runner-level* pruning on top
of the spec's declarative ``skip`` constraints: a perf cell asking for a
model the study never ported to that machine, or for a GPU count outside
the machine or schedule, is dropped with a reason rather than executed
into a guaranteed failure.

``run_campaign`` walks the plan against a :class:`ResultStore`:

- cells whose record already reads back ``ok`` are *resumed* (skipped)
  unless ``force`` re-runs them;
- each executed cell runs under a ``campaign.cell`` telemetry span and
  lands in the store immediately (crash-safe resume);
- a cell failing with a repro error is recorded ``status="error"`` and
  the campaign continues — one broken cell must not cost the sweep.

Cell runners dispatch to the stack's existing entry points: ``solver``
drives :class:`~repro.harvey.app.HarveyApp` functionally, ``perf``
prices scaling points through the performance simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.errors import CampaignError, ReproError
from ..telemetry.metrics import get_registry
from ..telemetry.spans import Tracer, get_tracer
from ..telemetry.summary import CATEGORIES, categorize
from .spec import CampaignSpec, Cell, PrunedCell
from .store import ResultStore

__all__ = [
    "CampaignPlan",
    "CampaignRunReport",
    "plan_campaign",
    "execute_cell",
    "run_campaign",
    "campaign_status",
]


# -- parameter schemas --------------------------------------------------------

#: Per-runner parameter names; values are (required, default).
_PARAMS: Dict[str, Dict[str, Any]] = {
    "solver": {
        "geometry": (True, None),
        "num_ranks": (False, 2),
        "steps": (False, 3),
        "resolution": (False, 1.0),
        "tau": (False, 0.8),
        "overlap": (False, False),
        "executor": (False, "lockstep"),
        "backend": (False, "numpy"),
    },
    "perf": {
        "machine": (True, None),
        "n_gpus": (True, None),
        "model": (False, "native"),
        "workload": (False, "cylinder"),
        "app": (False, "harvey"),
        "size": (False, None),
    },
}


def _resolved_params(cell: Cell) -> Dict[str, Any]:
    """The cell's parameters with defaults applied; unknown or missing
    parameters are spec bugs and raise."""
    schema = _PARAMS[cell.runner]
    unknown = set(cell.params) - set(schema)
    if unknown:
        raise CampaignError(
            f"sweep {cell.sweep!r}: runner {cell.runner!r} does not "
            f"take parameter(s) {sorted(unknown)}; known: "
            f"{sorted(schema)}"
        )
    out: Dict[str, Any] = {}
    for name, (required, default) in schema.items():
        if name in cell.params:
            out[name] = cell.params[name]
        elif required:
            raise CampaignError(
                f"sweep {cell.sweep!r}: runner {cell.runner!r} "
                f"requires parameter {name!r}"
            )
        else:
            out[name] = default
    return out


def _prune_reason(cell: Cell, params: Dict[str, Any]) -> Optional[str]:
    """Runner-level reason to drop a valid-looking cell, or None."""
    backend = str(params.get("backend") or "numpy")
    if backend != "numpy":
        from ..models.compiled import COMPILED_BACKENDS, compiled_available

        if backend not in COMPILED_BACKENDS:
            raise CampaignError(
                f"sweep {cell.sweep!r}: unknown backend {backend!r}; "
                f"expected 'numpy' or one of "
                f"{', '.join(COMPILED_BACKENDS)}"
            )
        if not compiled_available():
            return (
                f"backend {backend!r} unavailable on this host "
                f"(no compiled provider: numba not installed and no "
                f"working C compiler)"
            )
    if cell.runner == "solver":
        # a bad tier is a spec bug: raise at plan time, run no cell
        from ..lbm.solver import validate_tier
        from ..workloads import workload_table

        validate_tier(str(params["executor"]), False, backend)
        if params["geometry"] not in workload_table():
            raise CampaignError(
                f"sweep {cell.sweep!r}: unknown geometry {params['geometry']!r}"
                f"; expected one of {', '.join(workload_table())}"
            )
    if cell.runner != "perf":
        return None
    from ..analysis.sweep import workload_schedule
    from ..hardware.systems import get_machine
    from ..models.registry import MODEL_NAMES, is_available

    machine = get_machine(params["machine"])
    model = params["model"]
    if model != "native":
        if model not in MODEL_NAMES:
            raise CampaignError(
                f"sweep {cell.sweep!r}: unknown model {model!r}; "
                f"expected 'native' or one of {', '.join(MODEL_NAMES)}"
            )
        if not is_available(model, machine):
            return f"{model} was not ported to {machine.name}"
    n_gpus = int(params["n_gpus"])
    if n_gpus > machine.max_ranks:
        return (
            f"{n_gpus} GPUs exceed {machine.name}'s capacity "
            f"{machine.max_ranks}"
        )
    if params["size"] is None:
        sched = workload_schedule(params["workload"], machine)
        if n_gpus not in sched.gpu_counts():
            return (
                f"{n_gpus} GPUs not in the {params['workload']} "
                f"schedule for {machine.name}"
            )
    return None


@dataclass(frozen=True)
class CampaignPlan:
    """What a campaign will run: executable cells plus everything
    pruned, with reasons."""

    spec: CampaignSpec
    cells: List[Cell]
    pruned: List[PrunedCell]


def plan_campaign(spec: CampaignSpec) -> CampaignPlan:
    """Expand, validate, prune, and normalise a campaign spec.

    Cells are normalised to their *resolved* parameters (runner defaults
    applied) before content addressing, so a cell that spells out a
    default and one that omits it are the same cell — sweeps from
    different specs land on the same store records.
    """
    cells, pruned = spec.expand()
    runnable: List[Cell] = []
    seen = set()
    for cell in cells:
        params = _resolved_params(cell)
        reason = _prune_reason(cell, params)
        if reason is not None:
            pruned.append(PrunedCell(cell, reason))
            continue
        resolved = Cell(sweep=cell.sweep, runner=cell.runner, params=params)
        if resolved.key in seen:
            pruned.append(
                PrunedCell(resolved, "duplicate of an earlier cell")
            )
            continue
        seen.add(resolved.key)
        runnable.append(resolved)
    return CampaignPlan(spec=spec, cells=runnable, pruned=pruned)


# -- cell executors -----------------------------------------------------------

def _tracer_composition(tracer: Tracer) -> Dict[str, float]:
    """Fig.-7 category shares from a run's telemetry spans."""
    totals = {c: 0.0 for c in CATEGORIES}
    for span in tracer.spans:
        category = categorize(span.name)
        if category is not None:
            totals[category] += span.duration_s
    grand = sum(totals.values())
    if grand <= 0:
        return {c: 0.0 for c in CATEGORIES}
    return {c: totals[c] / grand for c in CATEGORIES}


def _solver_telemetry(tracer: Tracer, executor: str) -> Dict[str, Any]:
    """Provenance note: where the cell's per-rank spans came from.

    Process-executor cells record whether the cross-process telemetry
    plane was live and how many worker-origin spans each forked rank
    contributed, so a store record makes plain whether its composition
    shares are true per-rank measurements or parent-side proxies.
    """
    worker_spans: Dict[str, int] = {}
    for span in tracer.spans:
        if span.args.get("origin") == "worker" and span.rank is not None:
            key = str(span.rank)
            worker_spans[key] = worker_spans.get(key, 0) + 1
    doc: Dict[str, Any] = {
        "per_rank_spans": executor != "process" or bool(worker_spans),
    }
    if executor == "process":
        from ..telemetry.plane import plane_enabled

        doc["plane"] = plane_enabled()
        doc["worker_spans"] = worker_spans
    return doc


def _run_solver_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..harvey.app import HarveyApp
    from ..harvey.config import HarveyConfig

    tracer = Tracer()
    config = HarveyConfig(
        workload=str(params["geometry"]),
        resolution=float(params["resolution"]),
        num_ranks=int(params["num_ranks"]),
        tau=float(params["tau"]),
        overlap=bool(params["overlap"]),
        executor=str(params["executor"]),
        backend=str(params["backend"]),
    )
    # process-executor cells: exit joins workers and unlinks segments
    with HarveyApp(config, tracer=tracer) as app:
        report = app.run(int(params["steps"]))
    return {
        "kind": "solver",
        "geometry": report.workload,
        "num_ranks": report.num_ranks,
        "steps": report.steps,
        "fluid_nodes": report.fluid_nodes,
        "wall_seconds": report.wall_seconds,
        "mflups": report.mflups,
        "mass_drift": report.mass_drift,
        "max_velocity": report.max_velocity,
        "comm_bytes": report.comm_bytes,
        "overlap": config.overlap,
        "executor": config.executor,
        "backend": config.backend,
        "composition": _tracer_composition(tracer),
        "telemetry": _solver_telemetry(tracer, config.executor),
    }


def _run_perf_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..analysis.sweep import price_point, workload_schedule
    from ..hardware.systems import get_machine

    machine = get_machine(params["machine"])
    model = params["model"]
    if model == "native":
        model = machine.native_model
    workload = str(params["workload"])
    app = str(params["app"])
    n_gpus = int(params["n_gpus"])
    size = params["size"]
    if size is None:
        sched = workload_schedule(workload, machine)
        size = next(
            p.size for p in sched.points if p.n_gpus == n_gpus
        )
    cost, predicted = price_point(
        machine, model, workload, app, float(size), n_gpus
    )
    composition = dict(cost.composition())
    composition.setdefault("other", 0.0)
    return {
        "kind": "perf",
        "machine": machine.name,
        "model": model,
        "workload": workload,
        "app": app,
        "n_gpus": n_gpus,
        "size": float(size),
        "total_fluid": cost.total_fluid,
        "mflups": cost.mflups,
        "predicted_mflups": predicted,
        "t_iteration": cost.t_iteration,
        "oom": cost.oom,
        "composition": composition,
    }


_EXECUTORS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "solver": _run_solver_cell,
    "perf": _run_perf_cell,
}


def execute_cell(cell: Cell) -> Dict[str, Any]:
    """Run one cell and return its result document."""
    params = _resolved_params(cell)
    return _EXECUTORS[cell.runner](params)


# -- the campaign loop --------------------------------------------------------

@dataclass
class CampaignRunReport:
    """Outcome tally of one ``run_campaign`` pass."""

    campaign: str
    total: int = 0
    executed: int = 0
    resumed: int = 0
    failed: int = 0
    pruned: int = 0
    remaining: int = 0
    failures: List[Dict[str, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.remaining == 0 and self.failed == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "total": self.total,
            "executed": self.executed,
            "resumed": self.resumed,
            "failed": self.failed,
            "pruned": self.pruned,
            "remaining": self.remaining,
            "failures": list(self.failures),
        }


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    force: bool = False,
    max_cells: Optional[int] = None,
    on_cell: Optional[Callable[[Cell], None]] = None,
    tracer=None,
) -> CampaignRunReport:
    """Execute a campaign's missing cells against a result store.

    ``force`` recomputes cells that already completed; ``max_cells``
    bounds how many cells actually execute this pass (resumed cells are
    free), leaving the rest for the next invocation; ``on_cell`` is
    called before each execution — raising from it aborts the pass
    mid-campaign, which is exactly how the resume tests simulate a kill.
    """
    if max_cells is not None and max_cells < 1:
        raise CampaignError("max_cells must be >= 1")
    if tracer is None:
        tracer = get_tracer()
    registry = get_registry()
    plan = plan_campaign(spec)
    report = CampaignRunReport(
        campaign=spec.name, total=len(plan.cells), pruned=len(plan.pruned)
    )
    budget = max_cells if max_cells is not None else len(plan.cells)
    for cell in plan.cells:
        if not force and store.has_ok(cell.key):
            report.resumed += 1
            registry.counter("campaign.cells_resumed").inc()
            continue
        if budget <= 0:
            report.remaining += 1
            continue
        budget -= 1
        if on_cell is not None:
            on_cell(cell)
        with tracer.span(
            "campaign.cell",
            sweep=cell.sweep,
            runner=cell.runner,
            key=cell.key,
        ):
            try:
                result = execute_cell(cell)
            except ReproError as exc:
                store.put(cell, "error", error=str(exc))
                report.failed += 1
                report.failures.append(
                    {"key": cell.key, "cell": cell.label(), "error": str(exc)}
                )
                registry.counter("campaign.cells_failed").inc()
                continue
        store.put(cell, "ok", result=result)
        report.executed += 1
        registry.counter("campaign.cells_executed").inc()
    return report


def campaign_status(
    spec: CampaignSpec, store: ResultStore
) -> Dict[str, Any]:
    """Where a campaign stands against its store, without running it."""
    plan = plan_campaign(spec)
    done = failed = pending = 0
    for cell in plan.cells:
        record = store.get(cell.key)
        if record is None:
            pending += 1
        elif record.get("status") == "ok":
            done += 1
        else:
            failed += 1
    return {
        "campaign": spec.name,
        "total": len(plan.cells),
        "done": done,
        "failed": failed,
        "pending": pending,
        "pruned": len(plan.pruned),
        "store_records": len(store.records()),
    }
