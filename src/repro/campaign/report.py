"""Report emitters: pivot a campaign result store into the paper's views.

Everything here reads *only* the store — reports regenerate from the
JSON records without re-running a single cell:

- **strong scaling** (Figs. 3-6): perf records pivoted into
  machine/model MFLUPS-vs-GPU-count series per workload;
- **runtime composition** (Fig. 7): per-record category shares
  (streamcollide / communication / h2d / d2h / other) from the priced
  slowest rank or from a solver run's telemetry spans;
- **portability**: Pennycook PP per model over the machines the store
  covers, from application efficiencies computed out of the scaling
  pivot;
- **solver zoo**: the functional runs across the geometry zoo, with
  physics health (mass drift) next to throughput.

Formats: ``text`` (fixed-width tables), ``json`` (the report document),
``csv`` (flat rows, one line per record/series point).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.portability import performance_portability
from ..analysis.tables import format_mflups, render_table
from ..core.errors import CampaignError
from ..telemetry.summary import CATEGORIES
from .store import ResultStore

__all__ = [
    "REPORT_FORMATS",
    "build_report",
    "render_report",
]

REPORT_FORMATS = ("text", "json", "csv")


def _ok_results(
    records: Sequence[Dict[str, Any]], kind: str
) -> List[Dict[str, Any]]:
    out = []
    for record in records:
        if record.get("status") != "ok":
            continue
        result = record.get("result") or {}
        if result.get("kind") == kind:
            out.append(result)
    return out


# -- pivots -------------------------------------------------------------------

def _scaling_rows(perf: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Flat scaling points, sorted for stable output.

    A ``model: "native"`` cell and its resolved explicit twin (e.g.
    ``hip`` on Crusher) are distinct cells computing the same point, so
    the pivot dedupes on the resolved coordinates.
    """
    seen = set()
    rows = []
    for r in perf:
        coord = (
            r["workload"], r["app"], r["machine"], r["model"],
            int(r["n_gpus"]),
        )
        if coord in seen:
            continue
        seen.add(coord)
        rows.append(
            {
                "workload": r["workload"],
                "app": r["app"],
                "machine": r["machine"],
                "model": r["model"],
                "n_gpus": int(r["n_gpus"]),
                "mflups": float(r["mflups"]),
                "predicted_mflups": float(r.get("predicted_mflups", 0.0)),
                "oom": bool(r.get("oom", False)),
            }
        )
    rows.sort(
        key=lambda r: (
            r["workload"], r["app"], r["machine"], r["model"], r["n_gpus"]
        )
    )
    return rows


def _scaling_series(
    rows: Sequence[Dict[str, Any]]
) -> Dict[Tuple[str, str, str], Dict[str, Dict[int, float]]]:
    """``{(workload, app, machine): {model: {n_gpus: mflups}}}``."""
    series: Dict[Tuple[str, str, str], Dict[str, Dict[int, float]]] = {}
    for r in rows:
        group = series.setdefault(
            (r["workload"], r["app"], r["machine"]), {}
        )
        group.setdefault(r["model"], {})[r["n_gpus"]] = r["mflups"]
    return series


def _composition_rows(
    perf: Sequence[Dict[str, Any]], solver: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    seen = set()
    for r in perf:
        comp = r.get("composition")
        label = (
            f"{r['machine']}/{r['model']} "
            f"{r['workload']}@{r['n_gpus']}"
        )
        if comp and label not in seen:
            seen.add(label)
            rows.append(
                {
                    "source": "perf",
                    "label": label,
                    "composition": {
                        c: float(comp.get(c, 0.0)) for c in CATEGORIES
                    },
                }
            )
    for r in solver:
        comp = r.get("composition")
        mode = "overlap" if r.get("overlap") else "barrier"
        if comp:
            rows.append(
                {
                    "source": "solver",
                    "label": f"{r['geometry']}@{r['num_ranks']}r {mode}",
                    "composition": {
                        c: float(comp.get(c, 0.0)) for c in CATEGORIES
                    },
                }
            )
    rows.sort(key=lambda r: (r["source"], r["label"]))
    return rows


def _portability(
    rows: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Pennycook PP per model over the store's machine set.

    Application efficiency at each (workload, app, machine, n_gpus):
    a model's MFLUPS over the best model's.  Each model's platform
    efficiency is its mean over that machine's points; machines where
    the model never ran contribute 0 (PP = 0), per the metric.

    A synthetic ``kokkos (any backend)`` row treats the Kokkos code
    base as one implementation deployed through its per-platform
    backend (the paper's Section-10 reading) — on each machine it takes
    the best kokkos-* efficiency present.
    """
    machines = sorted({r["machine"] for r in rows})
    models = sorted({r["model"] for r in rows})
    if not machines or not models:
        return {"machines": [], "per_model": {}}
    best: Dict[Tuple[str, str, str, int], float] = {}
    for r in rows:
        key = (r["workload"], r["app"], r["machine"], r["n_gpus"])
        best[key] = max(best.get(key, 0.0), r["mflups"])
    per_machine: Dict[str, Dict[str, List[float]]] = {
        m: {} for m in machines
    }
    for r in rows:
        key = (r["workload"], r["app"], r["machine"], r["n_gpus"])
        top = best[key]
        if top <= 0:
            continue
        per_machine[r["machine"]].setdefault(r["model"], []).append(
            min(r["mflups"] / top, 1.0)
        )
    def _mean_eff(machine: str, model: str) -> float:
        samples = per_machine[machine].get(model)
        return sum(samples) / len(samples) if samples else 0.0

    per_model: Dict[str, Any] = {}
    for model in models:
        effs = [_mean_eff(m, model) for m in machines]
        per_model[model] = {
            "pp": performance_portability(effs),
            "mean_efficiency": dict(zip(machines, effs)),
            "supported": [
                m for m, e in zip(machines, effs) if e > 0
            ],
        }
    kokkos = [m for m in models if m.startswith("kokkos-")]
    if kokkos:
        effs = [
            max(_mean_eff(m, model) for model in kokkos)
            for m in machines
        ]
        per_model["kokkos (any backend)"] = {
            "pp": performance_portability(effs),
            "mean_efficiency": dict(zip(machines, effs)),
            "supported": [
                m for m, e in zip(machines, effs) if e > 0
            ],
        }
    return {"machines": machines, "per_model": per_model}


def _solver_rows(
    solver: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    rows = [
        {
            "geometry": r["geometry"],
            "num_ranks": int(r["num_ranks"]),
            "overlap": bool(r.get("overlap", False)),
            "executor": str(r.get("executor", "lockstep")),
            "backend": str(r.get("backend", "numpy")),
            "fluid_nodes": int(r["fluid_nodes"]),
            "steps": int(r["steps"]),
            "mflups": float(r["mflups"]),
            "mass_drift": float(r["mass_drift"]),
        }
        for r in solver
    ]
    rows.sort(
        key=lambda r: (
            r["geometry"], r["num_ranks"], r["overlap"],
            r["executor"], r["backend"],
        )
    )
    return rows


def _host_portability(
    rows: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Pennycook PP of the host kernel tiers, over *measured* runs.

    Unlike :func:`_portability` (which prices the paper's systems
    through the performance model), this pivot uses the wall-clock
    MFLUPS of actual solver records: at each coordinate
    ``(geometry, ranks, mode)`` a backend's application efficiency is
    its throughput over the best backend's there, its platform
    efficiency per geometry is the mean over that geometry's
    coordinates, and PP is the harmonic mean across the geometry zoo.
    Empty unless at least two backends ran, so NumPy-only campaigns are
    unchanged.
    """
    backends = sorted({r["backend"] for r in rows})
    if len(backends) < 2:
        return {"geometries": [], "per_backend": {}}
    geometries = sorted({r["geometry"] for r in rows})
    best: Dict[Tuple[str, int, bool, str], float] = {}
    for r in rows:
        key = (r["geometry"], r["num_ranks"], r["overlap"], r["executor"])
        best[key] = max(best.get(key, 0.0), r["mflups"])
    per_geom: Dict[str, Dict[str, List[float]]] = {
        g: {} for g in geometries
    }
    for r in rows:
        key = (r["geometry"], r["num_ranks"], r["overlap"], r["executor"])
        top = best[key]
        if top <= 0:
            continue
        per_geom[r["geometry"]].setdefault(r["backend"], []).append(
            min(r["mflups"] / top, 1.0)
        )

    def _mean_eff(geometry: str, backend: str) -> float:
        samples = per_geom[geometry].get(backend)
        return sum(samples) / len(samples) if samples else 0.0

    per_backend: Dict[str, Any] = {}
    for backend in backends:
        effs = [_mean_eff(g, backend) for g in geometries]
        per_backend[backend] = {
            "pp": performance_portability(effs),
            "mean_efficiency": dict(zip(geometries, effs)),
            "supported": [g for g, e in zip(geometries, effs) if e > 0],
        }
    return {"geometries": geometries, "per_backend": per_backend}


def build_report(store: ResultStore) -> Dict[str, Any]:
    """Pivot a result store into the campaign report document."""
    records = store.records()
    if not records:
        raise CampaignError(
            f"result store {store.root} holds no records; run the "
            "campaign first"
        )
    perf = _ok_results(records, "perf")
    solver = _ok_results(records, "solver")
    scaling = _scaling_rows(perf)
    solver_rows = _solver_rows(solver)
    return {
        "counts": store.counts(),
        "scaling": scaling,
        "composition": _composition_rows(perf, solver),
        "portability": _portability(scaling),
        "host_portability": _host_portability(solver_rows),
        "solver": solver_rows,
    }


# -- renderers ----------------------------------------------------------------

def _render_scaling_text(scaling: Sequence[Dict[str, Any]]) -> List[str]:
    lines: List[str] = []
    for (workload, app, machine), by_model in _scaling_series(
        scaling
    ).items():
        counts = sorted({n for pts in by_model.values() for n in pts})
        headers = ["model"] + [str(n) for n in counts]
        rows = [
            [model]
            + [
                format_mflups(pts[n]) if n in pts else "-"
                for n in counts
            ]
            for model, pts in sorted(by_model.items())
        ]
        lines.append(
            render_table(
                headers,
                rows,
                title=(
                    f"strong scaling [MFLUPS] — {workload}/{app} "
                    f"on {machine}"
                ),
            )
        )
        lines.append("")
    return lines


def _render_composition_text(
    rows: Sequence[Dict[str, Any]]
) -> List[str]:
    if not rows:
        return []
    headers = ["run"] + [c for c in CATEGORIES]
    body = [
        [r["label"]]
        + [f"{100 * r['composition'][c]:.1f}%" for c in CATEGORIES]
        for r in rows
    ]
    return [
        render_table(
            headers, body, title="runtime composition (Fig. 7 view)"
        ),
        "",
    ]


def _render_portability_text(port: Dict[str, Any]) -> List[str]:
    per_model = port.get("per_model", {})
    if not per_model:
        return []
    machines = port["machines"]
    headers = ["model", "PP"] + machines
    rows = []
    for model, entry in sorted(
        per_model.items(), key=lambda kv: -kv[1]["pp"]
    ):
        rows.append(
            [model, f"{entry['pp']:.3f}"]
            + [
                f"{entry['mean_efficiency'][m]:.2f}" for m in machines
            ]
        )
    return [
        render_table(
            headers,
            rows,
            title=(
                "performance portability (application efficiency, "
                "store machines)"
            ),
        ),
        "",
    ]


def _render_host_portability_text(port: Dict[str, Any]) -> List[str]:
    per_backend = port.get("per_backend", {})
    if not per_backend:
        return []
    geometries = port["geometries"]
    headers = ["backend", "PP"] + geometries
    rows = []
    for backend, entry in sorted(
        per_backend.items(), key=lambda kv: -kv[1]["pp"]
    ):
        rows.append(
            [backend, f"{entry['pp']:.3f}"]
            + [
                f"{entry['mean_efficiency'][g]:.2f}" for g in geometries
            ]
        )
    return [
        render_table(
            headers,
            rows,
            title=(
                "host-tier performance portability (measured solver "
                "runs, geometry zoo)"
            ),
        ),
        "",
    ]


def _render_solver_text(rows: Sequence[Dict[str, Any]]) -> List[str]:
    if not rows:
        return []
    headers = [
        "geometry", "ranks", "mode", "fluid", "MFLUPS", "mass drift",
    ]
    body = []
    for r in rows:
        mode = "overlap" if r["overlap"] else "barrier"
        if r["executor"] != "lockstep":
            mode += f"/{r['executor']}"
        if r.get("backend", "numpy") != "numpy":
            mode += f"@{r['backend']}"
        body.append(
            [
                r["geometry"],
                str(r["num_ranks"]),
                mode,
                str(r["fluid_nodes"]),
                f"{r['mflups']:.3f}",
                f"{r['mass_drift']:.2e}",
            ]
        )
    return [
        render_table(headers, body, title="solver zoo (functional runs)"),
        "",
    ]


def render_report(
    report: Dict[str, Any], fmt: str = "text"
) -> str:
    """Serialize a report document as text, JSON, or CSV."""
    if fmt not in REPORT_FORMATS:
        raise CampaignError(
            f"unknown report format {fmt!r}; expected one of "
            f"{', '.join(REPORT_FORMATS)}"
        )
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "section", "workload", "app", "machine", "model",
                "n_gpus", "mflups", "predicted_mflups", "oom",
            ]
        )
        for r in report["scaling"]:
            writer.writerow(
                [
                    "scaling", r["workload"], r["app"], r["machine"],
                    r["model"], r["n_gpus"], f"{r['mflups']:.6g}",
                    f"{r['predicted_mflups']:.6g}", int(r["oom"]),
                ]
            )
        for r in report["solver"]:
            writer.writerow(
                [
                    "solver", r["geometry"], "harvey", "-", "-",
                    r["num_ranks"], f"{r['mflups']:.6g}", "", "",
                ]
            )
        return buf.getvalue()
    lines: List[str] = []
    counts = report["counts"]
    lines.append(
        "store: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    lines.append("")
    lines.extend(_render_scaling_text(report["scaling"]))
    lines.extend(_render_composition_text(report["composition"]))
    lines.extend(_render_portability_text(report["portability"]))
    lines.extend(
        _render_host_portability_text(
            report.get("host_portability", {})
        )
    )
    lines.extend(_render_solver_text(report["solver"]))
    return "\n".join(lines).rstrip() + "\n"
