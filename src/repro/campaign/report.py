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
  pivot, and per host backend over the zoo geometries its solver runs
  cover — both through the one pivot,
  :func:`repro.analysis.portability.portability_pivot`;
- **solver zoo**: the functional runs across the geometry zoo, with
  physics health (mass drift) next to throughput.

Formats: ``text`` (fixed-width tables), ``json`` (the report document),
``csv`` (flat rows, one line per record/series point).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Sequence, Tuple

from ..analysis.portability import portability_pivot
from ..analysis.tables import format_mflups, render_table
from ..core.errors import CampaignError
from ..telemetry.summary import CATEGORIES, render_composition
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
    rows: Sequence[Dict[str, Any]],
    platform: str,
    impl: str,
    coord: Tuple[str, ...],
) -> Tuple[List[str], Dict[str, Any]]:
    """Pennycook PP of each ``impl`` over the ``platform`` values present.

    A row's application efficiency is its MFLUPS over the best row's at
    the same ``coord``; :func:`~repro.analysis.portability.
    portability_pivot` averages them per platform and takes the
    harmonic mean.  Returns ``(platforms, per-impl entries)``.
    """
    platforms = sorted({r[platform] for r in rows})
    impls = sorted({r[impl] for r in rows})
    keys = [tuple(r[c] for c in coord) for r in rows]
    best: Dict[Tuple[Any, ...], float] = {}
    for key, r in zip(keys, rows):
        best[key] = max(best.get(key, 0.0), r["mflups"])
    samples = [
        (r[platform], r[impl], r["mflups"] / best[key])
        for key, r in zip(keys, rows)
        if best[key] > 0
    ]
    return platforms, portability_pivot(samples, platforms, impls)


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
    # the paper's systems, priced through the performance model
    machines, per_model = _portability(
        scaling, "machine", "model", ("workload", "app", "machine", "n_gpus")
    )
    # the host kernel tiers over measured runs of the geometry zoo; empty
    # unless two backends ran, so NumPy-only campaigns show no table
    geometries, per_backend = _portability(
        solver_rows, "geometry", "backend",
        ("geometry", "num_ranks", "overlap", "executor"),
    )
    if len(per_backend) < 2:
        geometries, per_backend = [], {}
    return {
        "counts": store.counts(),
        "scaling": scaling,
        "composition": _composition_rows(perf, solver),
        "portability": {"machines": machines, "per_model": per_model},
        "host_portability": {
            "geometries": geometries, "per_backend": per_backend,
        },
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


def _render_portability_text(
    impl: str, platforms: Sequence[str], entries: Dict[str, Any], title: str
) -> List[str]:
    if not entries:
        return []
    rows = [
        [name, f"{entry['pp']:.3f}"]
        + [f"{entry['mean_efficiency'][p]:.2f}" for p in platforms]
        for name, entry in sorted(entries.items(), key=lambda kv: -kv[1]["pp"])
    ]
    return [render_table([impl, "PP"] + list(platforms), rows, title), ""]


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
    if report["composition"]:
        lines.append(
            render_composition(
                [(r["label"], r["composition"]) for r in report["composition"]],
                "runtime composition (Fig. 7 view)",
                label="run",
            )
        )
        lines.append("")
    port = report["portability"]
    lines.extend(
        _render_portability_text(
            "model", port["machines"], port["per_model"],
            "performance portability (application efficiency, store "
            "machines)",
        )
    )
    host = report.get("host_portability", {})
    lines.extend(
        _render_portability_text(
            "backend", host.get("geometries", []),
            host.get("per_backend", {}),
            "host-tier performance portability (measured solver runs, "
            "geometry zoo)",
        )
    )
    lines.extend(_render_solver_text(report["solver"]))
    return "\n".join(lines).rstrip() + "\n"
