"""Phase-composition summaries of trace files (the Fig. 7 view).

Maps the functional runtime's phase spans onto the paper's Fig. 7
runtime-composition categories and renders a per-rank share table from a
Chrome trace produced by ``--trace-out``:

==========================  =========================================
span name                   Fig. 7 category
==========================  =========================================
``collide``, ``stream``     streamcollide (the fused kernel's work)
``interior``, ``frontier``  streamcollide (the overlapped pipeline's
                            split of the streaming pass)
``exchange*``               communication (halo exchange, Eq. 2)
``h2d*`` / ``d2h*``         H2D / D2H staging transfers
``boundary``                other (inlet/outlet kernels; folded into
                            streamcollide on real GPUs, kept separate
                            here so the split stays visible)
==========================  =========================================

Container spans (``step``, ``overlap_window``, ``harvey.run``,
``proxy.run``, …) are not phases and are excluded, so category shares
always sum to 100% of the phase time.

Traces from the overlapped pipeline additionally get a hidden-vs-exposed
communication table (:func:`render_overlap`): communication that fits
inside the interior-streaming window is *hidden* from the critical path;
the remainder is *exposed* — the measured counterpart of the performance
model's ``max(T_comm, T_interior) + T_frontier`` bound.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..analysis.tables import render_table
from ..core.errors import TelemetryError
from .export import load_chrome_trace

__all__ = [
    "CATEGORIES",
    "categorize",
    "phase_composition",
    "render_composition",
    "overlap_composition",
    "render_overlap",
    "rank_imbalance",
    "render_imbalance",
    "summarize_trace_file",
]

#: Fig. 7 categories (plus "other" for phases the paper folds elsewhere).
CATEGORIES = ("streamcollide", "communication", "h2d", "d2h", "other")

_EXACT = {
    "collide": "streamcollide",
    "stream": "streamcollide",
    "interior": "streamcollide",
    "frontier": "streamcollide",
    "boundary": "other",
}

_PREFIXES = (
    ("exchange", "communication"),
    ("comm", "communication"),
    ("halo", "communication"),
    ("h2d", "h2d"),
    ("d2h", "d2h"),
)


def categorize(name: str) -> Optional[str]:
    """Fig. 7 category for a span name, or None for non-phase spans."""
    if name in _EXACT:
        return _EXACT[name]
    for prefix, category in _PREFIXES:
        if name.startswith(prefix):
            return category
    return None


def phase_composition(
    events: List[Dict[str, Any]]
) -> Dict[Any, Dict[str, float]]:
    """Per-rank phase-time shares from Chrome trace events.

    Only complete (``"ph": "X"``) events whose name categorizes as a
    phase contribute; events without a ``rank`` arg are pooled under the
    ``"all"`` key alongside the cross-rank total.  Each rank's shares sum
    to 1.0.
    """
    durations: Dict[Any, Dict[str, float]] = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        category = categorize(ev["name"])
        if category is None:
            continue
        rank = ev.get("args", {}).get("rank")
        per_rank = durations.setdefault(
            rank, {c: 0.0 for c in CATEGORIES}
        )
        per_rank[category] += float(ev["dur"])
    if not durations:
        raise TelemetryError("trace contains no phase spans to summarize")
    totals = {c: 0.0 for c in CATEGORIES}
    for per_rank in durations.values():
        for c in CATEGORIES:
            totals[c] += per_rank[c]
    # unranked phase spans contribute only to the pooled total
    durations.pop(None, None)
    durations["all"] = totals
    out: Dict[Any, Dict[str, float]] = {}
    for rank, per_cat in durations.items():
        total = sum(per_cat.values())
        if total <= 0:
            continue
        shares = {c: per_cat[c] / total for c in CATEGORIES}
        shares["total_us"] = total
        out[rank] = shares
    if not out:
        # phase spans exist but every duration is zero (e.g. a trace
        # truncated by a sub-resolution clock): shares are undefined
        raise TelemetryError(
            "trace contains only zero-duration phase spans; "
            "nothing to summarize"
        )
    return out


def render_composition(
    events: List[Dict[str, Any]], title: str = "phase composition"
) -> str:
    """Fig.-7-style table: one row per rank plus the pooled total."""
    comp = phase_composition(events)
    headers = [
        "Rank", "Streamcollide", "Communication", "H2D", "D2H", "Other",
        "Phase ms",
    ]
    ranked = sorted(k for k in comp if k != "all")
    rows = []
    for key in ranked + ["all"]:
        shares = comp[key]
        rows.append(
            [
                str(key),
                f"{100 * shares['streamcollide']:.1f}%",
                f"{100 * shares['communication']:.1f}%",
                f"{100 * shares['h2d']:.1f}%",
                f"{100 * shares['d2h']:.1f}%",
                f"{100 * shares['other']:.1f}%",
                f"{shares['total_us'] / 1e3:.2f}",
            ]
        )
    return render_table(headers, rows, title)


def overlap_composition(
    events: List[Dict[str, Any]]
) -> Optional[Dict[Any, Dict[str, float]]]:
    """Hidden-vs-exposed communication per rank, or None.

    Returns None unless the trace came from the overlapped pipeline
    (detected by its ``overlap_window`` container spans).  For each rank
    the exchange time that fits under the interior-streaming window is
    ``hidden_us``; the remainder — communication still on the critical
    path — is ``exposed_us``.
    """
    if not any(
        ev.get("ph") == "X" and ev.get("name") == "overlap_window"
        for ev in events
    ):
        return None
    sums: Dict[Any, Dict[str, float]] = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        name = ev.get("name")
        if name == "interior":
            key = "interior_us"
        elif name == "frontier":
            key = "frontier_us"
        elif isinstance(name, str) and name.startswith("exchange"):
            # on the overlapped schedule every exchange span (post and
            # complete) lies inside the overlap window
            key = "comm_us"
        else:
            continue
        rank = ev.get("args", {}).get("rank")
        per_rank = sums.setdefault(
            rank, {"interior_us": 0.0, "frontier_us": 0.0, "comm_us": 0.0}
        )
        per_rank[key] += float(ev["dur"])
    sums.pop(None, None)
    if not sums:
        raise TelemetryError(
            "overlap trace contains no interior/frontier/exchange spans"
        )
    for per_rank in sums.values():
        hidden = min(per_rank["comm_us"], per_rank["interior_us"])
        per_rank["hidden_us"] = hidden
        per_rank["exposed_us"] = per_rank["comm_us"] - hidden
    return sums


def render_overlap(
    events: List[Dict[str, Any]],
    title: str = "overlapped communication (hidden vs exposed)",
) -> Optional[str]:
    """Hidden-vs-exposed table for an overlapped-pipeline trace."""
    comp = overlap_composition(events)
    if comp is None:
        return None
    headers = [
        "Rank", "Interior ms", "Frontier ms", "Comm ms",
        "Hidden ms", "Exposed ms", "Hidden",
    ]
    rows = []
    for rank in sorted(comp):
        s = comp[rank]
        share = s["hidden_us"] / s["comm_us"] if s["comm_us"] else 1.0
        rows.append(
            [
                str(rank),
                f"{s['interior_us'] / 1e3:.2f}",
                f"{s['frontier_us'] / 1e3:.2f}",
                f"{s['comm_us'] / 1e3:.2f}",
                f"{s['hidden_us'] / 1e3:.2f}",
                f"{s['exposed_us'] / 1e3:.2f}",
                f"{100 * share:.1f}%",
            ]
        )
    return render_table(headers, rows, title)


def rank_imbalance(
    events: List[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Per-rank phase busy time and max/mean skew, or None.

    Needs at least two ranks' worth of per-rank phase spans — which a
    process-executor trace has from the workers' own spans, merged from
    the executor's acks.  ``imbalance`` is ``max(busy) / mean(busy)``, the same
    statistic the profiler and the paper's strong-scaling analysis use.
    """
    busy: Dict[Any, float] = {}
    worker_origin: Dict[Any, int] = {}
    for ev in events:
        if ev.get("ph") != "X" or categorize(ev["name"]) is None:
            continue
        args = ev.get("args", {})
        rank = args.get("rank")
        if rank is None:
            continue
        busy[rank] = busy.get(rank, 0.0) + float(ev["dur"])
        if args.get("origin") == "worker":
            worker_origin[rank] = worker_origin.get(rank, 0) + 1
    if len(busy) < 2:
        return None
    values = list(busy.values())
    mean = sum(values) / len(values)
    peak = max(values)
    return {
        "per_rank_us": busy,
        "worker_spans": worker_origin,
        "mean_us": mean,
        "max_us": peak,
        "imbalance": peak / mean if mean > 0 else 1.0,
    }


def render_imbalance(
    events: List[Dict[str, Any]],
    title: str = "per-rank load imbalance (phase busy time)",
) -> Optional[str]:
    """Per-rank busy-time table with the max/mean skew, or None."""
    stats = rank_imbalance(events)
    if stats is None:
        return None
    headers = ["Rank", "Busy ms", "Of max", "Worker spans"]
    peak = stats["max_us"]
    rows = []
    for rank in sorted(stats["per_rank_us"]):
        busy = stats["per_rank_us"][rank]
        rows.append(
            [
                str(rank),
                f"{busy / 1e3:.2f}",
                f"{100 * busy / peak:.1f}%" if peak > 0 else "-",
                str(stats["worker_spans"].get(rank, 0)),
            ]
        )
    table = render_table(
        headers,
        rows,
        f"{title} — max/mean skew {stats['imbalance']:.3f}",
    )
    return table


def summarize_trace_file(path) -> str:
    """Load a ``--trace-out`` file and render its composition table(s).

    Traces produced by the overlapped pipeline get a second table
    splitting communication into hidden and exposed time.
    """
    events = load_chrome_trace(path)
    out = render_composition(
        events, title=f"phase composition of {path} (span wall time)"
    )
    overlap = render_overlap(events)
    if overlap is not None:
        out = f"{out}\n\n{overlap}"
    imbalance = render_imbalance(events)
    if imbalance is not None:
        out = f"{out}\n\n{imbalance}"
    # traces written by `repro profile run` embed the full profile as a
    # metadata event; re-render its efficiency tables from the file alone
    # (lazy import: profile joins the solver/perfmodel stack)
    from .profile import profile_from_events, render_profile

    profile = profile_from_events(events)
    if profile is not None:
        out = f"{out}\n\n{render_profile(profile)}"
    return out
