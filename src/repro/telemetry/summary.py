"""The one reduction of spans to phase time, and the Fig. 7 views of it.

:func:`phase_stats` is the only place that decides which spans are
phases — ranked spans whose name :func:`categorize`s — and sums them.
``repro telemetry summarize``, ``repro profile run`` and the campaign's
solver cells all read its :class:`PhaseStats`.  Phase names map onto
the paper's Fig. 7 runtime-composition categories:

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

Runs of the overlapped pipeline additionally get a hidden-vs-exposed
communication table (:func:`render_overlap`): communication that fits
inside the interior-streaming window is *hidden* from the critical path;
the remainder is *exposed* — the measured counterpart of the performance
model's ``max(T_comm, T_interior) + T_frontier`` bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..analysis.tables import render_table
from ..core.errors import TelemetryError
from .export import load_chrome_trace, spans_from_chrome
from .spans import SpanRecord

__all__ = [
    "CATEGORIES",
    "categorize",
    "PhaseStats",
    "phase_stats",
    "render_composition",
    "render_overlap",
    "render_imbalance",
    "summarize_trace_file",
]

#: Fig. 7 categories (plus "other" for phases the paper folds elsewhere).
CATEGORIES = ("streamcollide", "communication", "h2d", "d2h", "other")

_HEADERS = ("Streamcollide", "Communication", "H2D", "D2H", "Other")

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


@dataclass(frozen=True)
class PhaseStats:
    """What a run's spans say about its phases.

    ``phase_s`` is per-rank, per-phase seconds; ``wall_s`` the summed
    unranked ``step`` spans; ``worker_spans`` each rank's count of
    worker-origin phase spans (the ones a process-executor run's forked
    ranks sent back on their acks).  Everything else derives from those.
    """

    phase_s: Dict[int, Dict[str, float]]
    wall_s: float
    worker_spans: Dict[int, int]

    @property
    def busy_s(self) -> Dict[int, float]:
        """Per-rank phase busy time."""
        return {r: sum(p.values()) for r, p in self.phase_s.items()}

    @property
    def imbalance(self) -> float:
        """``max(busy) / mean(busy)`` over the ranks (1.0 when idle) —
        the statistic the paper's strong-scaling analysis uses."""
        busy = list(self.busy_s.values())
        mean = sum(busy) / len(busy) if busy else 0.0
        return max(busy) / mean if mean > 0 else 1.0

    @property
    def overlapped(self) -> bool:
        """Whether the overlapped pipeline's interior phase ran."""
        return any("interior" in p for p in self.phase_s.values())

    @property
    def comm_s(self) -> Dict[int, float]:
        """Per-rank communication-category time."""
        return {
            r: sum(
                t for n, t in p.items() if categorize(n) == "communication"
            )
            for r, p in self.phase_s.items()
        }

    @property
    def hidden_s(self) -> Dict[int, float]:
        """Per-rank communication hidden under the interior window."""
        return {
            r: min(comm, self.phase_s[r].get("interior", 0.0))
            for r, comm in self.comm_s.items()
        }

    @property
    def exposed_s(self) -> Dict[int, float]:
        """Per-rank communication still on the critical path."""
        hidden = self.hidden_s
        return {r: comm - hidden[r] for r, comm in self.comm_s.items()}

    @property
    def phase_totals(self) -> Dict[str, float]:
        """Per-phase seconds summed over the ranks."""
        out: Dict[str, float] = {}
        for per_rank in self.phase_s.values():
            for name, secs in per_rank.items():
                out[name] = out.get(name, 0.0) + secs
        return out

    def shares(self) -> Dict[Any, Dict[str, float]]:
        """Fig. 7 category shares of each rank's phase time, in rank
        order, then pooled under ``"all"``; every row also carries its
        phase seconds as ``total_s``.  Rows without phase time are left
        out, so an idle run gives ``{}``."""
        per_rank: Dict[Any, Dict[str, float]] = {}
        for rank in sorted(self.phase_s):
            cats = dict.fromkeys(CATEGORIES, 0.0)
            for name, secs in self.phase_s[rank].items():
                cats[categorize(name)] += secs  # type: ignore[index]
            per_rank[rank] = cats
        per_rank["all"] = {
            c: sum(cats[c] for cats in per_rank.values()) for c in CATEGORIES
        }
        out: Dict[Any, Dict[str, float]] = {}
        for key, cats in per_rank.items():
            total = sum(cats.values())
            if total > 0:
                out[key] = {c: cats[c] / total for c in CATEGORIES}
                out[key]["total_s"] = total
        return out


def phase_stats(spans: Iterable[SpanRecord]) -> PhaseStats:
    """Reduce spans to :class:`PhaseStats` — the one phase filter."""
    phase_s: Dict[int, Dict[str, float]] = {}
    worker_spans: Dict[int, int] = {}
    wall = 0.0
    for s in spans:
        if s.rank is None:
            if s.name == "step":
                wall += s.duration_s
            continue
        if categorize(s.name) is None:
            continue
        per_rank = phase_s.setdefault(s.rank, {})
        per_rank[s.name] = per_rank.get(s.name, 0.0) + s.duration_s
        if s.args.get("origin") == "worker":
            worker_spans[s.rank] = worker_spans.get(s.rank, 0) + 1
    return PhaseStats(phase_s, wall, worker_spans)


def render_composition(
    rows: Sequence[Tuple[Any, Mapping[str, float]]],
    title: str,
    label: str = "Rank",
    phase_ms: Optional[Sequence[float]] = None,
) -> str:
    """The Fig. 7 share table: one row of category shares per label,
    with each row's phase milliseconds when ``phase_ms`` is given."""
    headers = [label, *_HEADERS]
    body = [
        [str(key)] + [f"{100 * shares[c]:.1f}%" for c in CATEGORIES]
        for key, shares in rows
    ]
    if phase_ms is not None:
        headers.append("Phase ms")
        for row, ms in zip(body, phase_ms):
            row.append(f"{ms:.2f}")
    return render_table(headers, body, title)


def render_overlap(
    stats: PhaseStats,
    title: str = "overlapped communication (hidden vs exposed)",
) -> Optional[str]:
    """Hidden-vs-exposed table of an overlapped-pipeline run, or None."""
    if not stats.overlapped:
        return None
    headers = [
        "Rank", "Interior ms", "Frontier ms", "Comm ms",
        "Hidden ms", "Exposed ms", "Hidden",
    ]
    comm, hidden, exposed = stats.comm_s, stats.hidden_s, stats.exposed_s
    rows = []
    for rank in sorted(stats.phase_s):
        phases = stats.phase_s[rank]
        share = hidden[rank] / comm[rank] if comm[rank] else 1.0
        rows.append(
            [
                str(rank),
                f"{phases.get('interior', 0.0) * 1e3:.2f}",
                f"{phases.get('frontier', 0.0) * 1e3:.2f}",
                f"{comm[rank] * 1e3:.2f}",
                f"{hidden[rank] * 1e3:.2f}",
                f"{exposed[rank] * 1e3:.2f}",
                f"{100 * share:.1f}%",
            ]
        )
    return render_table(headers, rows, title)


def render_imbalance(
    stats: PhaseStats,
    title: str = "per-rank load imbalance (phase busy time)",
) -> Optional[str]:
    """Per-rank busy-time table with the max/mean skew, or None below
    two ranks."""
    busy = stats.busy_s
    if len(busy) < 2:
        return None
    peak = max(busy.values())
    rows = [
        [
            str(rank),
            f"{secs * 1e3:.2f}",
            f"{100 * secs / peak:.1f}%" if peak > 0 else "-",
            str(stats.worker_spans.get(rank, 0)),
        ]
        for rank, secs in sorted(busy.items())
    ]
    return render_table(
        ["Rank", "Busy ms", "Of max", "Worker spans"],
        rows,
        f"{title} — max/mean skew {stats.imbalance:.3f}",
    )


def summarize_trace_file(path) -> str:
    """Load a ``--trace-out`` file and render its composition table(s).

    Traces produced by the overlapped pipeline get a second table
    splitting communication into hidden and exposed time; traces with two
    or more ranks a per-rank load-imbalance table.
    """
    events = load_chrome_trace(path)
    stats = phase_stats(spans_from_chrome(events))
    if not stats.phase_s:
        raise TelemetryError("trace contains no phase spans to summarize")
    shares = stats.shares()
    if not shares:
        # phase spans exist but every duration is zero (e.g. a trace
        # truncated by a sub-resolution clock): shares are undefined
        raise TelemetryError(
            "trace contains only zero-duration phase spans; "
            "nothing to summarize"
        )
    out = render_composition(
        list(shares.items()),
        f"phase composition of {path} (span wall time)",
        phase_ms=[row["total_s"] * 1e3 for row in shares.values()],
    )
    for table in (render_overlap(stats), render_imbalance(stats)):
        if table is not None:
            out = f"{out}\n\n{table}"
    # traces written by `repro profile run` embed the full profile as a
    # metadata event; re-render its efficiency tables from the file alone
    # (lazy import: profile joins the solver/perfmodel stack)
    from .profile import profile_from_events, render_profile

    profile = profile_from_events(events)
    if profile is not None:
        out = f"{out}\n\n{render_profile(profile)}"
    return out
