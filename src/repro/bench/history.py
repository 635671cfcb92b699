"""The benchmark-history store: schema-versioned JSONL records.

One line of ``BENCH_HISTORY.jsonl`` is one benchmark run:

.. code-block:: json

    {"meta": {"schema_version": 2, "git_sha": "…", "host": {…},
              "timestamp": "…", "config": {…}},
     "benchmark": "kernels", "...": "the result document"}

The ``meta`` block is what makes old and new records distinguishable —
schema v1 is the meta-less ``BENCH_*.json`` format the fused-engine and
overlap PRs committed; v2 adds provenance so the perf gate can decide
which metrics are comparable (absolute throughput only between matching
hosts and configs, relative speedups always) and can estimate per-metric
noise from repeated runs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import time
from typing import Any, Dict, List, Optional, Union

from ..core.errors import BenchmarkError
from ..hardware.host import host_fingerprint

__all__ = [
    "SCHEMA_VERSION",
    "git_sha",
    "make_meta",
    "append_record",
    "load_records",
    "extract_metric",
    "config_hash",
    "config_signature",
]

_PathLike = Union[str, pathlib.Path]

#: v1 = the meta-less BENCH_*.json documents; v2 adds the meta block.
SCHEMA_VERSION = 2


def git_sha(cwd: Optional[_PathLike] = None) -> str:
    """The current commit sha, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def make_meta(config: Dict[str, Any]) -> Dict[str, Any]:
    """The provenance block benchmark writers attach to their results."""
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "config": dict(config),
    }


def append_record(path: _PathLike, result: Dict[str, Any]) -> None:
    """Append one result document as a JSONL line.

    The result must carry a v2 ``meta`` block — history without
    provenance cannot feed the gate's noise estimation.
    """
    meta = result.get("meta")
    if not isinstance(meta, dict) or "schema_version" not in meta:
        raise BenchmarkError(
            "history records need a meta block (schema_version, git_sha, "
            "host, timestamp, config); re-run the benchmark to produce one"
        )
    line = json.dumps(result, sort_keys=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def load_records(
    path: _PathLike, benchmark: Optional[str] = None
) -> List[Dict[str, Any]]:
    """All records in a JSONL history file, oldest first.

    ``benchmark`` filters by the result's ``benchmark`` field.  A
    missing file is an empty history, not an error; a malformed line is
    an error (the file is append-only, so corruption means trouble).
    """
    p = pathlib.Path(path)
    if not p.exists():
        return []
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BenchmarkError(
                f"{p}:{lineno}: malformed history record: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise BenchmarkError(
                f"{p}:{lineno}: history record is not an object"
            )
        if benchmark is None or record.get("benchmark") == benchmark:
            records.append(record)
    return records


def extract_metric(record: Dict[str, Any], path: str) -> Optional[float]:
    """Fetch a dotted-path metric from a result document.

    Path segments index dicts by key and lists by integer
    (``"ranks.1.overlap_speedup"``).  Returns None when any segment is
    missing — callers treat absent metrics as not comparable.
    """
    node: Any = record
    for part in path.split("."):
        if isinstance(node, dict):
            if part not in node:
                return None
            node = node[part]
        elif isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError):
                return None
        else:
            return None
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def _canonical(value: Any) -> Any:
    """JSON-stable normal form of a config value.

    Containers become sorted-key dicts and lists; numpy scalars collapse
    to their Python counterparts (``.item()``), and integral floats to
    ints, so ``scale=1`` from a JSON spec and ``scale=np.float64(1.0)``
    from a sweep produce the same hash.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = [_canonical(v) for v in value]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    if hasattr(value, "item") and not isinstance(value, (int, float, str)):
        return _canonical(value.item())
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def config_hash(config: Dict[str, Any]) -> str:
    """A stable content address for a nested config dict.

    Order-independent (keys are sorted at every level) and dtype-safe
    (numpy scalars, tuples-vs-lists, and integral floats all normalise
    before hashing), so the same logical configuration always maps to
    the same 16-hex-digit key.  The campaign result store files each
    cell under this hash, and the perf gate matches comparable history
    runs with it.
    """
    if not isinstance(config, dict):
        raise BenchmarkError(
            f"config must be a dict, got {type(config).__name__}"
        )
    blob = json.dumps(
        _canonical(config), sort_keys=True, separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def config_signature(record: Dict[str, Any]) -> str:
    """What must agree for two results' absolute numbers to compare.

    Benchmark kind, workload, the knobs that change the timed work
    (scale, steps, reps, rank counts), the kernel backend tier, and
    the executor tiers timed, collapsed to a stable
    :func:`config_hash`.  Metadata like output paths or timestamps
    never participates.  The backend normalises to ``"numpy"`` and the
    executor list to ``lockstep`` when absent, so runs that add the
    process executor form their own baseline family that gates
    independently.
    """
    ranks = record.get("ranks")
    rank_counts: List[Any] = []
    if isinstance(ranks, list):
        rank_counts = [
            r.get("num_ranks") for r in ranks if isinstance(r, dict)
        ]
    meta = record.get("meta") or {}
    config = meta.get("config") or {}
    # executor family: results that timed different executor tiers did
    # different work.  (The host's core budget gates comparability too,
    # but that rides on the host fingerprint match —
    # ``fingerprints_match`` keys on cpu_count.)
    executors = config.get("executors") or ["lockstep"]
    return config_hash(
        {
            "benchmark": record.get("benchmark"),
            "workload": record.get("workload"),
            "scale": record.get("scale"),
            "steps": record.get("steps"),
            "reps": record.get("reps"),
            "rank_counts": rank_counts,
            "backend": record.get("backend") or "numpy",
            "executors": sorted(str(e) for e in executors),
        }
    )
