"""Result provenance and the config content address.

Every measured document this repo writes — a ladder result
(``benchmarks/ladder/run.py --out``, committed as ``BENCH_ladder.json``)
and a campaign-store cell — carries the same ``meta`` block:

.. code-block:: json

    {"meta": {"schema_version": 2, "git_sha": "…", "host": {…},
              "timestamp": "…", "config": {…}}}

so a number can always be traced to the commit, host and configuration
that produced it.  :func:`config_hash` is the content address the
campaign store files each cell under.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import time
from typing import Any, Dict, Optional, Union

from ..core.errors import BenchmarkError
from ..hardware.host import host_fingerprint

__all__ = [
    "SCHEMA_VERSION",
    "git_sha",
    "make_meta",
    "config_hash",
]

_PathLike = Union[str, pathlib.Path]

#: v1 documents carried no meta block; v2 is the block above.
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
    cell under this hash.
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
