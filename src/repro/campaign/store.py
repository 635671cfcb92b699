"""The content-addressed campaign result store.

A store is a directory holding one JSON file per executed cell, named by
the cell's :attr:`~repro.campaign.spec.Cell.key` (the stable
:func:`repro.bench.history.config_hash` of its runner + parameters).
Each record carries the cell identity, outcome, result document, and a
schema-v2 :func:`repro.bench.history.make_meta` provenance block:

.. code-block:: json

    {
      "key": "3f1a9c…",
      "sweep": "backends",
      "runner": "perf",
      "params": {"machine": "polaris", "model": "native", "n_gpus": 16},
      "status": "ok",
      "result": {"mflups": 1234.5, "...": "runner-specific"},
      "error": null,
      "meta": {"schema_version": 2, "git_sha": "…", "host": {…},
               "timestamp": "…", "config": {…}}
    }

Because the filename is the content address, resume is just "skip cells
whose record already reads back with ``status == "ok"``", and writes are
crash-safe per cell: an interrupted campaign leaves completed records
intact and nothing partial (records land via atomic rename).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, List, Optional, Union

from ..bench.history import make_meta
from ..core.errors import CampaignError
from .spec import Cell

__all__ = ["ResultStore"]

_PathLike = Union[str, pathlib.Path]

_REQUIRED_FIELDS = ("key", "sweep", "runner", "params", "status", "meta")


class ResultStore:
    """One directory of per-cell JSON records, keyed by config hash."""

    def __init__(self, root: _PathLike) -> None:
        self.root = pathlib.Path(root)

    # -- paths ----------------------------------------------------------------
    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    # -- reads ----------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The record for a cell key, or None when absent.

        A present-but-corrupt record raises: the store is the campaign's
        source of truth, and silently re-running a cell would hide the
        corruption.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CampaignError(
                f"corrupt result record {path}: {exc}; delete it (or "
                "re-run with --force) to recompute the cell"
            ) from exc
        if not isinstance(record, dict):
            raise CampaignError(
                f"corrupt result record {path}: not an object"
            )
        missing = [f for f in _REQUIRED_FIELDS if f not in record]
        if missing:
            raise CampaignError(
                f"corrupt result record {path}: missing {missing}"
            )
        return record

    def has_ok(self, key: str) -> bool:
        """True when the cell already has a completed (ok) record."""
        record = self.get(key)
        return record is not None and record.get("status") == "ok"

    def records(self) -> List[Dict[str, Any]]:
        """All records in the store, ordered by cell key."""
        if not self.root.exists():
            return []
        out: List[Dict[str, Any]] = []
        for path in sorted(self.root.glob("*.json")):
            record = self.get(path.stem)
            if record is not None:
                out.append(record)
        return out

    def counts(self) -> Dict[str, int]:
        """Record tally by status (``{"ok": 12, "error": 1}``)."""
        tally: Dict[str, int] = {}
        for record in self.records():
            status = str(record.get("status"))
            tally[status] = tally.get(status, 0) + 1
        return tally

    # -- writes ---------------------------------------------------------------
    def put(
        self,
        cell: Cell,
        status: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Write the record for a cell (atomically) and return it."""
        if status not in ("ok", "error"):
            raise CampaignError(
                f"record status must be 'ok' or 'error', got {status!r}"
            )
        record = {
            "key": cell.key,
            "sweep": cell.sweep,
            "runner": cell.runner,
            "params": dict(cell.params),
            "status": status,
            "result": result,
            "error": error,
            "meta": make_meta(
                {"runner": cell.runner, "params": dict(cell.params)}
            ),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(cell.key)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(record, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return record

    def remove(self, key: str) -> bool:
        """Drop a cell's record (used by --force). True if one existed."""
        path = self.path_for(key)
        if path.exists():
            path.unlink()
            return True
        return False
