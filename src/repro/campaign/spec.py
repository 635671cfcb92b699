"""Declarative campaign specifications.

A campaign is a JSON document describing one or more *sweeps*.  Each
sweep names a cell runner and a set of parameter axes; the cross product
of the axes (``itertools.product``), merged over the sweep's fixed
parameters, is the sweep's cell grid.  Declarative ``skip`` constraints
prune unwanted cells before anything executes — e.g. the OpenMP
compiled backend under forked ranks, a ``ConfigError`` of the tier
table (the ranks used to hang in collide):

.. code-block:: json

    {
      "name": "quick",
      "description": "CI-sized smoke sweep",
      "sweeps": [
        {
          "name": "cylinder-modes",
          "runner": "solver",
          "axes": {"executor": ["lockstep", "process"],
                   "backend": ["numpy", "compiled-parallel"]},
          "fixed": {"geometry": "cylinder", "num_ranks": 2, "steps": 3},
          "skip": [{"executor": "process", "backend": "compiled-parallel"}]
        }
      ]
    }

Cells are content-addressed: a cell's key is the stable
:func:`repro.bench.history.config_hash` of its runner plus parameters,
so the same logical cell always lands on the same result-store record no
matter how the spec is reordered or which sweep produced it.
"""

from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..bench.history import config_hash
from ..core.errors import CampaignError

__all__ = [
    "RUNNER_NAMES",
    "Cell",
    "PrunedCell",
    "SweepSpec",
    "CampaignSpec",
    "load_spec",
]

_PathLike = Union[str, pathlib.Path]

#: Cell executors the runner layer implements.
RUNNER_NAMES = ("solver", "perf")


@dataclass(frozen=True)
class Cell:
    """One point of a sweep's parameter grid."""

    sweep: str
    runner: str
    params: Dict[str, Any]

    @property
    def key(self) -> str:
        """Content address: the hash of runner + parameters (the sweep
        name is presentation, not identity)."""
        return config_hash({"runner": self.runner, "params": self.params})

    def label(self) -> str:
        parts = [f"{k}={self.params[k]}" for k in sorted(self.params)]
        return f"{self.runner}({', '.join(parts)})"


@dataclass(frozen=True)
class PrunedCell:
    """A cell removed before execution, with the reason."""

    cell: Cell
    reason: str


def _match(constraint: Dict[str, Any], params: Dict[str, Any]) -> bool:
    """A constraint matches when every named parameter equals the given
    value (or is a member, when the constraint value is a list)."""
    for key, want in constraint.items():
        have = params.get(key)
        if isinstance(want, list):
            if have not in want:
                return False
        elif have != want:
            return False
    return True


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a runner, named axes, fixed parameters, constraints."""

    name: str
    runner: str
    axes: Dict[str, Tuple[Any, ...]]
    fixed: Dict[str, Any] = field(default_factory=dict)
    skip: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("sweep needs a name")
        if self.runner not in RUNNER_NAMES:
            raise CampaignError(
                f"sweep {self.name!r}: unknown runner {self.runner!r}; "
                f"expected one of {', '.join(RUNNER_NAMES)}"
            )
        if not self.axes:
            raise CampaignError(f"sweep {self.name!r} needs at least one axis")
        for axis, values in self.axes.items():
            if not isinstance(values, tuple) or not values:
                raise CampaignError(
                    f"sweep {self.name!r}: axis {axis!r} must be a "
                    "non-empty list of values"
                )
        overlap = set(self.axes) & set(self.fixed)
        if overlap:
            raise CampaignError(
                f"sweep {self.name!r}: {sorted(overlap)} appear as both "
                "axis and fixed parameter"
            )
        known = set(self.axes) | set(self.fixed)
        for constraint in self.skip:
            if not isinstance(constraint, dict) or not constraint:
                raise CampaignError(
                    f"sweep {self.name!r}: skip entries must be non-empty "
                    "objects of parameter: value"
                )
            unknown = set(constraint) - known
            if unknown:
                raise CampaignError(
                    f"sweep {self.name!r}: skip constraint references "
                    f"unknown parameter(s) {sorted(unknown)}"
                )

    def expand(self) -> Tuple[List[Cell], List[PrunedCell]]:
        """The sweep's cell grid: the axis cross product merged over the
        fixed parameters, with skip-matching cells pruned."""
        names = list(self.axes)
        cells: List[Cell] = []
        pruned: List[PrunedCell] = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            params = dict(self.fixed)
            params.update(zip(names, combo))
            cell = Cell(sweep=self.name, runner=self.runner, params=params)
            hit = next(
                (c for c in self.skip if _match(c, params)), None
            )
            if hit is not None:
                pruned.append(
                    PrunedCell(cell, f"skip constraint {hit} matched")
                )
            else:
                cells.append(cell)
        return cells, pruned


@dataclass(frozen=True)
class CampaignSpec:
    """A named collection of sweeps sharing one result store."""

    name: str
    sweeps: Tuple[SweepSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign needs a name")
        if not self.sweeps:
            raise CampaignError(
                f"campaign {self.name!r} needs at least one sweep"
            )
        seen = set()
        for sweep in self.sweeps:
            if sweep.name in seen:
                raise CampaignError(
                    f"campaign {self.name!r}: duplicate sweep "
                    f"{sweep.name!r}"
                )
            seen.add(sweep.name)

    def expand(self) -> Tuple[List[Cell], List[PrunedCell]]:
        """All cells over all sweeps, constraint-pruned and deduplicated
        by content address (first occurrence wins)."""
        cells: List[Cell] = []
        pruned: List[PrunedCell] = []
        seen: set = set()
        for sweep in self.sweeps:
            sweep_cells, sweep_pruned = sweep.expand()
            pruned.extend(sweep_pruned)
            for cell in sweep_cells:
                key = cell.key
                if key in seen:
                    pruned.append(
                        PrunedCell(cell, "duplicate of an earlier cell")
                    )
                    continue
                seen.add(key)
                cells.append(cell)
        return cells, pruned


def _parse_sweep(doc: Any, index: int) -> SweepSpec:
    if not isinstance(doc, dict):
        raise CampaignError(f"sweep #{index} must be an object")
    axes_doc = doc.get("axes")
    if not isinstance(axes_doc, dict):
        raise CampaignError(
            f"sweep #{index}: 'axes' must be an object of name: [values]"
        )
    axes = {
        str(name): tuple(values) if isinstance(values, list) else values
        for name, values in axes_doc.items()
    }
    fixed = doc.get("fixed", {})
    if not isinstance(fixed, dict):
        raise CampaignError(f"sweep #{index}: 'fixed' must be an object")
    skip = doc.get("skip", [])
    if not isinstance(skip, list):
        raise CampaignError(f"sweep #{index}: 'skip' must be a list")
    unknown = set(doc) - {"name", "runner", "axes", "fixed", "skip"}
    if unknown:
        raise CampaignError(
            f"sweep #{index}: unknown field(s) {sorted(unknown)}"
        )
    return SweepSpec(
        name=str(doc.get("name", f"sweep{index}")),
        runner=str(doc.get("runner", "")),
        axes=axes,
        fixed=dict(fixed),
        skip=tuple(skip),
    )


def parse_spec(doc: Any, source: str = "<spec>") -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise CampaignError(f"{source}: campaign spec must be an object")
    unknown = set(doc) - {"name", "description", "sweeps"}
    if unknown:
        raise CampaignError(
            f"{source}: unknown field(s) {sorted(unknown)}"
        )
    sweeps_doc = doc.get("sweeps")
    if not isinstance(sweeps_doc, list) or not sweeps_doc:
        raise CampaignError(
            f"{source}: campaign spec needs a non-empty 'sweeps' list"
        )
    sweeps = tuple(
        _parse_sweep(s, i) for i, s in enumerate(sweeps_doc)
    )
    return CampaignSpec(
        name=str(doc.get("name", "")),
        description=str(doc.get("description", "")),
        sweeps=sweeps,
    )


def load_spec(path: _PathLike) -> CampaignSpec:
    """Load and validate a campaign spec from a JSON file."""
    p = pathlib.Path(path)
    if not p.exists():
        raise CampaignError(f"campaign spec not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CampaignError(f"{p}: malformed JSON: {exc}") from exc
    return parse_spec(doc, source=str(p))
