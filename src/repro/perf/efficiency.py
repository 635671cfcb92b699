"""The paper's three performance metrics (Sections 3.2 and 8.1).

* **MFLUPS** — millions of fluid lattice updates per second, the
  problem-size- and geometry-independent throughput every prediction,
  priced run and measured run reports through :func:`mflups`.
* **Application efficiency** — achieved MFLUPS over the best observed
  MFLUPS at each GPU count among the implementations considered for a
  given system.
* **Architectural efficiency** — achieved MFLUPS over the performance
  model's best-case prediction for the architecture.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from ..core.errors import PerfModelError

__all__ = ["mflups", "application_efficiency", "architectural_efficiency"]


def mflups(fluid_updates: float, seconds: float) -> float:
    """Throughput of ``fluid_updates`` site updates done in ``seconds``."""
    if not (math.isfinite(fluid_updates) and fluid_updates >= 0):
        raise PerfModelError(
            f"fluid count must be finite and non-negative, got {fluid_updates}"
        )
    if not (math.isfinite(seconds) and seconds > 0):
        raise PerfModelError(
            f"elapsed time must be finite and positive, got {seconds}"
        )
    return fluid_updates / seconds / 1e6


def application_efficiency(
    series: Dict[str, Sequence[float]]
) -> Dict[str, List[float]]:
    """Normalise each implementation's series by the per-count best.

    ``series`` maps implementation label to MFLUPS per GPU count; all
    series must be the same length.  The best implementation at a count
    gets efficiency 1.0 there.
    """
    if not series:
        raise PerfModelError("no series supplied")
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise PerfModelError(f"series lengths differ: {sorted(lengths)}")
    (npts,) = lengths
    if npts == 0:
        raise PerfModelError("series are empty")
    best = [max(v[i] for v in series.values()) for i in range(npts)]
    if any(b <= 0 for b in best):
        raise PerfModelError("non-positive best performance")
    return {
        label: [v[i] / best[i] for i in range(npts)]
        for label, v in series.items()
    }


def architectural_efficiency(
    measured: Sequence[float], predicted: Sequence[float]
) -> List[float]:
    """Measured over model-predicted MFLUPS, pointwise.

    Values can exceed 1 (caching effects the model does not see — the
    paper observes this for the CUDA proxy app on Polaris).
    """
    if len(measured) != len(predicted):
        raise PerfModelError("measured/predicted length mismatch")
    if any(p <= 0 for p in predicted):
        raise PerfModelError("non-positive prediction")
    return [m / p for m, p in zip(measured, predicted)]
