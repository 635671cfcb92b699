"""Rule registry for ``repro lint``.

Four families, each guarding a paper invariant:

* **conformance (C1xx)** — one algorithm, five identical programming
  surfaces (Sections 5/7; the DPCT warning audit of Table 2 in Python
  form);
* **hot-path purity (P2xx)** — the stream-collide loop stays vectorised
  and allocation-free, the premise of the bandwidth-bound performance
  model (Eq. 1);
* **plan IR (K4xx)** — the fused gather/scatter index tables are race-
  and alias-free (emitted by :mod:`repro.lint.plancheck`, which also
  runs as the distributed solver's pre-flight);
* **executor concurrency (W5xx)** — phase bodies dispatched to the
  process executor's workers touch only their own rank's state or the
  service lock, and stay dispatchable by name.

:data:`DPCT_CATEGORY_BY_RULE` cross-links every rule id to the Table 2
warning taxonomy of :mod:`repro.porting.dpct`, so lint findings can be
accounted the way the paper accounts porting diagnostics.  (The
halo-exchange schedule check, S301-S305 of :mod:`repro.lint.commcheck`,
runs only as the distributed solver's pre-flight, on the schedule it
derives from its rank plans: no file carries a schedule, so no S id
reaches ``repro lint``.)
"""

from __future__ import annotations

from typing import Dict, List

from ..engine import Rule
from ..plancheck import PLAN_RULES
from .concurrency import (
    CrossRankAccessRule,
    ProcessPhasePicklableRule,
    SegmentNameRule,
    SharedMutationRule,
)
from .conformance import (
    DtypeDefaultDriftRule,
    MissingIdentityRule,
    MissingSurfaceMethodRule,
    SignatureDriftRule,
)
from .purity import DtypeMixRule, HotAllocationRule, HotLoopRule

__all__ = [
    "default_rules",
    "RULE_FAMILIES",
    "DPCT_CATEGORY_BY_RULE",
    "breakdown_by_category",
    "MissingSurfaceMethodRule",
    "SignatureDriftRule",
    "DtypeDefaultDriftRule",
    "MissingIdentityRule",
    "HotLoopRule",
    "HotAllocationRule",
    "DtypeMixRule",
    "SharedMutationRule",
    "CrossRankAccessRule",
    "ProcessPhasePicklableRule",
    "SegmentNameRule",
]


def default_rules() -> List[Rule]:
    """Fresh instances of every AST rule, in id order."""
    return [
        MissingSurfaceMethodRule(),
        SignatureDriftRule(),
        DtypeDefaultDriftRule(),
        MissingIdentityRule(),
        HotLoopRule(),
        HotAllocationRule(),
        DtypeMixRule(),
        SharedMutationRule(),
        CrossRankAccessRule(),
        ProcessPhasePicklableRule(),
        SegmentNameRule(),
    ]


#: Rule ids by family; the K4xx ids come from the step-plan verifier.
RULE_FAMILIES: Dict[str, List[str]] = {
    "conformance": ["C101", "C102", "C103", "C104"],
    "purity": ["P201", "P202", "P203"],
    "plancheck": sorted(PLAN_RULES.values()),
    "concurrency": ["W501", "W503", "W504", "W505"],
}

#: Table 2 category for each rule id — the same taxonomy
#: :data:`repro.porting.dpct.WARNING_CATEGORIES` uses for DPCT output.
DPCT_CATEGORY_BY_RULE: Dict[str, str] = {
    # a missing surface method is a feature the port does not support
    "C101": "Unsupported feature",
    # drifted signatures/dtypes compile but compute something subtly
    # different — DPCT's "not an exact equivalent" case
    "C102": "Functional equivalence",
    "C103": "Functional equivalence",
    # an anonymous backend cannot attribute its errors or results
    "C104": "Error handling",
    # scalar loops and per-step allocations are performance findings
    "P201": "Performance improvement",
    "P202": "Performance improvement",
    "P203": "Functional equivalence",
    # plan-IR failures are the data-movement/synchronization bugs the
    # paper's DPCT audit calls the hardest to port: most produce
    # silently wrong results, two fault loudly at table-build time
    "K400": "Error handling",
    "K401": "Functional equivalence",
    "K402": "Error handling",
    "K404": "Error handling",
    "K405": "Functional equivalence",
    "K406": "Functional equivalence",
    "K407": "Functional equivalence",
    # executor-concurrency races corrupt shared state;
    # process-tier findings fault loudly at dispatch or cleanup time
    "W501": "Functional equivalence",
    "W503": "Functional equivalence",
    "W504": "Error handling",
    "W505": "Error handling",
}


def breakdown_by_category(violations) -> Dict[str, int]:
    """Table-2-style accounting: violation counts per DPCT category.

    Mirrors :meth:`repro.porting.dpct.DPCTResult.warning_counts` so a
    lint run over a ported tree reads like a DPCT warning table.
    """
    from ...porting.dpct import WARNING_CATEGORIES

    counts = {cat: 0 for cat in WARNING_CATEGORIES}
    for v in violations:
        category = DPCT_CATEGORY_BY_RULE.get(v.rule)
        if category is not None:
            counts[category] += 1
    return counts
