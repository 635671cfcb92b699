"""repro.lint — repo-aware static analysis for the reproduction.

The paper's porting study *is* static analysis (DPCT's 133 categorised
warnings, Table 2); this package gives the reproduction the same
pre-flight scrutiny.  Its rule families (:data:`RULE_FAMILIES`) guard
the invariants the code base lives or dies by: backend-surface
conformance (one algorithm, five identical surfaces), hot-path purity
(the vectorised, allocation-free stream-collide premise of the
performance model), plan-IR soundness (race- and alias-free index
tables) and executor concurrency.

Entry points: ``repro lint`` on the command line, :class:`LintEngine`
programmatically, and the two pre-flights
:class:`~repro.lbm.distributed.DistributedSolver` runs on what it
builds — :func:`verify_rank_plans` on its rank plans and
:func:`verify_schedule` (matched, unambiguous, deadlock-free halo
exchange) on the schedule :func:`schedule_from_rank_states` derives
from them.
"""

from .commcheck import (
    CommOp,
    CommSchedule,
    ScheduleIssue,
    check_schedule,
    schedule_from_rank_states,
    verify_schedule,
)
from .engine import (
    LintEngine,
    LintReport,
    ProjectRule,
    Rule,
    SourceFile,
    Violation,
    load_baseline,
    write_baseline,
)
from .plancheck import (
    PLAN_RULES,
    PlanIssue,
    check_plan_file,
    check_rank_states,
    rank_states_to_dict,
    verify_rank_plans,
)
from .rules import (
    DPCT_CATEGORY_BY_RULE,
    RULE_FAMILIES,
    breakdown_by_category,
    default_rules,
)

__all__ = [
    "LintEngine",
    "LintReport",
    "Rule",
    "ProjectRule",
    "SourceFile",
    "Violation",
    "load_baseline",
    "write_baseline",
    "CommOp",
    "CommSchedule",
    "ScheduleIssue",
    "check_schedule",
    "schedule_from_rank_states",
    "verify_schedule",
    "PLAN_RULES",
    "PlanIssue",
    "check_plan_file",
    "check_rank_states",
    "rank_states_to_dict",
    "verify_rank_plans",
    "default_rules",
    "RULE_FAMILIES",
    "DPCT_CATEGORY_BY_RULE",
    "breakdown_by_category",
]
