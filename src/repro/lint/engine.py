"""The AST-based rule engine behind ``repro lint``.

The paper's Section 7 porting study is, at heart, warning-count static
analysis: DPCT emitted 133 categorised diagnostics over the HARVEY corpus
(Table 2).  This engine gives the *reproduction* the same kind of
pre-flight scrutiny: rules walk parsed Python modules (and serialized
step plans) and emit categorised, suppressible violations
long before a run is priced or executed.

Building blocks
---------------
:class:`Violation`
    One diagnostic: rule id, location, message, severity.
:class:`SourceFile`
    A parsed module — source text, AST, and the ``# repro: noqa[RULE]``
    suppressions found on each line.
:class:`Rule` / :class:`ProjectRule`
    Per-file and whole-fileset checks.  Project rules see every parsed
    module at once, which is what backend-conformance checking needs
    (class hierarchies span files).
:class:`LintEngine`
    Discovers files under the given paths, runs every rule, applies
    suppressions and an optional baseline, and returns a
    :class:`LintReport` that renders as text or JSON.

Suppression syntax (checked literally by the engine)::

    payload = np.empty_like(buf)  # repro: noqa[P202] staging is the point

A bare ``# repro: noqa`` suppresses every rule on that line; the
bracketed form suppresses only the listed rule ids.
"""

from __future__ import annotations

import abc
import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from ..core.errors import LintError

__all__ = [
    "Violation",
    "SourceFile",
    "Rule",
    "ProjectRule",
    "LintEngine",
    "LintReport",
    "load_baseline",
    "write_baseline",
]

SEVERITIES = ("error", "warning")

#: ``# repro: noqa`` or ``# repro: noqa[P201,C102] optional reason``
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


@dataclass(frozen=True)
class Violation:
    """One diagnostic emitted by a rule."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise LintError(
                f"unknown severity {self.severity!r}; expected {SEVERITIES}"
            )

    @property
    def fingerprint(self) -> str:
        """Location-insensitive identity used by baseline files (line
        numbers shift too easily to key on)."""
        return f"{self.rule}:{self.path}:{self.message}"

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


class SourceFile:
    """A parsed Python module plus its per-line suppressions."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            raise LintError(f"{path}: cannot parse: {exc}") from exc
        #: line -> None (blanket noqa) or the set of suppressed rule ids
        self.noqa: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            m = _NOQA_RE.search(line)
            if not m:
                continue
            rules = m.group("rules")
            if rules is None:
                self.noqa[lineno] = None
            else:
                ids = {r.strip() for r in rules.split(",") if r.strip()}
                prior = self.noqa.get(lineno)
                if prior is None and lineno in self.noqa:
                    continue  # blanket suppression already wins
                self.noqa[lineno] = (prior or set()) | ids

    def suppresses(self, violation: Violation) -> bool:
        if violation.line not in self.noqa:
            return False
        rules = self.noqa[violation.line]
        return rules is None or violation.rule in rules

    @classmethod
    def read(cls, path: Union[str, Path]) -> "SourceFile":
        p = Path(path)
        return cls(str(p), p.read_text())


class Rule(abc.ABC):
    """A per-file check.

    Subclasses set ``rule_id`` (stable, referenced by noqa and baselines),
    ``severity``, and a one-line ``description`` mapping the rule to the
    paper invariant it guards.
    """

    rule_id: str = "X000"
    severity: str = "error"
    description: str = ""

    @abc.abstractmethod
    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        """Yield violations for one parsed module."""

    def violation(
        self, src: SourceFile, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.rule_id,
            path=src.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """A whole-fileset check (e.g. conformance across a class hierarchy).

    ``check_file`` is a no-op; the engine calls ``check_project`` once
    with every parsed module.
    """

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        return iter(())

    @abc.abstractmethod
    def check_project(
        self, files: Sequence[SourceFile]
    ) -> Iterator[Violation]:
        """Yield violations visible only with the whole fileset parsed."""


@dataclass
class LintReport:
    """Outcome of one engine run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    baselined: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for v in self.violations:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        return dict(sorted(counts.items()))

    def format_text(self) -> str:
        out = [v.format() for v in self.violations]
        summary = (
            f"{len(self.violations)} violation(s) in "
            f"{self.files_checked} file(s)"
        )
        extras = []
        if self.suppressed:
            extras.append(f"{self.suppressed} suppressed by noqa")
        if self.baselined:
            extras.append(f"{self.baselined} in baseline")
        if extras:
            summary += f" ({', '.join(extras)})"
        out.append(summary)
        return "\n".join(out)

    def to_json(self) -> str:
        return json.dumps(
            {
                "violations": [v.to_dict() for v in self.violations],
                "files_checked": self.files_checked,
                "suppressed": self.suppressed,
                "baselined": self.baselined,
                "counts_by_rule": self.counts_by_rule(),
                "ok": self.ok,
            },
            indent=2,
        )


def load_baseline(path: Union[str, Path]) -> Set[str]:
    """Read a baseline file (a JSON list of violation fingerprints)."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise LintError(f"cannot read baseline {p}: {exc}") from exc
    fps = data.get("fingerprints") if isinstance(data, dict) else data
    if not isinstance(fps, list) or not all(
        isinstance(f, str) for f in fps
    ):
        raise LintError(
            f"baseline {p} must be a JSON list of fingerprint strings "
            "(or an object with a 'fingerprints' list)"
        )
    return set(fps)


def write_baseline(
    path: Union[str, Path], violations: Iterable[Violation]
) -> None:
    """Write the fingerprints of ``violations`` as a baseline file."""
    fps = sorted({v.fingerprint for v in violations})
    Path(path).write_text(json.dumps({"fingerprints": fps}, indent=2) + "\n")


_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".tox", ".venv", "node_modules"}

#: Serialized step-plan documents the engine hands to the plan
#: verifier (see :mod:`repro.lint.plancheck`).
PLAN_SUFFIX = ".stepplan.json"


def _iter_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            yield p
            continue
        if not p.is_dir():
            raise LintError(f"no such file or directory: {p}")
        for child in sorted(p.rglob("*")):
            if any(part in _SKIP_DIRS for part in child.parts):
                continue
            if child.is_file() and (
                child.suffix == ".py" or child.name.endswith(PLAN_SUFFIX)
            ):
                yield child


class LintEngine:
    """Runs a rule set over a file tree."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        plan_rules: Optional[Set[str]] = None,
    ) -> None:
        if rules is None:
            from .rules import default_rules

            rules = default_rules()
        seen: Set[str] = set()
        for rule in rules:
            if rule.rule_id in seen:
                raise LintError(f"duplicate rule id {rule.rule_id}")
            seen.add(rule.rule_id)
        self.rules: List[Rule] = list(rules)
        #: K-rule ids to keep from step-plan files; None means all.
        self.plan_rules = plan_rules

    def select(self, rule_ids: Sequence[str]) -> "LintEngine":
        """A new engine restricted to the given rule ids.

        Selection spans the AST rules and the K4xx ids emitted by the
        step-plan verifier.  An id that is a *prefix* of known rules
        selects the whole family: ``select(["K", "W"])`` keeps every
        plan-verifier and concurrency rule.
        """
        from .plancheck import PLAN_RULES

        plan_ids = set(PLAN_RULES.values()) | {"K400"}
        known = {r.rule_id for r in self.rules} | plan_ids
        wanted: Set[str] = set()
        unknown: Set[str] = set()
        for rid in rule_ids:
            if rid in known:
                wanted.add(rid)
                continue
            family = {k for k in known if k.startswith(rid)} if rid else set()
            if family:
                wanted |= family
            else:
                unknown.add(rid)
        if unknown:
            raise LintError(
                f"unknown rule id(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return LintEngine(
            [r for r in self.rules if r.rule_id in wanted],
            plan_rules=wanted & plan_ids,
        )

    def run(
        self,
        paths: Sequence[Union[str, Path]],
        baseline: Optional[Set[str]] = None,
    ) -> LintReport:
        from .plancheck import check_plan_file

        report = LintReport()
        sources: List[SourceFile] = []
        raw: List[Violation] = []
        for path in _iter_files(paths):
            report.files_checked += 1
            if path.name.endswith(PLAN_SUFFIX):
                raw.extend(
                    v
                    for v in check_plan_file(path)
                    if self.plan_rules is None or v.rule in self.plan_rules
                )
                continue
            try:
                src = SourceFile.read(path)
            except LintError as exc:
                # a single unparseable file must not abort the whole run
                raw.append(
                    Violation("E000", str(path), 1, 0, str(exc))
                )
                continue
            sources.append(src)
            for rule in self.rules:
                raw.extend(rule.check_file(src))
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                raw.extend(rule.check_project(sources))

        by_path = {s.path: s for s in sources}
        for v in sorted(raw, key=lambda v: (v.path, v.line, v.rule)):
            src = by_path.get(v.path)
            if src is not None and src.suppresses(v):
                report.suppressed += 1
                continue
            if baseline and v.fingerprint in baseline:
                report.baselined += 1
                continue
            report.violations.append(v)
        return report
