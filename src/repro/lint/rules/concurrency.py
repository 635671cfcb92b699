"""Executor-concurrency rules (W5xx).

``ProcessExecutor`` dispatches per-rank phase bodies (``_phase_*``
methods) to forked workers that run their rank through the whole
schedule and meet only in the halo rings.  A phase body may therefore
touch only its own rank's state plus lock-owning shared services — the
contract the distributed solver's phases obey.  These rules are its
guard; nothing checks it at runtime:

======  ======================================================
W501    mutation of shared ``self`` state inside a phase body
        without the service lock (per-rank slots subscripted by
        the phase's rank parameter are exempt — each worker owns
        its slot)
W503    cross-rank state access — indexing ``self.ranks`` with
        anything but the phase's own rank parameter, or iterating
        all ranks from a worker
W504    nested function or lambda inside a phase body — the
        process executor dispatches phases to forked workers by
        method name or pickle, and closures capturing local
        state are unpicklable (and silently stale under fork)
W505    direct ``SharedMemory(...)`` construction outside the
        segment registry — ad-hoc segments escape the canonical
        ``repro-<pid>-…`` naming, the atexit unlink, and the
        leak detector
======  ======================================================

The scope is a name contract like the P2xx "hot" contract: functions
named ``_phase_*`` are executor-submitted closures.  A store guarded by
``with self._lock:`` (any context manager whose expression names a
lock) is considered protected.  W505 applies module-wide and exempts
:mod:`repro.runtime.shmem` itself, the one place segments are made.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple

from ..engine import Rule, SourceFile, Violation

__all__ = [
    "phase_functions",
    "SharedMutationRule",
    "CrossRankAccessRule",
    "ProcessPhasePicklableRule",
    "SegmentNameRule",
]

_PHASE_RE = re.compile(r"^_phase_")

_FuncDef = ast.FunctionDef


def phase_functions(tree: ast.Module) -> List[_FuncDef]:
    """Every executor-submitted phase body (``_phase_*``) in a module."""
    out: List[_FuncDef] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and _PHASE_RE.match(node.name):
            out.append(node)
    return out


def _rank_param(fn: _FuncDef) -> Optional[str]:
    """The phase body's rank parameter (first argument after self)."""
    names = [a.arg for a in fn.args.args if a.arg != "self"]
    return names[0] if names else None


def _names_a_lock(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and "lock" in node.attr.lower():
            return True
        if isinstance(node, ast.Name) and "lock" in node.id.lower():
            return True
    return False


def _guarded_statements(fn: _FuncDef) -> Iterator[Tuple[ast.AST, bool]]:
    """Walk ``fn``'s own statements as ``(node, lock_held)`` pairs.

    Nested function definitions are not descended into, matching the
    P2xx scanners; ``lock_held`` is True inside any ``with`` whose
    context expression names a lock.
    """
    stack: List[Tuple[ast.AST, bool]] = [
        (child, False) for child in ast.iter_child_nodes(fn)
    ]
    while stack:
        node, locked = stack.pop()
        yield node, locked
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.With):
            locked = locked or any(
                _names_a_lock(item.context_expr) for item in node.items
            )
        stack.extend(
            (child, locked) for child in ast.iter_child_nodes(node)
        )


def _is_self_attr(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _rank_subscript_of_self(
    node: ast.expr, rank_param: Optional[str]
) -> bool:
    """True for ``self.<attr>[<rank_param>]`` — a worker-owned slot."""
    return (
        isinstance(node, ast.Subscript)
        and _is_self_attr(node.value)
        and rank_param is not None
        and isinstance(node.slice, ast.Name)
        and node.slice.id == rank_param
    )


class SharedMutationRule(Rule):
    rule_id = "W501"
    description = (
        "phase bodies run on the executor's rank workers with no "
        "ordering between ranks but the halo exchange; mutating shared "
        "self state without the service lock is a data race (per-rank "
        "slots indexed by the phase's rank parameter are each worker's own)"
    )

    def _bad_target(
        self, target: ast.expr, rank_param: Optional[str]
    ) -> Optional[str]:
        """The offending expression text, or None when the store is safe."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bad = self._bad_target(elt, rank_param)
                if bad is not None:
                    return bad
            return None
        if _is_self_attr(target):
            return f"self.{target.attr}"
        if isinstance(target, ast.Subscript):
            if _rank_subscript_of_self(target, rank_param):
                return None
            if _is_self_attr(target.value):
                return f"self.{target.value.attr}[...]"
        return None

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        for fn in phase_functions(src.tree):
            rank = _rank_param(fn)
            for node, locked in _guarded_statements(fn):
                if locked:
                    continue
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    bad = self._bad_target(target, rank)
                    if bad is not None:
                        what = (
                            "augmented assignment to"
                            if isinstance(node, ast.AugAssign)
                            else "store to"
                        )
                        yield self.violation(
                            src,
                            node,
                            f"{what} shared state {bad} in phase body "
                            f"{fn.name!r} without the service lock; "
                            "another rank's worker can interleave "
                            "(index per-rank slots by "
                            f"{rank or 'the rank parameter'!r} or take "
                            "the lock)",
                        )


class CrossRankAccessRule(Rule):
    rule_id = "W503"
    description = (
        "a phase body owns exactly one rank's state; touching another "
        "rank's state from a worker races with that rank's own "
        "phase body"
    )

    def _is_self_ranks(self, node: ast.expr) -> bool:
        return _is_self_attr(node) and node.attr == "ranks"

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        for fn in phase_functions(src.tree):
            rank = _rank_param(fn)
            for node, _ in _guarded_statements(fn):
                if isinstance(node, ast.Subscript) and self._is_self_ranks(
                    node.value
                ):
                    idx = node.slice
                    if not (
                        rank is not None
                        and isinstance(idx, ast.Name)
                        and idx.id == rank
                    ):
                        yield self.violation(
                            src,
                            node,
                            f"phase body {fn.name!r} indexes self.ranks "
                            "with something other than its own rank "
                            "parameter; cross-rank state access races "
                            "with that rank's worker",
                        )
                elif isinstance(
                    node, (ast.For, ast.comprehension)
                ) and self._is_self_ranks(node.iter):
                    yield self.violation(
                        src,
                        getattr(node, "iter", node),
                        f"phase body {fn.name!r} iterates self.ranks; "
                        "a worker must not sweep every rank's state",
                    )


class ProcessPhasePicklableRule(Rule):
    rule_id = "W504"
    description = (
        "the process executor ships phase bodies to forked workers by "
        "method name or pickle; a nested function or lambda closes "
        "over local state that cannot be pickled and goes stale under "
        "fork"
    )

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        for fn in phase_functions(src.tree):
            for node, _ in _guarded_statements(fn):
                if isinstance(
                    node,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    kind = (
                        "lambda"
                        if isinstance(node, ast.Lambda)
                        else f"nested function {node.name!r}"
                    )
                    yield self.violation(
                        src,
                        node,
                        f"{kind} inside phase body {fn.name!r}; the "
                        "process executor cannot dispatch "
                        "closure-captured state to worker processes — "
                        "hoist it to a method or module-level function",
                    )


class SegmentNameRule(Rule):
    rule_id = "W505"
    description = (
        "shared-memory segments must be allocated through the "
        "SegmentRegistry helper so their names carry the canonical "
        "repro-<pid> prefix, register for the atexit unlink, and stay "
        "visible to the /dev/shm leak detector"
    )

    #: the one module allowed to touch the raw constructor
    _EXEMPT_SUFFIX = "runtime/shmem.py"

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        path = str(getattr(src, "path", "")).replace("\\", "/")
        if path.endswith(self._EXEMPT_SUFFIX):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if name == "SharedMemory":
                yield self.violation(
                    src,
                    node,
                    "direct SharedMemory() construction outside "
                    "repro.runtime.shmem; allocate segments through "
                    "SegmentRegistry so they are named, tracked, and "
                    "unlinked",
                )
