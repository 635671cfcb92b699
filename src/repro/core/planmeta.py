"""Metadata accessors over flat gather tables — the plan-IR surface.

The fused :class:`~repro.lbm.stream.StepPlan` is the repository's de
facto kernel IR: a ``(q, n_upd)`` int64 table of flat source indices
into the flattened distribution array, plus the update-id column map.
The static plan verifier (:mod:`repro.lint.plancheck`) and the runtime
sanitizer (:mod:`repro.lbm.sanitize`) both reason about that IR, and
future compiled backends will consume it directly — so the properties
they need are computed here as pure functions over index arrays, not as
methods buried in plan internals.  Any producer of a flat gather table
(hand-built fixtures included) can be verified with the same accessors.

All functions accept anything ``np.asarray`` understands and never
mutate their inputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "duplicate_values",
    "out_of_range",
    "flat_destinations",
    "KERNEL_RUN_CAP",
    "kernel_tables",
    "expand_runs",
    "kernel_abi_issues",
    "run_table_issues",
]

#: Longest run :func:`kernel_tables` emits, in elements (16 KiB of
#: doubles): long enough that the per-run overhead vanishes, short
#: enough that the ``n_upd``-element rest-population run splits into
#: pieces an OpenMP static schedule can balance.
KERNEL_RUN_CAP = 2048


def duplicate_values(table: np.ndarray) -> np.ndarray:
    """Values appearing more than once in ``table``, ascending.

    A flat *destination* table must be duplicate-free: two links writing
    the same ``(population, node)`` slot in one apply is a write/write
    race whose outcome depends on gather order.
    """
    flat = np.asarray(table).reshape(-1)
    if flat.size == 0:
        return np.empty(0, dtype=np.int64)
    values, counts = np.unique(flat, return_counts=True)
    return values[counts > 1].astype(np.int64)


def out_of_range(table: np.ndarray, size: int) -> np.ndarray:
    """Entries of ``table`` outside ``[0, size)``, ascending and unique.

    Flat gather sources must stay inside the flattened ``(q, n_local)``
    source array; ``np.take(..., mode="clip")`` would silently clamp an
    out-of-range index to the array edge instead of faulting, which is
    exactly why the bound is verified statically.
    """
    flat = np.asarray(table).reshape(-1)
    bad = flat[(flat < 0) | (flat >= int(size))]
    return np.unique(bad).astype(np.int64)


def flat_destinations(
    update_ids: np.ndarray, num_local: int, q: int
) -> np.ndarray:
    """The ``(q, n_upd)`` flat destination table of a plan apply.

    Row ``qi`` holds ``qi * num_local + update_ids`` — the slots one
    :meth:`StepPlan.apply` writes in the destination buffer.
    """
    ids = np.asarray(update_ids, dtype=np.int64)
    off = np.arange(int(q), dtype=np.int64)[:, None] * int(num_local)
    return off + ids[None, :]


def kernel_tables(
    flat_src: np.ndarray, update_ids: np.ndarray, num_local: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The run-length ``(heads, lens)`` table a compiled stream launches over.

    A *run* is a maximal stretch of links, in row-major table order,
    along which source and destination both advance by one — on a compact
    fluid numbering nearly all of them do, so the kernel copies
    ``lens[r]`` consecutive doubles from ``heads[r, 1]`` to
    ``heads[r, 0]`` instead of reading two int64 indices per link.
    ``heads`` is int64 ``(n_runs, 2)`` holding ``[dst0, src0]`` and
    ``lens`` int64 ``(n_runs,)``, both C-contiguous (the K406 ABI); runs
    are emitted in link order, never cross a table row, and are cut every
    :data:`KERNEL_RUN_CAP` columns so no single run (the rest population
    is one run of ``n_upd`` elements) can unbalance a static thread
    schedule.  K407 verifies that expanding the table reproduces the
    link set exactly.

    Built row by row from the gather table; the ``(q, n_upd)``
    destination table is never materialised (destinations are
    ``qi * num_local + update_ids[col]``, consecutive wherever
    ``update_ids`` is).
    """
    table = np.ascontiguousarray(flat_src, dtype=np.int64)
    ids = np.asarray(update_ids, dtype=np.int64)
    q, n_upd = table.shape
    if n_upd == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    id_break = np.diff(ids) != 1  # all False on a prefix plan
    brk = np.empty(n_upd, dtype=bool)
    heads, lens = [], []
    for qi in range(q):
        row = table[qi]
        np.not_equal(np.diff(row), 1, out=brk[1:])
        brk[1:] |= id_break
        brk[::KERNEL_RUN_CAP] = True
        cols = np.flatnonzero(brk)
        head = np.empty((cols.size, 2), dtype=np.int64)
        head[:, 0] = qi * int(num_local) + ids[cols]
        head[:, 1] = row[cols]
        heads.append(head)
        lens.append(np.diff(cols, append=n_upd))
    return np.concatenate(heads), np.concatenate(lens)


def expand_runs(
    heads: np.ndarray, lens: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The 1-D ``(dst, src)`` link arrays a run table stands for."""
    heads = np.asarray(heads, dtype=np.int64).reshape(-1, 2)
    lens = np.asarray(lens, dtype=np.int64)
    first = np.cumsum(lens) - lens  # link position of each run head
    pos = np.arange(int(lens.sum()), dtype=np.int64)
    # link k of run r is head + (k - first[r]): offset each head once,
    # then one in-place add per stream
    dst = np.repeat(heads[:, 0] - first, lens)
    dst += pos
    src = np.repeat(heads[:, 1] - first, lens)
    src += pos
    return dst, src


def kernel_abi_issues(
    flat_src: np.ndarray, update_ids: np.ndarray, run_table=None
):
    """Violations of the compiled-kernel table ABI, as message strings.

    The compiled kernels index through raw pointers: every table must be
    int64 (a narrower integer type reads garbage strides; K402 already
    rejects non-integer dtypes) and C-contiguous — the fused step
    addresses ``flat_src[qi * n_upd + node]``, the stream kernel
    ``heads[2 * r]`` / ``heads[2 * r + 1]`` / ``lens[r]`` of the
    ``(heads, lens)`` ``run_table`` when the plan carries one.  Shared by
    :func:`repro.lint.plancheck.check_plan_table` (K406).
    """
    issues = []
    table = np.asarray(flat_src)
    ids = np.asarray(update_ids)
    if np.issubdtype(table.dtype, np.integer) and table.dtype != np.int64:
        issues.append(
            f"flat_src dtype {table.dtype} violates the kernel ABI "
            "(compiled gather kernels require int64 index tables)"
        )
    if not table.flags["C_CONTIGUOUS"]:
        issues.append(
            "flat_src is not C-contiguous; compiled kernels address "
            "flat_src[qi * n_upd + node] over a dense row-major table"
        )
    if np.issubdtype(ids.dtype, np.integer) and ids.dtype != np.int64:
        issues.append(
            f"update_ids dtype {ids.dtype} violates the kernel ABI "
            "(destination columns are computed in int64)"
        )
    if run_table is not None:
        heads, lens = (np.asarray(t) for t in run_table)
        for name, arr in (("heads", heads), ("lens", lens)):
            if arr.dtype != np.int64:
                issues.append(
                    f"run table {name} dtype {arr.dtype} violates the "
                    "kernel ABI (the stream kernel reads int64)"
                )
            if not arr.flags["C_CONTIGUOUS"]:
                issues.append(
                    f"run table {name} is not C-contiguous; the stream "
                    "kernel walks it through a raw pointer"
                )
        if lens.ndim != 1 or heads.shape != (lens.size, 2):
            issues.append(
                f"run table shapes heads {heads.shape} / lens "
                f"{lens.shape} are not (n_runs, 2) / (n_runs,)"
            )
    return issues


def run_table_issues(
    heads: np.ndarray,
    lens: np.ndarray,
    flat_src: np.ndarray,
    update_ids: np.ndarray,
    num_local: int,
):
    """Why ``expand_runs(heads, lens)`` is not the plan's link set (K407).

    The reference is ``(flat_destinations(...).reshape(-1),
    flat_src.reshape(-1))`` in link order.  Equality is proven without
    expanding: the runs tile the link positions ``[0, q * n_upd)`` with
    no gap or overlap, each head equals the link at its position, and
    source and destination advance by one across every link inside a
    run.  Also rejected: a run longer than :data:`KERNEL_RUN_CAP` and a
    run reaching past the end of the flattened ``f``.  Returns at most
    one message, naming the first offending run; assumes the tables
    already pass :func:`kernel_abi_issues`.
    """
    heads = np.asarray(heads)
    lens = np.asarray(lens)
    table = np.asarray(flat_src)
    ids = np.asarray(update_ids)
    q, n_upd = table.shape
    n_links = q * n_upd
    size = q * int(num_local)

    def run(mask: np.ndarray) -> str:
        r = int(np.argmax(mask))
        return (
            f"run {r} [dst0={int(heads[r, 0])}, src0={int(heads[r, 1])}, "
            f"len={int(lens[r])}]"
        )

    bad = (lens < 1) | (lens > KERNEL_RUN_CAP)
    if bad.any():
        return [f"{run(bad)} has a length outside [1, {KERNEL_RUN_CAP}]"]
    bad = ((heads < 0) | (heads + lens[:, None] > size)).any(axis=1)
    if bad.any():
        return [
            f"{run(bad)} crosses the end of f (q * num_local = {size}); "
            "the kernel would copy out of bounds"
        ]
    if n_links == 0:
        if lens.size == 0:
            return []
        return [f"{run(lens > 0)} copies links an empty plan does not have"]
    first = np.cumsum(lens) - lens  # link position of each run head
    col = first % n_upd
    past = (first >= n_links) | (col + lens > n_upd)
    flat = table.reshape(-1)
    at = np.minimum(first, n_links - 1)
    want_dst = at // n_upd * int(num_local) + ids[at % n_upd]
    bad = past | (heads[:, 0] != want_dst) | (heads[:, 1] != flat[at])
    if bad.any():
        r = int(np.argmax(bad))
        if past[r]:
            return [
                f"{run(bad)} at link {int(first[r])} runs past the end of "
                f"its table row ({n_upd} links per population, {n_links} "
                "in all); the runs overlap the link set"
            ]
        return [
            f"{run(bad)} sits at link {int(at[r])}, which the plan wires "
            f"as [dst={int(want_dst[r])}, src={int(flat[at[r]])}]; a gap "
            "or overlap precedes it"
        ]
    covered = int(lens.sum())
    if covered != n_links:
        return [
            f"runs cover {covered} of the plan's {n_links} links; a gap "
            f"follows the last run ({lens.size - 1})"
        ]
    # inside a run both streams advance by one per link: count the
    # source breaks that are not run heads, and the update-id breaks
    # between each run's first and last column
    src_break = np.diff(flat) != 1
    src_break[first[1:] - 1] = False
    id_breaks = np.concatenate(([0], np.cumsum(np.diff(ids) != 1)))
    bad = id_breaks[col + lens - 1] != id_breaks[col]
    if src_break.any():
        k = int(np.argmax(src_break)) + 1
        bad[np.searchsorted(first, k, side="right") - 1] = True
    if bad.any():
        return [
            f"{run(bad)} copies consecutive elements across links the "
            "plan does not wire consecutively; expanding it differs from "
            "the link set"
        ]
    return []
