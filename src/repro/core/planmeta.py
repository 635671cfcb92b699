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
    "HALO",
    "duplicate_values",
    "out_of_range",
    "flat_destinations",
    "KERNEL_RUN_CAP",
    "TILE",
    "kernel_tables",
    "tile_table",
    "tile_sources",
    "expand_runs",
    "kernel_abi_issues",
    "run_table_issues",
    "tile_table_issues",
]

#: The gather source of a halo-sourced link: its value arrives by
#: exchange (the frontier scatter writes it), so it reads nothing of the
#: rank's ``f``.  ``np.take(mode="clip")`` reads it as a placeholder, and
#: the compiled tables leave the link out.
HALO = -1

#: Longest run :func:`kernel_tables` emits, in elements (16 KiB of
#: doubles): long enough that the per-run overhead vanishes, short
#: enough that the ``n_upd``-element rest-population run splits into
#: pieces an OpenMP static schedule can balance.
KERNEL_RUN_CAP = 2048

#: Runs (or pieces) per slice of the chunked table passes below: their
#: temporaries stay a few hundred KiB, so a pass over a 450 k-node plan
#: leaves no plan-sized slack resident on the heap.
CHUNK = 1 << 15

#: Source nodes per stage of the one-pass collide + stream kernel (the
#: compiled library's ``TILE``): the stage is ``q * TILE`` doubles, small
#: enough to stay in L1/L2 between the collide and the copy-out.  Fixed
#: by the sweep in EXPERIMENTS.md, "One pass at the byte price".
TILE = 256


def duplicate_values(table: np.ndarray) -> np.ndarray:
    """Values appearing more than once in ``table``, ascending.

    A flat *destination* table must be duplicate-free: two links writing
    the same ``(population, node)`` slot in one apply is a write/write
    race whose outcome depends on gather order.
    """
    flat = np.asarray(table).reshape(-1)
    # a strictly increasing table (every update set the solvers build)
    # has no repeat: one linear pass instead of the sort
    if flat.size == 0 or (np.diff(flat) > 0).all():
        return np.empty(0, dtype=np.int64)
    values, counts = np.unique(flat, return_counts=True)
    return values[counts > 1].astype(np.int64)


def out_of_range(table: np.ndarray, size: int, lo: int = 0) -> np.ndarray:
    """Entries of ``table`` outside ``[lo, size)``, ascending and unique.

    Flat gather sources must stay inside the flattened ``(q, n_local)``
    source array, or be the halo placeholder -1 (``lo=-1``);
    ``np.take(..., mode="clip")`` would silently clamp any other
    out-of-range index to the array edge instead of faulting, which is
    exactly why the bound is verified statically.
    """
    flat = np.asarray(table).reshape(-1)
    if flat.size == 0 or (flat.min() >= lo and flat.max() < int(size)):
        return np.empty(0, dtype=np.int64)
    bad = flat[(flat < lo) | (flat >= int(size))]
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
    schedule.  A halo link (source :data:`HALO`) is left out: the
    frontier scatter writes its destination.  K407 verifies that
    expanding the table reproduces the other links exactly.

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
        brk[1:] |= row[:-1] == HALO  # a halo link is a run of its own
        brk[::KERNEL_RUN_CAP] = True
        cols = np.flatnonzero(brk)
        run_lens = np.diff(cols, append=n_upd)
        kept = row[cols] != HALO
        cols, run_lens = cols[kept], run_lens[kept]
        head = np.empty((cols.size, 2), dtype=np.int64)
        head[:, 0] = qi * int(num_local) + ids[cols]
        head[:, 1] = row[cols]
        heads.append(head)
        lens.append(run_lens)
    return np.concatenate(heads), np.concatenate(lens)


def _run_tiles(heads, lens, num_local, lo, hi):
    """``(pop, node, end, first, count)`` of runs ``[lo, hi)``: source
    population, first and one-past-last source node, first tile, and the
    number of tiles (pieces) the run spans."""
    pop, node = np.divmod(heads[lo:hi, 1], num_local)
    end = node + lens[lo:hi]
    first = node // TILE
    return pop, node, end, first, (end - 1) // TILE - first + 1


def tile_table(
    heads: np.ndarray, lens: np.ndarray, num_local: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one-pass kernel's ``(tile_ptr, heads, lens)`` tile table.

    Cut from the link-order run table of a prefix plan
    (:func:`kernel_tables`): every run is split where its source node
    crosses a multiple of :data:`TILE`, so each piece reads one stage
    tile ``t`` — source nodes ``[t * TILE, (t + 1) * TILE)`` of one
    population.  The pieces are grouped by tile, in link order within
    one: tile ``t``'s are ``tile_ptr[t]`` to ``tile_ptr[t + 1]``, and
    ``tile_ptr`` has ``ceil(num_local / TILE) + 1`` entries.  ``heads``
    holds ``[dst0, off0]``: ``dst0`` the flat destination, as in a run
    table, and ``off0 = population * TILE + node - t * TILE`` the
    piece's first slot in the ``q x TILE`` stage.  All int64 and
    C-contiguous (the K406 ABI); K407 verifies the table re-merges into
    the link set.

    A counting sort over :data:`CHUNK`-run slices: one pass counts each
    tile's pieces, a second files every slice's pieces at their tile's
    cursor (a stable sort of the slice on a 16-bit key, a radix sort).
    No temporary is larger than a slice, so the build leaves no
    plan-sized slack on the heap behind the table it returns.
    """
    heads = np.asarray(heads, dtype=np.int64).reshape(-1, 2)
    lens = np.asarray(lens, dtype=np.int64)
    num_local = int(num_local)
    n_tiles = -(-num_local // TILE)
    n_runs = lens.size
    key = np.uint16 if n_tiles <= 1 << 16 else np.uint32
    # pass 1: a run covers tiles first .. first + count - 1, one piece each
    cover = np.zeros(n_tiles + 1, dtype=np.int64)
    for lo in range(0, n_runs, CHUNK):
        *_, first, count = _run_tiles(heads, lens, num_local, lo, lo + CHUNK)
        cover += np.bincount(first, minlength=n_tiles + 1)
        cover -= np.bincount(first + count, minlength=n_tiles + 1)
    tile_ptr = np.zeros(n_tiles + 1, dtype=np.int64)
    np.cumsum(np.cumsum(cover[:n_tiles]), out=tile_ptr[1:])
    out = np.empty((int(tile_ptr[-1]), 2), dtype=np.int64)
    out_lens = np.empty(out.shape[0], dtype=np.int64)
    cursor = tile_ptr[:-1].copy()
    # pass 2: each slice's pieces, filed at their tiles' cursors
    for lo in range(0, n_runs, CHUNK):
        pop, node, end, first, count = _run_tiles(
            heads, lens, num_local, lo, lo + CHUNK
        )
        # tile of each piece: its run's first tile plus its rank in it
        tile = np.repeat(first - (np.cumsum(count) - count), count)
        tile += np.arange(tile.size, dtype=np.int64)
        order = np.argsort(tile.astype(key), kind="stable")
        tile = tile[order]
        per_tile = np.bincount(tile, minlength=n_tiles)
        at = np.arange(tile.size, dtype=np.int64)
        at += cursor[tile] - (np.cumsum(per_tile) - per_tile)[tile]
        cursor += per_tile
        base = tile * TILE  # the tile's first node
        start = np.maximum(np.repeat(node, count)[order], base)
        stop = np.minimum(np.repeat(end, count)[order], base + TILE)
        out_lens[at] = stop - start
        dst = heads[lo : lo + CHUNK, 0] - node
        out[at, 0] = np.repeat(dst, count)[order] + start
        out[at, 1] = np.repeat(pop * TILE, count)[order] + start - base
    return tile_ptr, out, out_lens


def _piece_slots(tile_ptr, heads, pieces):
    """Tile, source population and stage slot of the pieces ``pieces``
    (indices) of a tile table."""
    tile = np.searchsorted(tile_ptr, pieces, side="right") - 1
    pop, slot = np.divmod(np.asarray(heads)[pieces, 1], TILE)
    return tile, pop, slot


def tile_sources(
    tile_ptr: np.ndarray, heads: np.ndarray, num_local: int, pieces: np.ndarray
) -> np.ndarray:
    """The flat source in ``f`` of the pieces ``pieces`` (indices) of a
    tile table: each stage offset moved back to its tile's nodes."""
    tile, pop, slot = _piece_slots(tile_ptr, heads, pieces)
    return pop * int(num_local) + tile * TILE + slot


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
    flat_src: np.ndarray, update_ids: np.ndarray, run_table=None,
    tile_ptr=None,
):
    """Violations of the compiled-kernel table ABI, as message strings.

    The compiled kernels index through raw pointers: every table must be
    int64 (a narrower integer type reads garbage strides; K402 already
    rejects non-integer dtypes) and C-contiguous — the fused step
    addresses ``flat_src[qi * n_upd + node]``, the stream kernel
    ``heads[2 * r]`` / ``heads[2 * r + 1]`` / ``lens[r]`` of the
    ``(heads, lens)`` ``run_table`` when the plan carries one, and the
    one-pass kernel the same pair of a tile table plus its 1-D
    ``tile_ptr``.  Shared by
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
    if tile_ptr is not None:
        ptr = np.asarray(tile_ptr)
        if ptr.dtype != np.int64 or not ptr.flags["C_CONTIGUOUS"]:
            issues.append(
                f"tile_ptr ({ptr.dtype}) is not a C-contiguous int64 "
                "array; the one-pass kernel walks it through a raw pointer"
            )
        if ptr.ndim != 1:
            issues.append(f"tile_ptr shape {ptr.shape} is not (n_tiles + 1,)")
    return issues


def _first_true(n: int, mask_of) -> int:
    """The first index in ``[0, n)`` where ``mask_of(lo, hi)`` — a bool
    array over ``[lo, hi)`` — holds, or -1; evaluated a :data:`CHUNK`
    at a time, and no further than the first chunk that holds."""
    for lo in range(0, n, CHUNK):
        mask = mask_of(lo, min(lo + CHUNK, n))
        if mask.any():
            return lo + int(np.argmax(mask))
    return -1


def _halo_links(flat: np.ndarray) -> np.ndarray:
    """Link positions whose source is :data:`HALO`, ascending (scanned a
    :data:`CHUNK` at a time: no link-sized temporary)."""
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        lo + np.flatnonzero(flat[lo : lo + CHUNK] == HALO)
        for lo in range(0, flat.size, CHUNK)
    ])


def run_table_issues(
    heads: np.ndarray,
    lens: np.ndarray,
    flat_src: np.ndarray,
    update_ids: np.ndarray,
    num_local: int,
):
    """Why ``expand_runs(heads, lens)`` is not the plan's link set (K407).

    The reference is ``(flat_destinations(...).reshape(-1),
    flat_src.reshape(-1))`` in link order, less the halo links (source
    :data:`HALO`), which have no run.  Equality is proven without
    expanding: the runs tile the other links with no gap or overlap,
    each head equals the link at its position, and source and
    destination advance by one across every link inside a run (which
    spans no halo link).  Also rejected: a run longer than
    :data:`KERNEL_RUN_CAP` and a run reaching past the end of the
    flattened ``f``.  Returns at most one message, naming the first
    offending run; assumes the tables already pass
    :func:`kernel_abi_issues`.  Each property is checked a :data:`CHUNK`
    of runs at a time: the run-sized temporaries are the runs' positions
    and the halo links'.
    """
    heads = np.asarray(heads)
    lens = np.asarray(lens)
    table = np.asarray(flat_src)
    ids = np.asarray(update_ids)
    q, n_upd = table.shape
    n_links = q * n_upd
    n_runs = lens.size
    size = q * int(num_local)

    def run(r: int) -> str:
        return (
            f"run {r} [dst0={int(heads[r, 0])}, src0={int(heads[r, 1])}, "
            f"len={int(lens[r])}]"
        )

    r = _first_true(
        n_runs,
        lambda lo, hi: (lens[lo:hi] < 1) | (lens[lo:hi] > KERNEL_RUN_CAP),
    )
    if r >= 0:
        return [f"{run(r)} has a length outside [1, {KERNEL_RUN_CAP}]"]

    def out_of_f(lo: int, hi: int) -> np.ndarray:
        h = heads[lo:hi]
        reach = np.maximum(h[:, 0], h[:, 1]) + lens[lo:hi]
        return (h.min(axis=1) < 0) | (reach > size)

    r = _first_true(n_runs, out_of_f)
    if r >= 0:
        return [
            f"{run(r)} crosses the end of f (q * num_local = {size}); "
            "the kernel would copy out of bounds"
        ]
    flat = table.reshape(-1)
    halo = _halo_links(flat)
    n_copied = n_links - halo.size
    if n_copied == 0:
        if lens.size == 0:
            return []
        return [f"{run(0)} copies links a plan with none does not have"]
    # the runs tile the copied links in link order: the one of rank p is
    # link p + (halo links before it)
    before = halo - np.arange(halo.size)

    def link_of(p: np.ndarray) -> np.ndarray:
        return p + np.searchsorted(before, p, side="right")

    rank = np.cumsum(lens) - lens  # each run head's rank among them
    first = link_of(rank)  # and its link position

    def wiring(lo: int, hi: int):
        """Past a row end, a halo link or the last link, the link
        position, and the ``[dst, src]`` the plan wires at the heads of
        runs ``[lo, hi)``."""
        n, at = lens[lo:hi], first[lo:hi]
        past = (rank[lo:hi] + n > n_copied) | (at % n_upd + n > n_upd)
        past |= link_of(rank[lo:hi] + n - 1) - at != n - 1
        at = np.minimum(at, n_links - 1)
        row, col = np.divmod(at, n_upd)
        return past, at, row * int(num_local) + ids[col], flat[at]

    def misplaced(lo: int, hi: int) -> np.ndarray:
        past, _, dst, src = wiring(lo, hi)
        return past | (heads[lo:hi, 0] != dst) | (heads[lo:hi, 1] != src)

    r = _first_true(n_runs, misplaced)
    if r >= 0:
        past, at, dst, src = (int(x[0]) for x in wiring(r, r + 1))
        if past:
            return [
                f"{run(r)} at link {at} runs past the end of its table "
                f"row or over a halo link ({n_upd} links per population, "
                f"{n_links} in all, {halo.size} halo); the runs overlap "
                "the link set"
            ]
        return [
            f"{run(r)} sits at link {at}, which the plan wires as "
            f"[dst={dst}, src={src}]; a gap or overlap precedes it"
        ]
    covered = int(lens.sum())
    if covered != n_copied:
        return [
            f"runs cover {covered} of the plan's {n_copied} copied links; "
            f"a gap follows the last run ({lens.size - 1})"
        ]
    # inside a run both streams advance by one per link: every source
    # break is a run head (counted, and located only when the counts
    # disagree), and no update-id break falls inside a run
    head_breaks = 0
    for lo in range(1, n_runs, CHUNK):
        hi = min(lo + CHUNK, n_runs)
        end = first[lo - 1 : hi - 1] + lens[lo - 1 : hi - 1]  # previous run's
        step = flat[first[lo:hi]] - flat[end - 1]
        head_breaks += int(np.count_nonzero(step != 1))
    bad_run = -1
    if _source_breaks(flat, skip_halo=halo.size > 0) != head_breaks:
        src_break = np.diff(np.delete(flat, halo)) != 1
        src_break[rank[1:] - 1] = False
        k = int(np.argmax(src_break)) + 1
        bad_run = int(np.searchsorted(rank, k, side="right")) - 1
    id_break = np.diff(ids) != 1
    if id_break.any():
        id_breaks = np.concatenate(([0], np.cumsum(id_break)))

        def across(lo: int, hi: int) -> np.ndarray:
            col = first[lo:hi] % n_upd
            return id_breaks[col + lens[lo:hi] - 1] != id_breaks[col]

        r = _first_true(n_runs, across)
        if r >= 0 and (bad_run < 0 or r < bad_run):
            bad_run = r
    if bad_run >= 0:
        return [
            f"{run(bad_run)} copies consecutive elements across links the "
            "plan does not wire consecutively; expanding it differs from "
            "the link set"
        ]
    return []


def _source_breaks(flat: np.ndarray, skip_halo: bool) -> int:
    """How many consecutive links' sources do not advance by one, the
    halo links left out if ``skip_halo``; a :data:`CHUNK` at a time (no
    link-sized temporary)."""
    count, prev = 0, None
    for lo in range(0, flat.size, CHUNK):
        seg = flat[lo : lo + CHUNK]
        seg = seg[seg != HALO] if skip_halo else seg
        if seg.size:
            count += seg.size - int(np.count_nonzero(np.diff(seg) == 1))
            count -= prev is None or bool(seg[0] - prev == 1)
            prev = seg[-1]
    return count


def tile_table_issues(
    tile_ptr: np.ndarray,
    heads: np.ndarray,
    lens: np.ndarray,
    flat_src: np.ndarray,
    update_ids: np.ndarray,
    num_local: int,
):
    """Why a tile table is not the one-pass form of the plan (K407).

    Two properties, because the kernel indexes the stage through a raw
    pointer: every piece filed under tile ``t`` reads only inside tile
    ``t``'s stage (population ``< q``, slots ``[0, width)`` of the
    tile's ``width <= TILE`` nodes), and the pieces, moved back to their
    flat sources and merged in destination order, are a run table
    :func:`run_table_issues` accepts — exactly the link set, whatever
    order the tiles file them in.  ``tile_ptr`` must be the
    ``ceil(num_local / TILE) + 1`` non-decreasing offsets from 0 to the
    piece count.  Returns at most one message; assumes the tables pass
    :func:`kernel_abi_issues`.
    """
    tile_ptr = np.asarray(tile_ptr)
    heads = np.asarray(heads)
    lens = np.asarray(lens)
    q = np.asarray(flat_src).shape[0]
    num_local = int(num_local)
    n_tiles = -(-num_local // TILE)
    if (
        tile_ptr.size != n_tiles + 1
        or tile_ptr[0] != 0
        or tile_ptr[-1] != lens.size
        or (np.diff(tile_ptr) < 0).any()
    ):
        return [
            f"tile_ptr is not the {n_tiles + 1} non-decreasing offsets "
            f"from 0 to the {lens.size} runs of a {num_local}-node plan "
            f"({n_tiles} tiles of {TILE})"
        ]

    def reach(lo: int, hi: int):
        """Tile, population, slot and tile width of pieces ``[lo, hi)``."""
        tile, pop, slot = _piece_slots(tile_ptr, heads, np.arange(lo, hi))
        return tile, pop, slot, np.minimum(TILE, num_local - tile * TILE)

    def outside(lo: int, hi: int) -> np.ndarray:
        _, pop, slot, width = reach(lo, hi)
        n = lens[lo:hi]
        return (n < 1) | (pop < 0) | (pop >= q) | (slot + n > width)

    r = _first_true(lens.size, outside)
    if r >= 0:
        tile, _, _, width = (int(x[0]) for x in reach(r, r + 1))
        return [
            f"run {r} [dst0={int(heads[r, 0])}, off0={int(heads[r, 1])}, "
            f"len={int(lens[r])}] filed under tile {tile} reads outside "
            f"that tile's stage ({q} populations x {width} nodes); the "
            "kernel would copy another tile's or uncollided data"
        ]
    order = np.argsort(heads[:, 0], kind="stable")
    merged = np.empty(heads.shape, dtype=np.int64)
    for lo in range(0, lens.size, CHUNK):
        pieces = order[lo : lo + CHUNK]
        merged[lo : lo + CHUNK, 0] = heads[pieces, 0]
        merged[lo : lo + CHUNK, 1] = tile_sources(
            tile_ptr, heads, num_local, pieces
        )
    merged_lens = lens[order]
    del order
    return [
        f"tile table merged in destination order: {message}"
        for message in run_table_issues(
            merged, merged_lens, flat_src, update_ids, num_local
        )
    ]
