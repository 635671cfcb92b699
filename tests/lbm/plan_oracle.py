"""The per-population oracle of ``build_rank_plans``.

:func:`oracle_tables` derives every table a ``RankPlan`` holds from the
oracles that share no code with the production build:
``rank_link_lists`` (the per-population gather lists) and
``upstream_ids``.  The lists number a rank's ghosts (its remote upstream
nodes) after its owned nodes; folding them into a gather table turns
every ghost-sourced link into the halo placeholder -1, and the exchange
pair is re-derived from the ghosts those links read.
:func:`assert_plans_match` compares a build against it table by table,
and :func:`stream_links` executes the link lists themselves, one
population at a time — the stream of the conformance matrix's reference
steppers.

Run as a module for the comparison at benchmark-ladder scale (the
cylinder at resolution 3.0 on 1 rank, the aorta at 0.7 on 2 ranks; a
few seconds)::

    PYTHONPATH=src python -m tests.lbm.plan_oracle
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.lattice import D3Q19
from repro.decomp import decompose
from repro.geometry.flags import INLET, OUTLET
from repro.geometry.registry import build_geometry
from repro.lbm.rankplan import build_rank_plans, rank_link_lists
from repro.lbm.stream import upstream_ids
from repro.workloads import workload_table

__all__ = ["oracle_tables", "assert_plans_match", "stream_links"]


def stream_links(links, f, f_tmp):
    """Stream ``f`` into ``f_tmp`` over one rank's link lists: one gather
    and one bounce-back per population."""
    for link in links:
        f_tmp[link.qi, link.dst] = f[link.qi, link.src]
        f_tmp[link.qi, link.bounce] = f[link.qi_opp, link.bounce]


def oracle_tables(grid, partition, lattice, periodic):
    """Per rank, a dict of every table a ``RankPlan`` holds."""
    q = lattice.q
    coords, index_map = grid.compact_ids()
    owner_of = partition.owner_map()[tuple(coords.T)]
    flags_at = grid.flags[tuple(coords.T)]
    ranks, reads = [], []
    for r, links in enumerate(
        rank_link_lists(grid, partition, lattice, periodic)
    ):
        owned = np.flatnonzero(owner_of == r)
        n_owned = owned.size
        ups = np.concatenate([
            upstream_ids(grid.shape, c, periodic, coords[owned], index_map)
            for c in lattice.c
        ])
        ghosts = np.setdiff1d(ups[ups >= 0], owned)
        flat = np.full((q, n_owned), -2, dtype=np.int64)
        ghost_read = np.full((q, n_owned), -1, dtype=np.int64)
        for link in links:
            local = link.src < n_owned
            flat[link.qi, link.dst[local]] = link.qi * n_owned + link.src[local]
            flat[link.qi, link.dst[~local]] = -1
            ghost_read[link.qi, link.dst[~local]] = ghosts[
                link.src[~local] - n_owned
            ]
            flat[link.qi, link.bounce] = link.qi_opp * n_owned + link.bounce
        assert (flat >= -1).all(), "link lists leave a (population, node) gap"
        reads.append(ghost_read)
        ranks.append({
            "owned_global": owned,
            "flat_src": flat,
            "inlet_nodes": np.flatnonzero(flags_at[owned] == INLET),
            "outlet_nodes": np.flatnonzero(flags_at[owned] == OUTLET),
            "send_flat": {},
            "recv_flat": {},
            "recv_global": {},
        })
    for r, tables in enumerate(ranks):
        n_owned = tables["owned_global"].size
        qi, col = np.nonzero(tables["flat_src"] == -1)
        written = qi * n_owned + col
        gids = reads[r][qi, col]
        for j in np.unique(owner_of[gids]):
            j = int(j)
            peer = ranks[j]
            mask = owner_of[gids] == j
            tables["recv_flat"][j] = written[mask]
            tables["recv_global"][j] = gids[mask]
            peer["send_flat"][r] = qi[mask] * peer[
                "owned_global"
            ].size + np.searchsorted(peer["owned_global"], gids[mask])
    return ranks


def assert_plans_match(plans, grid, partition, lattice, periodic):
    """``plans`` equal the oracle's tables, array for array and, for the
    peer dicts, key order included (the ``*.stepplan.json`` order)."""
    oracle = oracle_tables(grid, partition, lattice, periodic)
    assert [p.rank for p in plans] == list(range(len(oracle)))
    for plan, want in zip(plans, oracle):
        sp = plan.step_plan
        assert sp.q == lattice.q
        assert sp.num_local == plan.num_owned
        assert np.array_equal(sp.update_ids, np.arange(plan.num_owned))
        assert sp.flat_src.dtype == np.int64
        assert sp.flat_src.flags.c_contiguous
        for name in ("owned_global", "inlet_nodes", "outlet_nodes"):
            assert np.array_equal(getattr(plan, name), want[name]), name
        assert np.array_equal(sp.flat_src, want["flat_src"]), "flat_src"
        for name in ("send_flat", "recv_flat", "recv_global"):
            got = getattr(plan, name)
            assert list(got) == list(want[name]), name
            for peer, table in want[name].items():
                assert np.array_equal(got[peer], table), (name, peer)


def ladder_scale() -> None:
    """The comparison on two benchmark-ladder workloads' plans."""
    for workload, resolution, num_ranks in (
        ("cylinder", 3.0, 1),
        ("aorta", 0.7, 2),
    ):
        preset = workload_table()[workload]
        grid = build_geometry(
            preset.geometry, resolution=resolution, periodic=preset.periodic
        )
        partition = decompose(grid, num_ranks, preset.scheme)
        periodic = (preset.periodic, False, False)
        t0 = time.perf_counter()
        plans = build_rank_plans(grid, partition, D3Q19, periodic)
        built = time.perf_counter() - t0
        assert_plans_match(plans, grid, partition, D3Q19, periodic)
        print(
            f"{workload} at {resolution} on {num_ranks} rank(s): "
            f"{grid.num_fluid} nodes, build {built:.3f} s, equal to the oracle"
        )


if __name__ == "__main__":
    ladder_scale()
