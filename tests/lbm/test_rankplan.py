"""``build_rank_plans`` on its own: no solver is constructed here.

The plan is the decomposition pre-processed into tables, so every
property is checked against the grid and the partition directly —
ownership, the remote nodes the halo links read, the slot-for-slot
agreement of the exchange pair (one plan serves both schedules) — plus
the ``*.stepplan.json`` codec.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro.core.lattice import D3Q15, D3Q19, D3Q27
from repro.decomp import bisection_decompose
from repro.geometry import CylinderSpec, VoxelGrid, make_aorta, make_cylinder
from repro.geometry.flags import FLUID, SOLID
from repro.lbm.rankplan import RankPlan, build_rank_plans, rank_link_lists
from repro.lbm.stream import upstream_ids
from repro.lint import check_plan_file, check_rank_states, rank_states_to_dict

from .plan_oracle import assert_plans_match


def slab(nx, nz):
    """Fluid between two solid walls (y = 0 and y = 7), periodic on x and
    z with extents ``nx`` and ``nz``, plus one solid voxel inside: an
    extent-1 axis makes a node its own upstream neighbour, an extent-2
    axis makes both wrap directions land on the same node."""
    flags = np.full((nx, 8, nz), FLUID, dtype=np.int8)
    flags[:, [0, -1], :] = SOLID
    flags[0, 3, 0] = SOLID
    return VoxelGrid(flags, name=f"slab{nx}x{nz}")


GRIDS = {
    "periodic": (
        lambda: make_cylinder(CylinderSpec(scale=0.5, periodic=True)),
        (True, False, False),
    ),
    "capped": (
        lambda: make_cylinder(CylinderSpec(scale=0.5, periodic=False)),
        (False, False, False),
    ),
    "aorta": (lambda: make_aorta(2.0), (False, False, False)),
    "extent1": (lambda: slab(1, 3), (True, False, True)),
    "extent2": (lambda: slab(2, 2), (True, False, True)),
}
LATTICES = (D3Q15, D3Q19, D3Q27)


@pytest.fixture(scope="module", params=sorted(GRIDS))
def case(request):
    make, periodic = GRIDS[request.param]
    return make(), periodic


def build(case, num_ranks):
    grid, periodic = case
    partition = bisection_decompose(grid, num_ranks)
    return build_rank_plans(grid, partition, D3Q19, periodic)


def carried_slots(plan, src, grid, periodic):
    """``(population, global node)`` of each slot of the message from
    ``src``, read off the receiver's side: the upstream node, off the
    grid, of the halo link whose destination a written index is."""
    written = plan.recv_flat[src]
    assert np.isin(written, plan.step_plan.cross_links()).all()
    pops, nodes = np.divmod(written, plan.step_plan.num_local)
    coords, index_map = grid.compact_ids()
    gids = np.empty(written.size, dtype=np.int64)
    for pop in np.unique(pops):
        at = pops == pop
        gids[at] = upstream_ids(
            grid.shape, D3Q19.c[pop], periodic,
            coords[plan.owned_global[nodes[at]]], index_map,
        )
    assert np.array_equal(gids, plan.recv_global[src])
    return pops, gids


@pytest.mark.parametrize("num_ranks", [1, 2, 3, 4])
def test_owned_sets_partition_the_global_ids(case, num_ranks):
    plans = build(case, num_ranks)
    owned = np.concatenate([p.owned_global for p in plans])
    assert np.array_equal(np.sort(owned), np.arange(case[0].num_fluid))
    assert [p.rank for p in plans] == list(range(num_ranks))


@pytest.mark.parametrize("num_ranks", [1, 2, 3, 4])
def test_ghosts_are_the_remote_upstream_nodes(case, num_ranks):
    grid, periodic = case
    coords, index_map = grid.compact_ids()
    for plan in build(case, num_ranks):
        ups = np.concatenate([
            upstream_ids(
                grid.shape, c, periodic, coords[plan.owned_global], index_map
            )
            for c in D3Q19.c
        ])
        remote = np.setdiff1d(ups[ups >= 0], plan.owned_global)
        carried = [np.empty(0, dtype=np.int64), *plan.recv_global.values()]
        assert np.array_equal(np.unique(np.concatenate(carried)), remote)
        assert plan.step_plan.num_local == plan.num_owned
        assert plan.step_plan.num_update == plan.num_owned


@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "overlap"])
@pytest.mark.parametrize("num_ranks", [1, 2, 3, 4])
def test_exchange_pair_agrees_slot_for_slot(case, num_ranks, overlap):
    # one plan serves both schedules: it verifies under either K405 walk
    plans = build(case, num_ranks)
    assert check_rank_states(plans, overlap=overlap) == []
    grid, periodic = case
    wired = 0
    for r, plan in enumerate(plans):
        assert r not in plan.recv_flat and r not in plan.send_flat
        for j in plan.recv_flat:
            sender = plans[j]
            sent = sender.send_flat[r]
            assert sent.shape == plan.recv_flat[j].shape
            sent_pops, sent_nodes = np.divmod(sent, sender.step_plan.num_local)
            assert (sent_nodes < sender.num_owned).all()
            pops, gids = carried_slots(plan, j, grid, periodic)
            assert np.array_equal(sent_pops, pops)
            assert np.array_equal(sender.owned_global[sent_nodes], gids)
            wired += 1
    assert wired == sum(len(p.send_flat) for p in plans)
    assert (wired > 0) == (num_ranks > 1)


def test_overlap_ships_only_the_slots_some_link_reads(case):
    # the one exchange both schedules use writes exactly the halo-sourced
    # link destinations, fewer slots than refilling every population of
    # every remote node they read would
    for plan in build(case, 4):
        dst_flat = plan.step_plan.cross_links()
        written = np.concatenate(list(plan.recv_flat.values()))
        remote = np.unique(np.concatenate(list(plan.recv_global.values())))
        assert np.array_equal(np.sort(written), np.sort(dst_flat))
        assert written.size < plan.step_plan.q * remote.size


def assert_matches_the_oracle(grid, periodic, lattice, num_ranks):
    partition = bisection_decompose(grid, num_ranks)
    plans = build_rank_plans(grid, partition, lattice, periodic)
    assert_plans_match(plans, grid, partition, lattice, periodic)
    for plan, links in zip(
        plans, rank_link_lists(grid, partition, lattice, periodic)
    ):
        n = plan.step_plan.num_local
        for link in links:
            row = plan.step_plan.flat_src[link.qi]
            # the lists number remote upstream nodes past the owned ones
            local = link.src < n
            assert np.array_equal(
                row[link.dst], np.where(local, link.qi * n + link.src, -1)
            )
            assert np.array_equal(
                row[link.bounce], link.qi_opp * n + link.bounce
            )
            assert link.dst.size + link.bounce.size == plan.num_owned


def test_link_lists_compile_to_flat_src(case):
    # the production build and the per-population oracle share no code:
    # every table, 1-4 ranks
    grid, periodic = case
    for num_ranks in (1, 2, 3, 4):
        assert_matches_the_oracle(grid, periodic, D3Q19, num_ranks)


@pytest.mark.parametrize("lattice", LATTICES, ids=lambda lat: lat.name)
def test_every_lattice_compiles_to_the_oracle(case, lattice):
    grid, periodic = case
    for num_ranks in (1, 3):
        assert_matches_the_oracle(grid, periodic, lattice, num_ranks)


@pytest.mark.parametrize("num_ranks", [1, 3])
def test_build_transients_stay_within_the_tables(num_ranks):
    # no (q, n_global) upstream table and no per-population link lists:
    # the traced peak stays within 2x what the plans keep
    grid = make_cylinder(CylinderSpec(scale=0.5, periodic=False))
    partition = bisection_decompose(grid, num_ranks)
    grid.fluid_mask()  # the grid's own cache is not the build's
    tracemalloc.start()
    try:
        plans = build_rank_plans(grid, partition, D3Q19, (False, False, False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(
        table.nbytes
        for plan in plans
        for table in (
            plan.owned_global, plan.inlet_nodes,
            plan.outlet_nodes, plan.step_plan.update_ids,
            plan.step_plan.flat_src, *plan.send_flat.values(),
            *plan.recv_flat.values(), *plan.recv_global.values(),
        )
    )
    assert peak <= 2 * kept, f"traced peak {peak / kept:.2f}x the tables"


@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "overlap"])
def test_document_round_trip(case, overlap):
    plans = build(case, 3)
    plans[0].step_plan.kernel_tables()  # one rank carries a run table
    doc = json.loads(json.dumps(rank_states_to_dict(plans, overlap=overlap)))
    loaded = [RankPlan.from_dict(rank_doc) for rank_doc in doc["ranks"]]
    for plan, back in zip(plans, loaded):
        assert back.rank == plan.rank
        for name in ("owned_global", "inlet_nodes", "outlet_nodes"):
            got, want = getattr(back, name), getattr(plan, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for name in ("send_flat", "recv_flat", "recv_global"):
            got, want = getattr(back, name), getattr(plan, name)
            assert list(got) == list(want)
            assert all(np.array_equal(got[k], want[k]) for k in want)
        sp, sb = plan.step_plan, back.step_plan
        assert (sb.q, sb.num_local) == (sp.q, sp.num_local)
        assert np.array_equal(sb.update_ids, sp.update_ids)
        assert sb.flat_src.dtype == sp.flat_src.dtype
        assert np.array_equal(sb.flat_src, sp.flat_src)
        assert (sb.run_table is None) == (sp.run_table is None)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(loaded[0].step_plan.run_table, plans[0].step_plan.run_table)
    )
    assert check_rank_states(loaded, overlap=overlap) == []


def test_fractional_table_survives_the_codec_as_k402(case, tmp_path):
    doc = rank_states_to_dict(build(case, 2), overlap=True)
    table = doc["ranks"][1]["flat_src"]
    table[0] = [float(v) for v in table[0]]
    path = tmp_path / "float.stepplan.json"
    path.write_text(json.dumps(doc))
    violations = check_plan_file(path)
    assert "K402" in {v.rule for v in violations}
    assert any("integer" in v.message for v in violations)
