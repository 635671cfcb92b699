"""Plan-IR verification (K40x), including intentionally-broken fixtures.

The dogfood run over the live tree came back clean, so every rule is
proven here the other way round: take the real rank plans the
distributed solver instantiates, break each invariant deliberately (arrays
mutate in place; ``dataclasses.replace`` rebinds a field of the frozen
plan), and assert the matching K40x rule fires — plus the solver
pre-flight, the serialized ``*.stepplan.json`` path, and engine
discovery/selection.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.errors import PlanCheckError
from repro.core.lattice import D3Q19
from repro.core.planmeta import KERNEL_RUN_CAP, kernel_tables
from repro.decomp import axis_decompose, decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.geometry.registry import build_geometry
from repro.lbm import DistributedSolver, SolverConfig, build_rank_plans
from repro.lbm.distributed import BARRIER_SCHEDULE, OVERLAP_SCHEDULE
from repro.lbm.stream import StepPlan
from repro.lint import (
    LintEngine,
    PLAN_RULES,
    check_plan_file,
    check_rank_states,
    rank_states_to_dict,
    verify_plan,
    verify_rank_plans,
)
from repro.lint.plancheck import (
    check_exchange,
    check_phase_order,
    check_plan_table,
)
from repro.workloads import workload_table

CYL_CONFIG = dict(
    tau=0.8, force=(1e-6, 0.0, 0.0), periodic=(True, False, False)
)


@pytest.fixture(scope="module")
def grid():
    return make_cylinder(CylinderSpec(scale=0.5))


def make_solver(grid, num_ranks=3, validate_plan=True, **kw):
    config = SolverConfig(**CYL_CONFIG, **kw)
    return DistributedSolver(
        axis_decompose(grid, num_ranks), config, validate_plan=validate_plan
    )


def make_plans(grid, num_ranks=3, **kw):
    """The rank plans of a solver built without the plan pre-flight."""
    solver = make_solver(grid, num_ranks, validate_plan=False, **kw)
    return [st.plan for st in solver.ranks]


def _rules(issues):
    return sorted({i.rule for i in issues})


class TestPlanTable:
    """K401 / K402 on hand-built gather tables."""

    def _table(self):
        # q=2, num_local=4: identity gather
        update_ids = np.arange(4, dtype=np.int64)
        flat_src = np.arange(8, dtype=np.int64).reshape(2, 4)
        return update_ids, flat_src

    def test_clean_table_passes(self):
        ids, src = self._table()
        assert check_plan_table(2, 4, ids, src) == []

    def test_duplicate_destination_is_k401(self):
        ids, src = self._table()
        ids[1] = ids[0]
        issues = check_plan_table(2, 4, ids, src)
        assert _rules(issues) == ["K401"]
        assert "written twice" in issues[0].message

    def test_out_of_range_source_is_k402(self):
        ids, src = self._table()
        src[0, 0] = 8  # == q * num_local, one past the end
        issues = check_plan_table(2, 4, ids, src)
        assert _rules(issues) == ["K402"]
        assert "clip" in issues[0].message

    def test_fractional_dtype_is_k402(self):
        ids, src = self._table()
        issues = check_plan_table(2, 4, ids, src.astype(np.float64))
        assert _rules(issues) == ["K402"]
        assert "integer" in issues[0].message

    def test_shape_mismatch_is_k402(self):
        ids, src = self._table()
        issues = check_plan_table(2, 4, ids, src[:, :3])
        assert _rules(issues) == ["K402"]

    def test_int32_gather_table_is_k406(self):
        # fits in int32 and gathers correctly in NumPy — but handed to a
        # compiled kernel the raw-pointer strides would read garbage
        ids, src = self._table()
        issues = check_plan_table(2, 4, ids, src.astype(np.int32))
        assert _rules(issues) == ["K406"]
        assert "int64" in issues[0].message

    def test_noncontiguous_gather_table_is_k406(self):
        ids, src = self._table()
        transposed_view = np.asfortranarray(src)
        issues = check_plan_table(2, 4, ids, transposed_view)
        assert _rules(issues) == ["K406"]
        assert "C-contiguous" in issues[0].message

    def test_int32_update_ids_is_k406(self):
        ids, src = self._table()
        issues = check_plan_table(2, 4, ids.astype(np.int32), src)
        assert _rules(issues) == ["K406"]
        assert "update_ids" in issues[0].message

    def test_verify_plan_raises_with_rule_id(self):
        ids, src = self._table()
        ids[2] = ids[3]
        with pytest.raises(PlanCheckError, match=r"\[K401\]"):
            verify_plan(StepPlan(2, 4, ids, src))


class TestRunTable:
    """K406 / K407 on the ``(heads, lens)`` table the compiled stream
    kernel launches over: take the table a real rank plan builds, break
    it by hand, and the offending run is named."""

    @pytest.fixture
    def solver(self, grid):
        solver = make_solver(grid, num_ranks=2)
        for st in solver.ranks:
            st.plan.step_plan.kernel_tables()
        return solver

    def _break(self, solver, mutate):
        plan = solver.ranks[1].plan.step_plan
        heads, lens = kernel_tables(
            plan.flat_src, plan.update_ids, plan.num_local
        )
        plan.run_table = mutate(heads, lens) or (heads, lens)
        return check_rank_states(solver.ranks)

    def test_no_table_means_nothing_to_check(self, grid):
        solver = make_solver(grid, num_ranks=2)
        assert all(
            st.plan.step_plan.run_table is None for st in solver.ranks
        )
        assert check_rank_states(solver.ranks) == []

    def test_clean_tables_pass(self, solver):
        assert check_rank_states(solver.ranks) == []

    def test_shifted_source_names_the_run(self, solver):
        def mutate(heads, lens):
            heads[7, 1] += 1

        issues = self._break(solver, mutate)
        assert _rules(issues) == ["K407"]
        assert "rank 1: run 7 " in issues[0].message

    def test_gap_names_the_run_after_it(self, solver):
        issues = self._break(
            solver, lambda h, l: (np.delete(h, 5, axis=0), np.delete(l, 5))
        )
        assert _rules(issues) == ["K407"]
        assert "run 5 " in issues[0].message and "gap" in issues[0].message

    def test_dropped_last_run_is_a_gap(self, solver):
        issues = self._break(solver, lambda h, l: (h[:-1].copy(), l[:-1].copy()))
        assert _rules(issues) == ["K407"]
        assert "gap follows the last run" in issues[0].message

    def test_overlap_names_the_run_after_it(self, solver):
        num_local = solver.ranks[1].plan.step_plan.num_local
        found = []

        def mutate(heads, lens):
            # a run with its successor in the same population row
            pop = heads[:, 0] // num_local
            r = int(np.flatnonzero(pop[:-1] == pop[1:])[0])
            found.append(r)
            lens[r] += 1

        issues = self._break(solver, mutate)
        assert _rules(issues) == ["K407"]
        assert f"run {found[0] + 1} " in issues[0].message

    def test_overlap_past_a_row_end_names_the_run(self, solver):
        def mutate(heads, lens):
            lens[-1] += 1

        issues = self._break(solver, mutate)
        assert _rules(issues) == ["K407"]
        assert "end of" in issues[0].message

    def test_merged_runs_copy_across_a_break(self, solver):
        # two runs fused into one: the right length, the wrong elements
        def mutate(heads, lens):
            merged = lens.copy()
            merged[9] += merged[10]
            return np.delete(heads, 10, axis=0), np.delete(merged, 10)

        issues = self._break(solver, mutate)
        assert _rules(issues) == ["K407"]
        assert "run 9 " in issues[0].message
        assert "consecutive" in issues[0].message

    def test_run_past_the_end_of_f(self, solver):
        plan = solver.ranks[1].plan.step_plan

        def mutate(heads, lens):
            heads[-1, 0] = plan.q * plan.num_local - 1
            lens[-1] = max(int(lens[-1]), 2)

        issues = self._break(solver, mutate)
        assert _rules(issues) == ["K407"]
        assert f"run {plan.run_table[1].size - 1} " in issues[0].message
        assert "end of f" in issues[0].message

    def test_run_longer_than_the_cap(self, solver):
        def mutate(heads, lens):
            lens[2] = KERNEL_RUN_CAP + 1

        issues = self._break(solver, mutate)
        assert _rules(issues) == ["K407"]
        assert "run 2 " in issues[0].message
        assert str(KERNEL_RUN_CAP) in issues[0].message

    def test_abi_violations_are_k406(self, solver):
        issues = self._break(solver, lambda h, l: (h, l.astype(np.int32)))
        assert _rules(issues) == ["K406"]
        assert "lens" in issues[0].message
        issues = self._break(
            solver, lambda h, l: (np.ascontiguousarray(h.T), l)
        )
        assert _rules(issues) == ["K406"]
        assert "(n_runs, 2)" in issues[0].message
        issues = self._break(solver, lambda h, l: (np.asfortranarray(h), l))
        assert _rules(issues) == ["K406"]
        assert "C-contiguous" in issues[0].message

    def test_preflights_raise(self, solver):
        plan = solver.ranks[0].plan.step_plan
        plan.run_table[0][0, 1] += 1
        with pytest.raises(PlanCheckError, match=r"\[K407\] rank 0: run 0 "):
            verify_rank_plans(solver.ranks)
        with pytest.raises(PlanCheckError, match=r"\[K407\]"):
            verify_plan(plan)

    def test_document_round_trip_and_select(self, solver, tmp_path):
        doc = rank_states_to_dict(solver.ranks)
        assert all("run_table" in rank for rank in doc["ranks"])
        p = tmp_path / "runs.stepplan.json"
        p.write_text(json.dumps(doc))
        assert check_plan_file(p) == []
        doc["ranks"][0]["run_table"]["heads"][11][0] += 2
        p.write_text(json.dumps(doc))
        only = LintEngine().select(["K407"]).run([tmp_path])
        assert [v.rule for v in only.violations] == ["K407"]
        assert "rank 0: run 11 " in only.violations[0].message
        assert LintEngine().select(["K406"]).run([tmp_path]).violations == []


class TestRealRankStates:
    """Break the solver's own wiring, one invariant at a time."""

    def test_clean_overlap_states_pass(self, grid):
        solver = make_solver(grid, overlap=True)
        assert check_rank_states(solver.ranks, overlap=True) == []

    def test_clean_barrier_states_pass(self, grid):
        solver = make_solver(grid)
        assert check_rank_states(solver.ranks, overlap=False) == []

    def test_duplicate_update_id_is_k401(self, grid):
        plans = make_plans(grid, overlap=True)
        ids = plans[0].step_plan.update_ids
        ids[1] = ids[0]
        issues = check_rank_states(plans, overlap=True)
        assert "K401" in _rules(issues)

    def test_redirected_payload_slot_is_k404(self, grid):
        # the seeded bug of the sanitizer acceptance test, caught
        # statically: one frontier destination is fed twice, another
        # never finalized
        plans = make_plans(grid, overlap=True)
        plan = next(p for p in plans if p.recv_flat)
        written = plan.recv_flat[sorted(plan.recv_flat)[0]]
        written[-1] = written[-2]
        issues = check_rank_states(plans, overlap=True)
        assert _rules(issues) == ["K404"]
        assert any("fed by more than one" in i.message for i in issues)
        assert any("have no payload slot" in i.message for i in issues)

    def test_missing_pack_table_is_k404(self, grid):
        plans = make_plans(grid, overlap=True)
        plan = next(p for p in plans if p.recv_flat)
        peer = plans[sorted(plan.recv_flat)[0]]
        packs = {dst: t for dst, t in peer.send_flat.items() if dst != plan.rank}
        plans[peer.rank] = dataclasses.replace(peer, send_flat=packs)
        issues = check_exchange(plans, overlap=True)
        assert "K404" in _rules(issues)
        assert any("packs nothing" in i.message for i in issues)

    def test_pack_of_ghost_slot_is_k404(self, grid):
        plans = make_plans(grid, overlap=True)
        plan = next(p for p in plans if p.send_flat)
        peer = sorted(plan.send_flat)[0]
        # redirect the first pack source to one of the sender's own
        # ghost slots: a stale value, never owned post-collision data
        plan.send_flat[peer][0] = plan.num_owned
        issues = check_rank_states(plans, overlap=True)
        assert _rules(issues) == ["K404"]
        assert any("not owned slots of the sender" in i.message for i in issues)

    def test_frontier_before_exchange_complete_is_k405(self):
        # the walk interprets the declaration the solver's step loop
        # runs: the shipped orders are clean, and moving the frontier
        # scatter ahead of the exchange completion reads payloads no
        # phase has staged yet
        assert check_phase_order(OVERLAP_SCHEDULE) == []
        assert check_phase_order(BARRIER_SCHEDULE) == []
        order = list(OVERLAP_SCHEDULE)
        bodies = [p.body for p in order]
        frontier = order.pop(bodies.index("_phase_stream_frontier"))
        order.insert(bodies.index("_phase_exchange_complete"), frontier)
        issues = check_phase_order(order)
        assert _rules(issues) == ["K405"]
        assert [i.kind for i in issues] == ["phase-hazard"]
        assert "recv_bufs" in issues[0].message

    def test_scatter_before_interior_stream_is_k405(self):
        # same walk, other hazard: a full-plan gather scheduled after the
        # swapping scatter streams into the retired buffer
        order = list(OVERLAP_SCHEDULE)
        bodies = [p.body for p in order]
        order.append(order.pop(bodies.index("_phase_stream_interior")))
        issues = check_phase_order(order)
        assert _rules(issues) == ["K405"]
        assert "after the double-buffer swap" in issues[0].message

    def test_uncovered_barrier_ghost_is_k404(self, grid):
        plans = make_plans(grid)
        plan = next(p for p in plans if p.recv_flat)
        plan.recv_flat.pop(sorted(plan.recv_flat)[0])
        issues = check_rank_states(plans, overlap=False)
        assert _rules(issues) == ["K404"]
        assert any("refilled by no receive" in i.message for i in issues)
        assert any("posts no receive" in i.message for i in issues)

    def test_corrupt_one_rank_table_still_reports_k401_k402(self, grid):
        # one rank has no ghost columns, so there is no exchange to
        # check; the table checks still see every corruption
        (plan,) = make_plans(grid, num_ranks=1)
        assert plan.step_plan.num_local == plan.num_owned
        plan.step_plan.update_ids[1] = plan.step_plan.update_ids[0]
        plan.step_plan.flat_src[3, 5] = plan.step_plan.flat_src.size
        plan.step_plan.flat_src[4, 6] = -1
        issues = check_rank_states([plan], overlap=False)
        assert _rules(issues) == ["K401", "K402"]
        assert any("gather source(s)" in i.message for i in issues)

    def test_verify_rank_plans_raises_with_context(self, grid):
        plans = make_plans(grid, overlap=True)
        ids = plans[0].step_plan.update_ids
        ids[1] = ids[0]
        with pytest.raises(PlanCheckError, match=r"(?s)broken: .*\[K401\]"):
            verify_rank_plans(plans, overlap=True, context="broken")


def _repack(plans, move):
    """Rebind slot 0 of the pack table rank 0 sends rank 1 to
    ``move(pop, node, sender)`` -> ``(pop, node)``."""
    sender = plans[0]
    n = sender.step_plan.num_local
    table = sender.send_flat[1].copy()
    pop, node = move(*divmod(int(table[0]), n), sender)
    table[0] = pop * n + node
    plans[0] = dataclasses.replace(
        sender, send_flat={**sender.send_flat, 1: table}
    )


def _drop_read_slot(plans):
    """Drop, on both sides, a barrier receive slot rank 1's links read."""
    sender, receiver = plans
    written = receiver.recv_flat[0]
    i = int(np.flatnonzero(np.isin(written, receiver.step_plan.flat_src))[0])
    plans[1] = dataclasses.replace(
        receiver, recv_flat={0: np.delete(written, i)}
    )
    plans[0] = dataclasses.replace(
        sender, send_flat={1: np.delete(sender.send_flat[1], i)}
    )


def _refill_owned_slot(plans):
    """Point rank 1's first barrier receive slot at its own owned node 0."""
    receiver = plans[1]
    written = receiver.recv_flat[0].copy()
    written[0] -= written[0] % receiver.step_plan.num_local
    plans[1] = dataclasses.replace(receiver, recv_flat={0: written})


#: Corruptions of a 2-rank exchange that no rule reported before K404
#: checked every slot by (population, global node) under both schedules.
PROBE_CORRUPTIONS = {
    "barrier-pack-other-owned-node": (False, lambda plans: _repack(
        plans, lambda pop, node, st: (pop, (node + 1) % st.num_owned)
    )),
    "barrier-pack-sender-ghost": (False, lambda plans: _repack(
        plans, lambda pop, node, st: (pop, st.num_owned)
    )),
    "barrier-pack-other-population": (False, lambda plans: _repack(
        plans, lambda pop, node, st: ((pop + 1) % st.step_plan.q, node)
    )),
    "barrier-dropped-read-slot": (False, _drop_read_slot),
    "barrier-receive-into-owned-slot": (False, _refill_owned_slot),
    "overlap-pack-other-owned-node": (True, lambda plans: _repack(
        plans, lambda pop, node, st: (pop, (node + 1) % st.num_owned)
    )),
}


@pytest.mark.parametrize(
    "overlap, corrupt",
    list(PROBE_CORRUPTIONS.values()),
    ids=list(PROBE_CORRUPTIONS),
)
def test_probe_corruption_is_k404(grid, overlap, corrupt):
    lattice = SolverConfig(**CYL_CONFIG).make_lattice()
    plans = build_rank_plans(
        grid, axis_decompose(grid, 2), lattice, CYL_CONFIG["periodic"], overlap
    )
    assert check_rank_states(plans, overlap=overlap) == []
    corrupt(plans)
    assert _rules(check_rank_states(plans, overlap=overlap)) == ["K404"]


class TestSolverPreflight:
    """The pre-flight runs at construction, next to the S300 check."""

    def test_preflight_runs_by_default(self, grid, monkeypatch):
        import repro.lint.plancheck as plancheck

        calls = []
        orig = plancheck.verify_rank_plans
        monkeypatch.setattr(
            plancheck,
            "verify_rank_plans",
            lambda *a, **kw: calls.append(kw) or orig(*a, **kw),
        )
        make_solver(grid, overlap=True)
        assert len(calls) == 1 and calls[0]["overlap"] is True

    def test_preflight_opt_out(self, grid, monkeypatch):
        import repro.lint.plancheck as plancheck

        calls = []
        monkeypatch.setattr(
            plancheck, "verify_rank_plans", lambda *a, **kw: calls.append(1)
        )
        make_solver(grid, validate_plan=False)
        assert calls == []

    def test_all_decompositions_preflight_clean(self, grid):
        # acceptance criterion: no false positives on working configs
        for num_ranks in (1, 2, 4):
            for overlap in (False, True):
                solver = make_solver(grid, num_ranks, overlap=overlap)
                assert check_rank_states(
                    solver.ranks, overlap=overlap
                ) == []
        # and the periodic proxy grid under its own decomposition
        proxy = workload_table()["proxy"]
        pgrid = build_geometry(proxy.geometry, resolution=0.5, periodic=True)
        for num_ranks in (1, 2, 4):
            partition = decompose(pgrid, num_ranks, proxy.scheme)
            for overlap in (False, True):
                plans = build_rank_plans(
                    pgrid, partition, D3Q19, (True, False, False), overlap
                )
                assert check_rank_states(plans, overlap=overlap) == []


class TestPlanDocuments:
    """The serialized ``*.stepplan.json`` path and engine discovery."""

    def _doc(self, grid, overlap=True, num_ranks=2):
        solver = make_solver(grid, num_ranks, overlap=overlap)
        return rank_states_to_dict(solver.ranks, overlap=overlap)

    def test_round_trip_is_clean(self, grid, tmp_path):
        p = tmp_path / "cyl.stepplan.json"
        p.write_text(json.dumps(self._doc(grid)))
        assert check_plan_file(p) == []

    def test_broken_document_reports_rule(self, grid, tmp_path):
        doc = self._doc(grid)
        ids = doc["ranks"][0]["update_ids"]
        ids[1] = ids[0]
        p = tmp_path / "dup.stepplan.json"
        p.write_text(json.dumps(doc))
        violations = check_plan_file(p)
        # the duplicated id also perturbs the cross-link enumeration, so
        # the double-write finding leads a cascade rather than standing
        # alone
        assert violations[0].rule == "K401"
        assert violations[0].path == str(p)

    def test_bare_single_plan_document(self, tmp_path):
        doc = {
            "q": 2,
            "num_local": 4,
            "update_ids": [0, 1, 2, 2],
            "flat_src": np.arange(8).reshape(2, 4).tolist(),
        }
        p = tmp_path / "single.stepplan.json"
        p.write_text(json.dumps(doc))
        assert [v.rule for v in check_plan_file(p)] == ["K401"]

    def test_malformed_document_is_k400(self, tmp_path):
        p = tmp_path / "bad.stepplan.json"
        p.write_text("{not json")
        violations = check_plan_file(p)
        assert [v.rule for v in violations] == ["K400"]
        assert "malformed" in violations[0].message

    def test_duplicate_rank_id_is_k400(self, grid, tmp_path):
        doc = self._doc(grid)
        doc["ranks"][1]["rank"] = 0
        p = tmp_path / "dup-rank.stepplan.json"
        p.write_text(json.dumps(doc))
        violations = check_plan_file(p)
        assert [v.rule for v in violations] == ["K400"]
        assert "each exactly once" in violations[0].message

    def test_inconsistent_node_ids_are_a_finding(self, grid, tmp_path):
        doc = self._doc(grid)
        del doc["ranks"][0]["ghost_global"][-1]
        p = tmp_path / "short-ghosts.stepplan.json"
        p.write_text(json.dumps(doc))
        violations = check_plan_file(p)
        assert [v.rule for v in violations] == ["K404"]
        assert "do not add up to num_local" in violations[0].message

    def test_engine_discovers_plan_files(self, grid, tmp_path):
        doc = self._doc(grid)
        doc["ranks"][0]["flat_src"][0][0] = 10**9
        (tmp_path / "broken.stepplan.json").write_text(json.dumps(doc))
        report = LintEngine().run([tmp_path])
        assert [v.rule for v in report.violations] == ["K402"]

    def test_engine_family_select(self, tmp_path):
        doc = {
            "q": 2,
            "num_local": 4,
            "update_ids": [0, 1, 2, 2],
            "flat_src": np.arange(8).reshape(2, 4).tolist(),
        }
        doc["flat_src"][0][0] = 10**9
        (tmp_path / "broken.stepplan.json").write_text(json.dumps(doc))
        all_k = LintEngine().select(["K"]).run([tmp_path])
        assert sorted(v.rule for v in all_k.violations) == ["K401", "K402"]
        only = LintEngine().select(["K402"]).run([tmp_path])
        assert [v.rule for v in only.violations] == ["K402"]
        none = LintEngine().select(["S"]).run([tmp_path])
        assert none.violations == []

    def test_every_plan_rule_has_an_id(self):
        assert sorted(PLAN_RULES.values()) == [
            "K401",
            "K402",
            "K404",
            "K405",
            "K406",
            "K407",
        ]
