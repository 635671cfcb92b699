"""Instantiating rank plans: what a ``RankState`` holds, and what a
constructor that raises leaves behind (nothing)."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.errors import ModelError, PlanCheckError, RuntimeSimError
from repro.decomp import bisection_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.harvey import HarveyApp, HarveyConfig
from repro.lbm import DistributedSolver, SolverConfig, build_rank_plans
from repro.models import create_model
from repro.models.compiled import compiled_available
from repro.runtime import fork_available
from repro.runtime.shmem import leaked_segments

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs the POSIX fork start method"
)
compiled_only = pytest.mark.skipif(
    not compiled_available(), reason="no host C compiler available"
)

#: ROADMAP item 5: resident bytes per fluid node on a compiled backend
MAX_COMPILED_BYTES_PER_NODE = 350


@pytest.fixture(scope="module")
def partition():
    grid = make_cylinder(CylinderSpec(scale=1.0, periodic=False))
    return bisection_decompose(grid, 2)


def config(**kw):
    return SolverConfig(
        tau=0.8, inlet_velocity=(0.05, 0.0, 0.0), overlap=True, **kw
    )


def bytes_reachable(root, dtype=None):
    """Bytes of every distinct array buffer reachable from ``root``
    through attributes, slots and containers (``dtype`` buffers only,
    when given)."""
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)
            elif dtype is None or obj.dtype == dtype:
                total += obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(
                getattr(obj, name, None)
                for name in getattr(type(obj), "__slots__", ())
            )
    return total


def test_rank_state_holds_one_copy_of_the_link_table(partition):
    # the executed gather table, its id columns and the exchange pair:
    # no per-q link lists, no interior/frontier sub-plans beside it
    solver = DistributedSolver(partition, config())
    for st in solver.ranks:
        plan = st.plan.step_plan
        run_table = sum(t.nbytes for t in plan.run_table or ())
        assert (
            bytes_reachable(st, np.int64)
            <= 1.25 * plan.flat_src.nbytes + run_table
        )


@compiled_only
def test_compiled_rank_state_holds_the_run_table_alone(partition):
    # the compiled stream reads the run table only: once verified, the
    # dense (q, n_upd) gather table is gone and flat_src re-expands
    solver = DistributedSolver(partition, config(backend="compiled-serial"))
    for st in solver.ranks:
        plan, step_plan = st.plan, st.plan.step_plan
        tables = [
            *step_plan.run_table,
            step_plan.update_ids,
            plan.owned_global,
            plan.inlet_nodes,
            plan.outlet_nodes,
            *plan.send_flat.values(),
            *plan.recv_flat.values(),
            *plan.recv_global.values(),
        ]
        lattice = st.kernels.lattice  # its constant c / opposite tables
        constants = lattice.c.nbytes + lattice.opposite.nbytes
        held = bytes_reachable(st, np.int64)
        assert held <= sum(t.nbytes for t in tables) + constants
        assert held < step_plan.flat_src.nbytes  # no q x n table
        # the re-expansion is the table the plan was built with
        want = build_rank_plans(
            partition.grid, partition, solver.lattice, solver.config.periodic
        )[plan.rank].step_plan.flat_src
        got = step_plan.flat_src
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, want)


@compiled_only
def test_compiled_app_holds_the_storage_price():
    # two copies of f, the run table and the id columns: the compiled
    # app's resident arrays stay within ROADMAP item 5's bound (the
    # paper's simulator prices a site at two f copies plus an index list)
    app = HarveyApp(
        HarveyConfig(workload="cylinder", resolution=2.0, num_ranks=1,
                     backend="compiled")
    )
    try:
        app.solver.step(1)
        per_node = bytes_reachable(app) / app.solver.num_nodes
        assert per_node <= MAX_COMPILED_BYTES_PER_NODE
    finally:
        app.close()


@pytest.mark.parametrize(
    "kw, model_name",
    [
        pytest.param({}, None, id="lockstep-numpy"),
        pytest.param({"executor": "process"}, None, id="process", marks=needs_fork),
        pytest.param({}, "cuda", id="models-cuda"),
        pytest.param({}, "kokkos-openacc", id="models-kokkos-openacc"),
    ],
)
def test_initial_state_is_the_rest_equilibrium_bit_for_bit(
    partition, kw, model_name
):
    models = None
    if model_name is not None:
        models = [create_model(model_name) for _ in range(partition.num_ranks)]
    solver = DistributedSolver(partition, config(**kw), models=models)
    try:
        lattice, rho0 = solver.lattice, solver.config.rho0
        for st in solver.ranks:
            n = st.plan.step_plan.num_local
            want = lattice.equilibrium(np.full(n, rho0), np.zeros((n, 3)))
            assert st.f.shape == want.shape and st.f.dtype == want.dtype
            assert np.array_equal(st.f.view(np.int64), want.view(np.int64))
        if solver._shm is not None:
            # the double buffer is still two segments per rank, same names
            labels = [
                label for label in solver._shm.labels
                if not label.startswith("plane.")
            ]
            assert labels == [
                "rank0.f", "rank0.f_tmp", "rank1.f", "rank1.f_tmp",
                "ring.0.1", "ring.1.0",
            ]
    finally:
        solver.close()


class Injected(Exception):
    pass


def _raise(error):
    def fail(*args, **kwargs):
        raise error

    return fail


@needs_fork
class TestFailedConstructionLeavesNothing:
    """``executor="process"``: whichever stage of the constructor raises,
    no ``/dev/shm`` segment and no child process outlives it — at once,
    not at interpreter exit."""

    @pytest.fixture(autouse=True)
    def nothing_left(self, hard_time_bound):
        before = leaked_segments(os.getpid())
        yield
        assert leaked_segments(os.getpid()) == before
        assert multiprocessing.active_children() == []

    def test_failing_plan_preflight(self, partition, monkeypatch):
        monkeypatch.setattr(
            "repro.lint.plancheck.verify_rank_plans",
            _raise(PlanCheckError("injected")),
        )
        with pytest.raises(PlanCheckError, match="injected"):
            DistributedSolver(partition, config(executor="process"))

    def test_failing_schedule_preflight(self, partition, monkeypatch):
        monkeypatch.setattr(
            "repro.lint.commcheck.verify_schedule", _raise(Injected())
        )
        with pytest.raises(Injected):
            DistributedSolver(partition, config(executor="process"))

    def test_failing_kernel_provider(self, partition, monkeypatch):
        monkeypatch.setattr(
            "repro.models.compiled.CompiledKernels",
            _raise(ModelError("no compiler (injected)")),
        )
        with pytest.raises(ModelError, match="injected"):
            DistributedSolver(
                partition,
                config(executor="process", backend="compiled-serial"),
            )

    def test_failure_after_the_first_allocation(self, partition, monkeypatch):
        # the double buffers are already shared segments when the ring
        # transport is wired: the constructor must release them itself
        monkeypatch.setattr(
            "repro.lbm.distributed.RingTransport",
            _raise(RuntimeSimError("ring wiring failed (injected)")),
        )
        with pytest.raises(RuntimeSimError, match="injected"):
            DistributedSolver(partition, config(executor="process"))
