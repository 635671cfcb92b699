"""The single-domain ``Solver`` is a one-rank ``DistributedSolver`` and
its only subclass (a programming model is a constructor argument, not a
solver class), and what the ladder's ``lbm.solver`` rung reads of it
holds on every backend it times: ``f``, ``num_nodes``, ``all_ids``,
``step_plan`` (whose tables equal a freshly built one-rank plan's,
although a compiled solver has released its dense gather table) and
``step``."""

import numpy as np
import pytest

from repro.decomp import axis_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import DistributedSolver, Solver, SolverConfig
from repro.lbm.rankplan import build_rank_plans
import repro.models  # noqa: F401  (imported for test_one_solver_class)
from repro.models.compiled import compiled_available

BACKENDS = [
    "numpy",
    pytest.param(
        "compiled-serial",
        marks=pytest.mark.skipif(
            not compiled_available(), reason="no host C compiler"
        ),
    ),
]


def test_one_solver_class():
    assert DistributedSolver.__subclasses__() == [Solver]


@pytest.mark.parametrize("backend", BACKENDS)
def test_ladder_rung_contract(backend):
    grid = make_cylinder(CylinderSpec(scale=0.5, periodic=False))
    config = SolverConfig(
        tau=0.8, inlet_velocity=(0.05, 0.0, 0.0), backend=backend
    )
    solver = Solver(grid, config)
    n = solver.num_nodes
    assert n == grid.num_fluid
    assert solver.f.shape == (solver.lattice.q, n)
    assert np.array_equal(solver.all_ids, np.arange(n))

    fresh = build_rank_plans(
        grid, axis_decompose(grid, 1), solver.lattice, config.periodic
    )[0].step_plan
    plan = solver.step_plan
    assert np.array_equal(plan.flat_src, fresh.flat_src)
    for got, want in zip(plan.kernel_tables(), fresh.kernel_tables()):
        assert np.array_equal(got, want)
    got, want = np.empty_like(solver.f), np.empty_like(solver.f)
    plan.apply(solver.f, got)
    fresh.apply(solver.f, want)
    assert np.array_equal(got, want)

    solver.step(1)
    assert solver.time == 1
