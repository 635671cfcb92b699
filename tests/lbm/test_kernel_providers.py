"""One kernel-provider contract.

Both solvers step every tier through the provider
:func:`repro.lbm.solver.make_kernels` returns and never ask which one
they hold, so each provider's methods must mean the same thing:
``collide(f, n)`` touches the column prefix ``[0, n)`` only,
``stream`` over ``tables(plan)`` is :meth:`StepPlan.apply`,
``collide_stream`` over the tables of a one-pass plan (one carrying a
tile table) is collide then apply, and ``outlet`` is
:meth:`PressureOutlet.apply`.  A programming model's provider still
issues one launch per collide and per stream, and none for the outlet.
"""

import dataclasses

import numpy as np
import pytest

from repro.geometry.cylinder import CylinderSpec, make_cylinder
from repro.lbm.boundary import PressureOutlet
from repro.lbm.solver import NumpyKernels, Solver, SolverConfig, make_kernels
from repro.models import create_model
from repro.models.base import LaunchedKernels
from repro.models.compiled import CompiledKernels, compiled_available

from .test_conformance import EXACT_TOL

#: provider -> (backend, model name, provider class, tolerance; None: bitwise)
PROVIDERS = {
    "numpy": ("numpy", None, NumpyKernels, None),
    "compiled-serial-exact": ("compiled-serial", None, CompiledKernels, EXACT_TOL),
    "launched-cuda": ("numpy", "cuda", LaunchedKernels, None),
}


def assert_same(got, want, tol):
    if tol is None:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, **tol)


@pytest.mark.parametrize("provider", PROVIDERS)
def test_provider_contract(provider):
    backend, model_name, cls, tol = PROVIDERS[provider]
    if backend != "numpy" and not compiled_available():
        pytest.skip("no host C compiler")
    config = SolverConfig(
        tau=0.8, inlet_velocity=(0.05, 0.0, 0.0), backend=backend,
        fastmath=False,
    )
    grid = make_cylinder(CylinderSpec(scale=0.5, periodic=False))
    # a NumPy solver's plan carries no compiled table yet
    solver = Solver(grid, dataclasses.replace(config, backend="numpy"))
    lattice, collision = solver.lattice, solver.collision
    plan, outlet = solver.step_plan, solver.outlet
    model = create_model(model_name) if model_name else None
    kern = make_kernels(config, lattice, collision, model)
    assert type(kern) is cls
    reference = NumpyKernels(lattice, collision)
    rng = np.random.default_rng(7)
    f0 = solver.f * (1.0 + 0.05 * rng.random(solver.f.shape))
    launches = model.launch_count if model else 0

    n = plan.num_local // 2 + 1
    f, want = f0.copy(), f0.copy()
    kern.collide(f, n)
    reference.collide(want, n)
    assert np.array_equal(f[:, n:], f0[:, n:])
    assert_same(f[:, :n], want[:, :n], tol)

    got, want = np.zeros_like(f0), np.zeros_like(f0)
    kern.stream(f0, got, *kern.tables(plan))
    plan.apply(f0, want)
    assert np.array_equal(got, want)

    assert outlet is not None and outlet.nodes.size
    got, want = f0.copy(), f0.copy()
    kern.outlet(got, outlet.nodes, outlet.rho0)
    PressureOutlet(outlet.nodes, outlet.rho0).apply(lattice, want, 0)
    assert_same(got, want, tol)

    if model is not None:
        assert model.launch_count - launches == 2

    # the one pass: the plan now carries its tile table, which a compiled
    # provider launches over in place of the run table
    plan.tile_tables()
    n = plan.num_local
    got, want = np.zeros_like(f0), np.zeros_like(f0)
    collided = f0.copy()
    kern.collide_stream(f0.copy(), got, n, *kern.tables(plan))
    reference.collide(collided, n)
    plan.apply(collided, want)
    assert_same(got, want, tol)
    if model is not None:
        assert model.launch_count - launches == 4
