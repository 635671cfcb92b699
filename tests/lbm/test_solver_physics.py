"""Physics validation of the single-domain solver.

The validation ladder's first rung: analytic Poiseuille profiles, mass
conservation, symmetry, and stability.
"""

import numpy as np
import pytest

from repro.core import ConfigError
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import (
    Solver,
    SolverConfig,
    poiseuille_pipe_max_velocity,
    poiseuille_pipe_profile,
    viscosity_from_tau,
)


@pytest.fixture(scope="module")
def poiseuille_solver():
    """A converged force-driven periodic cylinder run (shared: slow)."""
    grid = make_cylinder(CylinderSpec(scale=1.0))
    config = SolverConfig(
        tau=0.9, force=(1e-6, 0.0, 0.0), periodic=(True, False, False)
    )
    solver = Solver(grid, config)
    solver.step(2500)
    return solver


class TestPoiseuille:
    def test_centerline_velocity_near_analytic(self, poiseuille_solver):
        s = poiseuille_solver
        nu = viscosity_from_tau(0.9)
        predicted = poiseuille_pipe_max_velocity(1e-6, 8.0, nu)
        measured = s.velocity()[:, 0].max()
        # staircased bounce-back walls at radius 8: a few % systematic
        assert measured == pytest.approx(predicted, rel=0.10)

    def test_profile_is_parabolic(self, poiseuille_solver):
        """Fit u(r) = a - b r^2; the parabola must explain >99.5%."""
        s = poiseuille_solver
        coords = s.coords
        u = s.velocity()[:, 0]
        cy = (s.grid.shape[1] - 1) / 2.0
        cz = (s.grid.shape[2] - 1) / 2.0
        mid = coords[:, 0] == s.grid.shape[0] // 2
        r2 = (coords[mid, 1] - cy) ** 2 + (coords[mid, 2] - cz) ** 2
        ux = u[mid]
        A = np.stack([np.ones_like(r2), r2], axis=1)
        coef, res, *_ = np.linalg.lstsq(A, ux, rcond=None)
        ss_tot = ((ux - ux.mean()) ** 2).sum()
        assert 1.0 - res[0] / ss_tot > 0.99
        assert coef[1] < 0  # opening downward

    def test_axial_invariance(self, poiseuille_solver):
        """Fully developed flow: profile identical along the axis."""
        s = poiseuille_solver
        coords = s.coords
        u = s.velocity()[:, 0]
        planes = [u[coords[:, 0] == x] for x in (5, 40, 80)]
        assert np.allclose(planes[0], planes[1], rtol=1e-8)
        assert np.allclose(planes[1], planes[2], rtol=1e-8)

    def test_no_cross_flow(self, poiseuille_solver):
        u = poiseuille_solver.velocity()
        assert np.abs(u[:, 1]).max() < 1e-6
        assert np.abs(u[:, 2]).max() < 1e-6

    def test_analytic_profile_helper(self):
        prof = poiseuille_pipe_profile(
            np.array([0.0, 4.0, 8.0, 9.0]), 1e-6, 8.0, 0.1
        )
        assert prof[0] == pytest.approx(1e-6 * 64 / 0.4)
        assert prof[1] == pytest.approx(prof[0] * 0.75)
        assert prof[2] == 0.0
        assert prof[3] == 0.0  # outside the pipe


class TestConservation:
    def test_mass_conserved_to_roundoff(self):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        solver = Solver(
            grid,
            SolverConfig(
                tau=0.7, force=(2e-6, 0, 0), periodic=(True, False, False)
            ),
        )
        m0 = solver.mass()
        solver.step(300)
        assert solver.mass() == pytest.approx(m0, rel=1e-12)

    def test_no_flow_stays_at_rest(self):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        solver = Solver(
            grid, SolverConfig(tau=0.8, periodic=(True, False, False))
        )
        solver.step(50)
        assert solver.max_velocity() < 1e-14
        assert np.allclose(solver.density(), 1.0)

    def test_momentum_injection_and_saturation(self):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        F = 1e-6
        solver = Solver(
            grid,
            SolverConfig(
                tau=0.8, force=(F, 0, 0), periodic=(True, False, False)
            ),
        )
        from repro.lbm import total_momentum

        solver.step(1)
        mom1 = total_momentum(solver.lattice, solver.f)[0]
        # one step injects F per node; bounce-back removes part of it at
        # the wall but most survives
        assert 0.4 * F * solver.num_nodes < mom1 <= F * solver.num_nodes
        solver.step(49)
        mom50 = total_momentum(solver.lattice, solver.f)[0]
        # driving continues: momentum keeps growing toward steady state
        assert mom50 > 5 * mom1


class TestSolverAPI:
    def test_velocity_grid_zero_at_solid(self):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        solver = Solver(
            grid,
            SolverConfig(
                tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
            ),
        )
        solver.step(10)
        ug = solver.velocity_grid()
        assert ug.shape == grid.shape + (3,)
        assert (ug[grid.flags == 0] == 0).all()

    def test_density_grid_shape(self):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        solver = Solver(
            grid, SolverConfig(tau=0.8, periodic=(True, False, False))
        )
        dg = solver.density_grid()
        assert dg.shape == grid.shape

    def test_negative_steps_rejected(self):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        solver = Solver(
            grid, SolverConfig(tau=0.8, periodic=(True, False, False))
        )
        with pytest.raises(ConfigError):
            solver.step(-1)

    def test_fluid_updates_counter(self):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        solver = Solver(
            grid, SolverConfig(tau=0.8, periodic=(True, False, False))
        )
        solver.step(3)
        assert solver.fluid_updates == 3 * solver.num_nodes

    def test_inlet_requires_velocity(self):
        grid = make_cylinder(CylinderSpec(scale=0.5, periodic=False))
        with pytest.raises(ConfigError, match="inlet_velocity"):
            Solver(grid, SolverConfig(tau=0.8))

    def test_capped_cylinder_develops_through_flow(self):
        grid = make_cylinder(CylinderSpec(scale=0.5, periodic=False))
        solver = Solver(
            grid,
            SolverConfig(tau=0.8, inlet_velocity=(0.02, 0.0, 0.0)),
        )
        solver.step(200)
        u = solver.velocity()
        # mean axial velocity is positive throughout (flow crosses domain)
        coords = solver.coords
        for x in (5, 20, 35):
            assert u[coords[:, 0] == x, 0].mean() > 0.002

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(tau=0.5)
        with pytest.raises(ConfigError):
            SolverConfig(rho0=-1.0)
        with pytest.raises(ConfigError):
            SolverConfig(force=(1.0, 2.0))
        # a bound written as a comparison lets NaN through; each field
        # must also be finite
        nan, inf = float("nan"), float("inf")
        for field in ("tau", "rho0", "stall_timeout_s"):
            for bad in (nan, inf):
                with pytest.raises(ConfigError, match=f"{field} must be finite"):
                    SolverConfig(**{field: bad})
        for bad in ((nan, 0.0, 0.0), (0.0, 0.0, -inf)):
            with pytest.raises(ConfigError, match="force must be finite"):
                SolverConfig(force=bad)
