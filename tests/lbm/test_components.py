"""LBM component units: BGK wrapper, streaming plans, boundaries."""

import numpy as np
import pytest

from repro.core import ConfigError, D3Q19, GeometryError
from repro.core.lattice import D3Q27, get_lattice
from repro.geometry import CylinderSpec, VoxelGrid, make_cylinder
from repro.geometry.flags import FLUID, SOLID
from repro.lbm import (
    BGKCollision,
    Connectivity,
    PressureOutlet,
    VelocityInlet,
    tau_from_viscosity,
    viscosity_from_tau,
)


class TestBGKCollision:
    def test_tau_viscosity_roundtrip(self):
        nu = viscosity_from_tau(0.9)
        assert tau_from_viscosity(nu) == pytest.approx(0.9)

    def test_tau_bounds(self):
        with pytest.raises(ConfigError):
            viscosity_from_tau(0.5)
        with pytest.raises(ConfigError):
            tau_from_viscosity(0.0)
        with pytest.raises(ConfigError):
            BGKCollision(0.45)

    def test_force_shape_checked(self):
        with pytest.raises(ConfigError):
            BGKCollision(0.8, force=np.zeros(2))

    def test_zero_force_dropped(self):
        c = BGKCollision(0.8, force=np.zeros(3))
        assert c.force is None

    def test_omega(self):
        assert BGKCollision(2.0).omega == 0.5


class TestConnectivity:
    def _tiny_grid(self):
        flags = np.zeros((4, 4, 4), dtype=np.int8)
        flags[1:3, 1:3, 1:3] = FLUID
        return VoxelGrid(flags)

    def test_q0_plan_is_identity(self):
        conn = Connectivity(self._tiny_grid(), D3Q19)
        plan = conn.plans[0]
        assert np.array_equal(plan.dst, plan.src)
        assert plan.bounce.size == 0

    def test_every_node_covered_per_direction(self):
        conn = Connectivity(self._tiny_grid(), D3Q19)
        for plan in conn.plans:
            covered = np.sort(np.concatenate([plan.dst, plan.bounce]))
            assert np.array_equal(covered, np.arange(conn.num_nodes))

    def test_all_boundary_on_isolated_cube(self):
        """A 2^3 fluid cube in solid: every node has wall links."""
        conn = Connectivity(self._tiny_grid(), D3Q19)
        assert conn.wall_node_ids().size == conn.num_nodes
        assert conn.num_bounce_links > 0

    def test_periodic_removes_axis_bounce(self):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        periodic = Connectivity(grid, D3Q19, periodic=(True, False, False))
        walls_only = periodic.num_bounce_links
        capped = Connectivity(grid, D3Q19, periodic=(False, False, False))
        assert capped.num_bounce_links > walls_only

    def test_stream_preserves_mass_with_walls(self):
        grid = self._tiny_grid()
        conn = Connectivity(grid, D3Q19)
        rng = np.random.default_rng(5)
        f = np.abs(rng.random((19, conn.num_nodes))) + 0.1
        out = np.empty_like(f)
        conn.stream(f, out)
        assert out.sum() == pytest.approx(f.sum(), rel=1e-12)

    def test_empty_grid_rejected(self):
        g = VoxelGrid(np.zeros((3, 3, 3), dtype=np.int8))
        with pytest.raises(GeometryError):
            Connectivity(g, D3Q19)


class TestVelocityInlet:
    def test_constant_velocity(self):
        nodes = np.array([0, 2])
        inlet = VelocityInlet(nodes, (0.01, 0.0, 0.0))
        f = np.zeros((19, 4))
        inlet.apply(D3Q19, f, time=0)
        # inlet nodes carry equilibrium at (rho0=1, u)
        assert f[:, 0].sum() == pytest.approx(1.0)
        assert f[:, 2].sum() == pytest.approx(1.0)
        assert f[:, 1].sum() == 0.0

    def test_constant_block_is_computed_once_per_lattice(self, monkeypatch):
        nodes = np.array([0, 2])
        inlet = VelocityInlet(nodes, (0.01, 0.002, 0.0))
        want = {
            lat.q: lat.equilibrium(np.ones(2), np.tile(inlet.velocity, (2, 1)))
            for lat in (D3Q19, D3Q27)
        }
        calls = []
        real = VelocityInlet._equilibrium

        def counted(self, lattice, time):
            calls.append(lattice.q)
            return real(self, lattice, time)

        monkeypatch.setattr(VelocityInlet, "_equilibrium", counted)
        for lattice in (D3Q19, D3Q19, D3Q27, D3Q27):
            f = np.zeros((lattice.q, 3))
            inlet.apply(lattice, f, time=len(calls))
            assert np.array_equal(f[:, nodes], want[lattice.q])
        assert calls == [19, 27]

    @pytest.mark.parametrize("name", ["D3Q15", "D3Q19", "D3Q27"])
    def test_column_equals_the_block(self, name):
        # apply() broadcasts one (q, 1) equilibrium over the inlet nodes;
        # it must be the (q, m) block lattice.equilibrium builds, bit for bit
        lattice = get_lattice(name)
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(1, 2000))
            vel = rng.normal(size=3) * 10.0 ** rng.uniform(-4.0, 0.0)
            rho0 = float(rng.uniform(0.5, 2.0))
            inlet = VelocityInlet(np.arange(m), lambda t, v=vel: v, rho0)
            f = np.zeros((lattice.q, m))
            inlet.apply(lattice, f, time=0)
            block = lattice.equilibrium(
                np.full(m, rho0), np.broadcast_to(vel, (m, 3))
            )
            assert np.array_equal(f, block)

    def test_time_dependent_velocity(self):
        inlet = VelocityInlet(
            np.array([0]), lambda t: np.array([0.001 * t, 0.0, 0.0])
        )
        assert inlet.velocity_at(5.0)[0] == pytest.approx(0.005)
        f = np.zeros((19, 1))
        for time in (1.0, 3.0):
            inlet.apply(D3Q19, f, time)
            u = np.array([[0.001 * time, 0.0, 0.0]])
            assert np.array_equal(f, D3Q19.equilibrium(np.ones(1), u))

    def test_bad_provider_shape(self):
        inlet = VelocityInlet(np.array([0]), lambda t: np.zeros(2))
        with pytest.raises(ConfigError):
            inlet.velocity_at(0.0)

    def test_bad_constant_shape(self):
        with pytest.raises(ConfigError):
            VelocityInlet(np.array([0]), (0.1, 0.2))

    def test_bad_rho(self):
        with pytest.raises(ConfigError):
            VelocityInlet(np.array([0]), (0.1, 0, 0), rho0=0.0)

    def test_empty_nodes_noop(self):
        inlet = VelocityInlet(np.array([], dtype=int), (0.1, 0, 0))
        f = np.ones((19, 3))
        inlet.apply(D3Q19, f, 0)
        assert (f == 1).all()


class TestPressureOutlet:
    def test_resets_density_keeps_velocity_direction(self):
        nodes = np.array([0])
        u = np.array([[0.03, 0.0, 0.0]])
        f = D3Q19.equilibrium(np.array([1.08]), u)
        outlet = PressureOutlet(nodes, rho0=1.0)
        outlet.apply(D3Q19, f, 0)
        assert f[:, 0].sum() == pytest.approx(1.0)
        mom = np.tensordot(D3Q19.c.astype(float), f[:, [0]], axes=(0, 0))
        assert mom[0, 0] > 0  # outflow direction preserved

    def test_bad_rho(self):
        with pytest.raises(ConfigError):
            PressureOutlet(np.array([0]), rho0=-1.0)
