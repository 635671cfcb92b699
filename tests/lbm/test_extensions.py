"""Extension features: MRT collision, units, checkpointing, field I/O."""

import numpy as np
import pytest

from repro.core import ConfigError, D3Q19
from repro.decomp import axis_decompose, bisection_decompose
from repro.geometry import (
    CylinderSpec,
    VoxelGrid,
    make_aneurysm,
    make_aorta,
    make_cylinder,
)
from repro.lbm import (
    BGKCollision,
    BLOOD,
    DistributedSolver,
    FluidProperties,
    MRTCollision,
    Solver,
    SolverConfig,
    UnitSystem,
    axial_profile,
    build_moment_basis,
    flow_rate,
    load_checkpoint,
    load_fields,
    save_checkpoint,
    save_fields,
)


def _random_f(n, seed=0):
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.05 * rng.standard_normal(n)
    u = 0.02 * rng.standard_normal((n, 3))
    f = D3Q19.equilibrium(rho, u)
    f += 0.002 * rng.standard_normal(f.shape)
    return f


class TestMRTBasis:
    def test_invertible(self):
        M = build_moment_basis()
        assert abs(np.linalg.det(M)) > 1e-6

    def test_rows_orthogonal(self):
        """d'Humieres basis rows are mutually orthogonal under the
        uniform inner product."""
        M = build_moment_basis()
        G = M @ M.T
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() < 1e-9

    def test_conserved_rows(self):
        M = build_moment_basis()
        assert np.allclose(M[0], 1.0)  # density row
        assert np.array_equal(M[3], D3Q19.c[:, 0].astype(float))

    def test_wrong_lattice_rejected(self):
        from repro.core import D3Q15

        with pytest.raises(ConfigError):
            build_moment_basis(D3Q15)


class TestMRTCollision:
    def test_reduces_to_bgk_when_rates_equal(self):
        tau = 0.8
        mrt = MRTCollision(tau, ghost_rate=1.0 / tau, bulk_rate=1.0 / tau)
        bgk = BGKCollision(tau)
        f1 = _random_f(30)
        f2 = f1.copy()
        idx = np.arange(30)
        mrt.apply(D3Q19, f1, idx)
        bgk.apply(D3Q19, f2, idx)
        assert np.allclose(f1, f2, atol=1e-12)

    def test_reduces_to_bgk_with_force(self):
        tau = 0.9
        force = np.array([1e-5, 0.0, 0.0])
        mrt = MRTCollision(
            tau, ghost_rate=1.0 / tau, bulk_rate=1.0 / tau, force=force
        )
        bgk = BGKCollision(tau, force=force)
        f1 = _random_f(20, seed=2)
        f2 = f1.copy()
        idx = np.arange(20)
        mrt.apply(D3Q19, f1, idx)
        bgk.apply(D3Q19, f2, idx)
        assert np.allclose(f1, f2, atol=1e-12)

    def test_conserves_mass_and_momentum(self):
        mrt = MRTCollision(0.7, ghost_rate=1.5)
        f = _random_f(25, seed=3)
        mass0 = f.sum()
        mom0 = np.tensordot(D3Q19.c.astype(float), f, axes=(0, 0)).sum(1)
        mrt.apply(D3Q19, f, np.arange(25))
        assert f.sum() == pytest.approx(mass0, rel=1e-12)
        mom1 = np.tensordot(D3Q19.c.astype(float), f, axes=(0, 0)).sum(1)
        assert np.allclose(mom0, mom1, atol=1e-13)

    def test_equilibrium_fixed_point(self):
        mrt = MRTCollision(0.8)
        f = D3Q19.equilibrium(np.ones(5), np.full((5, 3), 0.01))
        before = f.copy()
        mrt.apply(D3Q19, f, np.arange(5))
        assert np.allclose(f, before, atol=1e-13)

    def test_mrt_solver_matches_poiseuille(self):
        """An MRT run reaches the same steady state as BGK."""
        grid = make_cylinder(CylinderSpec(scale=0.5))
        kw = dict(force=(1e-6, 0, 0), periodic=(True, False, False))
        bgk = Solver(grid, SolverConfig(tau=0.8, collision="bgk", **kw))
        mrt = Solver(grid, SolverConfig(tau=0.8, collision="mrt", **kw))
        bgk.step(800)
        mrt.step(800)
        u_bgk = bgk.velocity()[:, 0].max()
        u_mrt = mrt.velocity()[:, 0].max()
        assert u_mrt == pytest.approx(u_bgk, rel=0.02)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MRTCollision(0.5)
        with pytest.raises(ConfigError):
            MRTCollision(0.8, ghost_rate=2.5)
        with pytest.raises(ConfigError):
            MRTCollision(0.8, bulk_rate=-0.1)
        with pytest.raises(ConfigError):
            SolverConfig(collision="lbgk-squared")
        with pytest.raises(ConfigError):
            SolverConfig(collision="mrt", lattice="D3Q15")


class TestUnitSystem:
    def test_from_tau_roundtrip(self):
        units = UnitSystem.from_tau(dx=110e-6, tau=0.8)
        assert units.tau == pytest.approx(0.8)
        assert units.lattice_viscosity == pytest.approx((0.8 - 0.5) / 3)

    def test_velocity_conversion_roundtrip(self):
        units = UnitSystem.from_tau(dx=110e-6, tau=0.8)
        u_lat = units.velocity_to_lattice(1.0)
        assert units.velocity_to_physical(u_lat) == pytest.approx(1.0)

    def test_aortic_reynolds_number_physiological(self):
        """Peak aortic flow: U~1 m/s, D~2.4 cm -> Re several thousand."""
        units = UnitSystem.from_tau(dx=110e-6, tau=0.8)
        re = units.reynolds(1.0, 0.024)
        assert 5000 < re < 10000

    def test_aortic_womersley_physiological(self):
        units = UnitSystem.from_tau(dx=110e-6, tau=0.8)
        alpha = units.womersley(0.024, frequency_hz=1.0)
        assert 10 < alpha < 30

    def test_time_to_steps(self):
        units = UnitSystem(dx=1e-4, dt=1e-5)
        assert units.time_to_steps(1.0) == 100000
        with pytest.raises(ConfigError):
            units.time_to_steps(-1.0)

    def test_pressure_conversion_positive(self):
        units = UnitSystem.from_tau(dx=110e-6, tau=0.8)
        assert units.pressure_to_physical(0.01) > 0

    def test_stability_check(self):
        units = UnitSystem.from_tau(dx=110e-6, tau=0.8)
        # the paper's resolution easily supports ~1 m/s aortic peaks
        assert units.stability_check(1.0) or not units.stability_check(50.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            UnitSystem(dx=0.0, dt=1e-5)
        with pytest.raises(ConfigError):
            FluidProperties(kinematic_viscosity=-1, density=1000)
        with pytest.raises(ConfigError):
            UnitSystem.from_tau(dx=1e-4, tau=0.5)
        units = UnitSystem.from_tau(dx=1e-4, tau=0.8)
        with pytest.raises(ConfigError):
            units.reynolds(1.0, -0.01)
        with pytest.raises(ConfigError):
            units.womersley(0.02, 0.0)

    def test_blood_constants(self):
        assert BLOOD.kinematic_viscosity == pytest.approx(3.3e-6)
        assert BLOOD.density == pytest.approx(1060.0)


class TestCheckpoint:
    def test_single_domain_roundtrip(self, tmp_path):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        a = Solver(grid, cfg)
        a.step(20)
        path = save_checkpoint(a, tmp_path / "ckpt.npz")
        b = Solver(grid, cfg)
        load_checkpoint(b, path)
        assert b.time == 20
        assert np.array_equal(a.f, b.f)
        # continuing both produces identical trajectories
        a.step(5)
        b.step(5)
        assert np.array_equal(a.f, b.f)

    def test_restart_under_different_decomposition(self, tmp_path):
        """Checkpoint with 2 ranks, restart with 4: same physics."""
        grid = make_cylinder(CylinderSpec(scale=0.5))
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        a = DistributedSolver(axis_decompose(grid, 2), cfg)
        a.step(10)
        path = save_checkpoint(a, tmp_path / "dist.npz")
        b = DistributedSolver(axis_decompose(grid, 4), cfg)
        load_checkpoint(b, path)
        a.step(5)
        b.step(5)
        assert np.array_equal(a.gather_f(), b.gather_f())

    def test_cross_solver_restart(self, tmp_path):
        """Distributed checkpoint restores into a single-domain solver."""
        grid = make_cylinder(CylinderSpec(scale=0.5))
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        dist = DistributedSolver(axis_decompose(grid, 3), cfg)
        dist.step(8)
        path = save_checkpoint(dist, tmp_path / "x.npz")
        single = Solver(grid, cfg)
        load_checkpoint(single, path)
        assert np.array_equal(single.f, dist.gather_f())

    def test_mismatched_grid_rejected(self, tmp_path):
        grid_a = make_cylinder(CylinderSpec(scale=0.5))
        grid_b = make_cylinder(CylinderSpec(scale=0.6))
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        a = Solver(grid_a, cfg)
        path = save_checkpoint(a, tmp_path / "a.npz")
        b = Solver(grid_b, cfg)
        with pytest.raises(ConfigError, match="grid"):
            load_checkpoint(b, path)

    def test_other_geometry_of_same_shape_and_count_rejected(self, tmp_path):
        # the aneurysm's sac bulges towards +z; mirrored it bulges towards
        # -z: same grid shape, same fluid-node count, other node order
        grid = make_aneurysm()
        mirrored = VoxelGrid(grid.flags[:, :, ::-1].copy())
        cfg = SolverConfig(tau=0.8, inlet_velocity=(0.02, 0.0, 0.0))
        a = Solver(grid, cfg)
        b = Solver(mirrored, cfg)
        assert a.grid.shape == b.grid.shape and a.num_nodes == b.num_nodes
        path = save_checkpoint(a, tmp_path / "a.npz")
        with pytest.raises(ConfigError, match="geometry"):
            load_checkpoint(b, path)

    def test_other_periodicity_rejected(self, tmp_path):
        grid = make_cylinder(CylinderSpec(scale=0.5, periodic=True))
        a = Solver(grid, SolverConfig(tau=0.8, periodic=(True, False, False)))
        path = save_checkpoint(a, tmp_path / "a.npz")
        b = Solver(grid, SolverConfig(tau=0.8))
        with pytest.raises(ConfigError, match="periodicity"):
            load_checkpoint(b, path)

    def test_file_without_geometry_hash_still_loads(self, tmp_path):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        a = Solver(grid, cfg)
        a.step(3)
        path = save_checkpoint(a, tmp_path / "new.npz")
        with np.load(path) as data:
            older = {k: data[k] for k in data.files if k != "geometry_hash"}
        np.savez_compressed(tmp_path / "old.npz", **older)
        b = Solver(grid, cfg)
        load_checkpoint(b, tmp_path / "old.npz")
        assert np.array_equal(a.f, b.f)

    def test_restart_across_tiers(self, tmp_path):
        """2-rank lockstep NumPy checkpoint, restarted on 3 forked ranks
        under overlap with the exact compiled kernels: bit for bit."""
        from repro.models.compiled import compiled_available
        from repro.runtime.procexec import fork_available

        if not (fork_available() and compiled_available()):
            pytest.skip("needs fork and a compiled kernel provider")
        grid = make_cylinder(CylinderSpec(scale=0.5))
        cfg = SolverConfig(
            tau=0.8, force=(1e-5, 0, 0), periodic=(True, False, False)
        )
        a = DistributedSolver(axis_decompose(grid, 2), cfg)
        a.step(10)
        path = save_checkpoint(a, tmp_path / "lockstep.npz")
        tier = SolverConfig(
            tau=0.8,
            force=(1e-5, 0, 0),
            periodic=(True, False, False),
            executor="process",
            overlap=True,
            backend="compiled-serial",
            fastmath=False,
        )
        with DistributedSolver(axis_decompose(grid, 3), tier) as b:
            load_checkpoint(b, path)
            a.step(5)
            b.step(5)
            assert b.time == a.time == 15
            assert np.array_equal(a.gather_f(), b.gather_f())

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            save_checkpoint(object(), tmp_path / "x.npz")


class TestFieldIO:
    @pytest.fixture(scope="class")
    def solver(self):
        grid = make_cylinder(CylinderSpec(scale=0.5))
        s = Solver(
            grid,
            SolverConfig(
                tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
            ),
        )
        s.step(150)
        return s

    def test_save_load_roundtrip(self, solver, tmp_path):
        path = save_fields(solver, tmp_path / "fields.npz")
        data = load_fields(path)
        assert data["velocity"].shape == solver.grid.shape + (3,)
        assert data["density"].shape == solver.grid.shape
        assert int(data["time"]) == solver.time

    def test_distributed_export(self, tmp_path):
        grid = make_aorta(2.5)
        cfg = SolverConfig(tau=0.8, inlet_velocity=(0, 0, 0.02))
        dist = DistributedSolver(bisection_decompose(grid, 3), cfg)
        dist.step(5)
        path = save_fields(dist, tmp_path / "aorta.npz")
        data = load_fields(path)
        assert data["velocity"].shape == grid.shape + (3,)

    def test_flow_rate_conserved_along_channel(self, solver):
        """Steady periodic flow: equal flux through every plane."""
        q1 = flow_rate(solver, axis=0, position=10)
        q2 = flow_rate(solver, axis=0, position=30)
        assert q1 == pytest.approx(q2, rel=1e-6)
        assert q1 > 0

    def test_axial_profile_flat_for_developed_flow(self, solver):
        profile = axial_profile(solver, axis=0)
        valid = profile[~np.isnan(profile)]
        assert valid.std() / valid.mean() < 1e-6

    def test_validation(self, solver):
        with pytest.raises(ConfigError):
            flow_rate(solver, axis=5, position=0)
        with pytest.raises(ConfigError):
            flow_rate(solver, axis=0, position=10**6)
        with pytest.raises(ConfigError):
            axial_profile(solver, axis=-1)
        with pytest.raises(ConfigError):
            save_fields(object(), "x.npz")
