"""The LBM proxy application: the ``"proxy"`` workload of the run shell."""

import hashlib

import numpy as np
import pytest

from repro.core import ConfigError
from repro.decomp import quadrant_decompose
from repro.geometry import CylinderSpec, build_geometry
from repro.geometry.cylinder import cylinder_fluid_estimate
from repro.hardware import POLARIS, SUNSPOT
from repro.harvey import HarveyApp, HarveyConfig
from repro.lbm import DistributedSolver, SolverConfig
from repro.models.compiled import compiled_available
from repro.proxy import PROXY_BODY_FORCE, poiseuille_agreement
from repro.runtime.procexec import fork_available
from repro.runtime.shmem import leaked_segments
from repro.workloads import workload_table

pytestmark = pytest.mark.usefixtures("hard_time_bound")

#: sha256 of ``gather_f()`` after 20 steps at ``scale=0.5`` — what the
#: deleted ``ProxyApp`` produced at 2, 3 and 4 ranks alike.
PROXY_20_STEPS_SHA256 = (
    "727ee7ff4ee4cf9b8faea1fbb5c1541ab09f7f1ac9a822222457ee0b51631843"
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs the POSIX fork start method"
)


def proxy_config(**kwargs) -> HarveyConfig:
    return HarveyConfig(workload="proxy", **kwargs)


def hand_built_reference(num_ranks: int, steps: int = 20) -> np.ndarray:
    """The solver exactly as the deleted ``ProxyApp`` built it."""
    grid = build_geometry("cylinder", resolution=0.5, periodic=True)
    solver = DistributedSolver(
        quadrant_decompose(grid, num_ranks, axis=0),
        SolverConfig(
            tau=0.8,
            force=(PROXY_BODY_FORCE, 0.0, 0.0),
            periodic=(True, False, False),
        ),
    )
    solver.step(steps)
    return solver.gather_f()


class TestProxyConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            proxy_config(resolution=0)
        with pytest.raises(ConfigError):
            proxy_config(num_ranks=0)
        with pytest.raises(ConfigError):
            proxy_config(tau=0.5)

    def test_preset_is_the_papers(self):
        row = workload_table()["proxy"]
        assert (row.app, row.geometry, row.periodic, row.scheme) == (
            "proxy", "cylinder", True, "quadrant",
        )
        assert row.force == (1e-6, 0.0, 0.0)


class TestProxyApp:
    @pytest.fixture(scope="class")
    def app(self):
        return HarveyApp(proxy_config(resolution=0.6, num_ranks=4, tau=0.8))

    def test_paper_geometry(self, app):
        spec = CylinderSpec(scale=0.6)
        assert spec.radius == 8 * 0.6
        assert app.grid.shape == (
            int(round(84 * 0.6)), spec.cross_extent, spec.cross_extent,
        )
        assert app.solver.config.periodic == (True, False, False)
        assert not app.solver.ranks[0].plan.inlet_nodes.size

    def test_quadrant_decomposition(self, app):
        assert app.partition.scheme.startswith("quadrant")
        assert app.partition.imbalance < 1.3
        assert app.load_balance()["imbalance"] == app.partition.imbalance

    def test_run_physics(self, app):
        report = app.run(steps=300)
        assert report.workload == "proxy"
        assert report.mass_drift < 1e-10
        assert 0.7 < poiseuille_agreement(app) <= 1.05
        assert report.mflups > 0

    def test_expected_fluid_estimate(self, app):
        assert cylinder_fluid_estimate(0.6) == pytest.approx(
            app.grid.num_fluid, rel=0.15
        )

    def test_performance_projection(self, app):
        cost = app.performance_on(POLARIS, n_gpus=8, resolution=12.0)
        assert cost.app == "proxy"
        assert cost.model == "cuda"
        assert cost.mflups > 0

    def test_projection_respects_availability(self, app):
        from repro.core import PerfModelError

        with pytest.raises(PerfModelError, match="not ported"):
            app.performance_on(SUNSPOT, model_name="cuda", n_gpus=4)

    def test_bad_steps(self, app):
        with pytest.raises(ConfigError):
            app.run(0)

    def test_non_multiple_of_four_ranks(self):
        app = HarveyApp(proxy_config(resolution=0.5, num_ranks=3))
        assert app.partition.scheme.startswith("axis")  # slab fallback
        report = app.run(steps=5)
        assert report.num_ranks == 3


class TestProxyOnEveryTier:
    """The preset is the deleted ``ProxyApp`` bit for bit, on every tier
    the shell offers."""

    @pytest.mark.parametrize("num_ranks", [2, 3, 4])
    def test_equals_the_hand_built_solver(self, num_ranks):
        with HarveyApp(
            proxy_config(resolution=0.5, num_ranks=num_ranks)
        ) as app:
            app.solver.step(20)
            f = app.solver.gather_f()
        assert np.array_equal(f, hand_built_reference(num_ranks))
        digest = hashlib.sha256(np.ascontiguousarray(f).tobytes())
        assert digest.hexdigest() == PROXY_20_STEPS_SHA256

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize(
        "executor",
        ["lockstep", pytest.param("process", marks=needs_fork)],
    )
    def test_numpy_tiers_are_bit_identical_and_sanitize_clean(
        self, executor, overlap
    ):
        with HarveyApp(
            proxy_config(
                resolution=0.5, num_ranks=2, executor=executor,
                overlap=overlap, sanitize=True,
            )
        ) as app:
            app.solver.step(20)
            f = app.solver.gather_f()
        assert np.array_equal(f, hand_built_reference(2))
        assert leaked_segments() == []

    @needs_fork
    @pytest.mark.skipif(
        not compiled_available(), reason="no compiled kernel provider"
    )
    def test_compiled_process_overlap_within_band(self):
        with HarveyApp(
            proxy_config(
                resolution=0.5, num_ranks=2, executor="process",
                overlap=True, backend="compiled-serial",
            )
        ) as app:
            app.solver.step(20)
            f = app.solver.gather_f()
        # FASTMATH_TOL of tests/lbm/test_fused_equivalence.py: the
        # shell runs the compiled tier with fastmath on
        np.testing.assert_allclose(
            f, hand_built_reference(2), rtol=1e-8, atol=1e-11
        )
        assert leaked_segments() == []
