"""Launch-shape independence: results do not depend on block sizes.

Note: equality is to floating-point noise, not bitwise — NumPy's BLAS
dispatches different kernels (gemv vs gemm) for very small chunk shapes,
which reorders the reductions in the equilibrium computation.  The
standard block sizes (tested bitwise in test_portability) share the gemm
path with the reference solver."""

import numpy as np
import pytest

from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import Solver, SolverConfig
from repro.models import CUDAModel, HIPModel, KokkosModel, SYCLModel


@pytest.fixture(scope="module")
def setup():
    grid = make_cylinder(CylinderSpec(scale=0.4))
    cfg = SolverConfig(
        tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
    )
    ref = Solver(grid, cfg)
    ref.step(10)
    return grid, cfg, ref.f


class TestLaunchShapeIndependence:
    @pytest.mark.parametrize("block", [1, 7, 64, 1024])
    def test_cuda_block_sizes(self, setup, block):
        grid, cfg, f_ref = setup
        solver = Solver(grid, cfg, model=CUDAModel(block_size=block))
        solver.step(10)
        assert np.allclose(solver.f, f_ref, rtol=1e-10, atol=1e-14), block

    @pytest.mark.parametrize("workgroup", [16, 100, 512])
    def test_sycl_workgroup_sizes(self, setup, workgroup):
        grid, cfg, f_ref = setup
        solver = Solver(grid, cfg, model=SYCLModel(workgroup_size=workgroup))
        solver.step(10)
        assert np.allclose(solver.f, f_ref, rtol=1e-10, atol=1e-14), workgroup

    @pytest.mark.parametrize("team", [3, 256])
    def test_kokkos_team_sizes(self, setup, team):
        grid, cfg, f_ref = setup
        solver = Solver(grid, cfg, model=KokkosModel("hip", team_size=team))
        solver.step(10)
        assert np.allclose(solver.f, f_ref, rtol=1e-10, atol=1e-14), team

    def test_hip_block_size(self, setup):
        grid, cfg, f_ref = setup
        solver = Solver(grid, cfg, model=HIPModel(block_size=33))
        solver.step(10)
        assert np.allclose(solver.f, f_ref, rtol=1e-10, atol=1e-14)

    def test_launch_count_scales_inversely_with_block(self, setup):
        """Smaller blocks -> more blocks per launch, same launch count
        (the launch counter tracks kernel submissions, not blocks)."""
        grid, cfg, _ = setup
        small = CUDAModel(block_size=8)
        big = CUDAModel(block_size=512)
        Solver(grid, cfg, model=small).step(2)
        Solver(grid, cfg, model=big).step(2)
        assert small.launch_count == big.launch_count
        assert small.space.stats.blocks > big.space.stats.blocks
