"""Failure injection: prove the validation machinery has teeth.

The bitwise distributed-equivalence tests only mean something if
corrupting the machinery actually breaks them; these tests inject faults
and assert the system either diverges measurably or fails loudly.
"""

import numpy as np
import pytest

from repro.core import RuntimeSimError
from repro.decomp import axis_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import DistributedSolver, Solver, SolverConfig
from repro.runtime import SimComm


class CorruptingComm(SimComm):
    """A communicator that flips one value in the Nth message."""

    def __init__(self, num_ranks: int, corrupt_at: int = 3) -> None:
        super().__init__(num_ranks)
        self._count = 0
        self._corrupt_at = corrupt_at

    def send(self, src, dst, buf, tag=0):
        self._count += 1
        if self._count == self._corrupt_at:
            # every slot of the packed payload is one cross link's
            # upstream value, so any corrupted slot reaches owned state
            buf = np.array(buf, copy=True)
            buf[0] += 1e-3
        super().send(src, dst, buf, tag)


class DroppingComm(SimComm):
    """A communicator that silently drops one message."""

    def __init__(self, num_ranks: int, drop_at: int = 2) -> None:
        super().__init__(num_ranks)
        self._count = 0
        self._drop_at = drop_at

    def send(self, src, dst, buf, tag=0):
        self._count += 1
        if self._count == self._drop_at:
            return  # lost on the wire
        super().send(src, dst, buf, tag)


@pytest.fixture(scope="module")
def setup():
    grid = make_cylinder(CylinderSpec(scale=0.5))
    cfg = SolverConfig(
        tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
    )
    ref = Solver(grid, cfg)
    ref.step(10)
    return grid, cfg, ref


class TestFaultInjection:
    def test_corrupted_halo_diverges_from_reference(self, setup):
        grid, cfg, ref = setup
        part = axis_decompose(grid, 4)
        comm = CorruptingComm(4, corrupt_at=3)
        dist = DistributedSolver(part, cfg, comm=comm)
        dist.step(10)
        diff = np.abs(dist.gather_f() - ref.f).max()
        assert diff > 1e-6, (
            "a corrupted halo message must break bitwise equivalence — "
            "otherwise the equivalence test is vacuous"
        )

    def test_clean_comm_control(self, setup):
        """Control: the same run without corruption stays exact."""
        grid, cfg, ref = setup
        part = axis_decompose(grid, 4)
        dist = DistributedSolver(part, cfg, comm=SimComm(4))
        dist.step(10)
        assert np.array_equal(dist.gather_f(), ref.f)

    def test_dropped_message_fails_loudly(self, setup):
        grid, cfg, _ref = setup
        part = axis_decompose(grid, 4)
        comm = DroppingComm(4, drop_at=2)
        dist = DistributedSolver(part, cfg, comm=comm)
        with pytest.raises(RuntimeSimError, match="no message pending"):
            dist.step(1)

    def test_corruption_spreads_through_the_domain(self, setup):
        """LBM transports information at finite speed: the corruption
        contaminates a growing region, not just one node."""
        grid, cfg, ref = setup
        part = axis_decompose(grid, 4)
        comm = CorruptingComm(4, corrupt_at=1)
        dist = DistributedSolver(part, cfg, comm=comm)
        dist.step(2)
        ref2 = Solver(grid, cfg)
        ref2.step(2)
        early = int((np.abs(dist.gather_f() - ref2.f) > 1e-15).any(axis=0).sum())
        dist.step(8)
        ref2.step(8)
        late = int((np.abs(dist.gather_f() - ref2.f) > 1e-15).any(axis=0).sum())
        assert late > early > 0
