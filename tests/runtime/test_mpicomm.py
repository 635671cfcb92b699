"""MPI adapter: probe shape and clean degradation without mpi4py.

The CI ``mpi`` job runs this file in both matrix legs; the functional
send/recv assertions live in the workflow's ``mpiexec -n 2`` smoke
because COMM_WORLD is size 1 under plain pytest.
"""

import numpy as np
import pytest

from repro.core.errors import BackendUnavailableError, RuntimeSimError
from repro.runtime.mpicomm import MPIComm, availability_report, mpi_available


class TestProbe:
    def test_report_shape(self):
        report = availability_report()
        assert set(report) == {"available", "provider", "detail"}
        assert report["available"] == mpi_available()
        if not report["available"]:
            assert report["provider"] is None
            assert "pip install .[mpi]" in report["detail"]


@pytest.mark.skipif(mpi_available(), reason="mpi4py installed here")
class TestDegradation:
    def test_constructor_raises_with_install_hint(self):
        with pytest.raises(BackendUnavailableError) as err:
            MPIComm()
        assert "pip install .[mpi]" in str(err.value)
        # a clean backend error, not a bare ImportError traceback
        assert not isinstance(err.value, ImportError)


@pytest.mark.skipif(not mpi_available(), reason="mpi4py not installed")
class TestSelfComm:
    """Single-process COMM_WORLD still pins the adapter's rank guards."""

    def test_identity(self):
        comm = MPIComm()
        assert comm.num_ranks >= 1
        assert 0 <= comm.rank < comm.num_ranks

    def test_wrong_rank_rejected(self):
        comm = MPIComm()
        with pytest.raises(RuntimeSimError, match="owns exactly one"):
            comm.send(comm.rank + 1, comm.rank, np.zeros(2))
        with pytest.raises(RuntimeSimError, match="owns exactly one"):
            comm.recv(comm.rank + 1, comm.rank)

    def test_allreduce_and_barrier(self):
        comm = MPIComm()
        total = comm.allreduce(2.5)
        assert total == pytest.approx(2.5 * comm.num_ranks)
        comm.barrier()

    def test_send_logs_event(self):
        comm = MPIComm()
        if comm.num_ranks != 1:
            pytest.skip("self-send only safe at size 1")
        comm.set_step(7)
        comm.send(comm.rank, comm.rank, np.zeros(4))
        out = comm.recv(comm.rank, comm.rank)
        assert out.shape == (4,)
        assert comm.log.events[-1].step == 7
