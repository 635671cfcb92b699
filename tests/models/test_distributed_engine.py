"""Distributed execution through the model backends: a
``DistributedSolver`` built with one model per rank.

Every model's ``array_equal`` rows against the NumPy run live in the
conformance matrix (``tests/lbm/test_conformance.py``); this file pins
the per-rank model wiring, host staging, devices and rejected configs."""

import dataclasses

import pytest

from repro.core import ConfigError
from repro.decomp import axis_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import DistributedSolver, SolverConfig
from repro.models import SimulatedDevice, create_model


@pytest.fixture(scope="module")
def cylinder():
    return make_cylinder(CylinderSpec(scale=0.4))


@pytest.fixture(scope="module")
def cyl_config():
    return SolverConfig(
        tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
    )


#: both declared schedules; looped over inside the tests that predate the
#: overlap rows so their ids stay what they were
SCHEDULES = (False, True)


def model_solver(partition, config, name="cuda", gpu_aware=True):
    """``partition`` stepped through ``name``, one device per rank."""
    models = [
        create_model(name, SimulatedDevice(device_id=rank))
        for rank in range(partition.num_ranks)
    ]
    return DistributedSolver(
        partition, config, models=models, gpu_aware=gpu_aware
    )


def staging_bytes(solver):
    """Total (D2H, H2D) bytes across the rank devices."""
    return (
        sum(model.device.d2h_bytes() for model in solver.models),
        sum(model.device.h2d_bytes() for model in solver.models),
    )


class TestStagingObservability:
    def test_gpu_aware_path_has_no_staging(self, cylinder, cyl_config):
        part = axis_decompose(cylinder, 4)
        for overlap in SCHEDULES:
            solver = model_solver(
                part, dataclasses.replace(cyl_config, overlap=overlap)
            )
            solver.step(3)
            assert staging_bytes(solver) == (0, 0), overlap

    def test_host_staged_path_records_both_legs(self, cylinder, cyl_config):
        part = axis_decompose(cylinder, 4)
        staged = {}
        for overlap in SCHEDULES:
            solver = model_solver(
                part,
                dataclasses.replace(cyl_config, overlap=overlap),
                name="hip",
                gpu_aware=False,
            )
            solver.step(3)
            d2h, h2d = staging_bytes(solver)
            assert d2h > 0 and h2d > 0
            # every sent byte is downloaded once and uploaded once
            wire = sum(
                e.nbytes for e in solver.comm.log.events if e.kind == "p2p"
            )
            assert d2h == h2d == wire == 3 * solver.halo_bytes_per_step()
            staged[overlap] = d2h
        # both schedules stage the one packed cross-link payload
        assert staged[True] == staged[False]

    def test_each_rank_gets_its_own_device(self, cylinder, cyl_config):
        solver = model_solver(axis_decompose(cylinder, 3), cyl_config)
        devices = {model.device.name for model in solver.models}
        assert len(devices) == 3

    def test_negative_steps_rejected(self, cylinder, cyl_config):
        solver = model_solver(axis_decompose(cylinder, 2), cyl_config)
        with pytest.raises(ConfigError, match="num_steps"):
            solver.step(-1)

    @pytest.mark.parametrize(
        "field, value", [("backend", "compiled-serial"), ("sanitize", True)]
    )
    def test_second_provider_and_sanitize_rejected(
        self, cylinder, cyl_config, field, value
    ):
        # a model is the kernel provider: a compiled backend would be a
        # second one, and the sanitizer needs the inline NumPy kernels
        config = dataclasses.replace(cyl_config, **{field: value})
        with pytest.raises(ConfigError, match="model"):
            model_solver(axis_decompose(cylinder, 2), config)

    def test_process_executor_rejected(self, cylinder):
        # model rank state lives in ordinary memory, not shared
        # segments — only the plain solver runs the process tier
        config = SolverConfig(
            tau=0.8,
            force=(1e-6, 0, 0),
            periodic=(True, False, False),
            executor="process",
        )
        with pytest.raises(ConfigError, match="process"):
            model_solver(axis_decompose(cylinder, 2), config)
