"""Distributed execution through the model backends.

Every model's ``array_equal`` rows against the NumPy run live in the
conformance matrix (``tests/lbm/test_conformance.py``); this file pins
the model-factory wiring, host staging, devices and rejected configs."""

import dataclasses

import pytest

from repro.core import ConfigError
from repro.decomp import axis_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import SolverConfig
from repro.models import DistributedModelEngine


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


class TestStagingObservability:
    def test_gpu_aware_path_has_no_staging(self, cylinder, cyl_config):
        part = axis_decompose(cylinder, 4)
        for overlap in SCHEDULES:
            engine = DistributedModelEngine(
                part,
                dataclasses.replace(cyl_config, overlap=overlap),
                model_name="cuda",
                gpu_aware=True,
            )
            engine.step(3)
            assert engine.staging_bytes() == (0, 0), overlap

    def test_host_staged_path_records_both_legs(self, cylinder, cyl_config):
        part = axis_decompose(cylinder, 4)
        staged = {}
        for overlap in SCHEDULES:
            engine = DistributedModelEngine(
                part,
                dataclasses.replace(cyl_config, overlap=overlap),
                model_name="hip",
                gpu_aware=False,
            )
            engine.step(3)
            d2h, h2d = engine.staging_bytes()
            assert d2h > 0 and h2d > 0
            # every sent byte is downloaded once and uploaded once
            wire = sum(
                e.nbytes for e in engine.comm.log.events if e.kind == "p2p"
            )
            assert d2h == h2d == wire == 3 * engine.halo_bytes_per_step()
            staged[overlap] = d2h
        # the packed cross-link exchange stages strictly fewer bytes
        assert staged[True] < staged[False]

    def test_each_rank_gets_its_own_device(self, cylinder, cyl_config):
        part = axis_decompose(cylinder, 3)
        engine = DistributedModelEngine(part, cyl_config)
        devices = {model.device.name for model in engine.models}
        assert len(devices) == 3

    def test_negative_steps_rejected(self, cylinder, cyl_config):
        engine = DistributedModelEngine(
            axis_decompose(cylinder, 2), cyl_config
        )
        with pytest.raises(ConfigError, match="num_steps"):
            engine.step(-1)

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
            DistributedModelEngine(axis_decompose(cylinder, 2), config)

    def test_process_executor_rejected(self, cylinder):
        # engine rank state lives in ordinary memory, not shared
        # segments — only the reference solver runs the process tier
        config = SolverConfig(
            tau=0.8,
            force=(1e-6, 0, 0),
            periodic=(True, False, False),
            executor="process",
        )
        with pytest.raises(ConfigError, match="process"):
            DistributedModelEngine(axis_decompose(cylinder, 2), config)
