"""Rung 2 of the validation ladder: a solver stepping through a model
(``Solver(grid, config, model=m)``) and the registry's availability
matrix.  That every backend computes
identical physics through its own programming surface is pinned by the
conformance matrix (``tests/lbm/test_conformance.py``)."""

import pytest

from repro.core import ConfigError, ModelError
from repro.geometry import CylinderSpec, make_cylinder
from repro.hardware import get_machine
from repro.lbm import Solver, SolverConfig
from repro.models import (
    AVAILABILITY,
    create_model,
    is_available,
    models_for_machine,
)
from repro.models.registry import gpu_aware_mpi
from repro.perf.calibrate import _TABLE


@pytest.fixture(scope="module")
def cylinder():
    return make_cylinder(CylinderSpec(scale=0.4))


class TestBitwisePortability:
    def test_mass_conservation_through_engine(self, cylinder):
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        solver = Solver(cylinder, cfg, model=create_model("kokkos-hip"))
        m0 = solver.mass()
        solver.step(40)
        assert solver.mass() == pytest.approx(m0, rel=1e-12)

    def test_engine_state_lives_on_device(self, cylinder):
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        model = create_model("cuda")
        solver = Solver(cylinder, cfg, model=model)
        # distributions (x2) plus the stream tables are resident
        assert model.device.allocated_bytes > 2 * 19 * 8 * solver.num_nodes

    def test_engine_negative_steps(self, cylinder):
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        solver = Solver(cylinder, cfg, model=create_model("hip"))
        with pytest.raises(ConfigError, match="num_steps"):
            solver.step(-1)


class TestRegistry:
    def test_availability_matches_paper_legends(self):
        assert set(AVAILABILITY["Summit"]) == {
            "cuda", "hip", "kokkos-cuda", "kokkos-openacc"
        }
        assert set(AVAILABILITY["Polaris"]) == {
            "cuda", "sycl", "kokkos-cuda", "kokkos-sycl", "kokkos-openacc"
        }
        assert set(AVAILABILITY["Crusher"]) == {"hip", "sycl", "kokkos-hip"}
        assert set(AVAILABILITY["Sunspot"]) == {"sycl", "hip", "kokkos-sycl"}

    def test_native_listed_first(self):
        for sysname in AVAILABILITY:
            machine = get_machine(sysname)
            models = models_for_machine(machine)
            assert models[0] == machine.native_model

    def test_is_available(self):
        assert is_available("cuda", get_machine("Summit"))
        assert not is_available("cuda", get_machine("Crusher"))

    def test_availability_is_the_calibrated_pairs(self):
        """A pair the study did not port has no calibration, so pricing
        it raises in ``get_calibration``."""
        available = {
            (system, model)
            for system, models in AVAILABILITY.items()
            for model in models
        }
        for app in ("harvey", "proxy"):
            calibrated = {
                (system, model)
                for system, model, key_app in _TABLE
                if key_app == app
            }
            assert calibrated == available, app

    def test_variant_gpu_aware_flag(self):
        """HIP on Summit runs with GPU-aware MPI disabled (7.2.2)."""
        assert not gpu_aware_mpi("hip", get_machine("Summit"))
        assert gpu_aware_mpi("cuda", get_machine("Summit"))
        assert gpu_aware_mpi("hip", get_machine("Crusher"))

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError, match="unknown model"):
            gpu_aware_mpi("openmp", get_machine("Summit"))

    def test_kokkos_is_the_only_universal_implementation(self):
        covered_by_kokkos = all(
            any(m.startswith("kokkos") for m in models)
            for models in AVAILABILITY.values()
        )
        assert covered_by_kokkos
        for base in ("cuda", "hip", "sycl"):
            assert not all(
                base in models for models in AVAILABILITY.values()
            )
