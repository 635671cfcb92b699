"""Rung 2 of the validation ladder: the model engine's own contract and
the registry's availability matrix.  That every backend computes
identical physics through its own programming surface is pinned by the
conformance matrix (``tests/lbm/test_conformance.py``)."""

import pytest

from repro.core import ConfigError, ModelError
from repro.geometry import CylinderSpec, make_cylinder
from repro.hardware import get_machine
from repro.lbm import SolverConfig
from repro.models import (
    AVAILABILITY,
    ModelEngine,
    create_model,
    is_available,
    models_for_machine,
    variant_for,
)


@pytest.fixture(scope="module")
def cylinder():
    return make_cylinder(CylinderSpec(scale=0.4))


class TestBitwisePortability:
    def test_mass_conservation_through_engine(self, cylinder):
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        engine = ModelEngine(cylinder, cfg, create_model("kokkos-hip"))
        m0 = engine.mass()
        engine.step(40)
        assert engine.mass() == pytest.approx(m0, rel=1e-12)

    def test_engine_state_lives_on_device(self, cylinder):
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        model = create_model("cuda")
        engine = ModelEngine(cylinder, cfg, model)
        # distributions (x2) plus 19 plans' index arrays are resident
        assert model.device.allocated_bytes > 2 * 19 * 8 * engine.num_nodes

    def test_engine_negative_steps(self, cylinder):
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        engine = ModelEngine(cylinder, cfg, create_model("hip"))
        with pytest.raises(ConfigError, match="num_steps"):
            engine.step(-1)


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

    def test_variant_chipstar_flag(self):
        v = variant_for("hip", get_machine("Sunspot"))
        assert v.via_chipstar
        assert "chipStar" in v.label
        assert not variant_for("hip", get_machine("Crusher")).via_chipstar

    def test_variant_gpu_aware_flag(self):
        """HIP on Summit runs with GPU-aware MPI disabled (7.2.2)."""
        assert not variant_for("hip", get_machine("Summit")).gpu_aware_mpi
        assert variant_for("cuda", get_machine("Summit")).gpu_aware_mpi
        assert variant_for("hip", get_machine("Crusher")).gpu_aware_mpi

    def test_variant_native_flag(self):
        assert variant_for("sycl", get_machine("Sunspot")).is_native
        assert not variant_for("kokkos-sycl", get_machine("Sunspot")).is_native

    def test_unported_combination_rejected(self):
        with pytest.raises(ModelError, match="not ported"):
            variant_for("cuda", get_machine("Sunspot"))

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError, match="unknown model"):
            variant_for("openmp", get_machine("Summit"))

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
