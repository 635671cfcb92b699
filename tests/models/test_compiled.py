"""The compiled backend tier: availability and engine.

Kernel-level physics equivalence lives in
``tests/lbm/test_fused_equivalence.py``; this module covers the
provider plumbing — detection and override, graceful degradation when
no provider exists, and the registry, which knows the compiled tier is
not a programming model.
"""

import numpy as np
import pytest

from repro.core.errors import BackendUnavailableError, ConfigError, ModelError
from repro.core.lattice import D3Q19
from repro.hardware.systems import get_machine
from repro.lbm.solver import SolverConfig
from repro.models.compiled import (
    COMPILED_BACKENDS,
    PROVIDER_ENV,
    CompiledKernels,
    availability_report,
    collision_op_code,
    compiled_available,
    normalize_backend,
    require_compiled,
    reset_detection_cache,
)
from repro.models.registry import create_model, is_available

compiled_only = pytest.mark.skipif(
    not compiled_available(),
    reason="no host C compiler available",
)


@pytest.fixture
def no_provider(monkeypatch):
    """Force the tier unavailable, as on a bare host."""
    monkeypatch.setenv(PROVIDER_ENV, "none")
    reset_detection_cache()
    yield
    reset_detection_cache()


class TestAvailability:
    def test_report_shape(self):
        report = availability_report()
        assert set(report) >= {
            "available", "provider", "parallel", "backends", "override",
        }
        assert report["backends"] == list(COMPILED_BACKENDS)

    def test_forced_unavailable(self, no_provider):
        assert compiled_available() is False
        report = availability_report()
        assert report["available"] is False
        assert report["provider"] is None
        assert report["parallel"] is False

    def test_require_raises_with_install_hint(self, no_provider):
        with pytest.raises(BackendUnavailableError, match="ensure a host C compiler"):
            require_compiled("compiled")

    def test_require_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown compiled backend"):
            require_compiled("compiled-quantum")

    def test_normalize_resolves_alias(self):
        assert normalize_backend("compiled-serial") == "compiled-serial"
        assert normalize_backend("compiled") in (
            "compiled-serial",
            "compiled-parallel",
        )

    def test_bad_override_value(self, monkeypatch):
        # retired provider names get no special case: each is rejected,
        # naming the two accepted values
        for value in ("fortran", "numba", "cgen"):
            monkeypatch.setenv(PROVIDER_ENV, value)
            reset_detection_cache()
            try:
                with pytest.raises(ConfigError) as err:
                    compiled_available()
            finally:
                reset_detection_cache()
            assert value in str(err.value)
            assert "'auto'" in str(err.value)
            assert "'none'" in str(err.value)


class TestSolverConfigGating:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            SolverConfig(tau=0.8, backend="fortran")

    def test_compiled_rejects_sanitize(self):
        with pytest.raises(ConfigError, match="sanitize"):
            SolverConfig(tau=0.8, backend="compiled", sanitize=True)

    def test_numpy_default_ignores_provider(self, no_provider):
        # a bare host must build numpy solvers exactly as before
        cfg = SolverConfig(tau=0.8)
        assert cfg.backend == "numpy"


class TestRegistry:
    def test_compiled_backends_are_not_models(self):
        """The compiled tier is reached through ``SolverConfig.backend``
        only; the registry answers for the paper's models alone."""
        for machine in (get_machine("Summit"), get_machine("Polaris")):
            for name in COMPILED_BACKENDS:
                assert is_available(name, machine) is False
        for name in COMPILED_BACKENDS:
            with pytest.raises(ModelError, match="unknown model"):
                create_model(name)

    def test_unavailable_everywhere_without_provider(self, no_provider):
        machine = get_machine("Polaris")
        for name in COMPILED_BACKENDS:
            assert is_available(name, machine) is False

    def test_paper_models_unaffected(self, no_provider):
        machine = get_machine("Summit")
        assert is_available("cuda", machine) is True
        assert is_available("sycl", machine) is False

    def test_create_model_raises_without_provider(self, no_provider):
        with pytest.raises(ModelError, match="unknown model"):
            create_model("compiled")


def _collision(name):
    return SolverConfig(tau=0.8, collision=name).make_collision()


class TestCollisionOpCode:
    def test_duck_typed_dispatch(self):
        assert collision_op_code(_collision("bgk")) == 0
        assert collision_op_code(_collision("trt")) == 1
        assert collision_op_code(_collision("mrt")) == 2


@compiled_only
class TestCompiledKernels:
    def make(self, backend="compiled-serial", fastmath=False):
        return CompiledKernels(
            D3Q19, _collision("bgk"), backend=backend, fastmath=fastmath,
        )

    def test_collide_matches_reference(self):
        from repro.core.kernels import bgk_collide_kernel

        kern = self.make()
        rng = np.random.default_rng(3)
        n = 100
        f = np.ascontiguousarray(
            D3Q19.equilibrium(
                1.0 + 0.01 * rng.random(n), 0.01 * rng.random((n, 3))
            )
        )
        ref = f.copy()
        bgk_collide_kernel(D3Q19, ref, np.arange(n, dtype=np.int64),
                           omega=1.0 / 0.8)
        kern.collide(f, n)
        assert np.array_equal(ref, f)

    @staticmethod
    def _links(n_upd=4, nodes=16):
        """Random duplicate-free links over a (q, nodes) array, as the
        (q, n_upd) gather table ``planmeta.kernel_tables`` consumes."""
        rng = np.random.default_rng(5)
        q = D3Q19.q
        ids = np.sort(rng.permutation(nodes)[:n_upd]).astype(np.int64)
        flat_src = rng.integers(0, q * nodes, (q, n_upd)).astype(np.int64)
        return ids, flat_src, nodes

    def test_stream_matches_flat_gather(self):
        from repro.core.planmeta import flat_destinations, kernel_tables

        kern = self.make()
        ids, flat_src, nodes = self._links()
        heads, lens = kernel_tables(flat_src, ids, nodes)
        f_src = np.random.default_rng(7).random((D3Q19.q, nodes))
        f_dst = np.zeros_like(f_src)
        kern.stream(f_src, f_dst, heads, lens)
        ref = np.zeros_like(f_src)
        dst = flat_destinations(ids, nodes, D3Q19.q)
        ref.reshape(-1)[dst.reshape(-1)] = f_src.reshape(-1)[
            flat_src.reshape(-1)
        ]
        assert np.array_equal(ref, f_dst)

    def test_malformed_tables_raise_instead_of_faulting(self):
        # the kernels index through raw pointers: a table of the wrong
        # dtype/layout used to take the interpreter down with it
        from repro.core.planmeta import kernel_tables

        kern = self.make()
        ids, flat_src, nodes = self._links()
        heads, lens = kernel_tables(flat_src, ids, nodes)
        f = np.random.default_rng(7).random((D3Q19.q, nodes))
        out = np.zeros_like(f)
        with pytest.raises(ConfigError, match="heads"):
            # raw per-link arrays, the pre-run-table call shape
            kern.stream(f, out, flat_src.reshape(-1), lens)
        with pytest.raises(ConfigError, match="lens"):
            kern.stream(f, out, heads, lens.astype(np.int32))
        with pytest.raises(ConfigError, match="heads"):
            kern.stream(f, out, np.ascontiguousarray(heads.T), lens)
        with pytest.raises(ConfigError, match="heads"):
            kern.stream(f, out, np.asfortranarray(heads), lens)
        with pytest.raises(ConfigError, match="f_src"):
            kern.stream(np.asfortranarray(f), out, heads, lens)
        with pytest.raises(ConfigError, match="f_dst"):
            kern.stream(f, out[:, :-1], heads, lens)
        with pytest.raises(ConfigError, match="f must"):
            kern.collide(np.asfortranarray(f))
        with pytest.raises(ConfigError, match="n_nodes"):
            kern.collide(f, nodes + 1)
        with pytest.raises(ConfigError, match="flat_src"):
            kern.fused_step(f, out, flat_src[:-1])
        with pytest.raises(ConfigError, match="flat_src"):
            kern.fused_step(f, out, flat_src.astype(np.int32))
        assert not out.any()
