"""Shared kernel bodies: collision conservation, the fused streaming gather."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import D3Q19
from repro.core.kernels import (
    bgk_collide_kernel,
    fused_stream_kernel,
    moments_kernel,
    partition_range,
)


def _random_state(n, seed=0, speed=0.03):
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.05 * rng.standard_normal(n)
    u = speed * rng.standard_normal((n, 3))
    return D3Q19.equilibrium(rho, u), rho, u


class TestMoments:
    def test_recovers_equilibrium_inputs(self):
        f, rho, u = _random_state(50)
        rho_out = np.zeros(50)
        u_out = np.zeros((50, 3))
        moments_kernel(D3Q19, f, np.arange(50), rho_out, u_out)
        assert np.allclose(rho_out, rho)
        assert np.allclose(u_out, u)

    def test_partial_index_set(self):
        f, rho, u = _random_state(50)
        rho_out = np.zeros(50)
        u_out = np.zeros((50, 3))
        idx = np.array([3, 7, 11])
        moments_kernel(D3Q19, f, idx, rho_out, u_out)
        assert np.allclose(rho_out[idx], rho[idx])
        assert rho_out[0] == 0.0  # untouched

    def test_force_shift(self):
        f, rho, _u = _random_state(10)
        force = np.array([2e-5, 0.0, 0.0])
        rho_out = np.zeros(10)
        u_shifted = np.zeros((10, 3))
        u_plain = np.zeros((10, 3))
        moments_kernel(D3Q19, f, np.arange(10), rho_out, u_shifted, force)
        moments_kernel(D3Q19, f, np.arange(10), rho_out, u_plain)
        assert np.allclose(
            u_shifted - u_plain, 0.5 * force / rho_out[:, None]
        )


class TestBGKCollide:
    def test_mass_momentum_conserved(self):
        f, _rho, _u = _random_state(40)
        mass0 = f.sum()
        mom0 = np.tensordot(D3Q19.c.astype(float), f, axes=(0, 0)).sum(1)
        bgk_collide_kernel(D3Q19, f, np.arange(40), omega=1.1)
        assert f.sum() == pytest.approx(mass0, rel=1e-13)
        mom1 = np.tensordot(D3Q19.c.astype(float), f, axes=(0, 0)).sum(1)
        assert np.allclose(mom0, mom1, atol=1e-13)

    def test_equilibrium_is_fixed_point(self):
        rho = np.ones(5)
        u = np.full((5, 3), 0.02)
        f = D3Q19.equilibrium(rho, u)
        before = f.copy()
        bgk_collide_kernel(D3Q19, f, np.arange(5), omega=0.9)
        assert np.allclose(f, before, atol=1e-14)

    def test_omega_one_reaches_equilibrium(self):
        f, _, _ = _random_state(5, seed=3)
        f += 0.01 * np.random.default_rng(1).random(f.shape)
        rho = f.sum(axis=0)
        u = np.tensordot(D3Q19.c.astype(float), f, axes=(0, 0)).T / rho[:, None]
        bgk_collide_kernel(D3Q19, f, np.arange(5), omega=1.0)
        assert np.allclose(f, D3Q19.equilibrium(rho, u))

    def test_guo_forcing_adds_momentum(self):
        n = 8
        f = D3Q19.equilibrium(np.ones(n), np.zeros((n, 3)))
        force = np.array([1e-5, 0.0, 0.0])
        bgk_collide_kernel(D3Q19, f, np.arange(n), omega=1.0, force=force)
        mom = np.tensordot(D3Q19.c.astype(float), f, axes=(0, 0))[:, 0]
        # Guo scheme injects exactly F per step into the bare momentum:
        # the force-shifted equilibrium contributes F/2 and the source
        # term the other F/2
        assert mom[0] == pytest.approx(force[0], rel=1e-10)
        assert mom[1] == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(omega=st.floats(0.55, 1.9))
    def test_conservation_property(self, omega):
        f, _, _ = _random_state(20, seed=7)
        mass0 = f.sum()
        bgk_collide_kernel(D3Q19, f, np.arange(20), omega=omega)
        assert f.sum() == pytest.approx(mass0, rel=1e-12)
        assert (f > -1e-9).all()  # no catastrophic negatives at low Mach


class TestStreaming:
    """The fused gather: ``flat_src`` holds ``src_q * n + src_node``."""

    def test_stream_pull_gather(self):
        f_src = np.zeros((19, 4))
        f_src[2] = [10, 20, 30, 40]
        f_dst = np.zeros_like(f_src)
        flat_src = np.arange(19 * 4, dtype=np.int64).reshape(19, 4)
        flat_src[2, :2] = [2 * 4 + 3, 2 * 4 + 2]
        fused_stream_kernel(f_src, f_dst, flat_src)
        assert f_dst[2, 0] == 40 and f_dst[2, 1] == 30

    def test_bounce_back_reflects_opposite(self):
        f_src = np.zeros((19, 3))
        qi = 1
        qi_opp = int(D3Q19.opposite[qi])
        f_src[qi_opp] = [5, 6, 7]
        f_dst = np.zeros_like(f_src)
        flat_src = np.arange(19 * 3, dtype=np.int64).reshape(19, 3)
        flat_src[qi, [0, 2]] = qi_opp * 3 + np.array([0, 2])
        fused_stream_kernel(f_src, f_dst, flat_src)
        assert f_dst[qi, 0] == 5 and f_dst[qi, 2] == 7
        assert f_dst[qi, 1] == 0


class TestPartitionRange:
    def test_covers_range(self):
        starts, stops = partition_range(10, 3)
        assert starts.tolist() == [0, 3, 6, 9]
        assert stops.tolist() == [3, 6, 9, 10]

    def test_single_chunk(self):
        starts, stops = partition_range(5, 100)
        assert starts.tolist() == [0] and stops.tolist() == [5]

    def test_bad_chunk(self):
        with pytest.raises(ValueError):
            partition_range(10, 0)
