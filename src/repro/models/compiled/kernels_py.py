"""Loop-form LBM kernels: the numba provider's source functions.

These are the same scalar kernels :mod:`repro.models.compiled.csrc` emits
as C, written as numba-jittable Python (``@njit(parallel=..., fastmath=...,
cache=True)`` is applied by the engine; the plain functions also run under
CPython, which is how the container's test suite validates the numba code
path without numba installed — on tiny lattices only, they are O(q) Python
per node).

Each function is self-contained (no helper calls) so numba can compile it
in one pass, and each mirrors the reference NumPy bodies in
:mod:`repro.core.kernels` / :mod:`repro.lbm.trt` / :mod:`repro.lbm.mrt`
operation for operation; only reduction order differs (scalar
accumulation vs pairwise/BLAS), which is why compiled-vs-NumPy
equivalence is tolerance-banded rather than bitwise.
"""

from __future__ import annotations

import numpy as np

try:  # numba's prange aliases range under plain CPython
    from numba import prange
except ImportError:  # pragma: no cover - exercised when numba is absent
    prange = range

__all__ = [
    "OP_BGK",
    "OP_TRT",
    "OP_MRT",
    "collide_nodes_loop",
    "stream_runs_loop",
    "outlet_nodes_loop",
    "fused_step_loop",
]

OP_BGK = 0
OP_TRT = 1
OP_MRT = 2


def collide_nodes_loop(
    f,
    n_nodes,
    q,
    num_local,
    op,
    cf,
    w,
    opp,
    M,
    Minv,
    S,
    inv_cs2,
    omega,
    omega_minus,
    guo_pref,
    guo_pref_minus,
    has_force,
    fx,
    fy,
    fz,
):
    """Collide the prefix ``[0, n_nodes)`` of ``f.reshape(-1)`` in place.

    ``f`` is the flat view of the ``(q, num_local)`` distribution array;
    ``cf`` is ``(q, 3)``, ``M``/``Minv`` are ``(q, q)`` (only read when
    ``op == OP_MRT``).
    """
    for node in prange(n_nodes):
        fq = np.empty(q, np.float64)
        feq = np.empty(q, np.float64)
        src = np.empty(q, np.float64)
        out = np.empty(q, np.float64)
        rho = 0.0
        mx = 0.0
        my = 0.0
        mz = 0.0
        for i in range(q):
            fi = f[i * num_local + node]
            fq[i] = fi
            rho += fi
            mx += cf[i, 0] * fi
            my += cf[i, 1] * fi
            mz += cf[i, 2] * fi
        if has_force:
            mx += 0.5 * fx
            my += 0.5 * fy
            mz += 0.5 * fz
        ux = mx / rho
        uy = my / rho
        uz = mz / rho
        usq = ux * ux + uy * uy + uz * uz
        uf = 0.0
        if has_force:
            uf = (ux * fx + uy * fy + uz * fz) * inv_cs2
        for i in range(q):
            cu = cf[i, 0] * ux + cf[i, 1] * uy + cf[i, 2] * uz
            feq[i] = (
                w[i]
                * rho
                * (
                    1.0
                    + inv_cs2 * cu
                    + 0.5 * inv_cs2 * inv_cs2 * cu * cu
                    - 0.5 * inv_cs2 * usq
                )
            )
            if has_force:
                cfq = cf[i, 0] * fx + cf[i, 1] * fy + cf[i, 2] * fz
                src[i] = w[i] * (
                    cu * inv_cs2 * inv_cs2 * cfq + cfq * inv_cs2 - uf
                )
            else:
                src[i] = 0.0
        if op == 0:  # BGK
            for i in range(q):
                out[i] = (
                    fq[i]
                    + omega * (feq[i] - fq[i])
                    + guo_pref * src[i]
                )
        elif op == 1:  # TRT
            for i in range(q):
                io = opp[i]
                even = 0.5 * (fq[i] + fq[io])
                odd = 0.5 * (fq[i] - fq[io])
                even_eq = 0.5 * (feq[i] + feq[io])
                odd_eq = 0.5 * (feq[i] - feq[io])
                v = (
                    fq[i]
                    - omega * (even - even_eq)
                    - omega_minus * (odd - odd_eq)
                )
                if has_force:
                    s_even = 0.5 * (src[i] + src[io])
                    s_odd = 0.5 * (src[i] - src[io])
                    v += guo_pref * s_even + guo_pref_minus * s_odd
                out[i] = v
        else:  # MRT
            mv = np.empty(q, np.float64)
            for k in range(q):
                mval = 0.0
                meq = 0.0
                for j in range(q):
                    mval += M[k, j] * fq[j]
                    meq += M[k, j] * feq[j]
                mv[k] = mval - S[k] * (mval - meq)
            for i in range(q):
                v = 0.0
                for k in range(q):
                    v += Minv[i, k] * mv[k]
                out[i] = v + guo_pref * src[i]
        for i in range(q):
            f[i * num_local + node] = out[i]


def stream_runs_loop(f_src, f_dst, heads, lens, n_runs):
    """Fused streaming + bounce-back as run-length copies over flat 1-D
    views: run ``r`` moves ``lens[r]`` consecutive elements from
    ``heads[r, 1]`` to ``heads[r, 0]``."""
    for r in prange(n_runs):
        d0 = heads[r, 0]
        s0 = heads[r, 1]
        for j in range(lens[r]):
            f_dst[d0 + j] = f_src[s0 + j]


def outlet_nodes_loop(f, nodes, n_nodes, q, num_local, cf, w, rho0, inv_cs2):
    """Pressure outlet over the flat view of ``f[q, num_local]``: reset
    each of the distinct ``nodes`` to the equilibrium at ``rho0`` and the
    node's own velocity (the loop form of ``PressureOutlet.apply``)."""
    for k in prange(n_nodes):
        node = nodes[k]
        rho = 0.0
        mx = 0.0
        my = 0.0
        mz = 0.0
        for i in range(q):
            fi = f[i * num_local + node]
            rho += fi
            mx += cf[i, 0] * fi
            my += cf[i, 1] * fi
            mz += cf[i, 2] * fi
        ux = mx / rho
        uy = my / rho
        uz = mz / rho
        usq = ux * ux + uy * uy + uz * uz
        for i in range(q):
            cu = cf[i, 0] * ux + cf[i, 1] * uy + cf[i, 2] * uz
            f[i * num_local + node] = (
                w[i]
                * rho0
                * (
                    1.0
                    + inv_cs2 * cu
                    + 0.5 * inv_cs2 * inv_cs2 * cu * cu
                    - 0.5 * inv_cs2 * usq
                )
            )


def fused_step_loop(
    f_src,
    f_dst,
    flat_src,
    n_upd,
    q,
    num_local,
    op,
    cf,
    w,
    opp,
    M,
    Minv,
    S,
    inv_cs2,
    omega,
    omega_minus,
    guo_pref,
    guo_pref_minus,
    has_force,
    fx,
    fy,
    fz,
):
    """Single-pass stream + collide into the prefix of ``f_dst``.

    ``flat_src`` is the flattened ``(q, n_upd)`` gather table; per
    destination node the q arriving populations are gathered, collided in
    registers (same math as :func:`collide_nodes_loop`), and scattered to
    ``f_dst[i * num_local + node]`` — one read and one write per
    population, the paper's one-pass byte accounting.
    """
    for node in prange(n_upd):
        fq = np.empty(q, np.float64)
        feq = np.empty(q, np.float64)
        src_t = np.empty(q, np.float64)
        out = np.empty(q, np.float64)
        rho = 0.0
        mx = 0.0
        my = 0.0
        mz = 0.0
        for i in range(q):
            fi = f_src[flat_src[i * n_upd + node]]
            fq[i] = fi
            rho += fi
            mx += cf[i, 0] * fi
            my += cf[i, 1] * fi
            mz += cf[i, 2] * fi
        if has_force:
            mx += 0.5 * fx
            my += 0.5 * fy
            mz += 0.5 * fz
        ux = mx / rho
        uy = my / rho
        uz = mz / rho
        usq = ux * ux + uy * uy + uz * uz
        uf = 0.0
        if has_force:
            uf = (ux * fx + uy * fy + uz * fz) * inv_cs2
        for i in range(q):
            cu = cf[i, 0] * ux + cf[i, 1] * uy + cf[i, 2] * uz
            feq[i] = (
                w[i]
                * rho
                * (
                    1.0
                    + inv_cs2 * cu
                    + 0.5 * inv_cs2 * inv_cs2 * cu * cu
                    - 0.5 * inv_cs2 * usq
                )
            )
            if has_force:
                cfq = cf[i, 0] * fx + cf[i, 1] * fy + cf[i, 2] * fz
                src_t[i] = w[i] * (
                    cu * inv_cs2 * inv_cs2 * cfq + cfq * inv_cs2 - uf
                )
            else:
                src_t[i] = 0.0
        if op == 0:  # BGK
            for i in range(q):
                out[i] = (
                    fq[i]
                    + omega * (feq[i] - fq[i])
                    + guo_pref * src_t[i]
                )
        elif op == 1:  # TRT
            for i in range(q):
                io = opp[i]
                even = 0.5 * (fq[i] + fq[io])
                odd = 0.5 * (fq[i] - fq[io])
                even_eq = 0.5 * (feq[i] + feq[io])
                odd_eq = 0.5 * (feq[i] - feq[io])
                v = (
                    fq[i]
                    - omega * (even - even_eq)
                    - omega_minus * (odd - odd_eq)
                )
                if has_force:
                    s_even = 0.5 * (src_t[i] + src_t[io])
                    s_odd = 0.5 * (src_t[i] - src_t[io])
                    v += guo_pref * s_even + guo_pref_minus * s_odd
                out[i] = v
        else:  # MRT
            mv = np.empty(q, np.float64)
            for k in range(q):
                mval = 0.0
                meq = 0.0
                for j in range(q):
                    mval += M[k, j] * fq[j]
                    meq += M[k, j] * feq[j]
                mv[k] = mval - S[k] * (mval - meq)
            for i in range(q):
                v = 0.0
                for k in range(q):
                    v += Minv[i, k] * mv[k]
                out[i] = v + guo_pref * src_t[i]
        for i in range(q):
            f_dst[i * num_local + node] = out[i]
