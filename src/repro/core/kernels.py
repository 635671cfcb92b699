"""Reference LBM kernel bodies shared by every programming-model backend.

The paper stresses that "many existing CUDA kernel bodies are inherited in
the Kokkos functors" — the physics is identical across ports and only the
launch/memory idioms differ.  We reproduce that property literally: the
kernel *bodies* live here, written vectorised over an index array;
:class:`~repro.lbm.solver.NumpyKernels` runs them as the reference kernel
provider, and each backend in :mod:`repro.models` launches them through
its own machinery (:class:`~repro.models.base.LaunchedKernels`).

All kernels operate on distributions stored structure-of-arrays as
``f[q, n]`` over the ``n`` compact fluid nodes (indirect addressing for
complex geometries, following ref. [12] of the paper).

Allocation discipline
---------------------
The collide/moments kernels accept an optional :class:`Workspace` of
preallocated scratch buffers.  With a workspace the hot path performs no
array allocation at all: moments, equilibrium, and Guo source terms are
computed with ``out=``/in-place ufuncs into reused buffers, and when
``idx`` covers every column of the ``f`` it is handed the kernels skip the
gather copy ``fi = f[:, idx]`` entirely and collide directly in ``f``.
``NumpyKernels.collide`` always takes that path: :func:`collide_prefix`
hands the collision operator one ``f[:, a:b]`` column view per
cache-sized block, so the scratch buffers are block-wide and stay cache
resident.  Without a
workspace a throwaway one is created per call, which reproduces the legacy
allocate-per-step behaviour bit for bit (the arithmetic is identical; only
buffer reuse differs).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .lattice import Lattice

__all__ = [
    "Workspace",
    "COLLIDE_BLOCK",
    "collide_prefix",
    "moments_kernel",
    "bgk_collide_kernel",
    "fused_stream_kernel",
    "fused_stream_body_kernel",
    "partition_range",
]


class Workspace:
    """Reusable scratch buffers for the allocation-free kernel paths.

    Buffers are keyed by ``(name, shape)`` so the same workspace serves
    blocked callers (:func:`collide_prefix`, chunked backend launches:
    full blocks and the tail block allocate distinct block-wide buffers
    once each and reuse them every step).  Per-force Guo constants (the
    half-force velocity shift and the projections ``c . F``) are cached so
    they are computed once per run rather than once per kernel invocation.
    """

    __slots__ = ("_bufs", "_guo")

    def __init__(self) -> None:
        self._bufs: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}
        self._guo: Dict[int, Tuple[np.ndarray, ...]] = {}

    def get(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Return a float64 buffer of ``shape``, reused across calls."""
        key = (name, shape)
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=np.float64)
            self._bufs[key] = buf
        return buf

    def guo_constants(
        self, lat: Lattice, force: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(F/2, c.F, c.F/cs^2)`` for Guo forcing with ``force``.

        The cache key holds a reference to the force array itself, so the
        id() key cannot be recycled while the entry is alive.
        """
        entry = self._guo.get(id(force))
        if entry is None or entry[0] is not force:
            fvec = np.asarray(force, dtype=np.float64)
            cfq = lat.cf @ fvec
            entry = (force, 0.5 * fvec, cfq, (1.0 / lat.cs2) * cfq)
            self._guo[id(force)] = entry
        return entry[1], entry[2], entry[3]

    def num_buffers(self) -> int:
        return len(self._bufs)


def _gather_fi(
    f: np.ndarray, idx: np.ndarray, ws: Workspace, allow_inplace: bool
) -> Tuple[np.ndarray, bool]:
    """The columns ``idx`` of ``f`` the collide arithmetic works on.

    Fast path (``allow_inplace``, i.e. a caller-owned workspace is in
    play): when ``idx`` covers every column of ``f``, no copy is made and
    ``f`` itself is returned — the collide kernels then read and write
    ``f`` directly.  ``NumpyKernels.collide`` always lands here, through
    the column views of :func:`collide_prefix`.  The gather/scatter path
    remains for ``LaunchedKernels.collide`` (launch-block chunks of the
    whole ``f``), subset :func:`moments_kernel` calls and workspace-less
    callers (same values either way; the gather lands in C order and the
    ops are elementwise, so the two paths agree bit for bit).
    """
    if allow_inplace and idx.size == f.shape[1]:
        return f, True
    fi = ws.get("fi", (f.shape[0], idx.size))
    np.take(f, idx, axis=1, out=fi)
    return fi, False


#: Columns per :func:`collide_prefix` block: a ``(q, 4096)`` float64 buffer
#: is 608 KiB for D3Q19, so a block and its scratch stay cache resident
#: through every ufunc pass.  A constant, not an option: the sweep has a
#: wide plateau (2048 within 11 %; 8192, unblocked slower; DESIGN §8).
COLLIDE_BLOCK = 4096

_BLOCK_IDS = np.arange(2 * COLLIDE_BLOCK, dtype=np.int64)


def collide_prefix(
    collision, lat: Lattice, f: np.ndarray, n: int, ws: Workspace
) -> None:
    """Collide columns ``[0, n)`` of ``f`` in place, a block at a time.

    Each block is a column view ``f[:, a:b]`` handed to
    ``collision.apply`` with indices covering it, so the operator takes
    its in-place path: no gather, no scatter, block-wide scratch.  The
    bits must not depend on the blocking, and BLAS sums a narrow operand
    in another order (small-matrix GEMM below ~2.8 k columns of a 19x19
    projection, strided gemv for one column): so the tail is folded into
    the last block, and a lone column goes the gather way.
    """
    if n == 1:
        collision.apply(lat, f, _BLOCK_IDS[:1], workspace=ws)
        return
    a = 0
    while a < n:
        b = a + COLLIDE_BLOCK
        if n - b < COLLIDE_BLOCK:
            b = n
        collision.apply(lat, f[:, a:b], _BLOCK_IDS[: b - a], workspace=ws)
        a = b


def _moments_into(
    lat: Lattice,
    fi: np.ndarray,
    force: Optional[np.ndarray],
    ws: Workspace,
) -> Tuple[np.ndarray, np.ndarray]:
    """Density and (force-shifted) velocity of ``fi`` into workspace buffers.

    Returns ``(rho, u)`` with ``u`` of shape ``(m, 3)``.  ``u`` is a
    transposed view of a C-ordered ``(3, m)`` buffer, i.e. F-ordered —
    the same memory layout the legacy expression ``tensordot(...).T /
    rho[:, None]`` produced, which keeps the downstream ``einsum``
    reduction bitwise identical.
    """
    m = fi.shape[1]
    rho = ws.get("rho", (m,))
    mom_t = ws.get("mom_t", (3, m))
    u_t = ws.get("u_t", (3, m))
    np.sum(fi, axis=0, out=rho)
    np.matmul(lat.cf.T, fi, out=mom_t)  # (3, m): same bits as tensordot
    mom = mom_t.T
    if force is not None:
        half_force, _, _ = ws.guo_constants(lat, force)
        mom += half_force[None, :]
    u = u_t.T
    np.divide(mom, rho[:, None], out=u)
    return rho, u


def _equilibrium_into(
    lat: Lattice,
    rho: np.ndarray,
    u: np.ndarray,
    out: np.ndarray,
    ws: Workspace,
) -> np.ndarray:
    """Second-order equilibrium into ``out``; returns the ``c . u`` buffer.

    Mirrors :meth:`Lattice.equilibrium` operation by operation (only
    reassociating commutative factors), so the result is bit-identical.
    """
    q, m = out.shape
    inv_cs2 = 1.0 / lat.cs2
    cu = ws.get("cu", (q, m))
    np.matmul(lat.cf, u.T, out=cu)
    usq = ws.get("usq", (m,))
    np.einsum("nd,nd->n", u, u, out=usq)
    scratch = ws.get("eq_scratch", (q, m))
    np.multiply(cu, inv_cs2, out=out)
    out += 1.0
    np.multiply(cu, 0.5 * inv_cs2 * inv_cs2, out=scratch)
    scratch *= cu
    out += scratch
    usq_scaled = ws.get("usq_scaled", (m,))
    np.multiply(usq, 0.5 * inv_cs2, out=usq_scaled)
    out -= usq_scaled[None, :]
    np.multiply(lat.w[:, None], rho[None, :], out=scratch)
    out *= scratch
    return cu


def _guo_source_into(
    lat: Lattice,
    u: np.ndarray,
    cu: np.ndarray,
    force: np.ndarray,
    out: np.ndarray,
    ws: Workspace,
) -> None:
    """Unscaled Guo source term ``w_q (c.F/cs2 + (c.u)(c.F)/cs4 - u.F/cs2)``.

    The relaxation-dependent prefactor is applied by the caller (BGK uses
    ``1 - omega/2``; TRT splits the term into even/odd parts first).
    """
    q, m = out.shape
    inv_cs2 = 1.0 / lat.cs2
    _, cfq, cfq_cs2 = ws.guo_constants(lat, force)
    np.multiply(cu, inv_cs2 * inv_cs2, out=out)
    out *= cfq[:, None]
    out += cfq_cs2[:, None]
    uf = ws.get("uf", (m,))
    np.matmul(u, force, out=uf)
    uf *= inv_cs2
    out -= uf[None, :]
    out *= lat.w[:, None]


def moments_kernel(
    lat: Lattice,
    f: np.ndarray,
    idx: np.ndarray,
    rho_out: np.ndarray,
    u_out: np.ndarray,
    force: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
) -> None:
    """Compute density and velocity moments for the nodes in ``idx``.

    With Guo forcing, velocity is shifted by half the body force:
    ``u = (sum_q c_q f_q + F/2) / rho``.
    """
    ws = workspace if workspace is not None else Workspace()
    fi, _ = _gather_fi(f, idx, ws, workspace is not None)
    rho, u = _moments_into(lat, fi, force, ws)
    rho_out[idx] = rho
    u_out[idx] = u


def bgk_collide_kernel(
    lat: Lattice,
    f: np.ndarray,
    idx: np.ndarray,
    omega: float,
    force: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
) -> None:
    """BGK relaxation toward equilibrium, in place, on nodes ``idx``.

    ``omega = 1/tau``.  When ``force`` (a uniform body force per unit
    volume) is given, Guo's forcing scheme is applied: the velocity in the
    equilibrium is force-shifted and a source term weighted by
    ``(1 - omega/2)`` is added.
    """
    ws = workspace if workspace is not None else Workspace()
    fi, full = _gather_fi(f, idx, ws, workspace is not None)
    q, m = fi.shape
    rho, u = _moments_into(lat, fi, force, ws)
    feq = ws.get("feq", (q, m))
    cu = _equilibrium_into(lat, rho, u, feq, ws)
    delta = ws.get("delta", (q, m))
    np.subtract(feq, fi, out=delta)
    delta *= omega
    out = f if full else ws.get("out", (q, m))
    np.add(fi, delta, out=out)
    if force is not None:
        src = ws.get("src", (q, m))
        _guo_source_into(lat, u, cu, force, src, ws)
        src *= 1.0 - 0.5 * omega
        out += src
    if not full:
        f[:, idx] = out


def fused_stream_kernel(
    f_src: np.ndarray,
    f_dst_region: np.ndarray,
    flat_src: np.ndarray,
) -> None:
    """Fused streaming + bounce-back: one gather over all populations.

    ``flat_src`` holds flat indices ``src_q * n + src_node`` into
    ``f_src.reshape(-1)`` — bounce-back links simply point at the
    opposite population of the same node, so walls cost nothing extra.
    One ``np.take`` fills the destination region: exactly one read and
    one write per population, the one-pass traffic the paper's perf model
    prices (Eq. 1) — provided ``f_dst_region`` is C-contiguous (the whole
    array, or one row's prefix).  NumPy bounces a strided ``out=`` through
    a temporary of its full size, tripling the traffic, so
    ``StepPlan.apply`` never passes one.

    Indices are in range by construction, except the halo placeholder
    -1, which ``mode="clip"`` reads as element 0 (the frontier scatter
    overwrites it); ``mode="clip"`` also bypasses the buffering of
    ``out=`` that ``mode="raise"`` always does.
    """
    np.take(f_src.reshape(-1), flat_src, out=f_dst_region, mode="clip")


def fused_stream_body_kernel(
    f_src_flat: np.ndarray,
    f_dst_flat: np.ndarray,
    src_flat: np.ndarray,
    idx: np.ndarray,
    dst_flat: np.ndarray,
) -> None:
    """Chunked form of the fused gather for programming-model backends.

    Backends launch this body over ``idx`` blocks of the flat link range;
    ``dst_flat`` maps each link to its destination.  A halo link's
    source -1 reads the last element as a placeholder, which the
    frontier scatter overwrites.
    """
    f_dst_flat[dst_flat[idx]] = f_src_flat[src_flat[idx]]


def partition_range(n: int, chunk: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``range(n)`` into launch blocks of ``chunk`` indices.

    Returns (starts, stops) arrays; used by backends to emulate grid/block
    and workgroup launch structure without per-element Python loops.
    """
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    starts = np.arange(0, n, chunk, dtype=np.int64)
    stops = np.minimum(starts + chunk, n)
    return starts, stops
