"""The compiled-kernel engine: lattice + collision bound to the C kernels.

:class:`CompiledKernels` packs one collision operator (BGK/TRT/MRT, with
optional Guo forcing) and one lattice into the flat parameter/table ABI
of the generated-C library (:mod:`repro.models.compiled.csrc`), then
exposes the kernels the solver layer needs — the surface of every kernel
provider (:func:`repro.lbm.solver.make_kernels`), plus ``fused_step``:

``tables(plan)``
    The table a :class:`~repro.lbm.stream.StepPlan` carries: the
    one-pass tile table of a plan with nothing between collide and
    stream (:meth:`~repro.lbm.stream.StepPlan.tile_tables`), else its
    ``(heads, lens)`` run table.
``collide(f, n_nodes)``
    In-place collision on the prefix ``[0, n_nodes)`` of ``f[q, n]``
    (the distributed solver passes the owned prefix).
``stream(f_src, f_dst, heads, lens)``
    The fused streaming + bounce-back gather as run-length copies over
    the int64 ``(heads, lens)`` run table — exactly
    :meth:`repro.lbm.stream.StepPlan.kernel_tables`.
``collide_stream(f, f_dst, n_nodes, tile_ptr, heads, lens)``
    Both in one sweep, where nothing runs between them (the single-domain
    solver and a one-rank partition): each tile of source nodes is
    collided from ``f`` into a cache-resident ``q x TILE`` stage and the
    runs whose sources lie in the tile are copied straight into
    ``f_dst``.  ``f`` is read once and ``f_dst`` written once — the
    paper's Eq. 1 byte price — and the exact build equals ``collide``
    then ``stream`` bit for bit.
``outlet(f, nodes, rho0)``
    The pressure outlet in one call: the compiled form of
    :meth:`repro.lbm.boundary.PressureOutlet.apply`, which stays the
    NumPy reference.
``fused_step(f_src, f_dst, flat_src)``
    Single-pass stream + collide driven by destinations: gathers each
    destination block through the per-link ``flat_src`` index stream,
    collides, stores.  Also one sweep of ``f``, but the index stream
    costs more than it saves on CPU hosts (EXPERIMENTS.md), so no solver
    calls it; the ladder times it.

Kernel inputs follow the K406 ABI contract: int64, C-contiguous index
tables; float64, C-contiguous distribution arrays.  The kernels index
through raw pointers, so each entry point checks that contract in O(1)
and raises :class:`~repro.core.errors.ConfigError` naming the argument;
table *contents* (bounds, run/link equivalence) are the K402/K407
pre-flight's job.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...core import planmeta
from ...core.errors import ConfigError
from ...core.lattice import Lattice
from . import csrc
from .availability import normalize_backend, require_compiled

__all__ = [
    "CompiledKernels", "collision_op_code", "OP_BGK", "OP_TRT", "OP_MRT",
]

#: The kernel ABI's collision op codes (``Params.op``).
OP_BGK = 0
OP_TRT = 1
OP_MRT = 2


def _require_abi(name: str, arr, dtype, shape=None) -> None:
    """O(1) guard in front of a raw-pointer kernel argument."""
    if (
        not isinstance(arr, np.ndarray)
        or arr.dtype != dtype
        or not arr.flags.c_contiguous
        or (shape is not None and arr.shape != shape)
    ):
        want = f"C-contiguous {np.dtype(dtype).name} ndarray"
        if shape is not None:
            want += f" of shape {shape}"
        got = (
            f"{arr.dtype} {arr.shape}"
            + ("" if arr.flags.c_contiguous else " non-contiguous")
            if isinstance(arr, np.ndarray)
            else type(arr).__name__
        )
        raise ConfigError(
            f"compiled kernel ABI: {name} must be a {want}, got {got}"
        )


def collision_op_code(collision) -> int:
    """Map a collision operator instance to the kernel op code.

    Duck-typed (MRT carries a rate vector ``_S``; TRT an ``omega_minus``
    rate) so this module never imports :mod:`repro.lbm` — the solver
    imports *us*.
    """
    if getattr(collision, "_S", None) is not None:
        return OP_MRT
    if hasattr(collision, "omega_minus"):
        return OP_TRT
    return OP_BGK


class CompiledKernels:
    """Compiled collide/stream/collide-stream/outlet/fused-step kernels
    for one configuration."""

    def __init__(
        self,
        lattice: Lattice,
        collision,
        backend: str = "compiled",
        fastmath: bool = True,
    ) -> None:
        self.backend = normalize_backend(backend)
        self.provider = require_compiled(backend)
        self.parallel = self.backend == "compiled-parallel"
        self.fastmath = bool(fastmath)
        self.lattice = lattice

        q = lattice.q
        self.q = q
        self.op = collision_op_code(collision)
        self.inv_cs2 = 1.0 / lattice.cs2
        self.omega = float(collision.omega)
        if self.op == OP_TRT:
            self.omega_minus = float(collision.omega_minus)
            self.guo_pref = 1.0 - 0.5 * self.omega
            self.guo_pref_minus = 1.0 - 0.5 * self.omega_minus
        elif self.op == OP_MRT:
            self.omega_minus = 0.0
            # Guo's MRT form relaxes the source with the shear rate
            self.guo_pref = 1.0 - 0.5 / float(collision.tau)
            self.guo_pref_minus = 0.0
        else:
            self.omega_minus = 0.0
            self.guo_pref = 1.0 - 0.5 * self.omega
            self.guo_pref_minus = 0.0
        force = getattr(collision, "force", None)
        if force is not None:
            fvec = np.asarray(force, dtype=np.float64)
            self.has_force = True
            self.fx, self.fy, self.fz = (float(v) for v in fvec)
        else:
            self.has_force = False
            self.fx = self.fy = self.fz = 0.0

        # kernel tables, normalised to the C ABI (K406 contract)
        self.cf = np.ascontiguousarray(lattice.cf, dtype=np.float64)
        self.w = np.ascontiguousarray(lattice.w, dtype=np.float64)
        self.opp = np.ascontiguousarray(lattice.opposite, dtype=np.int64)
        if self.op == OP_MRT:
            self.M = np.ascontiguousarray(collision._M, dtype=np.float64)
            self.Minv = np.ascontiguousarray(
                collision._Minv, dtype=np.float64
            )
            self.S = np.ascontiguousarray(collision._S, dtype=np.float64)
        else:
            self.M = np.zeros((q, q), dtype=np.float64)
            self.Minv = np.zeros((q, q), dtype=np.float64)
            self.S = np.zeros(q, dtype=np.float64)

        self._clib = csrc.load_kernels(fastmath=self.fastmath)
        # pointers to the six constant tables, derived once (the arrays
        # stay alive on self), and one parameter struct per num_local
        self._ctables = self._clib.table_pointers(
            self.cf, self.w, self.opp, self.M, self.Minv, self.S
        )
        self._cparam_cache: dict = {}

    def _cparams(self, num_local: int):
        params = self._cparam_cache.get(num_local)
        if params is None:
            params = self._cparam_cache[num_local] = csrc.Params(
                q=self.q,
                num_local=int(num_local),
                op=self.op,
                has_force=int(self.has_force),
                inv_cs2=self.inv_cs2,
                omega=self.omega,
                omega_minus=self.omega_minus,
                guo_pref=self.guo_pref,
                guo_pref_minus=self.guo_pref_minus,
                fx=self.fx,
                fy=self.fy,
                fz=self.fz,
            )
        return params

    # -- kernels ------------------------------------------------------------
    def tables(self, plan):
        """The table ``plan`` carries for this provider: its tile table
        (:meth:`collide_stream`) on a one-pass plan, else its run table
        (:meth:`stream`)."""
        if plan.tile_table is not None:
            return plan.tile_table
        return plan.kernel_tables()

    def _num_local(self, f: np.ndarray) -> int:
        """The column count of a kernel's ``f[q, n]`` argument."""
        _require_abi("f", f, np.float64)
        if f.ndim != 2 or f.shape[0] != self.q:
            raise ConfigError(
                f"compiled kernel ABI: f must be (q={self.q}, n), "
                f"got {f.shape}"
            )
        return f.shape[1]

    def collide(self, f: np.ndarray, n_nodes: Optional[int] = None) -> None:
        """Collide the prefix ``[0, n_nodes)`` of ``f[q, n]`` in place."""
        num_local = self._num_local(f)
        n = num_local if n_nodes is None else int(n_nodes)
        if not 0 <= n <= num_local:
            raise ConfigError(
                f"compiled kernel ABI: n_nodes {n} outside "
                f"[0, f.shape[1] = {num_local}]"
            )
        self._clib.collide(
            f, n, self._cparams(num_local), self._ctables, self.parallel
        )

    def stream(
        self,
        f_src: np.ndarray,
        f_dst: np.ndarray,
        heads: np.ndarray,
        lens: np.ndarray,
    ) -> None:
        """Fused streaming + bounce-back over a ``(heads, lens)`` run table.

        Run ``r`` copies ``lens[r]`` consecutive elements of the
        flattened ``f_src`` from ``heads[r, 1]`` to ``heads[r, 0]`` of the
        flattened ``f_dst`` (see :func:`repro.core.planmeta.kernel_tables`).
        """
        _require_abi("f_src", f_src, np.float64)
        _require_abi("f_dst", f_dst, np.float64, f_src.shape)
        _require_abi("lens", lens, np.int64, (np.size(lens),))
        _require_abi("heads", heads, np.int64, (lens.size, 2))
        self._clib.stream(f_src, f_dst, heads, lens, self.parallel)

    def collide_stream(
        self,
        f: np.ndarray,
        f_dst: np.ndarray,
        n_nodes: int,
        tile_ptr: np.ndarray,
        heads: np.ndarray,
        lens: np.ndarray,
    ) -> None:
        """Collide every column of ``f[q, n]`` and stream the result into
        ``f_dst`` over a tile table, in one sweep; ``f`` is only read.

        The tile table (:func:`repro.core.planmeta.tile_table`) files
        every run under the stage tile its sources lie in; equal to
        :meth:`collide` then :meth:`stream` over the plan's run table.
        The pass collides every column, so ``n_nodes`` must be
        ``f.shape[1]``.
        """
        num_local = self._num_local(f)
        _require_abi("f_dst", f_dst, np.float64, f.shape)
        if int(n_nodes) != num_local:
            raise ConfigError(
                f"compiled kernel ABI: the one pass collides every column; "
                f"n_nodes {n_nodes} != f.shape[1] = {num_local}"
            )
        n_tiles = -(-num_local // planmeta.TILE)
        _require_abi("tile_ptr", tile_ptr, np.int64, (n_tiles + 1,))
        _require_abi("lens", lens, np.int64, (np.size(lens),))
        _require_abi("heads", heads, np.int64, (lens.size, 2))
        if tile_ptr[0] != 0 or tile_ptr[-1] != lens.size:
            raise ConfigError(
                f"compiled kernel ABI: tile_ptr runs from {tile_ptr[0]} to "
                f"{tile_ptr[-1]}, not from 0 to the {lens.size} runs"
            )
        self._clib.collide_stream(
            f, f_dst, num_local, (tile_ptr, heads, lens),
            self._cparams(num_local), self._ctables, self.parallel,
        )

    def outlet(self, f: np.ndarray, nodes: np.ndarray, rho0: float) -> None:
        """Reset the distinct columns ``nodes`` of ``f[q, n]`` to the
        equilibrium at density ``rho0`` and each node's own velocity."""
        num_local = self._num_local(f)
        _require_abi("nodes", nodes, np.int64, (np.size(nodes),))
        self._clib.outlet(
            f, nodes, float(rho0), self._cparams(num_local), self._ctables
        )

    def fused_step(
        self,
        f_src: np.ndarray,
        f_dst: np.ndarray,
        flat_src: np.ndarray,
    ) -> None:
        """Single-pass stream + collide into the prefix of ``f_dst``.

        ``flat_src`` is the C-contiguous ``(q, n_upd)`` gather table of a
        prefix :class:`~repro.lbm.stream.StepPlan`; destination node
        ``j`` lands at column ``j`` of ``f_dst``.
        """
        _require_abi("f_src", f_src, np.float64)
        _require_abi("f_dst", f_dst, np.float64, f_src.shape)
        _require_abi("flat_src", flat_src, np.int64)
        if (
            f_dst.ndim != 2
            or flat_src.ndim != 2
            or not f_dst.shape[0] == flat_src.shape[0] == self.q
            or flat_src.shape[1] > f_dst.shape[1]
        ):
            raise ConfigError(
                f"compiled kernel ABI: flat_src {flat_src.shape} must be "
                f"(q={self.q}, n_upd) with n_upd <= f.shape[1]; "
                f"f is {f_dst.shape}"
            )
        n_upd = flat_src.shape[1]
        num_local = f_dst.shape[1]
        self._clib.fused_step(
            f_src, f_dst, flat_src, n_upd, self._cparams(num_local),
            self._ctables, self.parallel,
        )
