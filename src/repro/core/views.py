"""A Kokkos-style ``View`` abstraction over NumPy storage.

The paper's Kokkos port (Section 7.3) replaces raw device arrays with
``Kokkos::View`` objects, moves data with ``Kokkos::deep_copy``, and selects
memory spaces per backend.  This module reproduces that programming surface:

* :class:`MemorySpace` — a named allocation arena with byte accounting
  (``HostSpace`` plus device spaces created by the simulated devices).
* :class:`View` — an n-dimensional array bound to a space, addressed with
  parentheses-style indexing (``v[i, j]``) and carrying a debug label.
* :func:`deep_copy` — the only sanctioned way to move data between spaces;
  each cross-space copy is recorded in a :class:`TransferLedger` so the
  performance layer can price host/device traffic.
* Constant views: as in the paper, a const view cannot be the target of a
  ``deep_copy``; it must be initialised from a non-const view in the *same*
  space (the "intermediate non-constant device view" workaround).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ViewError

__all__ = [
    "MemorySpace",
    "HostSpace",
    "host_space",
    "TransferLedger",
    "TransferRecord",
    "View",
    "deep_copy",
    "create_mirror_view",
]


@dataclass
class TransferRecord:
    """One cross-space copy: direction, bytes, and the view label."""

    src_space: str
    dst_space: str
    nbytes: int
    label: str

    @property
    def direction(self) -> str:
        """``"H2D"``, ``"D2H"``, ``"D2D"`` or ``"H2H"``."""
        src_host = self.src_space == "Host"
        dst_host = self.dst_space == "Host"
        if src_host and dst_host:
            return "H2H"
        if src_host:
            return "H2D"
        if dst_host:
            return "D2H"
        return "D2D"


class TransferLedger:
    """Accumulates :class:`TransferRecord` entries for a run."""

    def __init__(self) -> None:
        self.records: List[TransferRecord] = []

    def record(self, rec: TransferRecord) -> None:
        self.records.append(rec)

    def bytes_moved(self, direction: Optional[str] = None) -> int:
        """Total bytes, optionally restricted to one direction."""
        return sum(
            r.nbytes
            for r in self.records
            if direction is None or r.direction == direction
        )

    def count(self, direction: Optional[str] = None) -> int:
        return sum(
            1
            for r in self.records
            if direction is None or r.direction == direction
        )

    def clear(self) -> None:
        self.records.clear()


#: Process-wide ledger used when a space does not provide its own.
GLOBAL_LEDGER = TransferLedger()


class MemorySpace:
    """A named allocation arena with byte accounting.

    ``capacity_bytes`` of ``None`` means unbounded (host memory); device
    spaces carry the device capacity so over-allocation is caught the same
    way an out-of-memory would surface on real hardware.
    """

    def __init__(
        self,
        name: str,
        capacity_bytes: Optional[int] = None,
        ledger: Optional[TransferLedger] = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ViewError("capacity_bytes must be positive or None")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.ledger = ledger if ledger is not None else GLOBAL_LEDGER
        self.allocated_bytes = 0
        self.peak_bytes = 0
        self.allocation_count = 0

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ViewError("cannot allocate negative bytes")
        if (
            self.capacity_bytes is not None
            and self.allocated_bytes + nbytes > self.capacity_bytes
        ):
            raise ViewError(
                f"memory space {self.name!r} out of memory: "
                f"{self.allocated_bytes + nbytes} > {self.capacity_bytes} bytes"
            )
        self.allocated_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
        self.allocation_count += 1

    def free(self, nbytes: int) -> None:
        if nbytes > self.allocated_bytes:
            raise ViewError(
                f"memory space {self.name!r}: freeing {nbytes} bytes "
                f"but only {self.allocated_bytes} allocated"
            )
        self.allocated_bytes -= nbytes

    @property
    def is_host(self) -> bool:
        return self.name == "Host"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemorySpace({self.name!r}, allocated={self.allocated_bytes})"


class HostSpace(MemorySpace):
    """The (unbounded) host memory space."""

    def __init__(self, ledger: Optional[TransferLedger] = None) -> None:
        super().__init__("Host", None, ledger)


#: Default process-wide host space.
host_space = HostSpace()


class View:
    """An n-dimensional array bound to a :class:`MemorySpace`.

    Mirrors the Kokkos ``View`` API surface used by the paper's port:
    labelled, space-bound, element access, ``data()`` escape hatch to the
    raw array (which the paper uses to reuse CUDA kernel bodies), and
    optional constness.
    """

    __slots__ = ("label", "space", "const", "_array", "_freed")

    def __init__(
        self,
        label: str,
        shape: Tuple[int, ...],
        dtype: np.dtype = np.float64,
        space: Optional[MemorySpace] = None,
        const: bool = False,
        _init: Optional[np.ndarray] = None,
    ) -> None:
        self.label = str(label)
        self.space = space if space is not None else host_space
        self.const = bool(const)
        self._freed = False
        if _init is not None:
            arr = np.array(_init, dtype=dtype)
        else:
            arr = np.zeros(shape, dtype=dtype)
        if tuple(arr.shape) != tuple(shape):
            raise ViewError(
                f"view {label!r}: init shape {arr.shape} != declared {shape}"
            )
        self.space.allocate(arr.nbytes)
        if self.const:
            arr.setflags(write=False)
        self._array = arr

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_array(
        cls,
        label: str,
        array: np.ndarray,
        space: Optional[MemorySpace] = None,
        const: bool = False,
    ) -> "View":
        array = np.asarray(array)
        return cls(
            label, tuple(array.shape), array.dtype, space, const, _init=array
        )

    # -- array protocol ---------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self._array.shape)

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    @property
    def nbytes(self) -> int:
        return int(self._array.nbytes)

    @property
    def size(self) -> int:
        return int(self._array.size)

    def extent(self, axis: int) -> int:
        """Kokkos-style extent query."""
        return int(self._array.shape[axis])

    def data(self) -> np.ndarray:
        """Raw array access (the ``view.data()`` idiom from the paper)."""
        self._check_alive()
        return self._array

    def __getitem__(self, idx):
        self._check_alive()
        return self._array[idx]

    def __setitem__(self, idx, value) -> None:
        self._check_alive()
        if self.const:
            raise ViewError(f"view {self.label!r} is const")
        self._array[idx] = value

    def __array__(self, dtype=None):
        return np.asarray(self._array, dtype=dtype)

    def __len__(self) -> int:
        return len(self._array)

    # -- lifecycle --------------------------------------------------------
    def free(self) -> None:
        """Release the allocation from its space (idempotent-unsafe)."""
        self._check_alive()
        self.space.free(self._array.nbytes)
        self._freed = True

    def _check_alive(self) -> None:
        if self._freed:
            raise ViewError(f"view {self.label!r} used after free")

    def fill(self, value) -> None:
        self._check_alive()
        if self.const:
            raise ViewError(f"view {self.label!r} is const")
        self._array.fill(value)

    def freeze(self) -> "View":
        """Return a const alias of this view (same storage, same space)."""
        self._check_alive()
        alias = View.__new__(View)
        alias.label = self.label + "_const"
        alias.space = self.space
        alias.const = True
        alias._freed = False
        arr = self._array.view()
        arr.setflags(write=False)
        alias._array = arr
        # aliases share storage: account zero extra bytes
        return alias

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"View({self.label!r}, shape={self.shape}, "
            f"dtype={self.dtype}, space={self.space.name})"
        )


def deep_copy(dst: View, src: View) -> None:
    """Copy ``src`` into ``dst``, recording cross-space traffic.

    Mirrors ``Kokkos::deep_copy`` semantics including the restriction the
    paper hit: a const destination cannot be deep-copied into — initialise a
    non-const view in the target space first, then :meth:`View.freeze` it.
    """
    if not isinstance(dst, View) or not isinstance(src, View):
        raise ViewError("deep_copy requires View arguments")
    dst._check_alive()
    src._check_alive()
    if dst.const:
        raise ViewError(
            f"deep_copy target {dst.label!r} has constant elements; copy via "
            "an intermediate non-const view in the destination space"
        )
    if dst.shape != src.shape:
        raise ViewError(
            f"deep_copy shape mismatch: {dst.shape} vs {src.shape}"
        )
    np.copyto(dst._array, src._array, casting="same_kind")
    if dst.space is not src.space:
        ledger = dst.space.ledger if not dst.space.is_host else src.space.ledger
        ledger.record(
            TransferRecord(src.space.name, dst.space.name, src.nbytes, src.label)
        )


def create_mirror_view(src: View, space: Optional[MemorySpace] = None) -> View:
    """Create an uninitialised view with ``src``'s shape in another space.

    Defaults to the host space, matching ``Kokkos::create_mirror_view``.
    """
    target = space if space is not None else host_space
    return View(src.label + "_mirror", src.shape, src.dtype, target)
