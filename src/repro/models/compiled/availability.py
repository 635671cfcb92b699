"""Provider detection for the compiled backend tier.

The compiled tier has one provider, ``cgen``: the kernels of
:mod:`repro.models.compiled.csrc`, emitted as portable C99, compiled on
first use with the host C compiler (``-O3 [-fopenmp] [-ffast-math]``)
and loaded through :mod:`ctypes`.

Without a working compiler the tier degrades gracefully: availability
queries return ``False``, requesting a compiled backend raises
:class:`~repro.core.errors.BackendUnavailableError` with an install
hint, and every NumPy path is untouched.

``REPRO_COMPILED_PROVIDER`` overrides detection: ``auto`` (default) or
``none`` (force-unavailable; used by CI's clean-degradation legs and the
unavailability tests).
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from ...core.errors import BackendUnavailableError, ConfigError
from ...lbm.solver import COMPILED_BACKENDS
from . import csrc

__all__ = [
    "COMPILED_BACKENDS",
    "PROVIDER_ENV",
    "compiled_available",
    "compiled_provider",
    "parallel_supported",
    "availability_report",
    "normalize_backend",
    "require_compiled",
    "reset_detection_cache",
]

PROVIDER_ENV = "REPRO_COMPILED_PROVIDER"

_INSTALL_HINT = "ensure a host C compiler (cc/gcc/clang, or $CC) is on PATH"

# detection results cached per environment-override value so tests can
# flip the env var without stale answers
_cache: Dict[str, Optional[str]] = {}


def reset_detection_cache() -> None:
    """Drop memoised provider detection (tests flip the env override)."""
    _cache.clear()


def _detect(mode: str) -> Optional[str]:
    if mode not in ("auto", "none"):
        raise ConfigError(
            f"unknown {PROVIDER_ENV} value {mode!r}; expected 'auto' or 'none'"
        )
    if mode == "auto" and csrc.compiler_works():
        return "cgen"
    return None


def compiled_provider() -> Optional[str]:
    """The active provider name (``"cgen"``) or ``None``."""
    mode = os.environ.get(PROVIDER_ENV, "auto").strip().lower()
    if mode not in _cache:
        _cache[mode] = _detect(mode)
    return _cache[mode]


def compiled_available() -> bool:
    """Whether the compiled provider is usable on this host."""
    return compiled_provider() is not None


def parallel_supported() -> bool:
    """Whether the kernels can actually run threaded: the trial compile
    accepted ``-fopenmp``.  A ``compiled-parallel`` request still works
    without thread support — the kernels just run serially — so this is
    reporting, not gating.
    """
    return compiled_available() and csrc.openmp_supported()


def availability_report() -> Dict[str, object]:
    """Machine-readable availability summary (CLI/tests)."""
    provider = compiled_provider()
    return {
        "available": provider is not None,
        "provider": provider,
        "parallel": parallel_supported(),
        "backends": list(COMPILED_BACKENDS),
        "override": os.environ.get(PROVIDER_ENV, "auto"),
    }


def normalize_backend(backend: str) -> str:
    """Resolve the ``compiled`` alias to a concrete variant."""
    if backend == "compiled":
        return (
            "compiled-parallel" if parallel_supported() else "compiled-serial"
        )
    return backend


def require_compiled(backend: str) -> str:
    """Return the active provider for ``backend`` or raise with a hint."""
    if backend not in COMPILED_BACKENDS:
        raise ConfigError(
            f"unknown compiled backend {backend!r}; expected one of "
            f"{', '.join(COMPILED_BACKENDS)}"
        )
    provider = compiled_provider()
    if provider is None:
        raise BackendUnavailableError(
            f"backend {backend!r} is unavailable on this host: no working "
            f"C compiler was found; {_INSTALL_HINT}"
        )
    return provider
