"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class LatticeError(ReproError):
    """Raised for invalid lattice descriptors or lattice lookups."""


class ViewError(ReproError):
    """Raised for invalid View construction, access, or deep_copy usage."""


class GeometryError(ReproError):
    """Raised for invalid geometry parameters or empty fluid domains."""


class DecompositionError(ReproError):
    """Raised when a domain decomposition request cannot be satisfied."""


class RuntimeSimError(ReproError):
    """Raised by the simulated MPI runtime (bad ranks, mismatched buffers)."""


class StallError(RuntimeSimError):
    """Raised by the telemetry plane's heartbeat watchdog when a worker
    rank stops publishing progress for longer than the stall timeout —
    a rank-attributed diagnosis instead of a silent hang."""


class ModelError(ReproError):
    """Raised by programming-model backends (bad launch configs, spaces)."""


class BackendUnavailableError(ModelError):
    """Raised when a compiled backend is requested but the host has no
    working C compiler to build its kernels with."""


class HardwareError(ReproError):
    """Raised for unknown systems or invalid hardware specifications."""


class PerfModelError(ReproError):
    """Raised for invalid performance-model inputs."""


class PortingError(ReproError):
    """Raised by the porting tools for malformed source corpora."""


class ConfigError(ReproError):
    """Raised for invalid application configuration."""


class TelemetryError(ReproError):
    """Raised for invalid telemetry usage (span nesting, metric types,
    malformed trace files)."""


class LintError(ReproError):
    """Raised by the static-analysis engine (unknown rules, bad baselines,
    unparseable schedule files)."""


class CommScheduleError(ReproError):
    """Raised when a communication schedule fails static verification
    (unmatched messages, tag collisions, blocking deadlock)."""


class PlanCheckError(ReproError):
    """Raised when a step plan fails static verification (double-written
    destinations, out-of-bounds gather sources, uncovered cross-links,
    phase-order hazards, run tables that differ from the link tables)."""


class SanitizeError(ReproError):
    """Raised by the runtime sanitizer (NaN canaries surviving into
    owned state, stale or unscattered payloads, double scatters)."""


class BenchmarkError(ReproError):
    """Raised by :func:`repro.bench.config_hash` for a config that is not
    a dict (nothing else can be content-addressed)."""


class CampaignError(ReproError):
    """Raised by the campaign engine (malformed specs, unknown runners or
    parameters, corrupt result-store records)."""
