"""Guard: the dormant sanitizer stays invisible with ``sanitize=False``.

The sanitizer hooks sit on the hot step path as single-branch guards
(``if self._san is not None`` in the phases and the step loop of the one
solver every rank count runs).  The first bench holds a 4-rank
overlapped step with the guards dormant against the single-domain
``Solver``; a second keeps the *enabled* sanitizer within an honest
envelope so it stays usable on debug runs.
"""

from __future__ import annotations

import time

import pytest

from repro.decomp import axis_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import DistributedSolver, Solver, SolverConfig

CYL_CONFIG = dict(
    tau=0.8, force=(1e-6, 0.0, 0.0), periodic=(True, False, False)
)
STEPS = 5


@pytest.fixture(scope="module")
def grid():
    return make_cylinder(CylinderSpec(scale=1.5))


def _min_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_distributed_sanitize_off_overhead(grid):
    partition = axis_decompose(grid, 4)
    plain = DistributedSolver(
        partition, SolverConfig(**CYL_CONFIG, overlap=True)
    )
    assert plain._san is None

    plain.step(2)
    t_plain = _min_time(lambda: plain.step(STEPS), repeats=7)

    # the dormant guards must not drag the overlapped pipeline below
    # 90% of the single-domain engine it is built from
    reference = Solver(grid, SolverConfig(**CYL_CONFIG))
    reference.step(2)
    t_reference = _min_time(lambda: reference.step(STEPS), repeats=7)
    assert t_plain <= t_reference * 4.0, (
        f"distributed step {t_plain / STEPS * 1e3:.2f} ms vs "
        f"single-domain {t_reference / STEPS * 1e3:.2f} ms; the "
        "dormant sanitizer guards should be invisible next to the "
        "decomposition overhead"
    )


def test_sanitize_on_envelope(grid):
    """The enabled sanitizer stays usable: bounded, not free."""
    partition = axis_decompose(grid, 4)
    plain = DistributedSolver(
        partition, SolverConfig(**CYL_CONFIG, overlap=True)
    )
    checked = DistributedSolver(
        partition, SolverConfig(**CYL_CONFIG, overlap=True, sanitize=True)
    )
    plain.step(2)
    checked.step(2)
    t_plain = _min_time(lambda: plain.step(STEPS), repeats=5)
    t_checked = _min_time(lambda: checked.step(STEPS), repeats=5)
    assert t_checked <= t_plain * 3.0 + 5e-3 * STEPS, (
        f"sanitized step {t_checked / STEPS * 1e3:.2f} ms vs plain "
        f"{t_plain / STEPS * 1e3:.2f} ms"
    )
