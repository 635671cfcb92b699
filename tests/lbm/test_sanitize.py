"""Runtime sanitizer: NaN canaries, epoch tracking, seeded-bug capture.

The acceptance test of the whole subsystem is
``test_redirected_scatter_caught_only_when_sanitized``: a payload-slot
redirect that the unsanitized path executes silently (producing wrong
results) raises a :class:`SanitizeError` on the first sanitized step.
"""

import numpy as np
import pytest

from repro.core.errors import SanitizeError
from repro.decomp import axis_decompose
from repro.geometry import CylinderSpec, make_cylinder
from repro.lbm import DistributedSolver, Solver, SolverConfig
from repro.lbm.sanitize import StepSanitizer, check_finite
from repro.runtime import fork_available
from repro.telemetry.metrics import get_registry

CYL_CONFIG = dict(
    tau=0.8, force=(1e-6, 0.0, 0.0), periodic=(True, False, False)
)
STEPS = 6
SCHEDULES = ["barrier", "overlap"]
EXECUTORS = [
    "lockstep",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not fork_available(), reason="needs the POSIX fork start method"
        ),
    ),
]


@pytest.fixture(scope="module")
def grid():
    return make_cylinder(CylinderSpec(scale=0.5))


def make_solver(grid, num_ranks=3, **kw):
    config = SolverConfig(**CYL_CONFIG, **kw)
    return DistributedSolver(axis_decompose(grid, num_ranks), config)


class TestCheckFinite:
    def test_clean_buffer_passes(self):
        f = np.ones((3, 8))
        check_finite(f, 6, "t")  # should not raise

    def test_nan_in_owned_column_raises(self):
        f = np.ones((3, 8))
        f[1, 2] = np.nan
        with pytest.raises(SanitizeError, match="NaN canary"):
            check_finite(f, 6, "t")

    def test_nan_in_ghost_column_is_ignored(self):
        # only the first num_owned columns are checked
        f = np.ones((3, 8))
        f[:, 6:] = np.nan
        check_finite(f, 6, "t")


class TestCleanRuns:
    """sanitize=True must be invisible on correct schedules."""

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_bitwise_equal_to_unsanitized(self, grid, overlap, executor):
        with make_solver(
            grid, overlap=overlap, executor=executor
        ) as plain, make_solver(
            grid, overlap=overlap, executor=executor, sanitize=True
        ) as sanitized:
            plain.step(STEPS)
            sanitized.step(STEPS)
            assert np.array_equal(plain.gather_f(), sanitized.gather_f())

    def test_single_rank_sanitized(self, grid):
        solver = make_solver(grid, num_ranks=1, sanitize=True)
        solver.step(STEPS)  # no halo at all; canaries must not trip

    def test_single_domain_solver_sanitized(self, grid):
        config = SolverConfig(**CYL_CONFIG, sanitize=True)
        reference = Solver(grid, SolverConfig(**CYL_CONFIG))
        sanitized = Solver(grid, config)
        reference.step(STEPS)
        sanitized.step(STEPS)
        assert np.array_equal(reference.f, sanitized.f)

    def test_steps_checked_counter_advances(self, grid):
        counter = get_registry().counter("sanitize.steps_checked")
        before = counter.value
        make_solver(grid, overlap=True, sanitize=True).step(STEPS)
        assert counter.value == before + STEPS

    def test_ghost_poison_counter_advances(self, grid):
        # one NaN canary per halo-sourced link destination per step
        counter = get_registry().counter("sanitize.slots_poisoned")
        before = counter.value
        solver = make_solver(grid, sanitize=True)
        canaries = sum(
            st.plan.step_plan.cross_links().size for st in solver.ranks
        )
        assert canaries > 0
        solver.step(2)
        assert counter.value == before + 2 * canaries


class TestSeededBugs:
    """Deliberately broken wiring, injected after the clean pre-flight."""

    def _redirect_scatter(self, solver):
        # drop one frontier destination by scattering its payload value
        # onto a neighbouring slot instead — shapes all agree, so the
        # step executes; the skipped destination keeps its provisional
        # placeholder value
        recv_flat = next(
            s.plan.recv_flat for s in solver.ranks if s.plan.recv_flat
        )
        written = recv_flat[sorted(recv_flat)[0]]
        written[-1] = written[-2]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_redirected_scatter_caught_only_when_sanitized(
        self, grid, executor
    ):
        # the never-finalized check runs where the rank's scatter ends,
        # which under the process tier is the forked worker
        with make_solver(
            grid, overlap=True, executor=executor
        ) as legacy, make_solver(
            grid, overlap=True, executor=executor
        ) as reference:
            self._redirect_scatter(legacy)
            legacy.step(1)  # executes silently — the bug the paper class hits
            reference.step(1)
            assert not np.array_equal(
                legacy.gather_f().copy(), reference.gather_f()
            ), "the seeded bug must actually corrupt the results"

        with make_solver(
            grid, overlap=True, sanitize=True, executor=executor
        ) as sanitized:
            self._redirect_scatter(sanitized)
            with pytest.raises(SanitizeError, match="never finalized"):
                sanitized.step(1)

    @pytest.mark.parametrize("overlap", [False, True], ids=SCHEDULES)
    def test_dropped_completion_caught(self, grid, overlap):
        # one rank's completion skips one source: its scatter would
        # write the payload staged in an earlier step
        solver = make_solver(grid, overlap=overlap, sanitize=True)
        st = next(s for s in solver.ranks if s.plan.recv_flat)
        skipped = sorted(st.plan.recv_flat)[0]

        class SkipsOne(dict):
            # the completion walks items(); the scatter indexes by source
            def items(self):
                return [(k, v) for k, v in super().items() if k != skipped]

        st.recv_bufs = SkipsOne(st.recv_bufs)
        with pytest.raises(SanitizeError, match="did not complete"):
            solver.step(1)

    def test_violations_counter_increments(self, grid):
        counter = get_registry().counter("sanitize.violations")
        before = counter.value
        solver = make_solver(grid, overlap=True, sanitize=True)
        self._redirect_scatter(solver)
        with pytest.raises(SanitizeError):
            solver.step(1)
        assert counter.value == before + 1

    @pytest.mark.parametrize("plane", ["on", "off"])
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_violation_reaches_the_parent_registry(
        self, grid, monkeypatch, executor, plane
    ):
        # a double scatter: one rank's second source writes a slot its
        # first source already wrote.  Under the process tier the worker
        # counts the violation; the count must cross to the parent with
        # or without the telemetry plane
        monkeypatch.setenv("REPRO_TELEMETRY_PLANE", plane)
        counter = get_registry().counter("sanitize.violations")
        before = counter.value
        with make_solver(
            grid, overlap=True, sanitize=True, executor=executor
        ) as solver:
            recv_flat = next(
                s.plan.recv_flat
                for s in solver.ranks
                if len(s.plan.recv_flat) >= 2
            )
            a, b = sorted(recv_flat)[:2]
            recv_flat[b][0] = recv_flat[a][0]
            with pytest.raises(SanitizeError):
                solver.step(1)
        assert counter.value == before + 1


class TestEpochTracking:
    """Unit-level checks of the freshness state machine."""

    def _sanitizer(self, grid, overlap=False):
        solver = make_solver(grid, overlap=overlap)
        return solver, StepSanitizer(solver.ranks)

    @staticmethod
    def _complete_and_stream(san, st, completed, overlap):
        # the hook order of the schedule: the barrier completes before
        # the full-plan gather, the overlap pipeline after it
        if overlap:
            san.on_stream(st)
        for src in completed:
            san.on_payload(st, src)
        if not overlap:
            san.on_stream(st)

    @pytest.mark.parametrize("overlap", [False, True], ids=SCHEDULES)
    def test_scatter_of_uncompleted_payload_detected(self, grid, overlap):
        solver, san = self._sanitizer(grid, overlap)
        san.begin_step(solver.ranks, 0)
        st = next(s for s in solver.ranks if s.plan.recv_flat)
        src = sorted(st.plan.recv_flat)[0]
        # no completion at all: the staged payload is last step's
        self._complete_and_stream(san, st, [], overlap)
        with pytest.raises(SanitizeError, match="did not complete"):
            san.on_scatter(st, src, st.plan.recv_flat[src])

    @pytest.mark.parametrize("overlap", [False, True], ids=SCHEDULES)
    def test_scatter_after_every_completion_passes(self, grid, overlap):
        solver, san = self._sanitizer(grid, overlap)
        san.begin_step(solver.ranks, 0)
        st = next(s for s in solver.ranks if s.plan.recv_flat)
        self._complete_and_stream(san, st, st.plan.recv_flat, overlap)
        for src, written in st.plan.recv_flat.items():
            san.on_scatter(st, src, written)
        san.end_frontier(st)  # should not raise

    @pytest.mark.parametrize("overlap", [False, True], ids=SCHEDULES)
    def test_partial_completion_still_stale(self, grid, overlap):
        solver, san = self._sanitizer(grid, overlap)
        st = next(
            s for s in solver.ranks if len(s.plan.recv_flat) >= 2
        )
        first, second = sorted(st.plan.recv_flat)[:2]
        san.begin_step(solver.ranks, 0)
        self._complete_and_stream(san, st, [first], overlap)
        san.on_scatter(st, first, st.plan.recv_flat[first])
        with pytest.raises(SanitizeError, match="did not complete"):
            san.on_scatter(st, second, st.plan.recv_flat[second])

    def test_double_scatter_detected(self, grid):
        solver, san = self._sanitizer(grid, overlap=True)
        st = next(s for s in solver.ranks if s.plan.recv_flat)
        src = sorted(st.plan.recv_flat)[0]
        san.begin_step(solver.ranks, 0)
        san.on_stream(st)
        san.on_payload(st, src)
        san.on_scatter(st, src, st.plan.recv_flat[src])
        with pytest.raises(SanitizeError, match="double scatter"):
            san.on_scatter(st, src, st.plan.recv_flat[src])

    def test_unscattered_payload_detected(self, grid):
        solver, san = self._sanitizer(grid, overlap=True)
        st = next(s for s in solver.ranks if s.plan.recv_flat)
        src = sorted(st.plan.recv_flat)[0]
        san.begin_step(solver.ranks, 0)
        san.on_stream(st)
        san.on_payload(st, src)  # arrives, but no on_scatter follows
        with pytest.raises(SanitizeError, match="never\n?.*scattered"):
            san.end_frontier(st)
