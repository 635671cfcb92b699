"""Cross-subsystem integration: the full pipeline from geometry to the
paper's reported quantities, plus property tests over the whole stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import backend_comparison, native_hardware_comparison
from repro.geometry import CylinderSpec, make_cylinder
from repro.harvey import HarveyApp, HarveyConfig
from repro.hardware import all_machines, get_machine
from repro.lbm import DistributedSolver, Solver, SolverConfig
from repro.decomp import bisection_decompose
from repro.perf import aorta_trace, cylinder_trace, price_run
from repro.perfmodel import predict_iteration


class TestFunctionalToPerformancePipeline:
    def test_functional_and_trace_fluid_counts_agree(self):
        """The functional app and the perf trace describe the same
        workload (at matched resolution)."""
        app = HarveyApp(
            HarveyConfig(workload="proxy", resolution=3.0, num_ranks=4)
        )
        trace = cylinder_trace(3.0, 4, scheme="quadrant")
        assert trace.total_fluid == pytest.approx(
            app.grid.num_fluid, rel=0.01
        )

    def test_harvey_functional_comm_matches_trace_shape(self):
        """Halo voxel counts from the live exchange match the
        partition-derived trace (same coarse resolution, same ranks)."""
        app = HarveyApp(
            HarveyConfig(workload="cylinder", resolution=3.0, num_ranks=4)
        )
        app.run(steps=1)
        live_pairs = {
            (e.src, e.dst)
            for e in app.solver.comm.log.events
            if e.kind == "p2p"
        }
        trace = cylinder_trace(3.0, 4, scheme="bisection", with_caps=True)
        trace_pairs = {
            (n, r.rank) for r in trace.ranks for n, _s in r.halo
        }
        assert live_pairs == trace_pairs

    def test_end_to_end_mflups_magnitudes(self):
        """Simulated MFLUPS magnitudes sit in the paper's figure ranges."""
        data = native_hardware_comparison("cylinder")
        for name, series in data.items():
            assert 1e3 < series["harvey"].at(2) < 1e4
            last = series["harvey"].gpu_counts[-1]
            assert 1e5 < series["harvey"].at(last) < 2e6


class TestStabilityAndFailureInjection:
    def test_solver_stable_at_high_velocity_boundary(self):
        grid = make_cylinder(CylinderSpec(scale=0.5, periodic=False))
        solver = Solver(
            grid, SolverConfig(tau=0.9, inlet_velocity=(0.08, 0, 0))
        )
        solver.step(100)
        assert np.isfinite(solver.f).all()
        assert solver.max_velocity() < 0.5

    def test_distributed_tolerates_tiny_subdomains(self):
        grid = make_cylinder(CylinderSpec(scale=0.4))
        cfg = SolverConfig(
            tau=0.8, force=(1e-6, 0, 0), periodic=(True, False, False)
        )
        part = bisection_decompose(grid, 16)  # very small boxes
        dist = DistributedSolver(part, cfg)
        ref = Solver(grid, cfg)
        dist.step(5)
        ref.step(5)
        assert np.array_equal(dist.gather_f(), ref.f)

    @settings(max_examples=8, deadline=None)
    @given(
        tau=st.floats(0.6, 1.5),
        force=st.floats(1e-7, 5e-6),
        n_ranks=st.integers(1, 6),
    )
    def test_distributed_equivalence_property(self, tau, force, n_ranks):
        """Bitwise single-domain equivalence holds across the solver
        parameter space, not just the defaults."""
        grid = make_cylinder(CylinderSpec(scale=0.4))
        cfg = SolverConfig(
            tau=tau, force=(force, 0, 0), periodic=(True, False, False)
        )
        from repro.decomp import axis_decompose

        ref = Solver(grid, cfg)
        ref.step(4)
        dist = DistributedSolver(axis_decompose(grid, n_ranks), cfg)
        dist.step(4)
        assert np.array_equal(dist.gather_f(), ref.f)


class TestPaperScaleConsistency:
    @settings(max_examples=6, deadline=None)
    @given(n=st.sampled_from([2, 8, 32, 128, 512]))
    def test_measured_never_beats_ideal_prediction(self, n):
        size = 12.0 if n < 16 else (24.0 if n < 128 else 48.0)
        tr = cylinder_trace(size, n, scheme="bisection", with_caps=True)
        for machine in all_machines():
            if n > machine.max_ranks:
                continue
            cost = price_run(tr, machine, machine.native_model, "harvey")
            pred = predict_iteration(
                machine, tr.total_fluid, n, bytes_per_update=456
            )
            assert cost.mflups <= pred.mflups * 1.02

    def test_every_system_every_workload_runs(self):
        for machine in all_machines():
            for workload in ("cylinder", "aorta"):
                comp = backend_comparison(machine, workload)
                assert comp.gpu_counts
                for app in comp.raw:
                    for series in comp.raw[app].values():
                        assert all(v > 0 for v in series.mflups)

    def test_trace_and_pricing_deterministic(self):
        tr1 = aorta_trace(0.110, 8)
        tr2 = aorta_trace(0.110, 8)
        m = get_machine("Crusher")
        c1 = price_run(tr1, m, "hip", "harvey")
        c2 = price_run(tr2, m, "hip", "harvey")
        assert c1.mflups == c2.mflups
