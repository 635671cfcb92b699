"""Planning, pruning, cell execution, and resume semantics."""

import pytest

from repro.analysis import backend_comparison, native_hardware_comparison
from repro.campaign import (
    CampaignSpec,
    Cell,
    ResultStore,
    SweepSpec,
    campaign_status,
    execute_cell,
    plan_campaign,
    run_campaign,
)
from repro.core import CampaignError, ConfigError
from repro.hardware import get_machine


def perf_spec(n_gpus=(2, 4, 8), machines=("summit", "polaris")):
    """A cheap all-perf campaign (the simulator prices cells in ms)."""
    return CampaignSpec(
        name="t",
        sweeps=(
            SweepSpec(
                name="perf",
                runner="perf",
                axes={"machine": tuple(machines), "n_gpus": tuple(n_gpus)},
                fixed={"workload": "cylinder", "app": "harvey", "size": 2},
            ),
        ),
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestPlanning:
    def test_unknown_parameter_is_a_spec_error(self):
        spec = CampaignSpec(
            name="t",
            sweeps=(
                SweepSpec(
                    name="s", runner="perf",
                    axes={"n_gpus": (4,)},
                    fixed={"machine": "summit", "warp_factor": 9},
                ),
            ),
        )
        with pytest.raises(CampaignError, match="warp_factor"):
            plan_campaign(spec)

    def test_missing_required_parameter_is_a_spec_error(self):
        spec = CampaignSpec(
            name="t",
            sweeps=(
                SweepSpec(
                    name="s", runner="perf", axes={"n_gpus": (4,)},
                ),
            ),
        )
        with pytest.raises(CampaignError, match="requires parameter"):
            plan_campaign(spec)

    def test_unavailable_model_pruned_not_failed(self):
        spec = CampaignSpec(
            name="t",
            sweeps=(
                SweepSpec(
                    name="s", runner="perf",
                    axes={"model": ("cuda", "hip", "sycl")},
                    # Crusher never ran CUDA in the study
                    fixed={"machine": "crusher", "n_gpus": 4, "size": 2},
                ),
            ),
        )
        plan = plan_campaign(spec)
        assert len(plan.cells) == 2
        reasons = [p.reason for p in plan.pruned]
        assert any("not ported" in r for r in reasons)

    def test_gpu_counts_beyond_schedule_pruned(self):
        spec = CampaignSpec(
            name="t",
            sweeps=(
                SweepSpec(
                    name="s", runner="perf",
                    # 3 is not a schedule point; size omitted forces the
                    # schedule lookup
                    axes={"n_gpus": (2, 3)},
                    fixed={"machine": "summit"},
                ),
            ),
        )
        plan = plan_campaign(spec)
        assert [c.params["n_gpus"] for c in plan.cells] == [2]
        assert any("schedule" in p.reason for p in plan.pruned)

    def test_sunspot_truncation_pruned(self):
        spec = CampaignSpec(
            name="t",
            sweeps=(
                SweepSpec(
                    name="s", runner="perf",
                    axes={"n_gpus": (256, 512)},
                    fixed={"machine": "sunspot"},
                ),
            ),
        )
        plan = plan_campaign(spec)
        assert [c.params["n_gpus"] for c in plan.cells] == [256]

    def test_unavailable_compiled_backend_pruned_not_failed(self, monkeypatch):
        from repro.models.compiled import PROVIDER_ENV, reset_detection_cache

        spec = CampaignSpec(
            name="t",
            sweeps=(
                SweepSpec(
                    name="s", runner="solver",
                    axes={"backend": ("numpy", "compiled")},
                    fixed={"geometry": "cylinder", "steps": 1},
                ),
            ),
        )
        monkeypatch.setenv(PROVIDER_ENV, "none")
        reset_detection_cache()
        try:
            plan = plan_campaign(spec)
        finally:
            reset_detection_cache()
        assert len(plan.cells) == 1
        assert plan.cells[0].params["backend"] == "numpy"
        assert len(plan.pruned) == 1
        assert "unavailable" in plan.pruned[0].reason

    def test_unknown_backend_is_a_spec_error(self):
        spec = CampaignSpec(
            name="t",
            sweeps=(
                SweepSpec(
                    name="s", runner="solver",
                    axes={"backend": ("fortran",)},
                    fixed={"geometry": "cylinder", "steps": 1},
                ),
            ),
        )
        with pytest.raises(CampaignError, match="fortran"):
            plan_campaign(spec)

    def test_unknown_geometry_is_a_spec_error(self):
        """A misspelt workload stops the plan with the sweep and the
        valid names; it does not become N cells failing at run time."""
        spec = CampaignSpec(
            name="t",
            sweeps=(
                SweepSpec(
                    name="zoo", runner="solver",
                    axes={"geometry": ("cylinder", "cylindr")},
                ),
            ),
        )
        with pytest.raises(
            CampaignError, match=r"'zoo'.*'cylindr'.*cylinder.*proxy"
        ):
            plan_campaign(spec)

    def test_retired_solver_axes_are_spec_errors(self):
        """A ``fused`` axis or ``executor: parallel`` stops the plan with
        the valid set named; neither falls back to a default."""

        def spec(**axes):
            return CampaignSpec(
                name="t",
                sweeps=(
                    SweepSpec(
                        name="s", runner="solver", axes=axes,
                        fixed={"geometry": "cylinder", "steps": 1},
                    ),
                ),
            )

        with pytest.raises(CampaignError, match=r"\['fused'\].*known:"):
            plan_campaign(spec(fused=(True, False)))
        with pytest.raises(ConfigError, match="lockstep, process"):
            plan_campaign(spec(executor=("lockstep", "parallel")))

    def test_defaults_participate_in_identity(self):
        explicit = CampaignSpec(
            name="a",
            sweeps=(
                SweepSpec(
                    name="s", runner="perf",
                    axes={"n_gpus": (4,)},
                    fixed={
                        "machine": "summit", "size": 2,
                        "model": "native", "workload": "cylinder",
                        "app": "harvey",
                    },
                ),
            ),
        )
        implicit = CampaignSpec(
            name="b",
            sweeps=(
                SweepSpec(
                    name="s", runner="perf",
                    axes={"n_gpus": (4,)},
                    fixed={"machine": "summit", "size": 2},
                ),
            ),
        )
        key_a = plan_campaign(explicit).cells[0].key
        key_b = plan_campaign(implicit).cells[0].key
        assert key_a == key_b


class TestExecution:
    def test_perf_cell_result(self):
        cell = plan_campaign(perf_spec(n_gpus=(4,))).cells[0]
        result = execute_cell(cell)
        assert result["kind"] == "perf"
        assert result["mflups"] > 0
        assert result["model"] != "native"  # resolved to the real model
        assert set(result["composition"]) == {
            "streamcollide", "communication", "h2d", "d2h", "other",
        }

    @pytest.mark.parametrize(
        "machine,model,workload,n_gpus",
        [
            ("Polaris", "native", "cylinder", 64),
            ("Sunspot", "native", "aorta", 256),
            ("Crusher", "sycl", "aorta", 16),
            ("Sunspot", "kokkos-sycl", "cylinder", 128),
        ],
    )
    def test_perf_cell_prices_the_sweep_point(
        self, machine, model, workload, n_gpus
    ):
        """One pricing: a perf cell is the Figs. 3-6 sweep's point."""
        cell = Cell(
            sweep="pin", runner="perf",
            params={"machine": machine, "model": model,
                    "workload": workload, "n_gpus": n_gpus},
        )
        result = execute_cell(cell)
        if model == "native":
            series = native_hardware_comparison(workload)[machine]
            expected = series["harvey"], series["predicted"]
        else:
            comp = backend_comparison(get_machine(machine), workload)
            expected = comp.raw["harvey"][model], comp.predicted
        assert result["mflups"] == expected[0].at(n_gpus)
        assert result["predicted_mflups"] == expected[1].at(n_gpus)

    def test_solver_cell_result(self):
        # the proxy preset is one more geometry value to the runner
        spec = CampaignSpec(
            name="t",
            sweeps=(
                SweepSpec(
                    name="s", runner="solver",
                    axes={"geometry": ("cylinder", "proxy")},
                    fixed={
                        "resolution": 0.5, "num_ranks": 2, "steps": 2,
                    },
                ),
            ),
        )
        cells = plan_campaign(spec).cells
        assert [c.params["geometry"] for c in cells] == ["cylinder", "proxy"]
        for cell in cells:
            result = execute_cell(cell)
            assert result["kind"] == "solver"
            assert result["geometry"] == cell.params["geometry"]
            assert result["fluid_nodes"] > 0
            assert result["mass_drift"] < 1e-2
            assert abs(sum(result["composition"].values()) - 1.0) < 1e-9


class TestRunAndResume:
    def test_full_run_then_full_resume(self, store):
        spec = perf_spec()
        first = run_campaign(spec, store)
        assert first.executed == first.total == 6
        assert first.resumed == 0
        second = run_campaign(spec, store)
        assert second.executed == 0
        assert second.resumed == 6
        assert store.counts() == {"ok": 6}

    def test_interrupted_run_resumes_only_missing(self, store):
        spec = perf_spec()
        executed = []

        def kill_after_three(cell):
            if len(executed) == 3:
                raise KeyboardInterrupt
            executed.append(cell.key)

        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store, on_cell=kill_after_three)
        assert store.counts() == {"ok": 3}

        resumed = run_campaign(spec, store)
        assert resumed.resumed == 3
        assert resumed.executed == 3
        assert store.counts() == {"ok": 6}
        # exactly one record per cell, and nothing recomputed
        assert len(list(store.root.glob("*.json"))) == 6

    def test_max_cells_bounds_a_pass(self, store):
        spec = perf_spec()
        first = run_campaign(spec, store, max_cells=2)
        assert first.executed == 2
        assert first.remaining == 4
        assert not first.complete
        second = run_campaign(spec, store)
        assert second.resumed == 2 and second.executed == 4
        assert second.complete

    def test_force_recomputes(self, store):
        spec = perf_spec(n_gpus=(2,), machines=("summit",))
        run_campaign(spec, store)
        report = run_campaign(spec, store, force=True)
        assert report.executed == 1
        assert report.resumed == 0

    def test_failed_cell_recorded_and_campaign_continues(self, store):
        # n_gpus=2 with an explicit size skips the schedule prune, and
        # the tiny size OOMs nothing — instead, use a solver cell whose
        # config is invalid only at execution time (an unstable tau),
        # un-pruned because the spec author forgot the skip.
        spec = CampaignSpec(
            name="t",
            sweeps=(
                SweepSpec(
                    name="s", runner="solver",
                    axes={"tau": (0.8, 0.4)},
                    fixed={
                        "geometry": "cylinder", "resolution": 0.5,
                        "num_ranks": 2, "steps": 2, "overlap": True,
                    },
                ),
            ),
        )
        report = run_campaign(spec, store, tracer=None)
        assert report.executed == 1
        assert report.failed == 1
        assert report.failures and "tau" in report.failures[0]["error"]
        assert store.counts() == {"ok": 1, "error": 1}
        # the failed record is retried on the next pass (not resumed)
        again = run_campaign(spec, store)
        assert again.resumed == 1
        assert again.failed == 1

    def test_status(self, store):
        spec = perf_spec()
        status = campaign_status(spec, store)
        assert status["pending"] == 6 and status["done"] == 0
        run_campaign(spec, store, max_cells=4)
        status = campaign_status(spec, store)
        assert status["done"] == 4 and status["pending"] == 2
        assert status["store_records"] == 4

    def test_bad_max_cells(self, store):
        with pytest.raises(CampaignError, match="max_cells"):
            run_campaign(perf_spec(), store, max_cells=0)
