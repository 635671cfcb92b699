"""Report emitters against a fixture store (no cells re-run)."""

import csv
import io
import json

import pytest

from repro.campaign import Cell, ResultStore, build_report, render_report
from repro.core import CampaignError

COMPOSITION = {
    "streamcollide": 0.9, "communication": 0.07, "h2d": 0.01,
    "d2h": 0.02, "other": 0.0,
}


def perf_result(machine, model, n_gpus, mflups):
    return {
        "kind": "perf", "machine": machine, "model": model,
        "workload": "cylinder", "app": "harvey", "n_gpus": n_gpus,
        "size": 2.0, "total_fluid": 1e6, "mflups": mflups,
        "predicted_mflups": mflups * 1.2, "t_iteration": 1e-3,
        "oom": False, "composition": dict(COMPOSITION),
    }


def solver_result(geometry, mflups=1.0, overlap=False):
    return {
        "kind": "solver", "geometry": geometry, "num_ranks": 2,
        "steps": 3, "fluid_nodes": 1000, "wall_seconds": 0.1,
        "mflups": mflups, "mass_drift": 1e-6, "max_velocity": 0.02,
        "comm_bytes": 1024, "overlap": overlap,
        "executor": "lockstep", "composition": dict(COMPOSITION),
    }


@pytest.fixture
def store(tmp_path):
    """A hand-built store: two machines, three models, two counts, and
    a four-geometry solver zoo."""
    store = ResultStore(tmp_path / "store")
    points = [
        # Polaris: cuda beats sycl; Crusher: hip only
        ("Polaris", "cuda", 4, 100.0), ("Polaris", "cuda", 16, 300.0),
        ("Polaris", "sycl", 4, 90.0), ("Polaris", "sycl", 16, 270.0),
        ("Polaris", "kokkos-cuda", 4, 80.0),
        ("Polaris", "kokkos-cuda", 16, 240.0),
        ("Crusher", "hip", 4, 110.0), ("Crusher", "hip", 16, 320.0),
        ("Crusher", "kokkos-hip", 4, 88.0),
        ("Crusher", "kokkos-hip", 16, 256.0),
    ]
    for i, (machine, model, n_gpus, mflups) in enumerate(points):
        cell = Cell(
            sweep="perf", runner="perf",
            params={"machine": machine.lower(), "model": model,
                    "n_gpus": n_gpus},
        )
        store.put(
            cell, "ok", result=perf_result(machine, model, n_gpus, mflups)
        )
    for geometry in ("cylinder", "stenosis", "bifurcation", "aneurysm"):
        cell = Cell(
            sweep="zoo", runner="solver", params={"geometry": geometry},
        )
        store.put(cell, "ok", result=solver_result(geometry))
    failed = Cell(sweep="zoo", runner="solver", params={"geometry": "bad"})
    store.put(failed, "error", error="boom")
    return store


class TestBuildReport:
    def test_counts(self, store):
        report = build_report(store)
        assert report["counts"] == {"ok": 14, "error": 1}

    def test_scaling_pivot(self, store):
        report = build_report(store)
        assert len(report["scaling"]) == 10
        row = report["scaling"][0]
        assert set(row) == {
            "workload", "app", "machine", "model", "n_gpus", "mflups",
            "predicted_mflups", "oom",
        }

    def test_scaling_dedupes_native_twins(self, store):
        # a "native" cell pricing the same point as the explicit model
        cell = Cell(
            sweep="perf", runner="perf",
            params={"machine": "polaris", "model": "native", "n_gpus": 4},
        )
        store.put(
            cell, "ok", result=perf_result("Polaris", "cuda", 4, 100.0)
        )
        report = build_report(store)
        assert len(report["scaling"]) == 10

    def test_portability_from_store_alone(self, store):
        port = build_report(store)["portability"]
        assert port["machines"] == ["Crusher", "Polaris"]
        per_model = port["per_model"]
        # hip never ran on Polaris in this store -> PP = 0
        assert per_model["hip"]["pp"] == 0.0
        assert per_model["hip"]["mean_efficiency"]["Crusher"] == 1.0
        # the kokkos family covers both machines -> nonzero PP
        family = per_model["kokkos (any backend)"]
        assert family["pp"] > 0.0
        assert family["supported"] == ["Crusher", "Polaris"]

    def test_solver_zoo_rows(self, store):
        rows = build_report(store)["solver"]
        assert [r["geometry"] for r in rows] == [
            "aneurysm", "bifurcation", "cylinder", "stenosis",
        ]

    def test_host_portability_empty_without_second_backend(self, store):
        report = build_report(store)
        assert report["host_portability"] == {
            "geometries": [], "per_backend": {},
        }

    def test_host_portability_over_measured_backends(self, store):
        # add a compiled twin for each zoo geometry at half the numpy
        # throughput on one, equal on the rest
        speeds = {"cylinder": 0.5, "stenosis": 1.0,
                  "bifurcation": 1.0, "aneurysm": 1.0}
        for geometry, mflups in speeds.items():
            cell = Cell(
                sweep="zoo", runner="solver",
                params={"geometry": geometry, "backend": "compiled"},
            )
            doc = solver_result(geometry, mflups=mflups)
            doc["backend"] = "compiled"
            store.put(cell, "ok", result=doc)
        hp = build_report(store)["host_portability"]
        assert hp["geometries"] == sorted(speeds)
        numpy_pp = hp["per_backend"]["numpy"]["pp"]
        compiled_pp = hp["per_backend"]["compiled"]["pp"]
        assert numpy_pp == pytest.approx(1.0)  # numpy is best everywhere
        assert 0 < compiled_pp < 1.0
        assert hp["per_backend"]["compiled"]["mean_efficiency"][
            "cylinder"
        ] == pytest.approx(0.5)
        assert hp["per_backend"]["compiled"]["supported"] == sorted(speeds)

    def test_error_records_excluded_from_pivots(self, store):
        report = build_report(store)
        assert all(r["geometry"] != "bad" for r in report["solver"])

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="no records"):
            build_report(ResultStore(tmp_path / "empty"))


class TestRenderers:
    def test_text(self, store):
        text = render_report(build_report(store), "text")
        assert "strong scaling" in text
        assert "runtime composition" in text
        assert "performance portability" in text
        assert "solver zoo" in text
        assert "bifurcation" in text

    def test_json_round_trips(self, store):
        doc = json.loads(render_report(build_report(store), "json"))
        assert doc["counts"]["ok"] == 14

    def test_csv(self, store):
        text = render_report(build_report(store), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "section"
        sections = {r[0] for r in rows[1:]}
        assert sections == {"scaling", "solver"}
        assert len(rows) == 1 + 10 + 4

    def test_unknown_format(self, store):
        with pytest.raises(CampaignError, match="unknown report format"):
            render_report(build_report(store), "xml")
