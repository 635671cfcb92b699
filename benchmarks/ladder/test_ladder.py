"""Schema check of the ladder: ``pytest benchmarks/ladder -q`` (not tier-1).

One ``run.py --smoke`` pass over all four workloads, checked against what
``BENCHMARK.json`` declares.  It asserts names, units and finiteness — never
a value: smoke runs are too short to mean anything.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE_LIMIT_S = 60


def shm_segments() -> list:
    try:
        return [e for e in os.listdir("/dev/shm") if e.startswith("repro-")]
    except OSError:
        return []


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder") / "smoke.json"
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.perf_counter() - began
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout, json.loads(out.read_text()), elapsed


def test_benchmark_json_is_within_the_contract():
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in BENCH[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_smoke_finishes_in_time(smoke):
    assert smoke[2] < SMOKE_LIMIT_S


def test_every_declared_metric_is_printed_once_with_its_unit(smoke):
    stdout = smoke[0]
    rows = [line.split() for line in stdout.splitlines() if line.strip()]
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        hits = [r for r in rows if r[0] == metric["name"]]
        assert len(hits) == 1, metric["name"]
        assert hits[0][1] == metric["unit"], metric["name"]
    assert sum(r[0] == "failed_share" for r in rows) == 1


def test_every_value_is_finite_or_an_explained_null(smoke):
    doc = smoke[1]
    assert set(doc["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for name, result in doc["workloads"].items():
        assert result["failed"] == 0, result["errors"]
        assert result["attempted"] >= 1
        for metric in BENCH["end_to_end"]:
            stat = result["end_to_end"][metric["name"]]
            assert math.isfinite(stat["value"]) and stat["value"] > 0
            assert stat["n"] >= 1
        assert set(result["per_layer"]) == {
            m["name"] for m in BENCH["per_layer"]
        }
        for key, value in result["per_layer"].items():
            if value is None:
                assert result["why_null"][key], (name, key)
            else:
                assert math.isfinite(value), (name, key)


def test_reconciliation_residuals_are_computed(smoke):
    for result in smoke[1]["workloads"].values():
        for part in ("step", "wall"):
            share = result["reconciliation"][part]["residual_share"]
            assert math.isfinite(share)


def test_meta_carries_provenance_and_the_simplicity_trend(smoke):
    meta = smoke[1]["meta"]
    for key in ("git_sha", "host", "nproc", "core_bound", "compiled_provider",
                "telemetry_plane", "src_lines", "config_flags"):
        assert key in meta
    assert set(meta["config"]["steps"]) == set(smoke[1]["workloads"])


def test_dev_shm_is_clean_afterwards(smoke):
    assert shm_segments() == []
