"""The ``repro campaign`` CLI surface, including its error exits."""

import json

import pytest

from repro.cli import main


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def quick_spec(tmp_path):
    return write_spec(
        tmp_path,
        {
            "name": "cli-test",
            "sweeps": [
                {
                    "name": "perf",
                    "runner": "perf",
                    "axes": {"n_gpus": [2, 4]},
                    "fixed": {"machine": "summit", "size": 2},
                }
            ],
        },
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPath:
    def test_run_status_resume_report(self, capsys, tmp_path, quick_spec):
        store = str(tmp_path / "store")
        code, out, _ = run_cli(
            capsys, "campaign", "run", quick_spec, "--store", store
        )
        assert code == 0
        assert "executed=2" in out

        code, out, _ = run_cli(
            capsys, "campaign", "status", quick_spec, "--store", store
        )
        assert code == 0
        assert "2/2 done" in out

        code, out, _ = run_cli(
            capsys, "campaign", "run", quick_spec, "--store", store,
            "--assert-resumed",
        )
        assert code == 0
        assert "resumed=2" in out

        code, out, _ = run_cli(
            capsys, "campaign", "resume", quick_spec, "--store", store
        )
        assert code == 0
        assert "resumed=2" in out

        code, out, _ = run_cli(
            capsys, "campaign", "report", quick_spec, "--store", store
        )
        assert code == 0
        assert "strong scaling" in out

    def test_report_to_file(self, capsys, tmp_path, quick_spec):
        store = str(tmp_path / "store")
        run_cli(capsys, "campaign", "run", quick_spec, "--store", store)
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "campaign", "report", quick_spec, "--store", store,
            "--format", "json", "--output", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["counts"] == {"ok": 2}

    def test_assert_resumed_fails_on_fresh_store(
        self, capsys, tmp_path, quick_spec
    ):
        code, _, err = run_cli(
            capsys, "campaign", "run", quick_spec,
            "--store", str(tmp_path / "fresh"), "--assert-resumed",
        )
        assert code == 1
        assert "assert-resumed" in err


class TestErrorExits:
    def test_missing_spec_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "campaign", "run", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "not found" in err

    def test_malformed_spec_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = run_cli(capsys, "campaign", "status", str(path))
        assert code == 2
        assert "malformed" in err

    def test_bad_runner_exits_2(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "name": "bad",
                "sweeps": [
                    {"name": "s", "runner": "gpu", "axes": {"x": [1]}}
                ],
            },
        )
        code, _, err = run_cli(capsys, "campaign", "run", spec)
        assert code == 2
        assert "unknown runner" in err

    def test_unknown_parameter_exits_2(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "name": "bad",
                "sweeps": [
                    {
                        "name": "s",
                        "runner": "perf",
                        "axes": {"warp": [1]},
                        "fixed": {"machine": "summit", "n_gpus": 4},
                    }
                ],
            },
        )
        code, _, err = run_cli(
            capsys, "campaign", "run", spec, "--store", str(tmp_path / "s")
        )
        assert code == 2
        assert "warp" in err

    @pytest.mark.parametrize(
        "axis, known",
        [("executor", "lockstep, process"), ("backend", "compiled-serial")],
    )
    def test_bad_tier_exits_2(self, capsys, tmp_path, axis, known):
        """A tier value ``validate_tier`` refuses is a spec error: one
        ``error:`` line naming the sweep and the valid values."""
        spec = write_spec(
            tmp_path,
            {
                "name": "bad",
                "sweeps": [
                    {
                        "name": "s",
                        "runner": "solver",
                        "axes": {axis: ["bogus"]},
                        "fixed": {"geometry": "cylinder", "steps": 1},
                    }
                ],
            },
        )
        code, out, err = run_cli(
            capsys, "campaign", "run", spec, "--store", str(tmp_path / "s")
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: sweep 's': ")
        assert len(err.splitlines()) == 1
        assert "'bogus'" in err and known in err

    def test_report_on_empty_store_exits_2(
        self, capsys, tmp_path, quick_spec
    ):
        code, _, err = run_cli(
            capsys, "campaign", "report", quick_spec,
            "--store", str(tmp_path / "empty"),
        )
        assert code == 2
        assert "no records" in err

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign"])
        assert excinfo.value.code == 2
