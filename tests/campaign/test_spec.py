"""Campaign spec parsing, axis expansion, and constraint pruning."""

import json

import numpy as np
import pytest

from repro.campaign import CampaignSpec, SweepSpec, load_spec
from repro.campaign.spec import parse_spec
from repro.core import CampaignError


def modes_sweep(**overrides):
    kwargs = dict(
        name="modes",
        runner="solver",
        axes={
            "executor": ("lockstep", "process"),
            "backend": ("numpy", "compiled-parallel"),
        },
        fixed={"geometry": "cylinder", "num_ranks": 2},
        skip=({"executor": "process", "backend": "compiled-parallel"},),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepExpansion:
    def test_cross_product_size(self):
        sweep = SweepSpec(
            name="s",
            runner="perf",
            axes={"machine": ("summit", "polaris"), "n_gpus": (4, 16, 64)},
            fixed={"size": 4},
        )
        cells, pruned = sweep.expand()
        assert len(cells) == 6
        assert not pruned
        assert all(c.params["size"] == 4 for c in cells)

    def test_skip_prunes_invalid_combinations(self):
        cells, pruned = modes_sweep().expand()
        assert len(cells) == 3
        assert len(pruned) == 1
        bad = pruned[0].cell.params
        assert bad["executor"] == "process"
        assert bad["backend"] == "compiled-parallel"
        assert "skip constraint" in pruned[0].reason

    def test_skip_list_values_match_membership(self):
        sweep = SweepSpec(
            name="s",
            runner="perf",
            axes={"n_gpus": (2, 4, 8, 16)},
            fixed={"machine": "summit"},
            skip=({"n_gpus": [8, 16]},),
        )
        cells, pruned = sweep.expand()
        assert sorted(c.params["n_gpus"] for c in cells) == [2, 4]
        assert len(pruned) == 2

    def test_skip_with_unknown_parameter_rejected(self):
        with pytest.raises(CampaignError, match="unknown parameter"):
            modes_sweep(skip=({"bogus": 1},))

    def test_axis_and_fixed_collision_rejected(self):
        with pytest.raises(CampaignError, match="both axis and fixed"):
            modes_sweep(fixed={"executor": "process"})

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError, match="non-empty"):
            modes_sweep(axes={"executor": ()})

    @pytest.mark.parametrize("runner", ["fortran", "microbench"])
    def test_unknown_runner_rejected(self, runner):
        with pytest.raises(CampaignError, match="unknown runner"):
            modes_sweep(runner=runner)


class TestCellIdentity:
    def test_key_is_order_independent(self):
        a = SweepSpec(
            name="a", runner="perf",
            axes={"machine": ("summit",)}, fixed={"n_gpus": 4, "size": 2},
        ).expand()[0][0]
        b = SweepSpec(
            name="b", runner="perf",
            axes={"n_gpus": (4,)}, fixed={"size": 2, "machine": "summit"},
        ).expand()[0][0]
        assert a.key == b.key  # sweep name is presentation, not identity

    def test_key_is_dtype_safe(self):
        a = SweepSpec(
            name="a", runner="perf",
            axes={"n_gpus": (4,)}, fixed={"machine": "summit", "size": 2},
        ).expand()[0][0]
        b = SweepSpec(
            name="b", runner="perf",
            axes={"n_gpus": (np.int64(4),)},
            fixed={"machine": "summit", "size": 2.0},
        ).expand()[0][0]
        assert a.key == b.key

    def test_campaign_dedupes_across_sweeps(self):
        sweep = modes_sweep()
        campaign = CampaignSpec(
            name="c", sweeps=(sweep, modes_sweep(name="again"))
        )
        cells, pruned = campaign.expand()
        assert len(cells) == 3
        assert sum("duplicate" in p.reason for p in pruned) == 3


class TestCampaignValidation:
    def test_duplicate_sweep_names_rejected(self):
        with pytest.raises(CampaignError, match="duplicate sweep"):
            CampaignSpec(name="c", sweeps=(modes_sweep(), modes_sweep()))

    def test_needs_sweeps(self):
        with pytest.raises(CampaignError, match="at least one sweep"):
            CampaignSpec(name="c", sweeps=())


class TestLoadSpec:
    def test_round_trip(self, tmp_path):
        doc = {
            "name": "t",
            "sweeps": [
                {
                    "name": "s",
                    "runner": "perf",
                    "axes": {"n_gpus": [4, 16]},
                    "fixed": {"machine": "summit", "size": 2},
                }
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_spec(path)
        assert spec.name == "t"
        assert len(spec.expand()[0]) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignError, match="not found"):
            load_spec(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CampaignError, match="malformed JSON"):
            load_spec(path)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(CampaignError, match="unknown field"):
            parse_spec({"name": "t", "sweeps": [], "swweeps": []})

    def test_unknown_sweep_field_rejected(self):
        with pytest.raises(CampaignError, match="unknown field"):
            parse_spec(
                {
                    "name": "t",
                    "sweeps": [
                        {
                            "name": "s",
                            "runner": "perf",
                            "axes": {"n_gpus": [4]},
                            "skipp": [],
                        }
                    ],
                }
            )

    def test_committed_specs_parse(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2] / "campaigns"
        for spec_path in sorted(root.glob("*.json")):
            spec = load_spec(spec_path)
            cells, _ = spec.expand()
            assert cells, spec_path
