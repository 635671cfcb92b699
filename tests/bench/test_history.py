"""Result provenance: the ``meta`` block and the config content address."""

import pytest

import numpy as np

from repro.bench import SCHEMA_VERSION, config_hash, git_sha, make_meta
from repro.core.errors import BenchmarkError


class TestMakeMeta:
    def test_carries_all_provenance_fields(self):
        meta = make_meta({"scale": 1.0, "steps": 20})
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["config"] == {"scale": 1.0, "steps": 20}
        assert set(meta["host"]) >= {
            "hostname", "machine", "system", "python", "numpy", "cpu_count"
        }
        # ISO-8601 UTC timestamp
        assert meta["timestamp"].endswith("Z")
        assert "T" in meta["timestamp"]

    def test_git_sha_in_this_checkout(self):
        sha = git_sha()
        assert sha == "unknown" or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )

    def test_git_sha_outside_a_checkout(self, tmp_path):
        assert git_sha(cwd=tmp_path) == "unknown"

    def test_config_is_copied_not_aliased(self):
        config = {"scale": 1.0}
        meta = make_meta(config)
        config["scale"] = 2.0
        assert meta["config"]["scale"] == 1.0


class TestConfigHash:
    def test_stable_16_hex_digits(self):
        h = config_hash({"a": 1, "b": "x"})
        assert len(h) == 16
        assert int(h, 16) >= 0
        assert config_hash({"a": 1, "b": "x"}) == h

    def test_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        nested = config_hash({"outer": {"x": 1, "y": 2}})
        assert nested == config_hash({"outer": {"y": 2, "x": 1}})

    def test_dtype_safe(self):
        assert config_hash({"n": 4}) == config_hash({"n": np.int64(4)})
        assert config_hash({"s": 2.0}) == config_hash({"s": 2})
        assert config_hash({"s": np.float64(2.0)}) == config_hash({"s": 2})
        assert config_hash({"v": (1, 2)}) == config_hash({"v": [1, 2]})

    def test_bools_are_not_ints(self):
        assert config_hash({"flag": True}) != config_hash({"flag": 1})

    def test_value_changes_change_the_hash(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})
        assert config_hash({"a": 1}) != config_hash({"b": 1})

    def test_sets_are_order_free(self):
        assert config_hash({"s": {1, 2, 3}}) == config_hash({"s": {3, 1, 2}})

    def test_non_dict_rejected(self):
        with pytest.raises(BenchmarkError, match="must be a dict"):
            config_hash([1, 2, 3])
