"""``repro lint`` CLI: fixture-tree gate, formats, baselines, selection."""

import json

import pytest

from repro.cli import main

#: One seeded violation per rule family — the acceptance fixture.
BROKEN_BACKEND = '''\
import abc

import numpy as np


class ProgrammingModel(abc.ABC):
    name = "abstract"
    display_name = "abstract"

    @abc.abstractmethod
    def alloc(self, label, shape, dtype=np.float64):
        ...

    @abc.abstractmethod
    def launch(self, label, n, body):
        ...


class BrokenModel(ProgrammingModel):
    name = "broken"
    display_name = "Broken"

    def alloc(self, label, shape, dtype=np.float64):
        return None
'''

HOT_ALLOC = '''\
import numpy as np


def step(f):
    tmp = np.zeros(f.shape)
    return tmp
'''

#: A bare single-plan document whose update ids repeat node 3.
DOUBLE_WRITE_PLAN = {
    "q": 2,
    "num_local": 4,
    "update_ids": [0, 1, 3, 3],
    "flat_src": [[0, 1, 2, 3], [4, 5, 6, 7]],
}


@pytest.fixture
def fixture_tree(tmp_path):
    (tmp_path / "backend.py").write_text(BROKEN_BACKEND)
    (tmp_path / "kernels.py").write_text(HOT_ALLOC)
    (tmp_path / "halo.stepplan.json").write_text(
        json.dumps(DOUBLE_WRITE_PLAN)
    )
    return tmp_path


class TestFixtureGate:
    def test_seeded_tree_fails_with_all_families(
        self, fixture_tree, capsys
    ):
        # acceptance criterion: non-zero exit, one violation per family
        code = main(["lint", "--format", "json", str(fixture_tree)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        rules = set(payload["counts_by_rule"])
        assert "C101" in rules  # conformance: missing launch()
        assert "P202" in rules  # purity: np.zeros in step()
        assert "K401" in rules  # plan IR: a destination written twice

    def test_repo_itself_lints_clean(self, capsys):
        # acceptance criterion: zero exit on the repro package (the
        # CLI's default target)
        code = main(["lint"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 violation(s)" in out

    def test_text_format_lists_locations(self, fixture_tree, capsys):
        code = main(["lint", str(fixture_tree)])
        assert code == 1
        out = capsys.readouterr().out
        assert "backend.py" in out and "C101" in out
        assert "kernels.py" in out and "P202" in out
        assert "halo.stepplan.json" in out and "K401" in out


class TestSelection:
    def test_select_restricts_rules(self, fixture_tree, capsys):
        code = main(
            ["lint", "--select", "P202", "--format", "json",
             str(fixture_tree)]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["counts_by_rule"]) == {"P202"}

    def test_select_can_pass_tree(self, fixture_tree, capsys):
        # the fixture has no P201 violation, so selecting it passes
        code = main(["lint", "--select", "P201", str(fixture_tree)])
        assert code == 0


class TestBaseline:
    def test_write_then_apply_baseline(self, fixture_tree, capsys):
        baseline = fixture_tree / "accepted.json"
        code = main(
            ["lint", str(fixture_tree), "--write-baseline",
             str(baseline)]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["lint", str(fixture_tree), "--baseline", str(baseline)]
        )
        assert code == 0
        assert "in baseline" in capsys.readouterr().out

    def test_new_violation_escapes_baseline(self, fixture_tree, capsys):
        baseline = fixture_tree / "accepted.json"
        main(["lint", str(fixture_tree), "--write-baseline", str(baseline)])
        capsys.readouterr()
        (fixture_tree / "fresh.py").write_text(
            "def apply(f):\n    return f.astype('float32')\n"
        )
        code = main(
            ["lint", "--format", "json", str(fixture_tree),
             "--baseline", str(baseline)]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["counts_by_rule"]) == {"P203"}
