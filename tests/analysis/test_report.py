"""The one-command reproduction report."""

import pytest

from repro.analysis import full_report


@pytest.fixture(scope="module")
def report():
    return full_report(include_backends=False)


class TestFullReport:
    def test_contains_every_experiment(self, report):
        for marker in (
            "Table 1",
            "Table 2",
            "Table 3",
            "Fig. 3",
            "Fig. 4",
            "Fig. 7",
            "portability",
            "ablation",
        ):
            assert marker in report, marker

    def test_contains_all_systems(self, report):
        for system in ("Summit", "Polaris", "Crusher", "Sunspot"):
            assert system in report

    def test_table2_percentages_present(self, report):
        assert "80.45" in report
        assert "15.04" in report

    def test_backend_sections_togglable(self, report):
        assert "application efficiency" not in report
        with_backends = full_report(include_backends=True)
        assert "application efficiency" in with_backends

    def test_reasonable_size(self, report):
        assert 100 < len(report.splitlines()) < 2000
