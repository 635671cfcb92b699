"""Table 2 — DPCT warning breakdown.

Runs the DPCT translator over the 28-file HARVEY-like corpus and asserts
the paper's exact warning taxonomy: 133 warnings, 80.45% error handling,
15.04% kernel invocation, 2.26% unsupported feature, 1.50% performance
improvement, 0.75% functional equivalence.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import porting_tables
from repro.porting import dpct_translate, harvey_corpus, proxy_corpus
from repro.porting.dpct import apply_manual_fixes

PAPER_BREAKDOWN = {
    "Error handling": 80.45,
    "Unsupported feature": 2.26,
    "Functional equivalence": 0.75,
    "Kernel invocation": 15.04,
    "Performance improvement": 1.50,
}


@pytest.fixture(scope="module")
def dpct_result():
    return dpct_translate(harvey_corpus())


def test_table2_regenerates(benchmark, write_artifact):
    text = benchmark(porting_tables, harvey_corpus())
    write_artifact("table2_dpct.txt", text)
    words = " ".join(text.split())
    for cat, pct in PAPER_BREAKDOWN.items():
        assert f"{cat} {pct:.2f}" in words


def test_total_warning_count_matches_paper(dpct_result):
    assert len(dpct_result.warnings) == 133


def test_file_count_matches_paper(dpct_result):
    # "DPCT processed 28 source code files"
    assert len(dpct_result.files) == 28


@pytest.mark.parametrize("category,expected", sorted(PAPER_BREAKDOWN.items()))
def test_category_percentages_match_paper(dpct_result, category, expected):
    breakdown = dpct_result.warning_breakdown()
    assert breakdown[category] == pytest.approx(expected, abs=0.01)


def test_warnings_carry_locations(dpct_result):
    for w in dpct_result.warnings:
        assert w.file.endswith(".cu")
        assert w.line >= 1
        assert w.message


def test_harvey_needs_manual_fixes_but_proxy_does_not(dpct_result):
    # "The DPCT tool ported the proxy app without any intervention, but
    # some manual tuning was required for HARVEY."
    assert dpct_result.needs_manual_fixes
    _files, changed = apply_manual_fixes(dpct_result)
    assert changed > 0
    proxy_result = dpct_translate(proxy_corpus())
    _pfiles, proxy_changed = apply_manual_fixes(proxy_result)
    assert proxy_changed == 0
