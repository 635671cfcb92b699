"""Cross-link between the lint rules and the Table 2 warning taxonomy.

The paper accounts DPCT diagnostics by category (Table 2); the lint
engine accounts its violations the same way via
:data:`repro.lint.DPCT_CATEGORY_BY_RULE`.  A deliberately broken backend
stub must be caught by the conformance family and land in the same
category buckets a porting audit would use.
"""

from repro.lint import (
    DPCT_CATEGORY_BY_RULE,
    LintEngine,
    RULE_FAMILIES,
    breakdown_by_category,
    default_rules,
)
from repro.porting.dpct import WARNING_CATEGORIES

#: A port of the CUDA backend gone wrong in all four conformance ways:
#: missing synchronize (C101), renamed launch params (C102), float32
#: alloc default (C103), and no identity attributes (C104).
BROKEN_PORT = '''\
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

    @abc.abstractmethod
    def synchronize(self):
        ...


class BotchedPort(ProgrammingModel):
    def alloc(self, label, shape, dtype=np.float32):
        return None

    def launch(self, kernel_name, grid, block):
        pass
'''


class TestBrokenStubCaught:
    def test_every_conformance_rule_fires(self, tmp_path):
        (tmp_path / "botched.py").write_text(BROKEN_PORT)
        report = (
            LintEngine()
            .select(RULE_FAMILIES["conformance"])
            .run([tmp_path])
        )
        fired = set(report.counts_by_rule())
        assert fired == {"C101", "C102", "C103", "C104"}

    def test_breakdown_matches_table2_accounting(self, tmp_path):
        (tmp_path / "botched.py").write_text(BROKEN_PORT)
        report = LintEngine().run([tmp_path])
        counts = breakdown_by_category(report.violations)
        # same keys, same order, as DPCTResult.warning_counts()
        assert tuple(counts) == WARNING_CATEGORIES
        assert sum(counts.values()) == len(report.violations)
        # C101 -> Unsupported feature, C102/C103 -> Functional
        # equivalence, C104 (x2 attrs) -> Error handling
        assert counts["Unsupported feature"] == 1
        assert counts["Functional equivalence"] == 2
        assert counts["Error handling"] == 2


class TestTaxonomyConsistency:
    def test_every_rule_id_has_a_category(self):
        engine_ids = {r.rule_id for r in default_rules()}
        # K400 is the plan-document format gate, outside PLAN_RULES but
        # still accounted (a malformed document is an error-handling
        # finding, like a malformed DPCT input)
        plan_ids = set(RULE_FAMILIES["plancheck"]) | {"K400"}
        assert engine_ids | plan_ids == set(
            DPCT_CATEGORY_BY_RULE
        )

    def test_categories_are_table2_categories(self):
        assert set(DPCT_CATEGORY_BY_RULE.values()) <= set(
            WARNING_CATEGORIES
        )

    def test_families_partition_the_rules(self):
        all_ids = [i for ids in RULE_FAMILIES.values() for i in ids]
        assert len(all_ids) == len(set(all_ids))
