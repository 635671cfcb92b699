"""Executor-concurrency rules (W5xx) on small fixture modules."""

import textwrap

import pytest

from repro.lint import LintEngine

W_RULES = ["W501", "W503"]


def lint(tmp_path, source, rules=W_RULES):
    (tmp_path / "phases.py").write_text(textwrap.dedent(source))
    return LintEngine().select(rules).run([tmp_path]).violations


class TestSharedMutation:
    def test_unlocked_store_fires(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_collide(self, rank):
                    self.last_rank = rank
            """,
        )
        assert [v.rule for v in violations] == ["W501"]
        assert "self.last_rank" in violations[0].message

    def test_augmented_assignment_fires(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_stream(self, rank):
                    self.total += 1
            """,
        )
        assert [v.rule for v in violations] == ["W501"]
        assert "augmented assignment" in violations[0].message

    def test_rank_slot_store_is_exempt(self, tmp_path):
        # each worker owns its slot: the contract the solver phases use
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_exchange(self, rank):
                    self._payloads[rank] = rank * 2
            """,
        )
        assert violations == []

    def test_non_rank_subscript_fires(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_exchange(self, rank):
                    self._payloads[0] = rank
            """,
        )
        assert [v.rule for v in violations] == ["W501"]

    def test_lock_guarded_store_is_exempt(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_reduce(self, rank):
                    with self._lock:
                        self.total += 1
            """,
        )
        assert violations == []

    def test_local_store_is_exempt(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_collide(self, rank):
                    st = self.ranks[rank]
                    st.f = st.f * 2
            """,
        )
        assert violations == []

    def test_non_phase_function_is_out_of_scope(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def finalize(self, rank):
                    self.done = True
            """,
        )
        assert violations == []


class TestPhaseTelemetry:
    def test_counters_are_exempt(self, tmp_path):
        # lock-owning metric counters are legal inside phase bodies
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_exchange(self, rank):
                    self._halo_packed.inc(128)
            """,
        )
        assert violations == []


class TestCrossRankAccess:
    def test_foreign_rank_index_fires(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_exchange(self, rank):
                    peer = self.ranks[rank + 1]
            """,
        )
        assert [v.rule for v in violations] == ["W503"]

    def test_own_rank_index_is_exempt(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_collide(self, rank):
                    st = self.ranks[rank]
            """,
        )
        assert violations == []

    def test_rank_sweep_fires(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_reduce(self, rank):
                    for st in self.ranks:
                        st.f *= 2
            """,
        )
        assert any(v.rule == "W503" for v in violations)
        assert any("iterates" in v.message for v in violations)


class TestScopeAndSuppression:
    def test_live_tree_is_clean(self):
        # dogfood: the solver's own phase bodies obey the contract
        report = LintEngine().select(W_RULES).run(["src/repro"])
        assert report.violations == []

    def test_noqa_suppression(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_collide(self, rank):
                    self.last_rank = rank  # repro: noqa[W501]
            """,
        )
        assert violations == []

    @pytest.mark.parametrize("rule", W_RULES)
    def test_rules_selectable_individually(self, tmp_path, rule):
        source = """
        class Solver:
            def _phase_all(self, rank):
                self.total = 1
                for st in self.ranks:
                    pass
        """
        violations = lint(tmp_path, source, rules=[rule])
        assert {v.rule for v in violations} == {rule}


class TestProcessPhasePicklable:
    def test_lambda_in_phase_body_fires(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_pack(self, rank):
                    st = self.ranks[rank]
                    st.apply(lambda x: x + rank)
            """,
            rules=["W504"],
        )
        assert [v.rule for v in violations] == ["W504"]
        assert "lambda" in violations[0].message

    def test_nested_function_fires(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_stream(self, rank):
                    def kernel():
                        return rank
                    kernel()
            """,
            rules=["W504"],
        )
        assert [v.rule for v in violations] == ["W504"]
        assert "nested function 'kernel'" in violations[0].message

    def test_plain_phase_body_is_clean(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            class Solver:
                def _phase_stream(self, rank):
                    st = self.ranks[rank]
                    st.f, st.f_tmp = st.f_tmp, st.f
            """,
            rules=["W504"],
        )
        assert violations == []

    def test_nested_def_outside_phase_is_exempt(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            def build_plan():
                def helper():
                    return 1
                return helper
            """,
            rules=["W504"],
        )
        assert violations == []


class TestSegmentName:
    def test_direct_shared_memory_call_fires(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            from multiprocessing import shared_memory

            def grab():
                return shared_memory.SharedMemory(create=True, size=64)
            """,
            rules=["W505"],
        )
        assert [v.rule for v in violations] == ["W505"]
        assert "SegmentRegistry" in violations[0].message

    def test_bare_name_call_fires(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            from multiprocessing.shared_memory import SharedMemory

            def grab():
                return SharedMemory(create=True, size=64)
            """,
            rules=["W505"],
        )
        assert [v.rule for v in violations] == ["W505"]

    def test_registry_helper_is_clean(self, tmp_path):
        violations = lint(
            tmp_path,
            """
            def grab(registry):
                return registry.ndarray("rank0.f", (19, 128))
            """,
            rules=["W505"],
        )
        assert violations == []

    def test_shmem_module_itself_is_exempt(self):
        report = (
            LintEngine()
            .select(["W505"])
            .run(["src/repro/runtime/shmem.py"])
        )
        assert report.violations == []

    def test_live_tree_is_clean_under_process_rules(self):
        report = LintEngine().select(["W504", "W505"]).run(["src/repro"])
        assert report.violations == []
