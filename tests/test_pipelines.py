"""End-to-end pipeline behavior with scripted providers."""

import pytest

from modelspace.edits import (
    ADD_INIT,
    UNSOLVABILITY,
    EXECUTABILITY,
    ModelEdit,
    RepairTask,
    build_edit_space,
)
from modelspace.llm import FunctionProvider, ProviderConfig
from modelspace.pddl import GroundAtom
from modelspace.pipelines import (
    FAIL_CONTEXT_OVERFLOW,
    FAIL_NO_SOLUTION,
    FAIL_PROVIDER,
    FAIL_UNPARSEABLE,
    LLM_ONLY,
    PIPELINE_KINDS,
    POST_PROCESSOR,
    PRE_PROCESSOR,
    run_pipeline,
)
from modelspace.planner import Budget

CFG = ProviderConfig(context_limit=10**6)
T2_SPACE_PREDS = {"has_taxi", "has_bus", "at"}


def t2_task(t2):
    return RepairTask(t2, UNSOLVABILITY)


def scripted(text):
    return FunctionProvider(lambda _prompt: text)


class TestLlmOnly:
    def test_sound_fix_accepted(self, t2):
        out = run_pipeline(LLM_ONLY, t2_task(t2), scripted("(has_bus b c)"), CFG)
        assert out.failure is None
        assert out.sound
        assert out.edits == frozenset(
            {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}
        )

    def test_useless_fix_unsound(self, t2):
        out = run_pipeline(LLM_ONLY, t2_task(t2), scripted("(has_bus c a)"), CFG)
        assert out.failure is None
        assert not out.sound

    def test_hallucinated_atom_unsound_not_crash(self, t2):
        out = run_pipeline(LLM_ONLY, t2_task(t2), scripted("(warp_drive b c)"), CFG)
        assert out.failure is None
        assert not out.sound
        assert out.diagnostics

    def test_prose_is_unparseable_failure(self, t2):
        out = run_pipeline(LLM_ONLY, t2_task(t2), scripted("Sorry, no."), CFG)
        assert out.failure == FAIL_UNPARSEABLE
        assert out.edits is None

    def test_context_overflow_failure(self, t2):
        tiny = ProviderConfig(context_limit=128)
        out = run_pipeline(LLM_ONLY, t2_task(t2), scripted("(at c)"), tiny)
        assert out.failure == FAIL_CONTEXT_OVERFLOW
        assert out.response == ""

    def test_provider_error_failure(self, t2):
        from modelspace.llm import ProviderError

        def boom(_prompt):
            raise ProviderError("backend down")

        class FailingProvider(FunctionProvider):
            def complete(self, prompt):
                boom(prompt)

        out = run_pipeline(LLM_ONLY, t2_task(t2), FailingProvider(boom), CFG)
        assert out.failure == FAIL_PROVIDER

    def test_executability_plan_in_prompt(self, travel_exec_model):
        from conftest import load_plan

        task = RepairTask(travel_exec_model, EXECUTABILITY, load_plan("d5_plan.txt"))
        out = run_pipeline(
            LLM_ONLY, task, scripted("(has_bus city_b city_c)"), CFG
        )
        assert out.sound
        assert "(use_taxi city_c city_e)" in out.prompt


class TestPostProcessor:
    def test_choice_is_verified_option(self, t2):
        space = build_edit_space(t2, predicates=T2_SPACE_PREDS)
        out = run_pipeline(
            POST_PROCESSOR, t2_task(t2), scripted("2"), CFG, space=space
        )
        assert out.failure is None
        assert out.sound
        assert "Option 2:" in out.prompt

    def test_option_out_of_range_unparseable(self, t2):
        space = build_edit_space(t2, predicates=T2_SPACE_PREDS)
        out = run_pipeline(
            POST_PROCESSOR, t2_task(t2), scripted("99"), CFG, space=space
        )
        assert out.failure == FAIL_UNPARSEABLE

    def test_insufficient_space_no_solution(self, t2):
        from modelspace.edits import REMOVE_INIT

        space = [
            ModelEdit(REMOVE_INIT, atom)
            for atom in sorted(t2.problem.init) if atom.predicate == "has_taxi"
        ]
        out = run_pipeline(
            POST_PROCESSOR, t2_task(t2), scripted("1"), CFG, space=space
        )
        assert out.failure == f"{FAIL_NO_SOLUTION}:proven_insufficient"

    def test_budget_exhaustion_reported(self, t2):
        space = build_edit_space(t2, predicates=T2_SPACE_PREDS)
        out = run_pipeline(
            POST_PROCESSOR, t2_task(t2), scripted("1"), CFG,
            space=space, budget=Budget(max_expansions=1),
        )
        assert out.failure == f"{FAIL_NO_SOLUTION}:budget_exhausted"


class TestPreProcessor:
    def test_ranked_list_searched_in_order(self, t2):
        # rank 1 useless, rank 2 sound: search must pick rank 2 alone
        reply = "(has_taxi c a)\n(has_bus b c)\n(at c)"
        out = run_pipeline(PRE_PROCESSOR, t2_task(t2), scripted(reply), CFG)
        assert out.failure is None
        assert out.sound
        assert out.edits == frozenset(
            {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}
        )

    def test_all_useless_candidates_proven_insufficient(self, t2):
        reply = "(has_taxi c a)\n(has_bus c b)"
        out = run_pipeline(PRE_PROCESSOR, t2_task(t2), scripted(reply), CFG)
        assert out.failure == f"{FAIL_NO_SOLUTION}:proven_insufficient"

    def test_unusable_list_unparseable(self, t2):
        out = run_pipeline(PRE_PROCESSOR, t2_task(t2), scripted("(at a)"), CFG)
        assert out.failure == FAIL_UNPARSEABLE

    def test_malformed_entries_do_not_consume_rank_slots(self, t2):
        lines = [f"(has_taxi c{i} c{i})" for i in range(25)] + ["(has_bus b c)"]
        out = run_pipeline(PRE_PROCESSOR, t2_task(t2), scripted("\n".join(lines)), CFG)
        # the 25 undeclared-object lines are skipped, so the sound edit
        # survives as rank 1 despite sitting past position 20 in the text
        assert out.failure is None
        assert out.sound
        assert out.edits == frozenset(
            {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}
        )
        assert sum("malformed" in d for d in out.diagnostics) == 25


class TestDispatcher:
    def test_unknown_pipeline_rejected(self, t2):
        with pytest.raises(ValueError):
            run_pipeline("magic", t2_task(t2), scripted("1"), CFG)

    def test_outcome_identity_fields(self, t2):
        for pipe in PIPELINE_KINDS:
            out = run_pipeline(
                pipe, t2_task(t2), scripted("(has_bus b c)"), CFG,
                instance_id="abc",
                space=build_edit_space(t2, predicates=T2_SPACE_PREDS),
            )
            assert out.instance_id == "abc"
            assert out.pipeline == pipe
            assert out.use_case == UNSOLVABILITY
