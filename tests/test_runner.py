"""Batch runner over generated instances, with the instance-aware mock
provider standing in for a real LLM."""

import logging

import pytest

from modelspace import pipelines, planner, repair
from modelspace.benchgen import make_instance
from modelspace.edits import ADD_INIT
from modelspace.llm import ProviderConfig
from modelspace.oracle import OracleProvider
from modelspace.planner import Plan
from modelspace.runner import (
    RECORD_SCHEMA,
    default_edit_space,
    read_records_jsonl,
    record_edits,
    run_bench,
    run_instance,
    write_records_jsonl,
)

CFG = ProviderConfig(context_limit=10**6)


@pytest.fixture(scope="module")
def travel_inst():
    return make_instance("travel", seed=4)


@pytest.fixture(scope="module")
def roomba_inst():
    return make_instance("roomba", seed=4)


class TestOracleProvider:
    def test_llm_only_reply_is_deleted_facts(self, travel_inst):
        provider = OracleProvider(travel_inst)
        reply = provider.complete("given the following problem and domain files: ...").text
        lines = reply.strip().splitlines()
        assert len(lines) == travel_inst.k
        for fact in travel_inst.deleted_facts:
            assert str(fact) in lines

    def test_option_pick_prefers_family_option(self, travel_inst):
        provider = OracleProvider(travel_inst)
        fact = sorted(travel_inst.deleted_facts)[0]
        prompt = (
            "Option 1: (+ (at city_x))\n"
            f"Option 2: (+ {fact})\n"
            "Pick the most reasonable option from the list"
        )
        assert provider.complete(prompt).text == "2"

    def test_option_pick_falls_back_to_first(self, travel_inst):
        provider = OracleProvider(travel_inst)
        prompt = (
            "Option 1: (+ (at city_x))\n"
            "Pick the most reasonable option from the list"
        )
        assert provider.complete(prompt).text == "1"


class TestRunInstance:
    @pytest.mark.parametrize("pipeline", ["llm_only", "post_processor", "pre_processor"])
    @pytest.mark.parametrize("use_case", ["unsolvability", "executability"])
    def test_oracle_runs_sound(self, travel_inst, pipeline, use_case):
        record = run_instance(
            travel_inst, pipeline, use_case, OracleProvider(travel_inst), CFG
        )
        assert record["schema"] == RECORD_SCHEMA
        assert record["failure"] is None
        assert record["sound"] is True
        if pipeline != "post_processor":
            assert record["preferred"] is True
        assert record["edit_size"] == travel_inst.k
        assert record["plan_size"] == len(travel_inst.target_plan.steps)

    def test_record_edits_round_trip(self, travel_inst):
        record = run_instance(
            travel_inst, "llm_only", "unsolvability", OracleProvider(travel_inst), CFG
        )
        edits = record_edits(record)
        assert edits == frozenset(
            {e for e in edits}  # well-formed ModelEdit values
        )
        assert {e.atom for e in edits} == set(travel_inst.deleted_facts)

    @pytest.mark.parametrize("pipeline", ["llm_only", "post_processor", "pre_processor"])
    @pytest.mark.parametrize("use_case", ["unsolvability", "executability"])
    def test_each_record_judged_once(self, travel_inst, pipeline, use_case, monkeypatch):
        real_judge = repair.judge
        judged = []

        def counting_judge(task, edits, budget=None, **kwargs):
            judged.append(edits)
            return real_judge(task, edits, budget, **kwargs)

        for module in (repair, pipelines):
            monkeypatch.setattr(module, "judge", counting_judge)
        record = run_instance(
            travel_inst, pipeline, use_case, OracleProvider(travel_inst), CFG
        )
        assert record["sound"] is True
        assert len(judged) == 1

    def test_pre_processor_grounds_and_solves_once(self, travel_inst, count_calls):
        """The min-cost plan is the witness `judge` validates, so soundness
        costs no second grounding and no second search."""
        grounded, solved = count_calls(repair.ground_task), count_calls(planner.solve)
        record = run_instance(
            travel_inst, "pre_processor", "unsolvability",
            OracleProvider(travel_inst), CFG,
        )
        assert record["sound"] is True
        assert (len(grounded), len(solved)) == (1, 1)

    def test_post_processor_grounds_once(self, travel_inst, count_calls):
        """The chosen option carries the plan enumeration solved it with,
        so its re-verification grounds nothing."""
        grounded = count_calls(repair.ground_task)
        record = run_instance(
            travel_inst, "post_processor", "unsolvability",
            OracleProvider(travel_inst), CFG,
        )
        assert record["sound"] is True
        assert len(grounded) == 1

    def test_post_processor_corrupted_witness_checked_afresh(
        self, travel_inst, monkeypatch, caplog, count_calls
    ):
        """An option whose witness does not solve its repaired model is
        still judged, by a fresh check, and the rejection is logged."""
        real_enumerate = pipelines.enumerate_solutions

        def corrupting(*args, **kwargs):
            options = real_enumerate(*args, **kwargs)
            for option in options:
                option.witness = Plan(option.witness.steps[1:])
            return options

        monkeypatch.setattr(pipelines, "enumerate_solutions", corrupting)
        grounded = count_calls(repair.ground_task)
        with caplog.at_level(logging.WARNING, logger="modelspace.repair"):
            record = run_instance(
                travel_inst, "post_processor", "unsolvability",
                OracleProvider(travel_inst), CFG,
            )
        assert record["sound"] is True
        assert len(grounded) == 2  # enumeration's, then the fresh check's
        [warning] = caplog.records
        assert warning.getMessage().startswith("witness plan rejected")

    def test_soundness_rejudged_independently(self, travel_inst):
        """A provider that replies with prose produces a failed record, not a
        crash, and the verdict fields stay false."""
        from modelspace.llm import FunctionProvider

        provider = FunctionProvider(lambda _p: "I would add nothing.")
        record = run_instance(travel_inst, "llm_only", "unsolvability", provider, CFG)
        assert record["failure"] == "unparseable_response"
        assert record["sound"] is False
        assert record["preferred"] is False


class TestEditSpaces:
    def test_travel_space_adds_only(self, travel_inst):
        space = default_edit_space("travel", travel_inst.perturbed)
        assert all(e.kind == ADD_INIT for e in space)
        preds = {e.atom.predicate for e in space}
        assert preds <= {"has_taxi", "has_bus", "at"}
        # the ground-truth fix must be expressible
        atoms = {e.atom for e in space}
        assert set(travel_inst.deleted_facts) <= atoms

    def test_roomba_space_adds_only(self, roomba_inst):
        space = default_edit_space("roomba", roomba_inst.perturbed)
        assert all(e.kind == ADD_INIT for e in space)
        assert {e.atom.predicate for e in space} <= {"is_clean", "path_is_clear"}
        atoms = {e.atom for e in space}
        assert set(roomba_inst.deleted_facts) <= atoms


class TestRunBench:
    def test_cross_product_and_order(self, travel_inst, roomba_inst):
        records = run_bench(
            [travel_inst, roomba_inst],
            ["llm_only", "pre_processor"],
            ["unsolvability"],
            OracleProvider,
            CFG,
        )
        assert [(r["instance_id"], r["pipeline"]) for r in records] == [
            (travel_inst.id, "llm_only"),
            (travel_inst.id, "pre_processor"),
            (roomba_inst.id, "llm_only"),
            (roomba_inst.id, "pre_processor"),
        ]

    def test_parallel_matches_serial(self, travel_inst, roomba_inst):
        """Worker threads run `planner.solve` concurrently, on compiled
        min-cost tasks too (pre_processor)."""
        args = (
            [travel_inst, roomba_inst],
            ["llm_only", "pre_processor"],
            ["unsolvability", "executability"],
            OracleProvider,
            CFG,
        )
        serial = run_bench(*args, jobs=1)
        parallel = run_bench(*args, jobs=4)
        strip = lambda r: {k: v for k, v in r.items() if k != "timings"}
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]

    def test_jsonl_round_trip(self, tmp_path, travel_inst):
        records = run_bench(
            [travel_inst], ["llm_only"], ["unsolvability"], OracleProvider, CFG
        )
        path = tmp_path / "records.jsonl"
        write_records_jsonl(records, path)
        assert read_records_jsonl(path) == records
