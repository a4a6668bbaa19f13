"""Judging, aggregation, report rendering, and figure-data emission."""

import logging
import random

import pytest

from modelspace import planner, repair
from modelspace.edits import ADD_INIT, UNSOLVABILITY, ModelEdit, RepairTask
from modelspace.evalharness import (
    SchemaError,
    aggregate,
    emit_fig_data,
    judge_preferred,
    render_report_md,
)
from modelspace.benchgen import family_for
from modelspace.pddl import GroundAtom
from modelspace.pddl.errors import PddlError
from modelspace.planner import Budget, Plan
from modelspace.repair import INDETERMINATE, SOUND, UNSOUND, judge


def rec(iid="i1", domain="travel", pipeline="llm_only", use_case="unsolvability",
        sound=True, preferred=True, failure=None, **extra):
    base = {
        "instance_id": iid, "domain": domain, "pipeline": pipeline,
        "use_case": use_case, "sound": sound, "preferred": preferred,
        "failure": failure,
    }
    base.update(extra)
    return base


class TestJudging:
    def test_soundness_matches_solvability(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        good = {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}
        bad = {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("c", "b")))}
        assert judge(task, good) == SOUND
        assert judge(task, bad) == UNSOUND

    def test_indeterminate_on_budget_exhaustion(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        good = {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}
        assert judge(task, good, Budget(max_expansions=1)) == INDETERMINATE

    def test_stale_edit_raises(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        already_true = {ModelEdit(ADD_INIT, GroundAtom("at", ("a",)))}
        with pytest.raises(PddlError):
            judge(task, already_true)

    # use_bus a b, use_bus b c solves t2 once has_bus(b, c) is added
    WITNESS = Plan((("use_bus", ("a", "b")), ("use_bus", ("b", "c"))))
    CORRUPTED = {
        "dropped_step": Plan(WITNESS.steps[1:]),
        "unknown_action": Plan((("fly", ("a", "c")),)),
        "wrong_arity": Plan((("use_bus", ("a",)),) + WITNESS.steps[1:]),
        "empty": Plan(()),
    }

    def test_valid_witness_needs_no_grounding_or_search(self, t2, count_calls):
        task = RepairTask(t2, UNSOLVABILITY)
        good = {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}
        grounded, solved = count_calls(repair.ground_task), count_calls(planner.solve)
        assert judge(task, good, witness=self.WITNESS) == SOUND
        assert (len(grounded), len(solved)) == (0, 0)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTED))
    @pytest.mark.parametrize("atom, budget, verdict", [
        (("has_bus", ("b", "c")), None, SOUND),
        (("has_bus", ("c", "b")), None, UNSOUND),
        (("has_bus", ("b", "c")), Budget(max_expansions=1), INDETERMINATE),
    ], ids=[SOUND, UNSOUND, INDETERMINATE])
    def test_corrupted_witness_falls_back_to_solve(
        self, t2, count_calls, corruption, atom, budget, verdict
    ):
        """A rejected witness leaves the verdict to one solvability check,
        the one `judge` makes without a witness."""
        task = RepairTask(t2, UNSOLVABILITY)
        edits = {ModelEdit(ADD_INIT, GroundAtom(*atom))}
        checked = count_calls(repair.SolvabilityCheck)
        assert judge(task, edits, budget, witness=self.CORRUPTED[corruption]) == verdict
        assert len(checked) == 1
        assert judge(task, edits, budget) == verdict
        assert len(checked) == 2

    @pytest.mark.parametrize("witness", [None, Plan(()), WITNESS])
    def test_stale_edit_raises_with_any_witness(self, t2, witness):
        task = RepairTask(t2, UNSOLVABILITY)
        already_true = {ModelEdit(ADD_INIT, GroundAtom("at", ("a",)))}
        with pytest.raises(PddlError):
            judge(task, already_true, witness=witness)

    def test_rejected_witness_is_logged(self, t2, caplog):
        task = RepairTask(t2, UNSOLVABILITY)
        good = {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}
        with caplog.at_level(logging.DEBUG, logger="modelspace.repair"):
            assert judge(task, good, witness=self.WITNESS) == SOUND
            assert not caplog.records
            assert judge(task, good, witness=self.CORRUPTED["dropped_step"]) == SOUND
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.name == "modelspace.repair"
        failing_step, report = record.args
        assert failing_step == self.WITNESS.steps[1]
        assert report.failing_step == 0

    def test_preferred_requires_family_membership(self, t2):
        fam = family_for("travel_services")
        good = {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}
        teleport = {ModelEdit(ADD_INIT, GroundAtom("at", ("c",)))}
        assert judge_preferred(good, fam, t2)
        assert not judge_preferred(teleport, fam, t2)

    def test_empty_edit_set_not_preferred(self, t2):
        assert not judge_preferred(frozenset(), family_for("travel_services"), t2)


class TestAggregate:
    def test_counting(self):
        records = [
            rec(sound=True, preferred=True),
            rec(iid="i2", sound=True, preferred=False),
            rec(iid="i3", sound=False, preferred=False),
            rec(iid="i4", sound=False, preferred=False, failure="provider_error"),
        ]
        report = aggregate(records)
        cell = report["use_cases"]["unsolvability"]["domains"]["travel"]["llm_only"]
        assert cell["attempted"] == 4
        assert cell["sound"] == 2
        assert cell["preferred"] == 1
        assert cell["sound_str"] == "2/4"
        assert cell["preferred_str"] == "1/2"
        assert cell["failures"] == {"provider_error": 1}
        overall = report["use_cases"]["unsolvability"]["overall"]["llm_only"]
        assert overall["attempted"] == 4

    def test_overall_sums_domains(self):
        records = [
            rec(domain="travel"),
            rec(iid="i2", domain="roomba"),
            rec(iid="i3", domain="roomba", sound=False, preferred=False),
        ]
        report = aggregate(records)
        uc = report["use_cases"]["unsolvability"]
        assert set(uc["domains"]) == {"travel", "roomba"}
        assert uc["overall"]["llm_only"]["attempted"] == 3
        assert uc["overall"]["llm_only"]["sound"] == 2

    def test_permutation_invariant(self):
        records = [
            rec(iid=f"i{n}", domain=d, pipeline=p, sound=n % 2 == 0,
                preferred=n % 4 == 0)
            for n, (d, p) in enumerate(
                (d, p)
                for d in ("travel", "roomba", "barman_simple")
                for p in ("llm_only", "post_processor", "pre_processor")
            )
        ]
        expected = aggregate(records)
        rng = random.Random(0)
        for _ in range(5):
            rng.shuffle(records)
            assert aggregate(records) == expected

    def test_no_timestamps_or_nondeterminism(self):
        a = aggregate([rec()])
        b = aggregate([rec()])
        assert a == b

    def test_metadata_is_empty(self):
        """`report.json` keeps its `metadata` key, with nothing in it."""
        assert aggregate([rec()])["metadata"] == {}

    def test_schema_enforced(self):
        with pytest.raises(SchemaError):
            aggregate([{"instance_id": "x"}])


class TestMarkdownReport:
    def test_tables_rendered(self):
        records = [
            rec(pipeline=p, use_case=uc, iid=f"{p}-{uc}")
            for p in ("llm_only", "post_processor", "pre_processor")
            for uc in ("unsolvability", "executability")
        ]
        md = render_report_md(aggregate(records))
        assert "## Unsolvability" in md
        assert "## Executability" in md
        assert "| travel |" in md
        assert "| Overall |" in md
        # column order is fixed regardless of dict order
        header = next(ln for ln in md.splitlines() if ln.startswith("| Domain"))
        assert header.index("llm_only") < header.index("post_processor") < header.index(
            "pre_processor"
        )

    def test_idempotent(self):
        report = aggregate([rec()])
        assert render_report_md(report) == render_report_md(report)


class TestFigData:
    def test_shape_and_order(self):
        records = [
            rec(iid="b", domain="roomba", edit_size=2, plan_size=4),
            rec(iid="a", domain="travel", edit_size=1, plan_size=3, sound=False),
            rec(iid="c", domain="roomba", edit_size=1, plan_size=2),
        ]
        csv_text = emit_fig_data(records)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "instance_id,domain,pipeline,edit_size,plan_size,value"
        assert lines[1].startswith("c,roomba")  # sorted by (domain, edit_size, id)
        assert lines[2].startswith("b,roomba")
        assert lines[3] == "a,travel,llm_only,1,3,-1"

    def test_value_flips_with_soundness(self):
        up = emit_fig_data([rec(edit_size=1, plan_size=1, sound=True)])
        down = emit_fig_data([rec(edit_size=1, plan_size=1, sound=False)])
        assert up.strip().endswith(",1")
        assert down.strip().endswith(",-1")

    @pytest.mark.parametrize(
        "sizes", [{}, {"edit_size": 3}, {"plan_size": 7}],
        ids=["neither", "edit_size_only", "plan_size_only"],
    )
    def test_record_without_sizes_rejected(self, sizes):
        with pytest.raises(SchemaError):
            emit_fig_data([rec(**sizes)])
