"""Edit vocabulary: candidate spaces, application, rank costs, serialization."""

import pytest

from modelspace.edits import (
    ADD_INIT,
    ConflictingEdit,
    EmptySpace,
    ModelEdit,
    RANK_CAP,
    REMOVE_INIT,
    StaleEdit,
    TooManyEdits,
    apply_edits,
    assign_rank_costs,
    build_edit_space,
    edit_from_json,
    edit_to_json,
    format_edit_set,
)
from modelspace.pddl import GroundAtom, UnknownPredicate


def add(pred, *args):
    return ModelEdit(ADD_INIT, GroundAtom(pred, args))


def rem(pred, *args):
    return ModelEdit(REMOVE_INIT, GroundAtom(pred, args))


class TestEditSpace:
    def test_add_space_excludes_init(self, t2):
        space = build_edit_space(t2, predicates={"has_taxi"})
        atoms = {e.atom for e in space}
        assert GroundAtom("has_taxi", ("a", "b")) not in atoms  # already true
        assert GroundAtom("has_taxi", ("b", "c")) in atoms
        assert len(space) == 9 - 1

    def test_empty_space_rejected(self, t2):
        """Every `at` atom already holds, so no addition is left."""
        full = t2.with_init(t2.problem.init | {e.atom for e in build_edit_space(t2, {"at"})})
        with pytest.raises(EmptySpace):
            build_edit_space(full, predicates={"at"})

    def test_undeclared_predicate_rejected(self, t2):
        with pytest.raises(UnknownPredicate, match="unknown predicate 'no_such_predicate'"):
            build_edit_space(t2, predicates={"at", "no_such_predicate"})


class TestApplyEdits:
    def test_add_and_remove(self, t2):
        edits = [add("has_bus", "b", "c"), rem("has_taxi", "a", "b")]
        out = apply_edits(t2, edits)
        assert GroundAtom("has_bus", ("b", "c")) in out.problem.init
        assert GroundAtom("has_taxi", ("a", "b")) not in out.problem.init
        # everything else untouched
        assert out.problem.goal == t2.problem.goal
        assert len(out.problem.init) == len(t2.problem.init)

    def test_empty_edit_set_is_identity(self, t2):
        assert apply_edits(t2, []) == t2

    def test_conflicting_add_remove_rejected(self, t2):
        with pytest.raises(ConflictingEdit):
            apply_edits(t2, [add("at", "b"), rem("at", "b")])

    def test_stale_add_rejected(self, t2):
        with pytest.raises(StaleEdit):
            apply_edits(t2, [add("at", "a")])  # already in init

    def test_stale_remove_rejected(self, t2):
        with pytest.raises(StaleEdit):
            apply_edits(t2, [rem("has_bus", "b", "c")])  # not in init

    def test_order_independent(self, t2):
        e1 = [add("has_bus", "b", "c"), rem("at", "a")]
        assert apply_edits(t2, e1) == apply_edits(t2, list(reversed(e1)))


class TestRankCosts:
    def test_doubling_sequence(self):
        edits = [add("p", str(i)) for i in range(5)]
        costs = [c for _, c in assign_rank_costs(edits)]
        assert costs == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_prefix_beats_next_single(self):
        """Sum of the first i costs is strictly below the (i+1)th cost."""
        edits = [add("p", str(i)) for i in range(RANK_CAP)]
        costs = [c for _, c in assign_rank_costs(edits)]
        for i in range(1, RANK_CAP):
            assert sum(costs[:i]) < costs[i]
        assert sum(costs) == 2**RANK_CAP - 1 == 1048575

    def test_cap_enforced(self):
        edits = [add("p", str(i)) for i in range(RANK_CAP + 1)]
        with pytest.raises(TooManyEdits):
            assign_rank_costs(edits)

    def test_empty_list_rejected(self):
        with pytest.raises(TooManyEdits):
            assign_rank_costs([])


class TestFormatting:
    def test_edit_str(self):
        assert str(add("has_bus", "b", "c")) == "(+ (has_bus b c))"
        assert str(rem("at", "a")) == "(- (at a))"

    def test_format_edit_set_sorted(self):
        edits = {rem("at", "a"), add("has_bus", "b", "c")}
        assert format_edit_set(edits) == "(+ (has_bus b c)) (- (at a))"

    def test_json_round_trip(self):
        for edit in (add("has_bus", "b", "c"), rem("at", "a")):
            assert edit_from_json(edit_to_json(edit)) == edit
