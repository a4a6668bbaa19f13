"""Repair search correctness against a brute-force subset oracle."""

import functools
import itertools
import logging

import pytest

from conftest import SIZES, load_plan, verify_instance
from modelspace import planner, repair
from modelspace.benchgen import ALL_KINDS
from modelspace.benchgen.corpus import generate_corpus
from modelspace.compilation import compile_executability
from modelspace.edits import (
    ADD_INIT,
    REMOVE_INIT,
    EXECUTABILITY,
    UNSOLVABILITY,
    ModelEdit,
    RepairTask,
    apply_edits,
    assign_rank_costs,
    build_edit_space,
)
from modelspace.llm import ProviderConfig
from modelspace.oracle import OracleProvider
from modelspace.pddl import (
    GroundAtom,
    Model,
    ground_task,
    parse_domain,
    parse_problem,
)
from modelspace.pddl.ground import _mask
from modelspace.planner import (
    Budget,
    Plan,
    SOLVED,
    SolvabilityCheck,
    UNSOLVABLE,
    missing_init_atoms,
    solve,
    validate_plan,
)
from modelspace.repair import (
    BUDGET_EXHAUSTED,
    ENUM_BUDGET,
    MAX_RETAINED_SOLUTIONS,
    NoSolution,
    PROVEN_INSUFFICIENT,
    SOUND,
    _compile_edit_search,
    _kept_edits,
    _search,
    enumerate_solutions,
    judge,
    repair_min_cost,
    verify_repair,
)
from modelspace.runner import default_edit_space, run_instance


def brute_force_min_sets(task, space, max_size=3):
    """All minimal sound edit subsets up to max_size, by exhaustive check."""
    sound = []
    for r in range(max_size + 1):
        for combo in itertools.combinations(space, r):
            edset = frozenset(combo)
            if any(prev <= edset for prev in sound):
                continue
            if verify_repair(task, edset):
                sound.append(edset)
    return sound


# the minimal sound sets of t2's has_taxi/has_bus/at space, in order
T2_SETS = [
    ["(+ (at c))"], ["(+ (has_bus a c))"], ["(+ (has_bus b c))"],
    ["(+ (has_taxi a c))"], ["(+ (has_taxi b c))"],
]


def brute_force_first_sets(task, space):
    """The first `MAX_RETAINED_SOLUTIONS` minimal sound subsets of `space`
    in (size, sorted members) order, by deciding every subset in that order
    with one `SolvabilityCheck` of the task's grounding (`TestRelaxedFilters`
    holds it to full `solve`). A subset holding a sound one found earlier is
    not minimal and is skipped undecided. Edits of atoms already in init are
    left out: a subset holding one repairs to the same model as without it."""
    gt = ground_task(task.base)
    check = SolvabilityCheck(gt)
    edits = sorted(e for e in space if e.atom not in task.base.problem.init)
    init = gt.init
    found = []
    subsets = itertools.chain.from_iterable(
        itertools.combinations(edits, r) for r in range(len(edits) + 1)
    )
    for combo in subsets:
        chosen = frozenset(combo)
        if any(f <= chosen for f in found):
            continue
        atoms = (gt.atom_index[e.atom] for e in combo if e.atom in gt.atom_index)
        if check(init | _mask(atoms)).solved:
            found.append(chosen)
            if len(found) == MAX_RETAINED_SOLUTIONS:
                break
    return found


def corpus_task(kind, seed, **size):
    inst = generate_corpus([kind], 1, seed=seed, **size)[0]
    return RepairTask(inst.perturbed, UNSOLVABILITY), default_edit_space(
        kind, inst.perturbed
    )


def fork_task():
    """`one` and `two` each need r and delete it, so with deletes ignored
    ``+(r)`` reaches both goal atoms and in truth only one. Returns the
    task and the additions of r, g1 and g2."""
    domain = parse_domain("""(define (domain fork) (:requirements :strips)
      (:predicates (r) (g1) (g2))
      (:action one :parameters () :precondition (r)
        :effect (and (g1) (not (r))))
      (:action two :parameters () :precondition (r)
        :effect (and (g2) (not (r)))))""")
    problem = parse_problem(
        "(define (problem p) (:domain fork) (:init) (:goal (and (g1) (g2))))",
        domain,
    )
    task = RepairTask(Model(domain, problem), UNSOLVABILITY)
    return task, tuple(ModelEdit(ADD_INIT, GroundAtom(n, ())) for n in ("r", "g1", "g2"))


@functools.lru_cache(maxsize=None)
def corpus_case(kind, seed):
    """The corpus task of `kind` at its benchmark size, its space and its
    `brute_force_first_sets`."""
    task, space = corpus_task(kind, seed, **SIZES[kind])
    return task, space, brute_force_first_sets(task, space)


def search_edits(comp, budget):
    """`_search`'s solutions as edit sets, and whether it completed."""
    solutions, complete, _ = _search(comp, budget)
    return [s.edits for s in solutions], complete


def assert_exact_prefix(task, space, budget, exact):
    """`_search` at `budget` returns a prefix of `exact`, and all of it when
    it reports complete. Returns whether it did."""
    solutions, complete = search_edits(_compile_edit_search(task, space), budget)
    assert solutions == exact[:len(solutions)]
    if complete:
        assert solutions == exact
    return complete


def removals(model, predicates):
    """A removal of each initial-state atom of `predicates`, sorted."""
    return [
        ModelEdit(REMOVE_INIT, atom)
        for atom in sorted(model.problem.init) if atom.predicate in predicates
    ]


class TestVerifyRepair:
    def test_unsolvability_verdict(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        fix = {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}
        assert verify_repair(task, fix)
        assert not verify_repair(task, set())
        useless = {ModelEdit(ADD_INIT, GroundAtom("has_taxi", ("c", "a")))}
        assert not verify_repair(task, useless)

    def test_direct_goal_add_is_sound(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        assert verify_repair(task, {ModelEdit(ADD_INIT, GroundAtom("at", ("c",)))})

    def test_executability_verdict(self, travel_exec_model):
        plan = load_plan("d5_plan.txt")
        task = RepairTask(travel_exec_model, EXECUTABILITY, plan)
        fix = {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("city_b", "city_c")))}
        assert verify_repair(task, fix)
        assert not verify_repair(task, set())


class TestMinCost:
    def test_unit_cost_minimum_matches_brute_force(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        sol = repair_min_cost(task, [(e, 1.0) for e in space])
        oracle = brute_force_min_sets(task, space, max_size=2)
        best = min(len(s) for s in oracle)
        assert sol.total_cost == best == 1
        assert sol.edits in oracle
        assert verify_repair(task, sol.edits)

    def test_weighted_minimum(self, t2):
        """Make all single-edit fixes expensive; the optimum switches to them
        only while they still undercut any two-edit combination."""
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        singles = {
            GroundAtom("has_taxi", ("b", "c")),
            GroundAtom("has_bus", ("b", "c")),
            GroundAtom("at", ("c",)),
        }
        weighted = [(e, 5.0 if e.atom in singles else 1.0) for e in space]
        sol = repair_min_cost(task, weighted)
        # two cheap edits can reroute a->c directly: add neighboring? not in
        # space, so a service a->c alone does not help; expected best is a
        # single expensive edit at cost 5, or a cheaper sound pair if any.
        brute = brute_force_min_sets(task, space, max_size=2)
        cost = {e: w for e, w in weighted}
        best = min(sum(cost[e] for e in s) for s in brute)
        assert sol.total_cost == best
        assert verify_repair(task, sol.edits)

    def test_executability_minimum(self, travel_exec_model):
        plan = load_plan("d5_plan.txt")
        task = RepairTask(travel_exec_model, EXECUTABILITY, plan)
        space = build_edit_space(travel_exec_model, predicates={"has_bus", "has_taxi"})
        sol = repair_min_cost(task, [(e, 1.0) for e in space])
        assert sol.edits == frozenset(
            {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("city_b", "city_c")))}
        )
        assert sol.total_cost == 1

    def test_removals_in_space_are_never_used(self, t2):
        """Growing the initial state is monotone, so the minimum over a space
        mixing additions and removals is the brute-force one and adds only."""
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        space += removals(t2, {"has_taxi", "has_bus", "at"})
        assert any(e.kind == REMOVE_INIT for e in space)
        sol = repair_min_cost(task, [(e, 1.0) for e in space])
        oracle = brute_force_min_sets(task, space, max_size=2)
        assert sol.total_cost == min(len(s) for s in oracle)
        assert sol.edits in oracle
        assert all(e.kind == ADD_INIT for e in sol.edits)

    def test_insufficient_space_proven(self, t2):
        # only removals available: deleting facts cannot make t2 solvable
        task = RepairTask(t2, UNSOLVABILITY)
        space = removals(t2, {"has_taxi"})
        out = repair_min_cost(task, [(e, 1.0) for e in space])
        assert isinstance(out, NoSolution)
        assert out.reason == PROVEN_INSUFFICIENT

    def test_budget_exhaustion_reported(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        out = repair_min_cost(task, [(e, 1.0) for e in space], Budget(max_expansions=1))
        assert isinstance(out, NoSolution)
        assert out.reason == BUDGET_EXHAUSTED

    def test_truncated_search_is_logged(self, t2, caplog):
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        with caplog.at_level(logging.DEBUG, logger="modelspace.repair"):
            assert not isinstance(repair_min_cost(task, space), NoSolution)
            assert not caplog.records
            out = repair_min_cost(task, space, Budget(max_expansions=1))
        assert isinstance(out, NoSolution) and out.reason == BUDGET_EXHAUSTED
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.name == "modelspace.repair"
        message = record.getMessage()
        assert message.startswith("min-cost search stopped at budget: 1 expansions")
        assert "expansion limit 1 reached" in message
        kept = len(_kept_edits(ground_task(t2), space))
        assert message.endswith(f"{kept} edits kept")

    def test_ranked_costs_respect_prefix_dominance(self, t2):
        """With doubling costs, the optimum uses the shortest sound prefix
        subset; a later-ranked single edit never beats an earlier sound one."""
        task = RepairTask(t2, UNSOLVABILITY)
        ranked_atoms = [
            GroundAtom("has_taxi", ("c", "a")),  # rank 1: useless
            GroundAtom("has_bus", ("b", "c")),  # rank 2: sound alone
            GroundAtom("at", ("c",)),  # rank 3: sound alone, dearer
        ]
        edits = [ModelEdit(ADD_INIT, a) for a in ranked_atoms]
        sol = repair_min_cost(task, assign_rank_costs(edits))
        assert sol.edits == frozenset({edits[1]})
        assert sol.total_cost == 2.0


class TestEnumeration:
    def test_all_minimal_sets_found(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        sols = [o.edits for o in enumerate_solutions(task, space)]
        oracle = brute_force_min_sets(task, space, max_size=1)
        # the three single-edit fixes are exactly the size-1 sound sets
        singles = [s for s in sols if len(s) == 1]
        assert sorted(map(sorted, singles)) == sorted(map(sorted, oracle))

    def test_no_solution_is_superset_of_another(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        sols = [o.edits for o in enumerate_solutions(task, space)]
        for a in sols:
            for b in sols:
                assert a is b or not a < b

    def test_every_solution_sound(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        for s in enumerate_solutions(task, space):
            assert verify_repair(task, s.edits)

    def test_retention_cap_and_order(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        sols = [o.edits for o in enumerate_solutions(task, space)]
        assert len(sols) <= MAX_RETAINED_SOLUTIONS
        keys = [(len(s), sorted(str(e) for e in s)) for s in sols]
        assert keys == sorted(keys)

    def test_executability_enumeration(self, travel_exec_model):
        plan = load_plan("d5_plan.txt")
        task = RepairTask(travel_exec_model, EXECUTABILITY, plan)
        space = build_edit_space(travel_exec_model, predicates={"has_bus"})
        sols = [o.edits for o in enumerate_solutions(task, space)]
        assert frozenset(
            {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("city_b", "city_c")))}
        ) == sols[0]

    def test_enumeration_no_solution(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        space = removals(t2, {"has_taxi"})
        out = enumerate_solutions(task, space)
        assert isinstance(out, NoSolution)
        assert out.reason == PROVEN_INSUFFICIENT

    def test_add_edit_already_in_init(self, t2):
        """An addition of a true atom changes no state and is never part of
        a solution."""
        task = RepairTask(t2, UNSOLVABILITY)
        present = ModelEdit(ADD_INIT, GroundAtom("has_taxi", ("a", "b")))
        fix = ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))
        assert present.atom in t2.problem.init
        comp = _compile_edit_search(task, [present, fix])
        assert comp.edits == [present, fix]
        assert search_edits(comp, Budget()) == ([frozenset({fix})], True)


class TestWideSpaces:
    """Edit spaces of more than 64 kept edits, so an edit set spans more than
    one machine word."""

    @pytest.mark.parametrize("kind, size, expansions, generated", [
        ("roomba", {"rows": 3, "cols": 3}, 128, 150),
        ("travel", {"n_cities": 6}, 58, 66),
    ], ids=["roomba", "travel"])
    def test_complete_result_is_budget_independent(self, kind, size, expansions, generated):
        """A result that reports complete at the paper's budget is the one
        ten times that budget gives. The work is pinned: edit sets decided,
        plus `solve`'s counters."""
        task, space = corpus_task(kind, 2, **size)
        comp = _compile_edit_search(task, space)
        assert len(comp.edits) > 64
        solutions, complete, stats = _search(comp, ENUM_BUDGET)
        assert complete and len(solutions) == MAX_RETAINED_SOLUTIONS
        assert (stats.expansions, stats.generated) == (expansions, generated)
        larger = Budget(10 * ENUM_BUDGET.max_expansions, ENUM_BUDGET.max_seconds)
        assert search_edits(comp, larger) == ([s.edits for s in solutions], True)

    def test_enumerated_options_are_minimal_sound_ordered_and_capped(self):
        task, space = corpus_task("travel", 1, n_cities=7)
        assert len(_compile_edit_search(task, space).edits) > 64
        options = [o.edits for o in enumerate_solutions(task, space)]
        assert len(options) == MAX_RETAINED_SOLUTIONS  # the cap binds here
        assert options == sorted(options, key=lambda s: (len(s), sorted(s)))
        for s in options:
            assert isinstance(s, frozenset)
            assert all(isinstance(e, ModelEdit) and e in space for e in s)
            assert judge(task, s) == SOUND
            assert all(judge(task, s - {e}) != SOUND for e in s)

    def test_truncated_enumeration_is_logged(self, t2, caplog):
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        with caplog.at_level(logging.DEBUG, logger="modelspace.repair"):
            # complete: proven insufficient
            enumerate_solutions(task, removals(t2, {"has_taxi"}))
            assert not caplog.records
            out = enumerate_solutions(task, space, Budget(max_expansions=10))
        assert isinstance(out, list)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.name == "modelspace.repair"
        assert "stopped at budget: 10 expansions" in record.getMessage()
        assert "expansion limit 10 reached" in record.getMessage()
        kept = len(_compile_edit_search(task, space).edits)
        assert f"{kept} edits kept" in record.getMessage()
        assert record.getMessage().endswith(f"{len(out)} solutions found")

    def test_wall_clock_truncation_is_logged(self, t2, caplog):
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        with caplog.at_level(logging.DEBUG, logger="modelspace.repair"):
            out = enumerate_solutions(task, space, Budget(max_seconds=-1.0))
        assert isinstance(out, NoSolution) and out.reason == BUDGET_EXHAUSTED
        [record] = caplog.records
        message = record.getMessage()
        assert message.startswith("enumeration stopped at budget: 0 expansions")
        assert "wall-clock limit -1 s reached" in message
        assert "expansion limit" not in message
        kept = len(_compile_edit_search(task, space).edits)
        assert message.endswith(f"{kept} edits kept, 0 solutions found")


class TestLazySearchIsExact:
    """`_search` decides its candidates lazily, one at a time, as blocks
    and solutions are learned. Against `brute_force_first_sets`: at every
    budget it returns a prefix of the exact first minimal sound sets, in
    order, and all of them when it reports complete."""

    @pytest.mark.parametrize("budget", [1, 2, 3, 37, 100, 5000])
    @pytest.mark.parametrize("kind, size", [
        ("roomba", {"rows": 3, "cols": 3}),
        ("travel", {"n_cities": 6}),
    ])
    def test_wide_corpus_spaces(self, kind, size, budget):
        """Budgets that stop it at the first candidate, a few in and not at
        all; more than 64 edits."""
        assert size == SIZES[kind]
        task, space, exact = corpus_case(kind, 2)
        assert len(_compile_edit_search(task, space).edits) > 64
        complete = assert_exact_prefix(task, space, Budget(budget, 7200.0), exact)
        assert complete == (budget == 5000 or kind == "travel" and budget == 100)

    @pytest.mark.parametrize("budget", [1, 2, 3, 37, 100, 5000])
    @pytest.mark.parametrize("kind, size", [
        ("barman_simple", {"n_cocktails": 2}),
        ("logistics_simple", {"n_islands": 2}),
        ("logistics", {"n_cities": 2, "n_locations": 2}),
    ])
    def test_narrow_corpus_spaces(self, kind, size, budget):
        """The other corpus kinds, at the sizes the benchmark generates: a
        handful of kept edits, enumerations that finish and one that does
        not."""
        assert size == SIZES[kind]
        task, space, exact = corpus_case(kind, 2)
        assert_exact_prefix(task, space, Budget(budget, 7200.0), exact)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["barman_simple", "logistics_simple", "logistics"])
    def test_corpus_spaces_complete(self, kind, seed):
        """Complete at the paper's budget, logistics too."""
        task, space, exact = corpus_case(kind, seed)
        assert exact and assert_exact_prefix(task, space, ENUM_BUDGET, exact)
        for option in enumerate_solutions(task, space):
            repaired = apply_edits(task.base, option.edits)
            assert validate_plan(repaired, option.witness).valid
            assert option.total_cost == len(option.edits)  # unit costs

    def test_no_edit_kept(self, t2):
        """Removals never pass the relevance filter, so the search runs with
        no edit and proves the space insufficient."""
        task = RepairTask(t2, UNSOLVABILITY)
        space = removals(t2, {"has_taxi"})
        comp = _compile_edit_search(task, space)
        assert space and comp.edits == []
        assert _search(comp, Budget())[:2] == ([], True)

    def test_incremental_superset_prune(self):
        """{s} solves alone, {a, b} and {p, q} each solve together, and
        every set holding one of them solves but is not minimal."""
        domain = parse_domain("""(define (domain prune) (:requirements :strips)
          (:predicates (a) (b) (p) (q) (s) (done) (x1) (x2))
          (:action win :parameters () :precondition (s) :effect (done))
          (:action ab :parameters () :precondition (and (a) (b)) :effect (done))
          (:action fin1 :parameters () :precondition (and (p) (q))
            :effect (and (done) (x1)))
          (:action fin2 :parameters () :precondition (and (p) (q))
            :effect (and (done) (x2))))""")
        problem = parse_problem(
            "(define (problem p) (:domain prune) (:init) (:goal (done)))", domain
        )
        task = RepairTask(Model(domain, problem), UNSOLVABILITY)
        a, b, p, q, s = (ModelEdit(ADD_INIT, GroundAtom(n, ())) for n in "abpqs")
        comp = _compile_edit_search(task, [a, b, p, q, s])
        assert comp.edits == [a, b, p, q, s]
        exact = [frozenset({s}), frozenset({a, b}), frozenset({p, q})]
        assert brute_force_first_sets(task, [a, b, p, q, s]) == exact
        assert search_edits(comp, Budget()) == (exact, True)

    def test_relaxed_alive_set_that_is_unsound(self, count_calls):
        """{+(r)} passes the relaxed test and `solve` refutes it, so its
        complement {+(g1), +(g2)} is a block that the sets of size 2 meet."""
        task, (r, g1, g2) = fork_task()
        exact = [frozenset({g1, g2}), frozenset({g1, r}), frozenset({g2, r})]
        assert brute_force_first_sets(task, [r, g1, g2]) == exact
        solved = count_calls(planner.solve)
        assert search_edits(_compile_edit_search(task, [r, g1, g2]), Budget()) == (exact, True)
        assert [solve(*call).status for call in solved] == [UNSOLVABLE] + [SOLVED] * 3

    @pytest.fixture(scope="class")
    def t2_case(self, t2):
        task = RepairTask(t2, UNSOLVABILITY)
        space = build_edit_space(t2, predicates={"has_taxi", "has_bus", "at"})
        return task, space, brute_force_first_sets(task, space)

    @pytest.mark.parametrize("budget", [3, 100, 5000])
    def test_t2(self, t2_case, budget):
        """It completes within the paper's budget (the sweep it replaced
        stopped there after 5 solutions)."""
        task, space, exact = t2_case
        assert [sorted(map(str, s)) for s in exact] == T2_SETS
        complete = assert_exact_prefix(task, space, Budget(budget, 7200.0), exact)
        assert complete == (budget > 3)

    def test_executability_compilation(self, travel_exec_model):
        """A step-fluent model, as `compile_executability` builds it: the
        one minimal repair is the closed form's."""
        plan = load_plan("d5_plan.txt")
        task = RepairTask(compile_executability(travel_exec_model, plan), UNSOLVABILITY)
        space = build_edit_space(travel_exec_model, predicates={"has_bus", "has_taxi"})
        missing = missing_init_atoms(travel_exec_model, plan)
        expected = [frozenset(ModelEdit(ADD_INIT, atom) for atom in missing)]
        assert search_edits(_compile_edit_search(task, space), Budget()) == (expected, True)


class TestSearchIsExact:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_travel_instances(self, seed):
        """Cross-check min-cost unit repair against the brute-force oracle on
        small generated tasks with a random service knocked out."""
        import random

        from modelspace.benchgen.domains import generate_travel

        model, family = generate_travel(n_cities=5, seed=seed)
        rng = random.Random(seed)
        victim = rng.choice(sorted(family.removable))
        broken = model.with_init(model.problem.init - {victim})
        if solve(ground_task(broken)).solved:
            pytest.skip("perturbation did not break this seed")
        task = RepairTask(broken, UNSOLVABILITY)
        space = build_edit_space(broken, predicates={"has_taxi", "has_bus", "at"})
        sol = repair_min_cost(task, [(e, 1.0) for e in space])
        oracle = brute_force_min_sets(task, space, max_size=1)
        assert oracle, "single-edit fix must exist (restore the victim)"
        assert sol.total_cost == 1
        assert sol.edits in oracle


def exec_case(kind, seed, cut=0, decoys=3):
    """A corpus instance, the executability task of its target plan less
    the last `cut` steps, and a small space: an addition of each atom that
    plan lacks, then a few other relevant additions."""
    inst = generate_corpus([kind], 1, seed=seed)[0]
    steps = inst.target_plan.steps[:len(inst.target_plan.steps) - cut]
    task = RepairTask(inst.perturbed, EXECUTABILITY, Plan(steps))
    missing = missing_init_atoms(task.base, task.target_plan)
    needed = [ModelEdit(ADD_INIT, a) for a in sorted(missing)]
    others = [e for e in default_edit_space(kind, inst.perturbed) if e not in needed]
    return inst, task, needed + others[:decoys]


def brute_force_valid_sets(model, plan, space):
    """Every subset of `space` that makes the plan valid in `model`, by
    size; each subset is judged twice, by `validate_plan` on the repaired
    model and by `solve` on its step-fluent compilation."""
    valid = []
    for r in range(len(space) + 1):
        for combo in itertools.combinations(space, r):
            repaired = apply_edits(model, combo)
            verdict = validate_plan(repaired, plan).valid
            compiled = solve(ground_task(compile_executability(repaired, plan)))
            assert verdict == compiled.solved
            if verdict:
                valid.append(frozenset(combo))
    return valid


def assert_proven_insufficient(task, space):
    for out in (
        enumerate_solutions(task, space),
        repair_min_cost(task, assign_rank_costs(space)),
    ):
        assert isinstance(out, NoSolution) and out.reason == PROVEN_INSUFFICIENT


EXEC_CASES = [
    (kind, seed) for kind in ("travel", "barman_simple", "logistics") for seed in (1, 2)
]


class TestExecutabilityClosedForm:
    """`missing_init_atoms`, and both entry points, which answer
    executability with it, against brute force over every subset of a
    small space."""

    @pytest.mark.parametrize("cut", [0, 1], ids=["plan", "goal_unmet"])
    @pytest.mark.parametrize("kind, seed", EXEC_CASES)
    def test_unique_minimal_repair(self, kind, seed, cut):
        """Cut short by a step, the plan leaves a goal atom to add too."""
        _, task, space = exec_case(kind, seed, cut)
        needed = frozenset(
            ModelEdit(ADD_INIT, a)
            for a in missing_init_atoms(task.base, task.target_plan)
        )
        assert needed and needed <= set(space)
        valid = brute_force_valid_sets(task.base, task.target_plan, space)
        assert [s for s in valid if not any(o < s for o in valid)] == [needed]
        assert [o.edits for o in enumerate_solutions(task, space)] == [needed]
        ranked = assign_rank_costs(space)
        sol = repair_min_cost(task, ranked)
        assert sol.edits == needed
        assert sol.total_cost == sum(c for e, c in ranked if e in needed)

    @pytest.mark.parametrize("kind, seed", EXEC_CASES)
    def test_ranked_list_without_a_needed_atom(self, kind, seed):
        _, task, space = exec_case(kind, seed)
        needed = missing_init_atoms(task.base, task.target_plan)
        rest = [e for e in space if e.atom != min(needed)]
        assert not brute_force_valid_sets(task.base, task.target_plan, rest)
        assert_proven_insufficient(task, rest)

    @pytest.mark.parametrize("kind, seed", EXEC_CASES)
    def test_plan_deleting_a_needed_atom(self, kind, seed):
        """The first step run twice needs again an atom it deleted, as a
        travel move from the city it has just left."""
        _, task, space = exec_case(kind, seed)
        steps = task.target_plan.steps
        plan = Plan(steps[:1] + steps)
        assert missing_init_atoms(task.base, plan) is None
        assert not brute_force_valid_sets(task.base, plan, space)
        assert_proven_insufficient(RepairTask(task.base, EXECUTABILITY, plan), space)

    @pytest.mark.parametrize("kind, seed", EXEC_CASES)
    def test_already_valid_plan(self, kind, seed):
        inst, _, space = exec_case(kind, seed)
        solvable = inst.perturbed.with_init(
            inst.perturbed.problem.init | inst.deleted_facts
        )
        task = RepairTask(solvable, EXECUTABILITY, inst.target_plan)
        assert missing_init_atoms(solvable, inst.target_plan) == frozenset()
        assert [o.edits for o in enumerate_solutions(task, space)] == [frozenset()]
        sol = repair_min_cost(task, assign_rank_costs(space))
        assert (sol.edits, sol.total_cost) == (frozenset(), 0.0)


@functools.lru_cache(maxsize=None)
def ranked_case(kind, seed):
    """A corpus task at the benchmark's size, its deleted facts as
    additions, and a few kept additions of other absent atoms."""
    inst = generate_corpus([kind], 1, seed=seed, **SIZES[kind])[0]
    task = RepairTask(inst.perturbed, UNSOLVABILITY)
    family = [ModelEdit(ADD_INIT, a) for a in sorted(inst.deleted_facts)]
    kept = _kept_edits(ground_task(task.base), build_edit_space(task.base))
    others = [
        e for e, _, _ in kept
        if e not in family and e.atom not in task.base.problem.init
    ]
    return task, family, others[:3]


RANKED_LISTS = {
    "deleted": lambda family, decoys: family,
    "decoys_first": lambda family, decoys: decoys + family,
    "reversed": lambda family, decoys: family[::-1],
    "one_missing": lambda family, decoys: decoys + family[1:],
}

MIN_COST_CASES = [(kind, seed) for kind in ALL_KINDS for seed in (1, 2)]


@functools.lru_cache(maxsize=None)
def subset_verdicts(kind, seed):
    """`solve` on the repaired model of every subset of the case's decoys
    and deleted facts, keyed by the subset."""
    task, family, decoys = ranked_case(kind, seed)
    edits = decoys + family
    return {
        frozenset(combo): solve(ground_task(apply_edits(task.base, combo)))
        for r in range(len(edits) + 1)
        for combo in itertools.combinations(edits, r)
    }


class TestMinCostIsExact:
    """`repair_min_cost` under doubling rank costs against brute force over
    every subset of the ranked list: each subset's sum is its own, so the
    cheapest sound subset is unique."""

    @pytest.mark.parametrize("ranked", sorted(RANKED_LISTS))
    @pytest.mark.parametrize("kind, seed", MIN_COST_CASES)
    def test_unique_optimum(self, kind, seed, ranked):
        task, family, decoys = ranked_case(kind, seed)
        space = assign_rank_costs(RANKED_LISTS[ranked](family, decoys))
        cost = dict(space)
        sound = {
            s: sum(cost[e] for e in s)
            for s, verdict in subset_verdicts(kind, seed).items()
            if s <= cost.keys() and verdict.solved
        }
        out = repair_min_cost(task, space)
        if ranked == "deleted":
            assert sound
        if not sound:
            assert isinstance(out, NoSolution) and out.reason == PROVEN_INSUFFICIENT
            return
        best = min(sound, key=sound.get)
        assert (out.edits, out.total_cost) == (best, sound[best])

    def test_relaxed_alive_set_that_is_unsound(self, count_calls):
        """``+(r)`` is the cheapest set the relaxed test lets through. The
        walk solves it, gets
        UNSOLVABLE, refutes ``+(g2)`` without search and solves
        ``{+(r), +(g2)}``."""
        task, (r, g1, g2) = fork_task()
        solved = count_calls(planner.solve)
        sol = repair_min_cost(task, assign_rank_costs([r, g2, g1]))
        assert (sol.edits, sol.total_cost) == (frozenset({r, g2}), 3.0)
        assert [solve(*call).status for call in solved] == [UNSOLVABLE, SOLVED]
        # four sets popped, then `solve`'s three expansions on {+(r)} and one
        # on {+(r), +(g2)}
        assert sol.stats.expansions == 4 + 3 + 1

    def test_addition_of_a_true_atom_is_not_walked(self, t2, count_calls):
        """It changes no state, so no cheapest set needs it: only {} and
        {fix} are popped."""
        task = RepairTask(t2, UNSOLVABILITY)
        present = ModelEdit(ADD_INIT, GroundAtom("has_taxi", ("a", "b")))
        fix = ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))
        assert present.atom in t2.problem.init
        solved = count_calls(planner.solve)
        sol = repair_min_cost(task, assign_rank_costs([present, fix]))
        assert (sol.edits, sol.total_cost) == (frozenset({fix}), 2.0)
        [call] = solved
        assert sol.stats.expansions == 2 + solve(*call).stats.expansions

    @pytest.mark.parametrize("cost", [-5.0, float("nan")], ids=["negative", "nan"])
    def test_refuses_negative_or_nan_cost(self, t2, cost):
        """A negative cost once ran the search until memory ran out."""
        task = RepairTask(t2, UNSOLVABILITY)
        fix = ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))
        useless = ModelEdit(ADD_INIT, GroundAtom("has_taxi", ("c", "a")))
        with pytest.raises(ValueError, match="needs edit costs >= 0"):
            repair_min_cost(task, [(fix, 1.0), (useless, cost)], Budget(max_expansions=100))


def assert_check_agrees(model, full) -> bool:
    """`SolvabilityCheck` on `model` against `full`, the full task's `solve`
    verdict: the same status, a plan valid on the full model, and no search
    where the goal is delete-relaxed unreachable. Returns whether it is."""
    gt = ground_task(model)
    check = SolvabilityCheck(gt)
    verdict = check()
    assert verdict.status == full.status
    if verdict.solved:
        assert validate_plan(model, verdict.plan).valid
    dead = check.relaxed_dead(gt.init)
    if dead:
        assert (verdict.status, verdict.stats.expansions) == (UNSOLVABLE, 0)
    return dead


class TestRelaxedFilters:
    """The two filters of the one solvability check, on every subset of a
    small space and on benchmark models: delete-relaxed unreachability
    proves unsolvability, and solving over the backward-relevant actions
    the relaxed pass reached decides solvability as the full task does,
    with plans valid on the full model."""

    @pytest.mark.parametrize("kind, seed", MIN_COST_CASES)
    def test_every_subset(self, kind, seed):
        task, _, _ = ranked_case(kind, seed)
        dead = 0
        for edits, full in subset_verdicts(kind, seed).items():
            dead += assert_check_agrees(apply_edits(task.base, edits), full)
        assert dead

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_corpus_models(self, kind):
        """The perturbed and restored models of a small corpus, against the
        full `solve` that `verify_instance` runs on them."""
        for inst in generate_corpus([kind], 3, seed=20, **SIZES[kind]):
            assert verify_instance(inst)
            restored = inst.perturbed.with_init(
                inst.perturbed.problem.init | inst.deleted_facts
            )
            for model, status in ((inst.perturbed, UNSOLVABLE), (restored, SOLVED)):
                full = solve(ground_task(model))
                assert full.status == status
                assert_check_agrees(model, full)


    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_growth_extends_one_fixpoint_as_restarts_would(self, kind):
        """`grow_dead` against adding each space atom in turn and keeping it
        when `relaxed_dead` still holds, from the perturbed init; None from
        the restored one."""
        for inst in generate_corpus([kind], 3, seed=20, **SIZES[kind]):
            gt = ground_task(inst.perturbed)
            check = SolvabilityCheck(gt)
            space = default_edit_space(kind, inst.perturbed)
            atoms = [gt.atom_index[e.atom] for e in sorted(space)]
            state, kept = gt.init, []
            for pos, atom in enumerate(atoms):
                if check.relaxed_dead(state | 1 << atom):
                    state |= 1 << atom
                    kept.append(pos)
            assert check.grow_dead(gt.init, atoms) == kept
            restored = _mask(gt.atom_index[a] for a in inst.deleted_facts)
            assert check.grow_dead(gt.init | restored, atoms) is None


class TestGreedySolve:
    """Greedy `solve`, the search of the one solvability check, against
    breadth-first `solve` on the full task of every subset of a small
    space: the same status, and a plan valid on the model and no shorter
    than the shortest plan."""

    @pytest.mark.parametrize("kind, seed", MIN_COST_CASES)
    def test_every_subset(self, kind, seed):
        task, _, _ = ranked_case(kind, seed)
        for edits, full in subset_verdicts(kind, seed).items():
            model = apply_edits(task.base, edits)
            gt = ground_task(model)
            verdict = solve(gt, greedy=True)
            assert verdict.status == full.status
            if verdict.solved:
                assert validate_plan(model, verdict.plan).valid
                assert len(verdict.plan) >= len(full.plan)


class TestMinCostWork:
    def test_barman_record_grounds_and_solves_once(self, count_calls):
        inst = generate_corpus(["barman_simple"], 1, seed=1, **SIZES["barman_simple"])[0]
        grounded, solved = count_calls(repair.ground_task), count_calls(planner.solve)
        record = run_instance(
            inst, "pre_processor", "unsolvability", OracleProvider(inst),
            ProviderConfig(context_limit=10**6),
        )
        assert record["sound"] is True
        assert (len(grounded), len(solved)) == (1, 1)

    def test_unrepairable_list_never_solves(self, count_calls):
        task, family, decoys = ranked_case("barman_simple", 1)
        solved = count_calls(planner.solve)
        out = repair_min_cost(task, assign_rank_costs(decoys + family[1:]))
        assert isinstance(out, NoSolution) and out.reason == PROVEN_INSUFFICIENT
        assert (out.stats.expansions, len(solved)) == (0, 0)

    def test_rank_cost_barman_work_is_pinned(self):
        """The barman_simple seed 2 task whose last `solve`, 8 greedy
        expansions, `TestSolveWork` pins: five relevant decoys, then the
        deleted fact, which alone repairs it at cost 32. The 33 other
        expansions pop the 32 cheaper sets and this one."""
        inst = generate_corpus(["barman_simple"], 1, seed=2, **SIZES["barman_simple"])[0]
        task = RepairTask(inst.perturbed, UNSOLVABILITY)
        kept = _kept_edits(ground_task(task.base), build_edit_space(task.base))
        family = [ModelEdit(ADD_INIT, a) for a in sorted(inst.deleted_facts)]
        ranked = [e for e, _, _ in kept if e not in family][:5] + family
        sol = repair_min_cost(task, assign_rank_costs(ranked))
        assert (sol.edits, sol.total_cost) == (frozenset({ranked[5]}), 32.0)
        assert (sol.stats.expansions, sol.stats.generated) == (41, 97)
