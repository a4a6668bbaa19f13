"""Search, plan validation, and the executability-to-unsolvability compilation.

The search is cross-checked against a brute-force BFS reachability oracle
written independently here and against `scan_solve`, a search that scans
every action at every expansion, and the compilation is cross-checked by
the equivalence: compiled task solvable <=> original plan valid.
"""

import functools
import itertools
import random
import time
from dataclasses import replace
from heapq import heappop, heappush

import pytest

from conftest import SIZES, load_plan
from modelspace import planner
from modelspace.benchgen import ALL_KINDS
from modelspace.benchgen.corpus import generate_corpus
from modelspace.compilation import compile_executability
from modelspace.edits import (
    ADD_INIT,
    EXECUTABILITY,
    UNSOLVABILITY,
    ModelEdit,
    RepairTask,
    assign_rank_costs,
    build_edit_space,
)
from modelspace.pddl import (
    GroundAtom,
    Model,
    ground_task,
    parse_domain,
    parse_problem,
)
from modelspace.pddl.ground import _bits, _mask
from modelspace.planner import (
    BUDGET_EXHAUSTED,
    Budget,
    Plan,
    SOLVED,
    UNSOLVABLE,
    SearchStats,
    SolvabilityCheck,
    UnknownAction,
    solve,
    validate_plan,
)
from modelspace.repair import _kept_edits, enumerate_solutions, repair_min_cost


def repaired_travel(model):
    """d5 with the one missing bus service restored; makes d5_plan valid."""
    return model.with_init(
        model.problem.init | {GroundAtom("has_bus", ("city_b", "city_c"))}
    )


def as_sets(task):
    """The ground task with its masks as frozensets of atom indices, the
    form the references below read, so they share no mask code with the
    search."""
    def atoms(mask):
        return frozenset(_bits(mask))

    actions = tuple(
        replace(a, pre=atoms(a.pre), add=atoms(a.add), dele=atoms(a.dele))
        for a in task.actions
    )
    return replace(task, actions=actions, init=atoms(task.init), goal=atoms(task.goal))


def bfs_goal_reachable(task) -> bool:
    """Independent reachability oracle over the ground task."""
    task = as_sets(task)
    seen = {task.init}
    frontier = [task.init]
    while frontier:
        nxt = []
        for state in frontier:
            if task.goal <= state:
                return True
            for act in task.actions:
                if act.pre <= state:
                    succ = frozenset((state - act.dele) | act.add)
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
        frontier = nxt
    return any(task.goal <= s for s in seen)


def bfs_optimal_cost(task) -> int | None:
    task = as_sets(task)
    dist = {task.init: 0}
    frontier = [task.init]
    d = 0
    while frontier:
        for state in frontier:
            if task.goal <= state:
                return d
        nxt = []
        for state in frontier:
            for act in task.actions:
                if act.pre <= state:
                    succ = frozenset((state - act.dele) | act.add)
                    if succ not in dist:
                        dist[succ] = d + 1
                        nxt.append(succ)
        frontier = nxt
        d += 1
    return None


def scan_solve(task, budget=None):
    """Reference for `solve`: generic Dijkstra over frozenset states, with
    each action's cost read as 1, that scans every action at every
    expansion and keeps the re-push of a state whose cost falls and the
    closed set, which `solve` drops. Returns (status, plan, expansions,
    generated)."""
    task = as_sets(task)
    budget = budget or Budget()
    start = time.monotonic()
    stats = SearchStats()
    init, goal = task.init, task.goal
    heap = [(0.0, 0, init)]
    best = {init: 0.0}
    parents = {init: None}
    closed = set()
    counter = 1
    while heap:
        g, _, state = heappop(heap)
        if state in closed:
            continue
        closed.add(state)
        if goal <= state:
            steps = []
            while parents[state] is not None:
                state, act = parents[state]
                steps.append((act.name, act.args))
            plan = Plan(tuple(reversed(steps)))
            return SOLVED, plan, stats.expansions, stats.generated
        if stats.expansions >= budget.max_expansions or (
            stats.expansions % 1024 == 0
            and time.monotonic() - start > budget.max_seconds
        ):
            return BUDGET_EXHAUSTED, None, stats.expansions, stats.generated
        stats.expansions += 1
        for act in task.actions:
            if act.pre <= state:
                succ = (state - act.dele) | act.add
                ng = g + 1
                old = best.get(succ)
                if old is None or ng < old:
                    best[succ] = ng
                    parents[succ] = (state, act)
                    heappush(heap, (ng, counter, succ))
                    counter += 1
                    stats.generated += 1
    return UNSOLVABLE, None, stats.expansions, stats.generated


def solve_outcome(task, budget=None):
    verdict = solve(task, budget)
    return verdict.status, verdict.plan, verdict.stats.expansions, verdict.stats.generated


@functools.lru_cache(maxsize=None)
def corpus_instance(kind, seed):
    return generate_corpus([kind], 1, seed=seed, **SIZES[kind])[0]


def restored(inst):
    return inst.perturbed.with_init(inst.perturbed.problem.init | inst.deleted_facts)


def min_cost_task(task, space):
    """The task `repair_min_cost` solves for the edit set it chooses from
    `space`: the one `SolvabilityCheck` of the base grounding hands `solve`
    once that set is added to init."""
    gt = ground_task(task.base)
    chosen = repair_min_cost(task, space).edits
    handed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "solve", lambda task, budget=None, greedy=False: handed.append(task))
        SolvabilityCheck(gt)(gt.init | _mask(gt.atom_index[e.atom] for e in chosen))
    [restricted] = handed
    return restricted


def ranked_min_cost_task(inst, decoys=5):
    """`min_cost_task` under doubling rank costs: a few relevant edits that
    are no repair on their own, then the deleted facts, so the cheap wrong
    edit sets are tried first."""
    task = RepairTask(inst.perturbed, UNSOLVABILITY)
    kept = _kept_edits(ground_task(task.base), build_edit_space(inst.perturbed))
    family = [ModelEdit(ADD_INIT, a) for a in sorted(inst.deleted_facts)]
    ranked = [e for e, _, _ in kept if e not in family][:decoys] + family
    return min_cost_task(task, assign_rank_costs(ranked))


def lamp_model(init):
    """A hand-built model whose `switch` action has no precondition."""
    domain = parse_domain("""(define (domain lamp) (:requirements :strips)
      (:predicates (lit) (key) (open))
      (:action switch :parameters () :effect (lit))
      (:action unlock :parameters ()
        :precondition (and (lit) (key)) :effect (open)))""")
    problem = parse_problem(
        f"(define (problem p) (:domain lamp) (:init {init}) (:goal (open)))", domain
    )
    return Model(domain, problem)


def lamp_task(init):
    return ground_task(lamp_model(init))


BUDGETS = [Budget(1), Budget(2), Budget(37), None]


class TestSolveIsExact:
    """`solve` against `scan_solve`: the same status, plan, expansions and
    generated count."""

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_corpus_tasks(self, kind, budget):
        for seed in (1, 2):
            inst = corpus_instance(kind, seed)
            for task in (
                ground_task(inst.perturbed),
                ground_task(restored(inst)),
                ranked_min_cost_task(inst),
            ):
                assert solve_outcome(task, budget) == scan_solve(task, budget)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_executability_compilation(self, travel_exec_model, budget):
        """Step-fluent models, as `compile_executability` builds them, with
        and without a min-cost repair search's restriction."""
        plan = load_plan("d5_plan.txt")
        task = RepairTask(compile_executability(travel_exec_model, plan), UNSOLVABILITY)
        space = build_edit_space(travel_exec_model, predicates={"has_bus", "has_taxi"})
        for gt in (
            ground_task(compile_executability(travel_exec_model, plan)),
            ground_task(compile_executability(repaired_travel(travel_exec_model), plan)),
            min_cost_task(task, assign_rank_costs(space[:12])),
        ):
            assert solve_outcome(gt, budget) == scan_solve(gt, budget)

    def test_action_without_preconditions(self):
        task = lamp_task("(key)")
        outcome = solve_outcome(task)
        assert outcome == scan_solve(task)
        assert outcome[:2] == (SOLVED, Plan((("switch", ()), ("unlock", ()))))
        stuck = lamp_task("")
        assert solve_outcome(stuck) == scan_solve(stuck)
        assert solve_outcome(stuck)[0] == UNSOLVABLE

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_goal_holds_in_init(self, t2, budget):
        task = ground_task(t2.with_init(t2.problem.init | t2.problem.goal))
        outcome = solve_outcome(task, budget)
        assert outcome == scan_solve(task, budget)
        assert outcome == (SOLVED, Plan(()), 0, 0)


BARMAN_PLAN = (
    ("shake", ("cocktail_a", "ingredient_a", "ingredient_a", "shaker_a")),
    ("pour-shaker-to-shot", ("cocktail_a", "shot_a", "shaker_a", "ingredient_a", "ingredient_a")),
    ("shake", ("cocktail_b", "ingredient_c", "ingredient_c", "shaker_b")),
    ("pour-shaker-to-shot", ("cocktail_b", "shot_b", "shaker_b", "ingredient_c", "ingredient_c")),
)


class TestSolveWork:
    @pytest.mark.parametrize("seed, make_task, breadth_first, greedy, steps", [
        (1, lambda inst: ground_task(restored(inst)), (329, 480), (9, 44), BARMAN_PLAN),
        (2, ranked_min_cost_task, (193, 224), (8, 34), BARMAN_PLAN),
    ], ids=["corpus", "min_cost"])
    def test_solve_work_is_pinned(self, seed, make_task, breadth_first, greedy, steps):
        """Expansions, generated nodes and the plan, in each mode, on a
        barman_simple corpus task and on the task min-cost repair solves for
        a perturbed one under doubling rank costs, where the sixth-ranked
        edit is the cheapest repair."""
        task = make_task(corpus_instance("barman_simple", seed))
        for mode, work in ((False, breadth_first), (True, greedy)):
            verdict = solve(task, greedy=mode)
            assert verdict.status == SOLVED
            assert (verdict.stats.expansions, verdict.stats.generated) == work
            assert verdict.plan == Plan(steps)


class TestSolve:
    def test_travel_unsolvable(self, travel_model):
        # city_c has no incoming service in the perturbed appendix task
        verdict = solve(ground_task(travel_model))
        assert verdict.status == UNSOLVABLE
        assert verdict.proven_unsolvable
        assert verdict.plan is None

    def test_travel_exec_task_unsolvable_before_repair(self, travel_exec_model):
        assert solve(ground_task(travel_exec_model)).proven_unsolvable

    def test_travel_exec_task_solved_optimally(self, travel_exec_model):
        model = repaired_travel(travel_exec_model)
        gt = ground_task(model)
        verdict = solve(gt)
        assert verdict.status == SOLVED
        assert len(verdict.plan) == bfs_optimal_cost(gt) == 3
        assert validate_plan(model, verdict.plan).valid

    def test_t2_plan_content(self, t2):
        verdict = solve(ground_task(t2))
        # a->b has a service; b->c has none, so t2 is unsolvable as-is
        assert verdict.status == UNSOLVABLE

    def test_budget_exhaustion_reported(self, travel_exec_model):
        gt = ground_task(repaired_travel(travel_exec_model))
        for greedy in (False, True):
            verdict = solve(gt, Budget(max_expansions=1), greedy=greedy)
            assert verdict.status == BUDGET_EXHAUSTED
            assert not verdict.solved and not verdict.proven_unsolvable

    def test_goal_in_init_needs_no_expansion_budget(self, t2):
        model = t2.with_init(t2.problem.init | t2.problem.goal)
        verdict = solve(ground_task(model), Budget(max_expansions=1))
        assert verdict.solved
        assert len(verdict.plan) == 0

    def test_agrees_with_reachability_oracle(self, travel_model, t2, barman_model):
        for model in (travel_model, t2, barman_model):
            gt = ground_task(model)
            for greedy in (False, True):
                assert solve(gt, greedy=greedy).solved == bfs_goal_reachable(gt)

    def test_randomized_against_oracle(self):
        """Random small travel instances: status and plan length both match."""
        from modelspace.benchgen.domains import generate_travel

        for seed in range(8):
            model, _ = generate_travel(n_cities=5, seed=seed)
            rng = random.Random(seed)
            # knock out a random subset of services to vary solvability
            services = [a for a in model.problem.init if a.predicate in ("has_taxi", "has_bus")]
            drop = frozenset(rng.sample(services, k=min(2, len(services))))
            gt = ground_task(model.with_init(model.problem.init - drop))
            verdict = solve(gt)
            expected = bfs_optimal_cost(gt)
            if expected is None:
                assert verdict.status == UNSOLVABLE
            else:
                assert verdict.status == SOLVED
                assert len(verdict.plan) == expected

    def test_action_without_preconditions_fires_from_any_state(self):
        """`switch`, with an empty precondition, is the one step to `lit`
        from every state that lacks it; enumerating additions of `key` and
        `lit` finds `{key}` alone."""
        for init in ("", "(key)", "(open)", "(key) (open)"):
            task = lamp_task(init)
            lit = _mask([task.atom_index[GroundAtom("lit", ())]])
            verdict = solve(replace(task, goal=lit))
            assert verdict.plan == Plan((("switch", ()),))
            assert (verdict.stats.expansions, verdict.stats.generated) == (1, 1)
        model = lamp_model("")
        space = build_edit_space(model, predicates={"key", "lit"})
        options = enumerate_solutions(RepairTask(model, UNSOLVABILITY), space, Budget())
        key = ModelEdit(ADD_INIT, GroundAtom("key", ()))
        assert [o.edits for o in options] == [frozenset({key})]

    def test_deterministic_tie_breaking(self, travel_exec_model):
        gt = ground_task(repaired_travel(travel_exec_model))
        plans = {solve(gt).plan.steps for _ in range(3)}
        assert len(plans) == 1


class TestValidatePlan:
    def test_valid_after_restoring_door_lock_fact(self, cleaning_model):
        model = cleaning_model.with_init(
            cleaning_model.problem.init | {GroundAtom("is_unlocked", ("door_a",))}
        )
        report = validate_plan(model, load_plan("d4_plan.txt"))
        assert report.valid
        assert report.failing_step is None
        assert report.goal_satisfied

    def test_first_unmet_precondition_reported(self, cleaning_model):
        report = validate_plan(cleaning_model, load_plan("d4_plan.txt"))
        assert not report.valid
        assert report.failing_step == 0
        assert report.unmet_preconditions == frozenset(
            {GroundAtom("is_unlocked", ("door_a",))}
        )

    def test_missing_precondition_reported(self, travel_exec_model):
        report = validate_plan(travel_exec_model, load_plan("d5_plan.txt"))
        assert not report.valid
        assert report.failing_step == 1
        assert GroundAtom("has_bus", ("city_b", "city_c")) in report.unmet_preconditions

    def test_executes_but_misses_goal(self, travel_exec_model):
        plan = Plan((("use_bus", ("city_a", "city_b")),))
        report = validate_plan(travel_exec_model, plan)
        assert not report.valid
        assert report.failing_step is None
        assert not report.goal_satisfied

    def test_empty_plan_valid_iff_goal_holds(self, travel_exec_model):
        empty = Plan(())
        assert not validate_plan(travel_exec_model, empty).valid
        at_goal = travel_exec_model.with_init(
            travel_exec_model.problem.init | {GroundAtom("at", ("city_e",))}
        )
        assert validate_plan(at_goal, empty).valid

    def test_unknown_action_rejected(self, travel_exec_model):
        with pytest.raises(UnknownAction):
            validate_plan(travel_exec_model, Plan((("teleport", ("city_a",)),)))

    def test_wrong_arity_rejected(self, travel_exec_model):
        with pytest.raises(UnknownAction):
            validate_plan(travel_exec_model, Plan((("use_bus", ("city_a",)),)))


class TestCompilation:
    def test_compiled_solvable_iff_plan_valid(self, travel_exec_model):
        """Brute-force equivalence over sampled <=2-element init deletions."""
        plan = load_plan("d5_plan.txt")
        model = repaired_travel(travel_exec_model)
        deletable = sorted(model.problem.init)
        subsets = [()] + [
            combo
            for r in (1, 2)
            for combo in itertools.combinations(deletable, r)
        ]
        rng = random.Random(7)
        for combo in rng.sample(subsets, 20):
            variant = model.with_init(model.problem.init - frozenset(combo))
            compiled = compile_executability(variant, plan)
            solvable = solve(ground_task(compiled)).solved
            assert solvable == validate_plan(variant, plan).valid, combo

    def test_compiled_plan_replays_original(self, travel_exec_model):
        plan = load_plan("d5_plan.txt")
        model = repaired_travel(travel_exec_model)
        compiled = compile_executability(model, plan)
        verdict = solve(ground_task(compiled))
        assert verdict.solved
        # compiled actions carry a step index prefix on the original name
        assert [s[0].split("_", 2)[-1] for s in verdict.plan.steps] == [
            s[0] for s in plan.steps
        ]

    def test_compiled_unsolvable_when_plan_invalid(self, travel_exec_model):
        plan = load_plan("d5_plan.txt")
        compiled = compile_executability(travel_exec_model, plan)
        assert solve(ground_task(compiled)).proven_unsolvable

    def test_step_fluents_do_not_collide(self, travel_exec_model):
        plan = load_plan("d5_plan.txt")
        compiled = compile_executability(travel_exec_model, plan)
        originals = set(travel_exec_model.domain.predicates)
        step_preds = set(compiled.domain.predicates) - originals
        assert len(step_preds) == len(plan) + 1
        assert not (step_preds & originals)

    def test_barman_plan_compiles(self, barman_model):
        plan = load_plan("d6_plan.txt")
        # plan needs (clean shot_a) which the perturbed init lacks
        compiled = compile_executability(barman_model, plan)
        assert solve(ground_task(compiled)).proven_unsolvable
        repaired = barman_model.with_init(
            barman_model.problem.init | {GroundAtom("clean", ("shot_a",))}
        )
        assert solve(ground_task(compile_executability(repaired, plan))).solved
