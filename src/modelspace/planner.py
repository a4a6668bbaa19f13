"""Forward search, VAL-style plan validation and repair advice.

Every action costs one: the parser rejects action costs, so a plan's cost
is its length. `solve`, the one state-space search, is breadth-first by
default, so its plans are shortest; with ``greedy=True`` the same loop is
greedy best-first on the number of unmet goal atoms, which finds some plan,
not always a shortest one. In both modes a state is pushed once, when it is
first found, and unsolvability is proven by exhausting the reachable
states. It reads states and actions as the int bitmasks over atom
indices that grounding built, with no conversion per call, and an
expansion tests every action of the task in order: the tasks it searches
are restricted to a few relevant actions (`SolvabilityCheck`). There is
no module-level state, so the entry points are pure functions over
immutable inputs, and running many instances in parallel worker threads
is safe.

`SolvabilityCheck`, the one solvability check of min-cost repair,
enumeration, `judge` and set-up, puts two cheap tests before `solve`:
backward relevance to the goal and the goal's delete-relaxed reachability,
both over the same masks, and searches greedily: soundness needs only some
plan, which `validate_plan` then checks. It also grows a relaxed-dead state
to a maximal relaxed-dead one, for enumeration. Target plans keep
breadth-first search, over the task the check restricts: the relevant
actions its relaxed pass reaches from the model's init.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .pddl import GroundAction, GroundAtom, GroundTask, Model
from .pddl.errors import PddlError
from .pddl.ground import _bits

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
BUDGET_EXHAUSTED = "budget_exhausted"

# Generator-produced instances are desk scale; exhaustion within these
# budgets marks an instance ineligible rather than unsolvable.
DEFAULT_MAX_EXPANSIONS = 200_000
DEFAULT_MAX_SECONDS = 30.0


class UnknownAction(PddlError):
    """A plan step names an action or binding absent from the task."""


@dataclass(frozen=True)
class Budget:
    max_expansions: int = DEFAULT_MAX_EXPANSIONS
    max_seconds: float = DEFAULT_MAX_SECONDS


@dataclass(frozen=True)
class Plan:
    """The steps ``(name, args)`` of a plan; every action costs one, so its
    cost is its length."""

    steps: tuple[tuple[str, tuple[str, ...]], ...]

    def __len__(self):
        return len(self.steps)


@dataclass
class SearchStats:
    """Work one search did. `solve` counts states: `expansions` those
    expanded, `generated` those found for the first time, each pushed
    once. A walk over edit sets (`repair.repair_min_cost`,
    `repair._search`) counts in `expansions` the sets it decides and in
    `generated` the sets it produces, each plus what its `solve` calls
    counted."""

    expansions: int = 0
    generated: int = 0
    elapsed: float = 0.0


@dataclass
class SolveVerdict:
    status: str  # SOLVED | UNSOLVABLE | BUDGET_EXHAUSTED
    plan: Plan | None = None
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def solved(self) -> bool:
        return self.status == SOLVED

    @property
    def proven_unsolvable(self) -> bool:
        return self.status == UNSOLVABLE


@dataclass
class ValidationReport:
    valid: bool
    failing_step: int | None = None
    unmet_preconditions: frozenset[GroundAtom] = frozenset()
    goal_satisfied: bool = False


def solve(task: GroundTask, budget: Budget | None = None, greedy: bool = False) -> SolveVerdict:
    """Breadth-first search with duplicate detection: a state is pushed
    only when first found, with its depth as priority, ties go first in,
    first out, and successors are tried in the pre-sorted action order, so
    the plan is a shortest one and the same on every run.

    With `greedy`, greedy best-first search (as in FF; Hoffmann & Nebel
    2001) instead: a state's priority is its number of unmet goal atoms,
    with the same pushes and ties. The plan is the path the goal state was
    found on, valid but not always the shortest.

    In either mode UNSOLVABLE is returned only after the reachable state set
    is exhausted.
    """
    budget = budget or Budget()
    start = time.monotonic()
    stats = SearchStats()
    actions = [(a.pre, a.add, ~a.dele, a) for a in task.actions]
    init, goal = task.init, task.goal

    # (priority, push order, state); the push order is `stats.generated`
    heap: list[tuple[int, int, int]] = [(0, 0, init)]
    parents: dict[int, tuple[int, GroundAction] | None] = {init: None}

    while heap:
        priority, _, state = heappop(heap)
        if goal & state == goal:
            stats.elapsed = time.monotonic() - start
            return SolveVerdict(SOLVED, _reconstruct(parents, state), stats)
        if stats.expansions >= budget.max_expansions or (
            stats.expansions % 1024 == 0
            and time.monotonic() - start > budget.max_seconds
        ):
            stats.elapsed = time.monotonic() - start
            return SolveVerdict(BUDGET_EXHAUSTED, None, stats)
        stats.expansions += 1
        depth = priority + 1
        for pre, add, keep, act in actions:
            if pre & state == pre:
                succ = (state & keep) | add
                if succ not in parents:
                    parents[succ] = (state, act)
                    stats.generated += 1
                    heappush(heap, ((goal & ~succ).bit_count() if greedy else depth,
                                    stats.generated, succ))

    stats.elapsed = time.monotonic() - start
    return SolveVerdict(UNSOLVABLE, None, stats)


def relevant_actions(actions, goal: int) -> list[int]:
    """Indices, ascending, of the backward-relevant actions among
    `actions`, given as ``(pre, add)`` masks: those that add a `goal` atom
    or a precondition atom of another relevant action (Nebel, Dimopoulos &
    Koehler 1997). Under positive preconditions and goals, dropping the
    rest from a plan removes no atom a later step or the goal needs, so it
    never changes solvability."""
    need, keep, pending = goal, [], list(range(len(actions)))
    while True:
        before, rest = need, []
        for i in pending:
            pre, add = actions[i]
            if add & need:
                keep.append(i)
                need |= pre
            else:
                rest.append(i)
        if need == before:
            return sorted(keep)
        pending = rest


def relaxed_reach(actions, state: int) -> tuple[int, list[int]]:
    """Delete-relaxed reachability from `state` over `actions`, given as
    ``(pre, add)`` masks: returns (the atoms reachable when deletes are
    ignored, indices, ascending, of the actions applicable among them).
    An atom outside it holds in no state reachable from `state`, so a goal
    outside it proves the task unsolvable (h^max = infinity; Bonet &
    Geffner 2001)."""
    fired, pending = [], list(range(len(actions)))
    while True:
        before, rest = state, []
        for i in pending:
            pre, add = actions[i]
            if pre & state == pre:
                fired.append(i)
                state |= add
            else:
                rest.append(i)
        if state == before:
            return state, sorted(fired)
        pending = rest


class SolvabilityCheck:
    """Is `task` solvable from a state, an int bitmask over atom indices?
    UNSOLVABLE with no search when `relaxed_reach` over the
    `relevant_actions` (found once per check) misses a goal atom, else the
    verdict of greedy `solve` over the `restricted` task, the relevant
    actions that pass reached: its plan is valid, not always the shortest.
    Set-up's target plans search the same restricted task breadth-first."""

    def __init__(self, task: GroundTask):
        self.task = task
        self.goal = task.goal
        masks = [(a.pre, a.add) for a in task.actions]
        self.relevant = relevant_actions(masks, self.goal)
        self.masks = [masks[i] for i in self.relevant]
        self._users = None  # atom -> relevant actions needing it, on first growth

    def relaxed_dead(self, state: int) -> bool:
        """The relaxed test alone: True proves `state` unsolvable."""
        return self.goal & relaxed_reach(self.masks, state)[0] != self.goal

    def grow_dead(self, state: int, atoms) -> list[int] | None:
        """None when `state` is not relaxed-dead; else the positions,
        ascending, of the `atoms` (atom indices) kept when each in turn is
        added to `state` if it stays relaxed-dead, so the kept ones span a
        maximal relaxed-dead extension. One relaxed fixpoint is extended,
        with a count of unmet preconditions per action and a log that
        undoes an atom that reaches the goal."""
        goal, masks = self.goal, self.masks
        reached = relaxed_reach(masks, state)[0]
        if goal & reached == goal:
            return None
        if self._users is None:
            self._users = [[] for _ in self.task.atoms]
            for i, (pre, _) in enumerate(masks):
                for atom in _bits(pre):
                    self._users[atom].append(i)
        unmet = [(pre & ~reached).bit_count() for pre, _ in masks]
        kept = []
        for pos, atom in enumerate(atoms):
            before, log = reached, []
            pending = [] if reached >> atom & 1 else [atom]
            reached |= 1 << atom
            while pending and goal & reached != goal:
                for i in self._users[pending.pop()]:
                    unmet[i] -= 1
                    log.append(i)
                    if not unmet[i]:
                        new = masks[i][1] & ~reached
                        reached |= new
                        pending.extend(_bits(new))
            if goal & reached == goal:
                for i in log:
                    unmet[i] += 1
                reached = before
            else:
                kept.append(pos)
        return kept

    def restricted(self, state: int) -> GroundTask | None:
        """The task from `state` over the relevant actions that
        `relaxed_reach` fires from it, in task order; None when that pass
        misses a goal atom, which proves `state` unsolvable. An action it
        leaves out is irrelevant or never applicable from `state`, so the
        restricted task has the same solvability."""
        task = self.task
        reached, fired = relaxed_reach(self.masks, state)
        if self.goal & reached != self.goal:
            return None
        actions = tuple(task.actions[self.relevant[j]] for j in fired)
        return GroundTask(task.atoms, task.atom_index, actions, state, task.goal)

    def __call__(self, state: int | None = None, budget: Budget | None = None) -> SolveVerdict:
        """The verdict from `state`, or from the task's init when None."""
        restricted = self.restricted(self.task.init if state is None else state)
        if restricted is None:
            return SolveVerdict(UNSOLVABLE)
        return solve(restricted, budget, greedy=True)


def _reconstruct(parents, state) -> Plan:
    steps = []
    while parents[state] is not None:
        state, act = parents[state]
        steps.append((act.name, act.args))
    steps.reverse()
    return Plan(tuple(steps))


def ground_plan_step(
    model: Model, name: str, args: tuple[str, ...]
) -> tuple[frozenset[GroundAtom], frozenset[GroundAtom], frozenset[GroundAtom]]:
    """Instantiate one plan step against the model; returns (pre, add, del)."""
    schema = model.domain.action(name)
    if schema is None:
        raise UnknownAction(f"unknown action '{name}'")
    if len(args) != len(schema.parameters):
        raise UnknownAction(
            f"action '{name}' expects {len(schema.parameters)} args, got {len(args)}"
        )
    binding = {}
    for (var, want), obj in zip(schema.parameters, args):
        got = model.problem.objects.get(obj)
        if got is None or not model.domain.is_subtype(got, want):
            raise UnknownAction(f"binding '{obj}' is not a valid '{want}' in '{name}'")
        binding[var] = obj

    def inst(lifted):
        out = set()
        for atom in lifted:
            resolved = tuple(binding.get(a, a) for a in atom.args)
            for arg in resolved:
                if arg not in model.problem.objects:
                    raise UnknownAction(f"constant '{arg}' unknown in step ({name})")
            out.add(GroundAtom(atom.predicate, resolved))
        return frozenset(out)

    return inst(schema.preconditions), inst(schema.add_effects), inst(schema.del_effects)


def validate_plan(model: Model, plan: Plan) -> ValidationReport:
    """Simulate the plan from init; report the first step whose positive
    preconditions are unmet, then check the goal."""
    state = set(model.problem.init)
    for i, (name, args) in enumerate(plan.steps):
        pre, add, dele = ground_plan_step(model, name, args)
        unmet = pre - state
        if unmet:
            return ValidationReport(
                valid=False, failing_step=i, unmet_preconditions=frozenset(unmet)
            )
        state -= dele
        state |= add
    goal_ok = model.problem.goal <= state
    return ValidationReport(valid=goal_ok, failing_step=None, goal_satisfied=goal_ok)


def missing_init_atoms(model: Model, plan: Plan) -> frozenset[GroundAtom] | None:
    """The atoms the plan needs and the initial state lacks (VAL's repair
    advice): under positive preconditions and goals, the one minimal set of
    init additions that makes the plan valid. None when an unmet atom was
    deleted by an earlier step and not added back since: no addition helps."""
    grounded = [ground_plan_step(model, name, args) for name, args in plan.steps]
    state, missing, deleted = set(model.problem.init), set(), set()
    # the goal is checked as a last step with no effects
    for pre, add, dele in grounded + [(model.problem.goal, set(), set())]:
        unmet = pre - state
        if unmet & deleted:
            return None
        missing |= unmet
        state = (state | unmet) - dele | add
        deleted = (deleted | dele) - add
    return frozenset(missing)
