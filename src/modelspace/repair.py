"""Combinatorial search over edit sets, and the one soundness verdict.

Executability needs no search: its one minimal repair is the set of atoms
the target plan needs and lacks (`planner.missing_init_atoms`), returned
when the space holds it and PROVEN_INSUFFICIENT otherwise.

For unsolvability, min-cost repair walks edit sets in nondecreasing total
cost over one grounding of the task, and decides each with one
`planner.SolvabilityCheck` of it: delete-relaxed reachability of the goal
over the backward-relevant actions, then `planner.solve` over the relevant
actions the relaxed pass reached. The first set solved is the cheapest
sound one.

Enumeration runs `_search` on the same grounding: a node is a state, the
set of edits applied to the initial state so far, and its phase. While
editing, a node may apply one more edit, in ascending index order so each
edit set is built once, or stop editing; while executing, it applies the
task's actions. The node keeps its edit set so the search can go on past
the first solution. States and edit sets are int bitmasks over atom and
edit indices, keyed on one packed int, and edit sets are decoded to
`ModelEdit`s only when it returns. Every edit counts one, so a node's cost
is its edit-set size: nodes wait in one FIFO deque per size (a bucket
queue) instead of a heap, an editing node's edit children are pushed one
at a time (partial expansion, as in EPEA*), and an executing node tries
only the actions whose watched precondition atom it holds (the successor
index `planner.solve` also uses, as in Fast Downward). An edit set is
tested against the solutions found before it once, when its editing node
pops; bucket order leaves only itself to find after that. All of this
keeps the expansion order of a priority-queue search that pushes every
child, scans every action and tests every solution.
Both searches keep the same edits of the space (`_kept_edits`).
Removal edits are not searched: preconditions and goals are positive-only,
so growing the initial state is monotone and no minimal repair removes a
fact.

`judge` decides soundness (SOUND, UNSOUND or INDETERMINATE) by recomputing
the objective metric on the repaired model, and for unsolvability proves
SOUND only by a plan `validate_plan` (VAL-style simulation, independent of
the search) accepts: the witness `repair_min_cost` hands on with its
answer, or else the plan of a fresh `SolvabilityCheck`.
"""
from __future__ import annotations

import logging
import math
import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .edits import (
    ADD_INIT,
    UNSOLVABILITY,
    ModelEdit,
    RepairTask,
    apply_edits,
)
from .pddl import GroundTask, ground_task
from .planner import (
    BUDGET_EXHAUSTED,
    SOLVED,
    Budget,
    SearchStats,
    SolvabilityCheck,
    UnknownAction,
    _mask,
    _successor_index,
    missing_init_atoms,
    validate_plan,
)

logger = logging.getLogger(__name__)

PROVEN_INSUFFICIENT = "proven_insufficient"

SOUND = "sound"
UNSOUND = "unsound"
INDETERMINATE = "indeterminate"

# Paper-scale search budget: 5,000 expansions, 2-hour wall clock.
ENUM_BUDGET = Budget(max_expansions=5_000, max_seconds=7_200.0)

MAX_RETAINED_SOLUTIONS = 20


@dataclass
class RepairSolution:
    edits: frozenset[ModelEdit]
    total_cost: float
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass
class NoSolution:
    reason: str  # PROVEN_INSUFFICIENT | BUDGET_EXHAUSTED
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass
class _Compiled:
    """The ground task `_search` enumerates over and its kept edits, with
    the add mask of each (index-aligned with `edits`)."""

    task: GroundTask
    edits: list[ModelEdit]
    adds: list[int]


def _normalize_space(space) -> tuple[list[ModelEdit], list[float]]:
    edits, costs = [], []
    seen = set()
    for item in space:
        edit, cost = item if isinstance(item, tuple) else (item, 1.0)
        if edit in seen:
            continue
        seen.add(edit)
        edits.append(edit)
        costs.append(float(cost))
    return edits, costs


def _kept_edits(gt: GroundTask, space) -> list[tuple[ModelEdit, int, float]]:
    """The edits of `space` both searches use, in space order, each with
    its atom's index in `gt` and its cost.

    Preconditions are positive-only, so neither a removal nor an addition
    whose atom appears in no precondition and not in the goal can be part
    of a minimal solution; dropping such edits (and hallucinated atoms
    outside the universe entirely) keeps the branching factor down.
    """
    relevant = set(gt.goal)
    for act in gt.actions:
        relevant |= act.pre
    kept = []
    for edit, cost in zip(*_normalize_space(space)):
        idx = gt.atom_index.get(edit.atom)
        if edit.kind == ADD_INIT and idx is not None and idx in relevant:
            kept.append((edit, idx, cost))
    return kept


def _compile_edit_search(task: RepairTask, space) -> _Compiled:
    gt = ground_task(task.base)
    kept = _kept_edits(gt, space)
    return _Compiled(gt, [e for e, _, _ in kept], [1 << idx for _, idx, _ in kept])


def _search(comp: _Compiled, budget: Budget):
    """Uniform-cost enumeration over (state, applied-edit-set, phase) nodes.

    A state is an int bitmask over atom indices and an edit set an int
    bitmask over edit indices. Edits are forced into ascending index order
    so each edit set is explored once. Returns (solutions, exhausted,
    stats): solutions is a list of edit frozensets in the order found,
    decoded from their masks on return.

    Every edit counts one and ending the editing phase or firing an action
    counts nothing, so a node's cost is the size of its edit set. Nodes are
    therefore queued in one FIFO deque per edit-set size, the current
    size's and the next (a bucket queue, Dial 1969), and pop in the order a
    priority queue on (cost, insertion counter) gives them. All executing
    nodes of one edit set cost the same, so the first path to a key
    ``state | edset << len(task.atoms)`` is a cheapest one: the key is
    queued once, the first time it is generated, and recorded in `seen`.

    A queued node is ``(state, edset, i)``. ``i is None`` marks an
    executing node. Otherwise the node is editing, and an editing node has
    one path to it, so it is never looked up in `seen`: ``i == -1`` is the
    root, and ``i >= 0`` stands for edit child i of (state, edset), one
    entry for its lazily fanned-out siblings. Popping it puts child i + 1
    at the front of the current deque before child i is materialised,
    which is where an eager push of all children would have it.
    `stats.generated` counts all k children when the parent is expanded.
    An editing node's other child is the executing node of the same state
    and edit set; an executing node fires the actions whose watched atoms
    it holds (see `planner._successor_index`).

    A node whose edit set contains a solution found earlier is pruned: no
    new minimal solution lies beyond it. An edit set's editing node pops
    before its executing nodes, so it is tested there against every
    solution found so far: size-1 solutions as one mask, `singles`, the
    others one by one. Every solution found after it has its size, so it
    can only hold one of them by being one, and its executing nodes are
    pruned only when their own edit set has been found.
    """
    task = comp.task
    start = time.monotonic()
    stats = SearchStats()
    n_edits = len(comp.edits)
    adds = comp.adds
    watched, candidates = _successor_index(task.actions)
    shift = len(task.atoms)
    goal = _mask(task.goal)

    seen = set()
    found: list[int] = []  # solved edit sets, in the order found
    singles = 0
    larger: set[int] = set()  # solved edit sets not of size 1

    def result(exhausted):
        stats.elapsed = time.monotonic() - start
        solutions = [
            frozenset(e for i, e in enumerate(comp.edits) if edset >> i & 1)
            for edset in found
        ]
        return solutions, exhausted, stats

    size = 0
    now = deque([(_mask(task.init), 0, -1)])
    while now:
        after = deque()  # nodes one edit larger
        while now:
            state, edset, i = now.popleft()
            if i is None:
                if edset in larger or edset & singles:
                    continue
            else:
                if i >= 0:  # edit child i of (state, edset)
                    if i + 1 < n_edits:
                        now.appendleft((state, edset, i + 1))
                    state |= adds[i]
                    edset |= 1 << i
                if edset & singles or any(c & edset == c for c in larger):
                    continue
            if goal & state == goal:
                found.append(edset)
                if size == 1:
                    singles |= edset
                else:
                    larger.add(edset)
                continue
            if stats.expansions >= budget.max_expansions or (
                stats.expansions % 256 == 0
                and time.monotonic() - start > budget.max_seconds
            ):
                return result(False)
            stats.expansions += 1

            if i is None:
                successors = [
                    (state & keep) | add
                    for pre, add, keep, _, _ in candidates(state & watched)
                    if pre & state == pre
                ]
            else:
                fan_out = n_edits - 1 - i
                if fan_out:
                    after.append((state, edset, i + 1))
                    stats.generated += fan_out
                successors = (state,)
            stats.generated += len(successors)
            edkey = edset << shift
            for succ in successors:
                key = succ | edkey
                if key not in seen:
                    seen.add(key)
                    now.append((succ, edset, None))
        now = after
        size += 1

    return result(True)


def judge(
    task: RepairTask, edits, budget: Budget | None = None, witness=None
) -> str:
    """SOUND, UNSOUND or INDETERMINATE: the objective metric recomputed on
    the repaired model. A solvability check that runs out of budget proves
    neither way. Raises PddlError when an edit cannot be applied.

    For unsolvability, `witness` may give the steps ``(name, args)`` of a
    plan believed to solve the repaired model. When `validate_plan` accepts
    it the repair is SOUND without grounding or search; when it does not,
    a warning is logged and the model is checked afresh as without a
    witness, so a witness never changes a verdict it could not prove. Every
    SOUND verdict rests on a validated plan, the check's if not a witness.
    """
    repaired = apply_edits(task.base, edits)
    if task.use_case == UNSOLVABILITY:
        if witness is not None and _witness_solves(repaired, witness):
            return SOUND
        verdict = SolvabilityCheck(ground_task(repaired))(budget=budget)
        if verdict.solved and not _witness_solves(repaired, verdict.plan.steps):
            raise AssertionError("internal invariant violation: the check's plan is invalid")
        return {SOLVED: SOUND, BUDGET_EXHAUSTED: INDETERMINATE}.get(verdict.status, UNSOUND)
    return SOUND if validate_plan(repaired, task.target_plan).valid else UNSOUND


def _witness_solves(model, witness) -> bool:
    """True iff the witness steps are a valid plan for `model`; otherwise
    logs one warning that names the failing step."""
    steps = tuple(witness)
    try:
        report = validate_plan(model, steps)
    except UnknownAction as err:
        logger.warning("witness plan rejected, checking afresh: %s", err)
        return False
    if not report.valid:
        at = report.failing_step
        logger.warning(
            "witness plan rejected at %r, checking afresh: %s",
            steps[at] if at is not None else None, report,
        )
    return report.valid


def verify_repair(task: RepairTask, edits, budget: Budget | None = None) -> bool:
    """True iff `judge` finds the repair sound; raises as `judge` does."""
    return judge(task, edits, budget) == SOUND


def repair_min_cost(
    task: RepairTask, space, budget: Budget | None = None
) -> RepairSolution | NoSolution:
    """Min-cost sound edit set expressible from `space` (exact, or in
    closed form for executability). Edit costs must be >= 0 (ValueError
    otherwise). When several sets tie for the minimum, any one of them may
    come back; under doubling rank costs every set has its own total, so
    the answer is unique.

    For unsolvability, edit sets are popped in nondecreasing total cost:
    the kept edits, less those whose atom already holds (they change no
    state), are sorted by (cost, space order), and a popped set whose
    largest member is i has two children, add i + 1 and swap i for i + 1,
    which reaches every subset once and never a cheaper one. Each popped
    set is decided by one `SolvabilityCheck` of the task's grounding (no
    search for a relaxed-dead set), and the first one solved is the
    answer, its plan the witness for `judge`. When the goal is relaxed
    unreachable even with every kept edit, the answer is PROVEN_INSUFFICIENT
    with no set popped. The budget's expansions count popped sets plus
    `solve` expansions; `stats.generated` counts pushed sets plus `solve`'s
    generated nodes.
    """
    for edit, cost in zip(*_normalize_space(space)):
        if not cost >= 0:
            raise ValueError(
                "min-cost repair needs edit costs >= 0 (it walks edit sets "
                f"cheapest first), got cost {cost} for {edit}"
            )
    if task.use_case != UNSOLVABILITY:
        found = _executability_repair(task, space)
        if isinstance(found, NoSolution) or judge(task, found.edits) == SOUND:
            return found
        raise AssertionError("internal invariant violation: closed-form repair is unsound")
    budget = budget or Budget()
    start = time.monotonic()
    stats = SearchStats()
    gt = ground_task(task.base)
    kept = _kept_edits(gt, space)
    init = _mask(gt.init)
    walk = sorted((k for k in kept if not init >> k[1] & 1), key=lambda k: k[2])
    adds = [1 << idx for _, idx, _ in walk]
    check = SolvabilityCheck(gt)

    def finish(reason):
        stats.elapsed = time.monotonic() - start
        if reason == BUDGET_EXHAUSTED:
            logger.debug(
                "min-cost search stopped at budget: %d expansions, %d generated, "
                "%.3f s; %s reached; %d edits kept",
                stats.expansions, stats.generated, stats.elapsed,
                _limit_reached(stats, budget), len(kept),
            )
        return NoSolution(reason, stats)

    if check.relaxed_dead(init | _mask(k[1] for k in walk)):
        return finish(PROVEN_INSUFFICIENT)
    heap = [(0.0, ())]  # sets of equal cost pop in order of their members
    while heap:
        cost, members = heappop(heap)
        if stats.expansions >= budget.max_expansions or (
            time.monotonic() - start > budget.max_seconds
        ):
            return finish(BUDGET_EXHAUSTED)
        stats.expansions += 1
        state = init
        for j in members:
            state |= adds[j]
        verdict = check(state, Budget(budget.max_expansions - stats.expansions,
                                      budget.max_seconds - (time.monotonic() - start)))
        stats.expansions += verdict.stats.expansions
        stats.generated += verdict.stats.generated
        if verdict.status == BUDGET_EXHAUSTED:
            return finish(BUDGET_EXHAUSTED)
        if verdict.solved:
            edits = frozenset(walk[j][0] for j in members)
            if judge(task, edits, witness=verdict.plan.steps) != SOUND:
                raise AssertionError(
                    "internal invariant violation: search returned an unsound repair"
                )
            stats.elapsed = time.monotonic() - start
            return RepairSolution(edits, cost, stats)
        nxt = members[-1] + 1 if members else 0
        if nxt < len(walk):
            children = [members + (nxt,)] + ([members[:-1] + (nxt,)] if members else [])
            for child in children:
                heappush(heap, (math.fsum(walk[j][2] for j in child), child))
            stats.generated += len(children)
    return finish(PROVEN_INSUFFICIENT)


def _executability_repair(task: RepairTask, space) -> RepairSolution | NoSolution:
    """The atoms the target plan lacks, as additions at their first cost in
    `space`; PROVEN_INSUFFICIENT when no addition helps or `space` lacks one."""
    cost = dict(zip(*_normalize_space(space)))
    missing = missing_init_atoms(task.base, task.target_plan)
    edits = frozenset(ModelEdit(ADD_INIT, atom) for atom in missing or ())
    if missing is None or not edits <= cost.keys():
        return NoSolution(PROVEN_INSUFFICIENT)
    return RepairSolution(edits, sum((cost[e] for e in edits), 0.0))


def _limit_reached(stats: SearchStats, budget: Budget) -> str:
    """The budget limit that stopped a search, for its truncation record."""
    if stats.expansions >= budget.max_expansions:
        return f"expansion limit {budget.max_expansions}"
    return f"wall-clock limit {budget.max_seconds:g} s"


def enumerate_solutions(
    task: RepairTask, space, budget: Budget | None = None
) -> list[frozenset] | NoSolution:
    """Exhaustive-until-budget enumeration of sound edit sets under unit
    edit costs; strict supersets of found sets are pruned; at most 20
    retained, ordered by (cardinality, lexicographic). Executability has
    one minimal repair, found without search."""
    if task.use_case != UNSOLVABILITY:
        found = _executability_repair(task, space)
        return found if isinstance(found, NoSolution) else [found.edits]
    budget = budget or ENUM_BUDGET
    comp = _compile_edit_search(task, space)
    solutions, exhausted, stats = _search(comp, budget)
    if not exhausted:
        logger.debug(
            "enumeration stopped at budget: %d expansions, %d generated, "
            "%.3f s; %s reached; %d edits kept, %d solutions found",
            stats.expansions, stats.generated, stats.elapsed,
            _limit_reached(stats, budget), len(comp.edits), len(solutions),
        )
    if not solutions:
        return NoSolution(
            PROVEN_INSUFFICIENT if exhausted else BUDGET_EXHAUSTED, stats
        )
    # `_search` pops nodes in non-decreasing cardinality and prunes
    # supersets of found sets on pop, so no solution is a strict superset of
    # another: every set found is minimal.
    sets = sorted(solutions, key=lambda s: (len(s), sorted(s)))
    return sets[:MAX_RETAINED_SOLUTIONS]
