"""Combinatorial search over edit sets, and the one soundness verdict.

Executability needs no search: its one minimal repair is the set of atoms
the target plan needs and lacks (`planner.missing_init_atoms`), returned
when the space holds it and PROVEN_INSUFFICIENT otherwise.

For unsolvability, both searches walk edit sets over one grounding of
the task and decide each with one `planner.SolvabilityCheck` of it:
delete-relaxed reachability of the goal over the backward-relevant
actions, then greedy `planner.solve` over the relevant actions the relaxed
pass reached, so the expansions a budget counts are greedy ones and a plan
found is valid but not always the shortest. Min-cost repair walks edit
sets in nondecreasing total cost, and the first set solved is the
cheapest sound one: the cost is the edits', not the plan's. Enumeration
(`_search`) finds the first minimal sound sets in (cardinality,
lexicographic) order by hitting-set dualization: soundness is monotone in
the edit set, so each unsound set rules out every set inside it.
Both searches keep the same edits of the space (`_kept_edits`) and
answer with `RepairSolution`s that carry the plan that solved them.
Removal edits are not searched: preconditions and goals are positive-only,
so growing the initial state is monotone and no minimal repair removes a
fact.

`judge` decides soundness (SOUND, UNSOUND or INDETERMINATE) by recomputing
the objective metric on the repaired model, and for unsolvability proves
SOUND only by a plan `validate_plan` (VAL-style simulation, independent of
the search) accepts: the witness either search hands on with its answer,
or else the plan of a fresh `SolvabilityCheck`.
"""
from __future__ import annotations

import logging
import math
import time
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
from .pddl.ground import _bits, _mask
from .planner import (
    BUDGET_EXHAUSTED,
    SOLVED,
    Budget,
    Plan,
    SearchStats,
    SolvabilityCheck,
    UnknownAction,
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
    """A sound edit set, its total edit cost and, for unsolvability, the
    plan that proved it (`witness`, for `judge`). `stats` is the min-cost
    search's own; enumerated options leave it empty."""

    edits: frozenset[ModelEdit]
    total_cost: float
    stats: SearchStats = field(default_factory=SearchStats)
    witness: Plan | None = None


@dataclass
class NoSolution:
    reason: str  # PROVEN_INSUFFICIENT | BUDGET_EXHAUSTED
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass
class _Compiled:
    """The ground task `_search` enumerates over, its kept edits and costs."""

    task: GroundTask
    edits: list[ModelEdit]
    costs: dict[ModelEdit, float]


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
    relevant = gt.goal
    for act in gt.actions:
        relevant |= act.pre
    kept = []
    for edit, cost in zip(*_normalize_space(space)):
        idx = gt.atom_index.get(edit.atom)
        if edit.kind == ADD_INIT and idx is not None and relevant >> idx & 1:
            kept.append((edit, idx, cost))
    return kept


def _compile_edit_search(task: RepairTask, space) -> _Compiled:
    gt = ground_task(task.base)
    kept = _kept_edits(gt, space)
    return _Compiled(gt, [e for e, _, _ in kept], {e: cost for e, _, cost in kept})


def _search(comp: _Compiled, budget: Budget):
    """The first `MAX_RETAINED_SOLUTIONS` minimal sound edit sets, in
    (cardinality, lexicographic) order (Reiter 1987; Liffiton et al. 2016,
    MARCO). Returns (solutions, complete, stats), solutions a list of
    `RepairSolution`s in that order, each with the plan that solved it.

    A block is the complement of an unsound set, which every sound set
    meets. The kept edits whose atom is not in init are sorted, and for
    sizes 0, 1, ... the sets that meet every block and hold no solution
    found are decided in lex order (`_candidates`): a relaxed-dead one is
    grown to a maximal relaxed-dead set whose complement becomes a block,
    one `solve` refutes blocks its own complement, and a solved one is a
    solution, minimal since every smaller one was found at its own size.
    A minimal hitting set has no more members than there are blocks, so
    the sizes stop there; none is tried when every edit together leaves the
    goal relaxed-unreachable. The budget counts edit sets decided (`generated`
    too) plus `solve`'s counters; complete is False when it runs out.
    """
    task = comp.task
    start = time.monotonic()
    stats = SearchStats()
    check = SolvabilityCheck(task)
    init = task.init
    walk = sorted(e for e in comp.edits if not init >> task.atom_index[e.atom] & 1)
    atoms = [task.atom_index[e.atom] for e in walk]
    everything = (1 << len(walk)) - 1
    found: list[int] = []  # solved edit sets, as masks over `walk`
    solutions: list[RepairSolution] = []
    blocks: list[int] = []

    def result(complete):
        stats.elapsed = time.monotonic() - start
        return solutions, complete, stats

    if check.relaxed_dead(init | _mask(atoms)):
        return result(True)
    size = 0
    while size <= min(len(walk), len(blocks)):
        for edset in _candidates(size, len(walk), blocks, found):
            if stats.expansions >= budget.max_expansions or (
                time.monotonic() - start > budget.max_seconds
            ):
                return result(False)
            stats.expansions += 1
            stats.generated += 1
            state = init | _mask(atoms[j] for j in _bits(edset))
            grown = check.grow_dead(state, atoms)
            if grown is not None:
                blocks.append(everything & ~_mask(grown))
                continue
            verdict = check(state, Budget(budget.max_expansions - stats.expansions,
                                          budget.max_seconds - (time.monotonic() - start)))
            stats.expansions += verdict.stats.expansions
            stats.generated += verdict.stats.generated
            if verdict.status == BUDGET_EXHAUSTED:
                return result(False)
            if not verdict.solved:
                blocks.append(everything & ~edset)
                continue
            found.append(edset)
            edits = frozenset(walk[j] for j in _bits(edset))
            cost = math.fsum(comp.costs[e] for e in edits)
            solutions.append(RepairSolution(edits, cost, witness=verdict.plan))
            if len(found) == MAX_RETAINED_SOLUTIONS:
                return result(True)
        size += 1
    return result(True)


def _candidates(size: int, n: int, blocks: list[int], found: list[int]):
    """Masks of `size` of the indices 0..n-1, in lex order, that meet every
    block and hold no found set. Blocks added while the caller consumes
    them apply from then on. A prefix is cut when some block it misses has
    no index above the prefix's last."""

    def extend(chosen, low, left):
        if any(f & chosen == f for f in found):
            return
        if not left:
            if all(b & chosen for b in blocks):
                yield chosen
            return
        allowed = (1 << n) - (1 << low)
        for b in blocks:
            if not b & chosen:
                if not b & allowed:
                    return
                if left == 1:
                    allowed &= b
        for j in _bits(allowed):
            if n - j < left:
                return
            yield from extend(chosen | 1 << j, j + 1, left - 1)

    return extend(0, 0, size)


def judge(
    task: RepairTask, edits, budget: Budget | None = None, witness: Plan | None = None
) -> str:
    """SOUND, UNSOUND or INDETERMINATE: the objective metric recomputed on
    the repaired model. A solvability check that runs out of budget proves
    neither way. Raises PddlError when an edit cannot be applied.

    For unsolvability, `witness` may give a plan believed to solve the
    repaired model. When `validate_plan` accepts it the repair is SOUND
    without grounding or search; when it does not, a warning is logged and
    the model is checked afresh as without a witness, so a witness never
    changes a verdict it could not prove. Every
    SOUND verdict rests on a validated plan, the check's if not a witness.
    """
    repaired = apply_edits(task.base, edits)
    if task.use_case == UNSOLVABILITY:
        if witness is not None and _witness_solves(repaired, witness):
            return SOUND
        verdict = SolvabilityCheck(ground_task(repaired))(budget=budget)
        if verdict.solved and not _witness_solves(repaired, verdict.plan):
            raise AssertionError("internal invariant violation: the check's plan is invalid")
        return {SOLVED: SOUND, BUDGET_EXHAUSTED: INDETERMINATE}.get(verdict.status, UNSOUND)
    return SOUND if validate_plan(repaired, task.target_plan).valid else UNSOUND


def _witness_solves(model, witness: Plan) -> bool:
    """True iff the witness is a valid plan for `model`; otherwise logs one
    warning that names the failing step."""
    try:
        report = validate_plan(model, witness)
    except UnknownAction as err:
        logger.warning("witness plan rejected, checking afresh: %s", err)
        return False
    if not report.valid:
        at = report.failing_step
        logger.warning(
            "witness plan rejected at %r, checking afresh: %s",
            witness.steps[at] if at is not None else None, report,
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
    init = gt.init
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
            if judge(task, edits, witness=verdict.plan) != SOUND:
                raise AssertionError(
                    "internal invariant violation: search returned an unsound repair"
                )
            stats.elapsed = time.monotonic() - start
            return RepairSolution(edits, cost, stats, verdict.plan)
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
) -> list[RepairSolution] | NoSolution:
    """The first 20 minimal sound edit sets, ordered by (cardinality,
    lexicographic), exactly (see `_search`), as `RepairSolution`s: for
    unsolvability each carries the plan that solved it as its witness. The
    budget bounds the edit sets decided plus the planner expansions spent
    deciding them; when it runs out the sets found so far come back, with
    a debug record naming the limit, and none found is BUDGET_EXHAUSTED.
    Executability has one minimal repair, found without search and with
    no witness (its target plan is the proof)."""
    if task.use_case != UNSOLVABILITY:
        found = _executability_repair(task, space)
        return found if isinstance(found, NoSolution) else [found]
    budget = budget or ENUM_BUDGET
    comp = _compile_edit_search(task, space)
    solutions, complete, stats = _search(comp, budget)
    if not complete:
        logger.debug(
            "enumeration stopped at budget: %d expansions, %d generated, "
            "%.3f s; %s reached; %d edits kept, %d solutions found",
            stats.expansions, stats.generated, stats.elapsed,
            _limit_reached(stats, budget), len(comp.edits), len(solutions),
        )
    if not solutions:
        return NoSolution(
            PROVEN_INSUFFICIENT if complete else BUDGET_EXHAUSTED, stats
        )
    return solutions
