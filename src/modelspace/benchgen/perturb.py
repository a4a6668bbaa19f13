"""Perturbation: manufacture unsolvable/inexecutable instances with a known
minimal repair, by deleting 1-4 reasonable initial-state facts from a
solvable model.

The model is validated, grounded and solved once per instance. The solve
is breadth-first, so the target plan is a shortest one, over the task that
the model's `SolvabilityCheck` restricts to the relevant actions its
relaxed pass reaches from init: no shortest plan of the model uses an
action left out, and a search over fewer actions is cheaper. A
perturbation changes only the init, so the same check of that one
grounding proves each perturbation unsolvable from its init's mask.
Restoring the deleted facts gives back a superset of the model's init, so
under positive preconditions and goals the model's plan, the instance's
target plan, solves the restored model."""
from __future__ import annotations

import random
from dataclasses import dataclass

from ..pddl import GroundAtom, Model, ground_task
from ..pddl.errors import PddlError
from ..pddl.ground import _mask
from ..planner import Plan, SolvabilityCheck, solve, validate_plan
from .families import _OBSTACLES, ROOMBA_FAMILY, ReasonableFamily


class PerturbationFailed(PddlError):
    pass


class InvariantViolation(PddlError):
    pass


@dataclass
class BenchInstance:
    id: str
    domain_kind: str
    solvable: Model
    perturbed: Model
    deleted_facts: frozenset[GroundAtom]
    family: ReasonableFamily
    k: int
    seed: int
    target_plan: Plan | None = None


def _perturb_init(model: Model, chosen, family_id: str, rng) -> frozenset[GroundAtom]:
    init = set(model.problem.init) - set(chosen)
    if family_id == ROOMBA_FAMILY:
        # the inverse transform: the cleared path becomes blocked by furniture
        # sorted: the draws must not follow the frozenset's hash order
        for atom in sorted(chosen):
            init.add(GroundAtom(rng.choice(_OBSTACLES), atom.args))
    return frozenset(init)


def perturb_unsolvable(
    model: Model,
    family: ReasonableFamily,
    k: int,
    seed: int = 0,
    domain_kind: str = "",
    instance_id: str = "",
    max_tries: int = 30,
) -> BenchInstance:
    """Delete k family facts so the model becomes provably unsolvable;
    resamples the choice of facts up to max_tries times. The model's plan
    is checked with `validate_plan` on each restored model."""
    if not 1 <= k <= 4:
        raise ValueError("k must be in 1..4")
    candidates = sorted(family.removable)
    if k > len(candidates):
        raise PerturbationFailed(
            f"only {len(candidates)} removable facts available, need {k}"
        )
    rng = random.Random(f"perturb:{domain_kind}:{seed}:{k}")
    model.validate()
    gt = ground_task(model)
    check = SolvabilityCheck(gt)
    restricted = check.restricted(gt.init)
    plan = solve(restricted).plan if restricted is not None else None
    if plan is None:
        raise InvariantViolation("solvable original did not solve")
    for _ in range(max_tries):
        chosen = frozenset(rng.sample(candidates, k))
        perturbed = model.with_init(_perturb_init(model, chosen, family.family_id, rng))
        init = _mask(gt.atom_index[a] for a in perturbed.problem.init)
        if not check(init).proven_unsolvable:
            continue
        restored = perturbed.with_init(perturbed.problem.init | chosen)
        if not validate_plan(restored, plan).valid:
            continue
        return BenchInstance(
            id=instance_id,
            domain_kind=domain_kind,
            solvable=model,
            perturbed=perturbed,
            deleted_facts=chosen,
            family=family,
            k=k,
            seed=seed,
            target_plan=plan,
        )
    raise PerturbationFailed(f"no {k}-subset of removable facts yields unsolvability")


def select_target_plan(inst: BenchInstance) -> Plan:
    """The planner's deterministic plan for the solvable original, which
    `perturb_unsolvable` stored on the instance. Must be broken by the
    perturbation."""
    plan = inst.target_plan
    if plan is None:
        raise InvariantViolation("instance carries no target plan")
    if validate_plan(inst.perturbed, plan).valid:
        raise InvariantViolation("target plan survived the perturbation")
    return plan
