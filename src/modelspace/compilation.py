"""Compile the executability use case down to unsolvability.

Enforcing the target plan step by step with fresh step fluents yields a
model that is solvable exactly when the plan is executable, so initial-state
edits transfer between the two views unchanged. Repair does not search it:
`planner.missing_init_atoms` gives the same answer in one pass.
"""
from __future__ import annotations

from .pddl import ActionSchema, Atom, DomainModel, GroundAtom, Model, ProblemModel
from .pddl.errors import PddlError
from .planner import Plan, ground_plan_step


class NameCollision(PddlError):
    pass


def _step_prefix(domain: DomainModel, n_steps: int) -> str:
    prefix = "step"
    for _ in range(10):
        names = {f"{prefix}_{i}" for i in range(n_steps + 1)}
        if not (names & set(domain.predicates)):
            return prefix
        prefix = "x" + prefix
    raise NameCollision("could not find a fresh step-fluent prefix")


def compile_executability(model: Model, plan: Plan) -> Model:
    """Return a model M' over the same atom universe plus fresh step fluents
    step_0..step_n such that, for any initial-state edit set E over the
    original atoms, M'+E is solvable iff the plan is valid in model+E."""
    steps = plan.steps
    grounded = [ground_plan_step(model, name, args) for name, args in steps]

    prefix = _step_prefix(model.domain, len(steps))
    fluent = [f"{prefix}_{i}" for i in range(len(steps) + 1)]

    predicates = dict(model.domain.predicates)
    for f in fluent:
        predicates[f] = ()

    def lift(ground_atoms) -> frozenset[Atom]:
        return frozenset(Atom(a.predicate, a.args) for a in ground_atoms)

    actions = []
    for i, ((name, _args), (pre, add, dele)) in enumerate(zip(steps, grounded)):
        actions.append(
            ActionSchema(
                name=f"{fluent[i]}_{name}",
                parameters=(),
                preconditions=lift(pre) | {Atom(fluent[i])},
                add_effects=lift(add) | {Atom(fluent[i + 1])},
                del_effects=lift(dele) | {Atom(fluent[i])},
            )
        )

    domain = DomainModel(
        name=model.domain.name + "_exec",
        type_hierarchy=dict(model.domain.type_hierarchy),
        predicates=predicates,
        actions=tuple(actions),
    )
    problem = ProblemModel(
        name=model.problem.name + "_exec",
        domain_name=domain.name,
        objects=dict(model.problem.objects),
        init=model.problem.init | {GroundAtom(fluent[0])},
        # step_n alone would accept runs that execute every step yet end in a
        # state violating the original goal; validity requires both
        goal=model.problem.goal | {GroundAtom(fluent[-1])},
    )
    compiled = Model(domain, problem)
    compiled.validate()
    return compiled
