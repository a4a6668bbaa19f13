"""Canonical PDDL rendering.

Init/goal atoms, types, and predicate declarations are emitted in sorted
order; action order and parameter order are preserved so that
parse(render(m)) is structurally equal to m.
"""
from __future__ import annotations

from .model import ROOT_TYPE, ActionSchema, Atom, DomainModel, GroundAtom, Model, ProblemModel


def render_atom(atom: Atom | GroundAtom) -> str:
    return str(atom)


def _sorted_atoms(atoms) -> list:
    return sorted(atoms, key=lambda a: (a.predicate, a.args))


def _render_typed_vars(pairs) -> str:
    return " ".join(f"{name} - {t}" for name, t in pairs)


def _render_conjunction(atoms, negated=()) -> str:
    parts = [render_atom(a) for a in _sorted_atoms(atoms)]
    parts += [f"(not {render_atom(a)})" for a in _sorted_atoms(negated)]
    if not parts:
        return "(and)"
    if len(parts) == 1 and not negated:
        return parts[0]
    return "(and " + " ".join(parts) + ")"


def _render_action(schema: ActionSchema) -> str:
    lines = [f"  (:action {schema.name}"]
    lines.append(f"    :parameters ({_render_typed_vars(schema.parameters)})")
    lines.append(f"    :precondition {_render_conjunction(schema.preconditions)}")
    lines.append(f"    :effect {_render_conjunction(schema.add_effects, schema.del_effects)}")
    lines.append("  )")
    return "\n".join(lines)


def render_domain(domain: DomainModel) -> str:
    lines = [f"(define (domain {domain.name})"]
    lines.append("  (:requirements :strips :typing)")
    typed = sorted(
        (child, parent)
        for child, parent in domain.type_hierarchy.items()
        if child != ROOT_TYPE
    )
    if typed:
        lines.append("  (:types " + " ".join(f"{c} - {p}" for c, p in typed) + ")")
    if domain.predicates:
        lines.append("  (:predicates")
        for name in sorted(domain.predicates):
            types = domain.predicates[name]
            params = _render_typed_vars((f"?x{i}", t) for i, t in enumerate(types))
            decl = f"({name} {params})" if types else f"({name})"
            lines.append(f"    {decl}")
        lines.append("  )")
    for schema in domain.actions:
        lines.append(_render_action(schema))
    lines.append(")")
    return "\n".join(lines) + "\n"


def render_problem(problem: ProblemModel) -> str:
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain_name})")
    if problem.objects:
        lines.append("  (:objects")
        for obj in sorted(problem.objects):
            lines.append(f"    {obj} - {problem.objects[obj]}")
        lines.append("  )")
    lines.append("  (:init")
    for atom in _sorted_atoms(problem.init):
        lines.append(f"    {render_atom(atom)}")
    lines.append("  )")
    goal_atoms = _sorted_atoms(problem.goal)
    if len(goal_atoms) == 1:
        lines.append(f"  (:goal {render_atom(goal_atoms[0])})")
    elif not goal_atoms:
        lines.append("  (:goal (and))")
    else:
        lines.append("  (:goal (and " + " ".join(render_atom(a) for a in goal_atoms) + "))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def render_model(model: Model) -> str:
    return render_domain(model.domain) + "\n" + render_problem(model.problem)


def render_plan(steps) -> str:
    """VAL plan text: one step per line, then the cost, which is the
    number of steps since every action costs one."""
    lines = ["(" + " ".join((name,) + tuple(args)) + ")" for name, args in steps]
    lines.append(f"; cost = {len(lines)} (unit cost)")
    return "\n".join(lines) + "\n"
