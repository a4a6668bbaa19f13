"""Core data types for typed-STRIPS planning models.

A Model is a (domain, problem) pair. All types are immutable after
construction; sharing across worker threads is safe.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import (
    ArityMismatch,
    PddlError,
    TypeMismatch,
    UnknownObject,
    UnknownPredicate,
    UnknownType,
)

ROOT_TYPE = "object"


@dataclass(frozen=True, order=True)
class Atom:
    """A lifted atom over schema parameters; args starting with '?' are
    variables, anything else is an object constant."""

    predicate: str
    args: tuple[str, ...] = ()

    def __str__(self):
        return "(" + " ".join((self.predicate,) + self.args) + ")"


@dataclass(frozen=True, order=True)
class GroundAtom:
    predicate: str
    args: tuple[str, ...] = ()

    def __str__(self):
        return "(" + " ".join((self.predicate,) + self.args) + ")"


@dataclass(frozen=True)
class ActionSchema:
    name: str
    parameters: tuple[tuple[str, str], ...]  # (?var, type) pairs
    preconditions: frozenset[Atom]
    add_effects: frozenset[Atom]
    del_effects: frozenset[Atom]


@dataclass(frozen=True)
class DomainModel:
    name: str
    type_hierarchy: dict[str, str | None] = field(default_factory=dict)
    predicates: dict[str, tuple[str, ...]] = field(default_factory=dict)
    actions: tuple[ActionSchema, ...] = ()

    def action(self, name: str) -> ActionSchema | None:
        for a in self.actions:
            if a.name == name:
                return a
        return None

    def is_subtype(self, child: str, ancestor: str) -> bool:
        t: str | None = child
        while t is not None:
            if t == ancestor:
                return True
            t = self.type_hierarchy.get(t)
        return False

    def validate(self) -> None:
        if ROOT_TYPE not in self.type_hierarchy:
            raise UnknownType(f"type hierarchy must contain '{ROOT_TYPE}'")
        for child, parent in self.type_hierarchy.items():
            if parent is not None and parent not in self.type_hierarchy:
                raise UnknownType(f"unknown parent type '{parent}' of '{child}'")
            # acyclicity
            seen = {child}
            t = parent
            while t is not None:
                if t in seen:
                    raise PddlError(f"type hierarchy cycle through '{child}'")
                seen.add(t)
                t = self.type_hierarchy.get(t)
        for pred, types in self.predicates.items():
            for t in types:
                if t not in self.type_hierarchy:
                    raise UnknownType(f"predicate '{pred}' uses unknown type '{t}'")
        names = [a.name for a in self.actions]
        if len(names) != len(set(names)):
            raise PddlError("duplicate action name")
        for schema in self.actions:
            self._validate_schema(schema)

    def _validate_schema(self, schema: ActionSchema) -> None:
        params = dict(schema.parameters)
        if len(params) != len(schema.parameters):
            raise PddlError(f"duplicate parameter in action '{schema.name}'")
        for t in params.values():
            if t not in self.type_hierarchy:
                raise UnknownType(f"action '{schema.name}' uses unknown type '{t}'")
        if schema.add_effects & schema.del_effects:
            raise PddlError(f"action '{schema.name}' adds and deletes the same atom")
        for atom in schema.preconditions | schema.add_effects | schema.del_effects:
            decl = self.predicates.get(atom.predicate)
            if decl is None:
                raise UnknownPredicate(
                    f"action '{schema.name}' uses undeclared predicate '{atom.predicate}'"
                )
            if len(decl) != len(atom.args):
                raise ArityMismatch(
                    f"atom {atom} in action '{schema.name}': expected {len(decl)} args"
                )
            for arg, want in zip(atom.args, decl):
                if not arg.startswith("?"):
                    continue
                if arg not in params:
                    raise PddlError(
                        f"atom {atom} in action '{schema.name}' uses unbound variable {arg}"
                    )
                if not self.is_subtype(params[arg], want):
                    raise TypeMismatch(
                        f"atom {atom} in action '{schema.name}': {arg} has type"
                        f" '{params[arg]}', expected '{want}'"
                    )


@dataclass(frozen=True)
class ProblemModel:
    name: str
    domain_name: str
    objects: dict[str, str] = field(default_factory=dict)
    init: frozenset[GroundAtom] = frozenset()
    goal: frozenset[GroundAtom] = frozenset()


@dataclass(frozen=True)
class Model:
    """A planning domain + problem pair: the unit edited by model-space search."""

    domain: DomainModel
    problem: ProblemModel

    def with_init(self, init: frozenset[GroundAtom]) -> Model:
        return Model(self.domain, replace(self.problem, init=frozenset(init)))

    def validate(self) -> None:
        self.domain.validate()
        check_problem(self.domain, self.problem)


def check_problem(domain: DomainModel, problem: ProblemModel) -> None:
    """Raise unless each object has a declared type and each init and goal
    atom is well-typed; `domain` itself is not validated again."""
    for obj, t in problem.objects.items():
        if t not in domain.type_hierarchy:
            raise UnknownType(f"object '{obj}' has unknown type '{t}'")
    for atom in problem.init | problem.goal:
        check_ground_atom(domain, problem.objects, atom)


def check_ground_atom(domain: DomainModel, objects: dict[str, str], atom: GroundAtom) -> None:
    """Raise unless atom is declared, has matching arity, and is well-typed."""
    decl = domain.predicates.get(atom.predicate)
    if decl is None:
        raise UnknownPredicate(f"unknown predicate '{atom.predicate}' in {atom}")
    if len(decl) != len(atom.args):
        raise ArityMismatch(f"{atom}: expected {len(decl)} args, got {len(atom.args)}")
    for arg, want in zip(atom.args, decl):
        got = objects.get(arg)
        if got is None:
            raise UnknownObject(f"unknown object '{arg}' in {atom}")
        if not domain.is_subtype(got, want):
            raise TypeMismatch(f"{atom}: '{arg}' has type '{got}', expected '{want}'")


def is_ground_atom_well_typed(model: Model, atom: GroundAtom) -> bool:
    try:
        check_ground_atom(model.domain, model.problem.objects, atom)
    except PddlError:
        return False
    return True
