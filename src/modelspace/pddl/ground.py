"""Grounding: instantiate schemas and predicates over the object universe.

A ground task is in the one format every search reads: each state, and each
action's precondition, add and delete lists, is an int bitmask with bit i
set for atom ``atoms[i]``, built here once per grounding (`_mask` and
`_bits` convert to and from index lists)."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import GroundingBlowup, UnknownObject
from .model import DomainModel, GroundAtom, Model

DEFAULT_GROUNDING_CAP = 10**6


@dataclass(frozen=True)
class GroundAction:
    name: str
    args: tuple[str, ...]
    pre: int
    add: int
    dele: int


@dataclass(frozen=True)
class GroundTask:
    atoms: tuple[GroundAtom, ...]
    atom_index: dict[GroundAtom, int]
    actions: tuple[GroundAction, ...]
    init: int
    goal: int


def _objects_by_type(domain: DomainModel, objects: dict[str, str]) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {t: [] for t in domain.type_hierarchy}
    for obj in sorted(objects):
        t: str | None = objects[obj]
        while t is not None:
            table[t].append(obj)
            t = domain.type_hierarchy.get(t)
    return table


def ground_task(model: Model, cap: int = DEFAULT_GROUNDING_CAP) -> GroundTask:
    """Enumerate all type-consistent ground atoms and actions.

    Raises GroundingBlowup when either universe exceeds `cap`.
    """
    domain, problem = model.domain, model.problem
    by_type = _objects_by_type(domain, problem.objects)

    total = 0
    for types in domain.predicates.values():
        count = 1
        for t in types:
            count *= len(by_type[t])
        total += count
        if total > cap:
            raise GroundingBlowup(f"ground atom universe exceeds cap of {cap}")

    atoms = enumerate_ground_atoms(model)
    atom_index = {a: i for i, a in enumerate(atoms)}
    # keyed on plain tuples: their hashing and equality run in C, where a
    # GroundAtom key goes through the dataclass __hash__ and __eq__
    index_of = {(a.predicate, a.args): i for i, a in enumerate(atoms)}

    actions: list[GroundAction] = []
    for schema in domain.actions:
        names = [v for v, _ in schema.parameters]
        pools = [by_type[t] for _, t in schema.parameters]
        count = 1
        for pool in pools:
            count *= len(pool)
        if len(actions) + count > cap:
            raise GroundingBlowup(f"ground action universe exceeds cap of {cap}")
        for combo in product(*pools):
            binding = dict(zip(names, combo))

            def inst(lifted) -> int:
                out = 0
                for atom in lifted:
                    args = []
                    for a in atom.args:
                        if a.startswith("?"):
                            args.append(binding[a])
                        elif a in problem.objects:
                            args.append(a)
                        else:
                            raise UnknownObject(f"constant '{a}' in action '{schema.name}'")
                    out |= 1 << index_of[atom.predicate, tuple(args)]
                return out

            actions.append(
                GroundAction(
                    schema.name,
                    combo,
                    pre=inst(schema.preconditions),
                    add=inst(schema.add_effects),
                    dele=inst(schema.del_effects),
                )
            )
    actions.sort(key=lambda a: (a.name, a.args))

    return GroundTask(
        atoms=tuple(atoms),
        atom_index=atom_index,
        actions=tuple(actions),
        init=_mask(atom_index[a] for a in problem.init),
        goal=_mask(atom_index[a] for a in problem.goal),
    )


def _mask(indices) -> int:
    """The int bitmask with a bit set at each of the given atom indices."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _bits(mask: int):
    """The indices, ascending, of the bits set in `mask`."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_ground_atoms(model: Model, predicates=None) -> list[GroundAtom]:
    """All well-typed ground atoms, optionally restricted to a predicate
    allowlist; lexicographic order."""
    domain, problem = model.domain, model.problem
    by_type = _objects_by_type(domain, problem.objects)
    out: list[GroundAtom] = []
    for pred in sorted(domain.predicates):
        if predicates is not None and pred not in predicates:
            continue
        types = domain.predicates[pred]
        for combo in product(*(by_type[t] for t in types)):
            out.append(GroundAtom(pred, combo))
    return out
