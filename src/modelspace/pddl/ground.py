"""Grounding: instantiate schemas and predicates over the object universe.

A ground task is in the one format every search reads: each state, and each
action's precondition, add and delete lists, is an int bitmask with bit i
set for atom ``atoms[i]``, built here once per grounding (`_mask` and
`_bits` convert to and from index lists).

Each action schema is compiled once (`_compile`), as the schema
instantiation of Fast Downward's translator does (Helmert 2009): its
constants are checked and its lifted atoms turned into key getters before
any binding, so a binding costs one dict lookup per atom and no
per-argument work."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter

from .errors import GroundingBlowup, TypeMismatch, UnknownObject
from .model import ActionSchema, DomainModel, GroundAtom, Model

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
    # keyed on flat (predicate, *args) tuples: their hashing and equality
    # run in C, where a GroundAtom key goes through the dataclass __hash__
    # and __eq__
    bit = {(a.predicate, *a.args): 1 << i for i, a in enumerate(atoms)}

    actions: list[GroundAction] = []
    for schema in domain.actions:
        pools = [by_type[t] for _, t in schema.parameters]
        count = 1
        for pool in pools:
            count *= len(pool)
        if len(actions) + count > cap:
            raise GroundingBlowup(f"ground action universe exceeds cap of {cap}")
        if not count:
            # a schema with no binding raises nothing, not even for an
            # unknown constant
            continue
        (pre, pre_keys), (add, add_keys), (dele, dele_keys), tail = _compile(
            schema, domain, problem.objects, bit
        )
        name = schema.name
        for combo in product(*pools):
            full = combo + tail
            p, a, d = pre, add, dele
            for key in pre_keys:
                p |= bit[key(full)]
            for key in add_keys:
                a |= bit[key(full)]
            for key in dele_keys:
                d |= bit[key(full)]
            actions.append(GroundAction(name, combo, p, a, d))
    # each schema's bindings come out in order; schemas need not be
    actions.sort(key=lambda a: (a.name, a.args))

    return GroundTask(
        atoms=tuple(atoms),
        atom_index=atom_index,
        actions=tuple(actions),
        init=_mask(atom_index[a] for a in problem.init),
        goal=_mask(atom_index[a] for a in problem.goal),
    )


def _compile(schema: ActionSchema, domain: DomainModel, objects: dict[str, str], bit: dict):
    """Compile a schema's precondition, add and delete lists once, for
    every binding: returns a (fixed, keys) pair per list and a `tail` of
    names. A binding ``combo`` (one object per parameter) is extended to
    ``combo + tail``; each key in `keys` is an `itemgetter` that picks an
    atom's flat ``(predicate, *args)`` key from that tuple, the predicate
    and constants from `tail` and the rest from `combo`. An atom with no
    variable is looked up here, once, into the list's `fixed` mask.
    Raises UnknownObject for a constant that names no object, and
    TypeMismatch for one whose object's type does not fit the predicate."""
    params = {var: i for i, (var, _) in enumerate(schema.parameters)}
    tail: dict[str, int] = {}  # name -> its position in combo + tail

    def at(name: str) -> int:
        return tail.setdefault(name, len(schema.parameters) + len(tail))

    def where(atom, arg: str, want: str) -> int:
        if arg.startswith("?"):
            return params[arg]
        got = objects.get(arg)
        if got is None:
            raise UnknownObject(f"constant '{arg}' in action '{schema.name}'")
        if not domain.is_subtype(got, want):
            raise TypeMismatch(
                f"atom {atom} in action '{schema.name}': constant '{arg}' has"
                f" type '{got}', expected '{want}'"
            )
        return at(arg)

    lists = []
    for lifted in (schema.preconditions, schema.add_effects, schema.del_effects):
        fixed, keys = 0, []
        for atom in lifted:
            decl = domain.predicates[atom.predicate]
            positions = [where(atom, arg, want) for arg, want in zip(atom.args, decl)]
            if any(arg.startswith("?") for arg in atom.args):
                keys.append(itemgetter(at(atom.predicate), *positions))
            else:
                fixed |= bit[(atom.predicate, *atom.args)]
        lists.append((fixed, keys))
    return *lists, tuple(tail)


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
