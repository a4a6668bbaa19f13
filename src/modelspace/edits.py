"""Model edits: initial-state additions/removals and their cost schemes."""
from __future__ import annotations

from dataclasses import dataclass

from .pddl import GroundAtom, Model, is_ground_atom_well_typed
from .pddl.errors import PddlError, UnknownPredicate
from .pddl.ground import enumerate_ground_atoms
from .planner import Plan

ADD_INIT = "add"
REMOVE_INIT = "remove"

UNSOLVABILITY = "unsolvability"
EXECUTABILITY = "executability"

RANK_CAP = 20


class EmptySpace(PddlError):
    """No candidate edits exist; the instance is degenerate."""


class ConflictingEdit(PddlError):
    pass


class StaleEdit(PddlError):
    """An edit's invariant does not hold against the model it is applied to."""


class TooManyEdits(PddlError):
    pass


@dataclass(frozen=True, order=True)
class ModelEdit:
    kind: str  # ADD_INIT | REMOVE_INIT
    atom: GroundAtom

    def __str__(self):
        sign = "+" if self.kind == ADD_INIT else "-"
        return f"({sign} {self.atom})"


@dataclass(frozen=True)
class RepairTask:
    base: Model
    use_case: str  # UNSOLVABILITY | EXECUTABILITY
    target_plan: Plan | None = None

    def __post_init__(self):
        if self.use_case == EXECUTABILITY and self.target_plan is None:
            raise ValueError("executability repair requires a target plan")


def build_edit_space(
    model: Model, predicates: set[str] | None = None
) -> list[ModelEdit]:
    """All well-typed initial-state additions of atoms not already true, in
    deterministic lexicographic order. Removals are never candidates: goals
    and preconditions are positive, so no minimal repair removes a fact.
    Raises UnknownPredicate for a name in `predicates` the domain does not
    declare."""
    for name in sorted(predicates or ()):
        if name not in model.domain.predicates:
            raise UnknownPredicate(f"unknown predicate '{name}' in the edit space")
    init = model.problem.init
    out = [
        ModelEdit(ADD_INIT, atom)
        for atom in enumerate_ground_atoms(model, predicates)
        if atom not in init
    ]
    if not out:
        raise EmptySpace("no candidate edits for this model")
    return out


def apply_edits(model: Model, edits) -> Model:
    """Return a new model with init' = (init - removed) | added."""
    init = set(model.problem.init)
    added = {e.atom for e in edits if e.kind == ADD_INIT}
    removed = {e.atom for e in edits if e.kind == REMOVE_INIT}
    if added & removed:
        clash = sorted(added & removed)[0]
        raise ConflictingEdit(f"atom {clash} both added and removed")
    for e in sorted(edits):
        if not is_ground_atom_well_typed(model, e.atom):
            raise StaleEdit(f"edit {e} is not well-typed against the model")
        if e.kind == ADD_INIT and e.atom in init:
            raise StaleEdit(f"edit {e}: atom already in init")
        if e.kind == REMOVE_INIT and e.atom not in init:
            raise StaleEdit(f"edit {e}: atom not in init")
    return model.with_init(frozenset((init - removed) | added))


def assign_rank_costs(edits: list[ModelEdit]) -> list[tuple[ModelEdit, float]]:
    """Doubling costs: cost_i = 2^(i-1), so any combination of the first i
    edits is cheaper than including the (i+1)th. Raises TooManyEdits for an
    empty list or one longer than `RANK_CAP`."""
    if not edits:
        raise TooManyEdits("ranked edit list must be nonempty")
    if len(edits) > RANK_CAP:
        raise TooManyEdits(f"ranked edit list longer than {RANK_CAP}")
    return [(e, float(2 ** i)) for i, e in enumerate(edits)]


def format_edit_set(edits) -> str:
    """Sorted s-expression form, e.g. `(+ (has_bus city_b city_c))`."""
    return " ".join(str(e) for e in sorted(edits))


def edit_to_json(edit: ModelEdit) -> dict:
    return {"kind": edit.kind, "atom": [edit.atom.predicate, *edit.atom.args]}


def edit_from_json(obj: dict) -> ModelEdit:
    pred, *args = obj["atom"]
    return ModelEdit(obj["kind"], GroundAtom(pred, tuple(args)))
