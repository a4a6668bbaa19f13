"""Parsers for the three LLM response formats.

These are total over arbitrary text: they either return a structure or raise
a typed error, never crash. Syntactic junk is collected as rejected lines;
semantic junk (atoms the model cannot accept) is kept here and judged
unsound downstream.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..edits import ADD_INIT, RANK_CAP, REMOVE_INIT, ModelEdit
from ..pddl import GroundAtom, Model, is_ground_atom_well_typed, parse_sexpr
from ..pddl.errors import PddlError

MODE_ADD_ONLY = "add_only"
MODE_ADD_REMOVE = "add_remove"
MODE_FULL_INIT = "full_init_block"

_ATOM_RE = re.compile(r"\(([^()]*)\)")
_INT_RE = re.compile(r"-?\d+")


class UnparseableResponse(PddlError):
    """Zero atoms (or no number) could be recovered from the response."""


class NoNumberFound(PddlError):
    pass


class OutOfRange(PddlError):
    pass


@dataclass
class ParsedEdits:
    edits: frozenset  # of ModelEdit
    rejected: list[str] = field(default_factory=list)


def _extract_atoms(text: str) -> tuple[list[GroundAtom], list[str]]:
    """Pull every flat parenthesized group out of the text, in order."""
    atoms, rejected = [], []
    for match in _ATOM_RE.finditer(text):
        inner = match.group(1).strip()
        if not inner or inner.startswith(":"):
            rejected.append(match.group(0))
            continue
        parts = inner.lower().split()
        if not all(re.fullmatch(r"[a-z0-9_?:-][a-z0-9_-]*", p) for p in parts):
            rejected.append(match.group(0))
            continue
        atoms.append(GroundAtom(parts[0], tuple(parts[1:])))
    return atoms, rejected


def _detect_mode(text: str) -> str:
    stripped = text.strip()
    if stripped.startswith("(:init"):
        return MODE_FULL_INIT
    if re.search(r"removed?\b", stripped, re.IGNORECASE):
        return MODE_ADD_REMOVE
    return MODE_ADD_ONLY


def parse_edit_response(text: str, base: Model) -> ParsedEdits:
    """Parse an LLM-only response into an edit set, in the format detected
    from the text.

    FullInitBlock responses are diffed against the base init; AddOnly parses
    one atom per line; AddRemove parses the two labeled lists. Atoms are not
    validated against the model here -- an unsound or inapplicable edit set
    is judged later.
    """
    mode = _detect_mode(text)

    if mode == MODE_FULL_INIT:
        try:
            tree = parse_sexpr(text.strip())
        except PddlError as exc:
            raise UnparseableResponse(f"init block does not parse: {exc}")
        if not isinstance(tree, list) or not tree or tree[0] != ":init":
            raise UnparseableResponse("expected an '(:init ...)' block")
        atoms = set()
        for node in tree[1:]:
            if not isinstance(node, list) or any(isinstance(x, list) for x in node) or not node:
                raise UnparseableResponse("init block contains a non-atom entry")
            atoms.add(GroundAtom(str(node[0]), tuple(str(a) for a in node[1:])))
        adds = atoms - base.problem.init
        removes = base.problem.init - atoms
        edits = {ModelEdit(ADD_INIT, a) for a in adds} | {
            ModelEdit(REMOVE_INIT, a) for a in removes
        }
        return ParsedEdits(frozenset(edits))

    if mode == MODE_ADD_REMOVE:
        split = re.split(r"^.*\bremoved?\b.*$", text, maxsplit=1, flags=re.IGNORECASE | re.MULTILINE)
        add_part = split[0]
        remove_part = split[1] if len(split) > 1 else ""
        add_atoms, rej1 = _extract_atoms(add_part)
        rem_atoms, rej2 = _extract_atoms(remove_part)
        if not add_atoms and not rem_atoms:
            raise UnparseableResponse("no atoms recovered from response")
        edits = {ModelEdit(ADD_INIT, a) for a in add_atoms} | {
            ModelEdit(REMOVE_INIT, a) for a in rem_atoms
        }
        return ParsedEdits(frozenset(edits), rej1 + rej2)

    atoms, rejected = _extract_atoms(text)
    if not atoms:
        raise UnparseableResponse("no atoms recovered from response")
    return ParsedEdits(frozenset(ModelEdit(ADD_INIT, a) for a in atoms), rejected)


def parse_option_choice(text: str, n_options: int) -> int:
    """First integer token in the response, 1-based, bounds-checked."""
    if n_options < 1:
        raise ValueError("n_options must be >= 1")
    match = _INT_RE.search(text)
    if match is None:
        raise NoNumberFound(f"no option number in response: {text[:80]!r}")
    choice = int(match.group(0))
    if not 1 <= choice <= n_options:
        raise OutOfRange(f"option {choice} out of range 1..{n_options}")
    return choice


def parse_ranked_list(text: str, base: Model) -> tuple[list[ModelEdit], list[str]]:
    """Ordered addition candidates from a ranked-list response, at most
    `RANK_CAP` of them.

    Skips atoms that are malformed for this problem (undeclared predicate or
    object, wrong arity or type), duplicates, atoms already in init, and
    every atom after the cap; order of survivors is preserved. Returns
    (edits, diagnostics).
    """
    atoms, rejected = _extract_atoms(text)
    diagnostics = [f"unparseable: {r}" for r in rejected]
    out: list[ModelEdit] = []
    seen: set[GroundAtom] = set()
    for atom in atoms:
        if len(out) >= RANK_CAP:
            diagnostics.append(f"over cap of {RANK_CAP}: {atom}")
            continue
        if atom in seen:
            diagnostics.append(f"duplicate: {atom}")
            continue
        seen.add(atom)
        if not is_ground_atom_well_typed(base, atom):
            diagnostics.append(f"malformed for this problem: {atom}")
            continue
        if atom in base.problem.init:
            diagnostics.append(f"already in init: {atom}")
            continue
        out.append(ModelEdit(ADD_INIT, atom))
    if not out:
        raise UnparseableResponse("no usable atoms recovered from ranked list")
    return out, diagnostics
