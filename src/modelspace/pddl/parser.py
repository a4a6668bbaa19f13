"""Parser for the :strips + :typing PDDL subset.

Accepted surface: typed object/variable lists, positive conjunctive
preconditions and goals, add/delete effects. Anything else raises
UnsupportedFeature. Identifiers are case-insensitive and normalized to
lowercase.

Text is read in one pass: one `re.findall` gives plain lowercase string
tokens and one loop with an explicit stack (`_read`) builds the tree, so
nothing on the way carries a source position. Positions are found only
when an error is raised: a PddlSyntaxError sends the same text through
`_tokenize`, whose tokens carry their line and column, and the same
reader and semantic code, which raise the same error with its position.
"""
from __future__ import annotations

import re

from .errors import PddlSyntaxError, UnsupportedFeature
from .model import (
    ROOT_TYPE,
    ActionSchema,
    Atom,
    DomainModel,
    GroundAtom,
    ProblemModel,
    check_problem,
)

SUPPORTED_REQUIREMENTS = {":strips", ":typing"}


class _Token(str):
    line = 0
    column = 0


# a parenthesis or an identifier; only spaces, tabs, carriage returns and
# newlines separate tokens (\x0b or \xa0 belongs to an identifier)
_PLAIN_RE = re.compile(r"[()]|[^ \t\r\n();]+")
_COMMENT_RE = re.compile(r";[^\n]*")
# the same tokens, plus the newlines `_tokenize` counts lines by and the
# comments it skips
_TOKEN_RE = re.compile(r"\n|[()]|;[^\n]*|[^ \t\r\n();]+")


def _plain_tokens(text: str) -> list[str]:
    """The lowercase tokens of `text`, with no positions. Lowering the whole
    text lowers each token as lowering it alone would: no lowercase is a
    separator, and no separator is cased or case-ignorable, so a final
    sigma is decided within its token."""
    return _PLAIN_RE.findall(_COMMENT_RE.sub("", text).lower())


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `_plain_tokens`, each with its 1-based line and column."""
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        lexeme = match.group()
        if lexeme == "\n":
            line += 1
            line_start = match.end()
        elif lexeme[0] != ";":
            tok = _Token(lexeme.lower())
            tok.line, tok.column = line, match.start() - line_start + 1
            tokens.append(tok)
    return tokens


def _read(tokens: list[str]):
    """The one s-expression `tokens` spell, as nested lists of tokens.

    `tree` is the innermost open list and `stack` holds the lists around
    it, outermost first."""
    it = iter(tokens)
    tree = next(it, None)
    if tree is None:
        raise PddlSyntaxError("empty input")
    if tree == ")":
        raise _err(tree, "unexpected ')'")
    if tree == "(":
        stack: list[list] = []
        tree = []
        for tok in it:
            if tok == "(":
                stack.append(tree)
                tree = []
            elif tok == ")":
                if not stack:
                    break
                stack[-1].append(tree)
                tree = stack.pop()
            else:
                tree.append(tok)
        else:
            raise _err(_innermost_open(tokens), "unbalanced '('")
    extra = next(it, None)
    if extra is not None:
        raise _err(extra, "trailing input after expression")
    return tree


def _innermost_open(tokens: list[str]) -> str:
    """The last '(' in `tokens` that no ')' closes."""
    depth = 0
    for tok in reversed(tokens):
        if tok == ")":
            depth += 1
        elif tok == "(":
            if not depth:
                return tok
            depth -= 1


def _parse(text: str, build, *args):
    """`build(tree, *args)` for the tree `text` spells.

    The first read has no positions. If it raises a PddlSyntaxError, the
    text is read again into positioned tokens and built by the same code,
    which raises the same error with its line and column."""
    try:
        return build(_read(_plain_tokens(text)), *args)
    except PddlSyntaxError:
        pass
    return build(_read(_tokenize(text)), *args)


def parse_sexpr(text: str):
    return _parse(text, lambda tree: tree)


def _err(node, message: str) -> PddlSyntaxError:
    tok = node
    while isinstance(tok, list):
        tok = tok[0] if tok else None
        if tok is None:
            return PddlSyntaxError(message)
    return PddlSyntaxError(message, getattr(tok, "line", None), getattr(tok, "column", None))


def _parse_typed_list(items) -> list[tuple[str, str]]:
    """Parse `a b - t c - u d` into [(a,t),(b,t),(c,u),(d,object)].

    Tolerates the glued `-type` form seen in hand-written files.
    """
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        tok = items[i]
        if isinstance(tok, list):
            raise _err(tok, "unexpected '(' in typed list")
        if tok == "-":
            if i + 1 >= len(items) or isinstance(items[i + 1], list):
                raise _err(tok, "missing type after '-'")
            t = items[i + 1]
            out.extend((name, t) for name in pending)
            pending = []
            i += 2
        elif tok.startswith("-") and len(tok) > 1:
            out.extend((name, tok[1:]) for name in pending)
            pending = []
            i += 1
        else:
            pending.append(tok)
            i += 1
    out.extend((name, ROOT_TYPE) for name in pending)
    return out


def _parse_atom(node) -> Atom:
    if not isinstance(node, list) or not node or any(isinstance(x, list) for x in node):
        raise _err(node, "expected an atom '(predicate args...)'")
    return Atom(node[0], tuple(node[1:]))


def _parse_conjunction(node, what: str) -> list:
    """Flatten `(and ...)`, a bare atom, or `()` into a list of item nodes."""
    if not isinstance(node, list):
        raise _err(node, f"expected {what}")
    if not node:
        return []
    if node[0] == "and":
        return node[1:]
    return [node]


def _check_supported(node, context: str) -> None:
    if isinstance(node, list) and node:
        head = node[0]
        if not isinstance(head, list) and head in (
            "not", "or", "imply", "exists", "forall", "when", "=", "increase",
            "decrease", "assign",
        ):
            raise UnsupportedFeature(f"'{head}' not supported in {context}")


def parse_domain(text: str) -> DomainModel:
    return _parse(text, _domain)


def _domain(tree) -> DomainModel:
    if not isinstance(tree, list) or len(tree) < 2 or tree[0] != "define":
        raise _err(tree, "expected '(define (domain ...) ...)'")
    head = tree[1]
    if not isinstance(head, list) or len(head) != 2 or head[0] != "domain":
        raise _err(head, "expected '(domain name)'")
    name = head[1]

    hierarchy: dict[str, str | None] = {ROOT_TYPE: None}
    predicates: dict[str, tuple[str, ...]] = {}
    actions: list[ActionSchema] = []

    for section in tree[2:]:
        if not isinstance(section, list) or not section:
            raise _err(section, "expected a domain section")
        key = section[0]
        if key == ":requirements":
            for req in section[1:]:
                if req not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedFeature(f"requirement '{req}' not supported")
        elif key == ":types":
            for child, parent in _parse_typed_list(section[1:]):
                hierarchy[child] = parent
                hierarchy.setdefault(parent, None if parent == ROOT_TYPE else ROOT_TYPE)
            for t, parent in list(hierarchy.items()):
                if parent is None and t != ROOT_TYPE:
                    hierarchy[t] = ROOT_TYPE
        elif key == ":predicates":
            for decl in section[1:]:
                if not isinstance(decl, list) or not decl:
                    raise _err(decl, "expected a predicate declaration")
                pname = decl[0]
                if pname in predicates:
                    raise _err(decl, f"duplicate predicate '{pname}'")
                predicates[pname] = tuple(t for _, t in _parse_typed_list(decl[1:]))
        elif key == ":action":
            actions.append(_parse_action(section))
        else:
            raise UnsupportedFeature(f"domain section '{key}' not supported")

    domain = DomainModel(name, hierarchy, predicates, tuple(actions))
    domain.validate()
    return domain


def _parse_action(section) -> ActionSchema:
    if len(section) < 2 or isinstance(section[1], list):
        raise _err(section, "expected action name")
    name = section[1]
    fields = {}
    i = 2
    while i < len(section):
        key = section[i]
        if isinstance(key, list) or not key.startswith(":"):
            raise _err(key, "expected an action keyword")
        if i + 1 >= len(section):
            raise _err(key, f"missing value for '{key}'")
        fields[key] = section[i + 1]
        i += 2
    if ":parameters" not in fields:
        raise _err(section, f"action '{name}' has no :parameters")
    params = tuple(_parse_typed_list(fields[":parameters"]))

    pre: set[Atom] = set()
    for item in _parse_conjunction(fields.get(":precondition", []), "precondition"):
        _check_supported(item, f"preconditions of '{name}'")
        pre.add(_parse_atom(item))

    adds: set[Atom] = set()
    dels: set[Atom] = set()
    for item in _parse_conjunction(fields.get(":effect", []), "effect"):
        if isinstance(item, list) and item and item[0] == "not":
            if len(item) != 2:
                raise _err(item, "expected '(not (atom))'")
            dels.add(_parse_atom(item[1]))
        else:
            _check_supported(item, f"effects of '{name}'")
            adds.add(_parse_atom(item))
    # `(and p (not p))` style conflicts: delete-then-add semantics are out of
    # subset, reject them outright
    return ActionSchema(name, params, frozenset(pre), frozenset(adds), frozenset(dels))


def parse_problem(text: str, domain: DomainModel) -> ProblemModel:
    """Read a problem of `domain`, a domain `parse_domain` returned: the
    problem is checked against it, and the domain is not validated again."""
    return _parse(text, _problem, domain)


def _problem(tree, domain: DomainModel) -> ProblemModel:
    if not isinstance(tree, list) or len(tree) < 2 or tree[0] != "define":
        raise _err(tree, "expected '(define (problem ...) ...)'")
    head = tree[1]
    if not isinstance(head, list) or len(head) != 2 or head[0] != "problem":
        raise _err(head, "expected '(problem name)'")
    name = head[1]

    domain_name = domain.name
    objects: dict[str, str] = {}
    init: set[GroundAtom] = set()
    goal: set[GroundAtom] = set()

    for section in tree[2:]:
        if not isinstance(section, list) or not section:
            raise _err(section, "expected a problem section")
        key = section[0]
        if key == ":domain":
            domain_name = section[1]
        elif key == ":objects":
            for obj, t in _parse_typed_list(section[1:]):
                objects[obj] = t
        elif key == ":init":
            for node in section[1:]:
                _check_supported(node, "init")
                atom = _parse_atom(node)
                init.add(GroundAtom(atom.predicate, atom.args))
        elif key == ":goal":
            if len(section) != 2:
                raise _err(section, "expected a single goal formula")
            for node in _parse_conjunction(section[1], "goal"):
                _check_supported(node, "goal")
                atom = _parse_atom(node)
                goal.add(GroundAtom(atom.predicate, atom.args))
        else:
            raise UnsupportedFeature(f"problem section '{key}' not supported")

    problem = ProblemModel(name, domain_name, objects, frozenset(init), frozenset(goal))
    check_problem(domain, problem)
    return problem


def parse_plan_text(text: str) -> list[tuple[str, tuple[str, ...]]]:
    """Parse a VAL-style plan file: one '(action args...)' per line,
    ';'-prefixed comment lines ignored. A syntax error names the line of
    `text` (as `str.splitlines` counts them) and the column within it."""
    steps: list[tuple[str, tuple[str, ...]]] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        try:
            steps.append(_parse(line, _plan_step))
        except PddlSyntaxError as exc:
            if exc.line is None:
                raise
            indent = len(raw) - len(raw.lstrip())
            raise PddlSyntaxError(exc.reason, number, exc.column + indent) from None
    return steps


def _plan_step(tree) -> tuple[str, tuple[str, ...]]:
    atom = _parse_atom(tree)
    return atom.predicate, atom.args
