"""Parser, renderer, and grounding behavior on hand-checked inputs.

The s-expression reader is cross-checked against `reference_parse_sexpr`,
which gives every token its position and reads by recursion. Grounding is
cross-checked against `reference_ground_task`, which instantiates every
atom of every binding with no per-schema compilation."""

import random
import re
import sys
from itertools import product

import pytest

from conftest import FIXTURES, GOLDEN, SIZES, fixture_text, load_model
from modelspace.benchgen import ALL_KINDS, NOVEL_KINDS
from modelspace.benchgen.corpus import generate_corpus
from modelspace.pddl import (
    Atom,
    GroundAtom,
    GroundingBlowup,
    Model,
    PddlSyntaxError,
    TypeMismatch,
    UnknownObject,
    UnknownPredicate,
    UnsupportedFeature,
    ground_task,
    enumerate_ground_atoms,
    parse_domain,
    parse_plan_text,
    parse_problem,
    parse_sexpr,
    render_domain,
    render_plan,
    render_problem,
)
from modelspace.pddl.ground import (
    DEFAULT_GROUNDING_CAP,
    GroundAction,
    GroundTask,
    _mask,
    _objects_by_type,
)


class TestParsing:
    def test_travel_domain_shape(self, travel_model):
        dom = travel_model.domain
        assert dom.name == "domaingotocity"
        assert set(dom.predicates) == {"at", "neighboring", "has_taxi", "has_bus"}
        assert sorted(a.name for a in dom.actions) == ["use_bus", "use_taxi"]
        taxi = next(a for a in dom.actions if a.name == "use_taxi")
        assert taxi.parameters == (("?from", "city"), ("?to", "city"))
        assert Atom("has_taxi", ("?from", "?to")) in taxi.preconditions
        assert Atom("at", ("?to",)) in taxi.add_effects
        assert Atom("at", ("?from",)) in taxi.del_effects

    def test_travel_problem_shape(self, travel_model):
        prob = travel_model.problem
        assert len(prob.objects) == 14
        assert prob.objects["city_a"] == "city"
        assert GroundAtom("at", ("city_a",)) in prob.init
        assert prob.goal == frozenset({GroundAtom("at", ("city_c",))})

    def test_barman_type_hierarchy(self, barman_model):
        dom = barman_model.domain
        assert dom.is_subtype("cocktail", "beverage")
        assert dom.is_subtype("shot", "container")
        assert dom.is_subtype("shot", "object")
        assert not dom.is_subtype("shot", "beverage")

    def test_glued_type_separator_tolerated(self, cleaning_model):
        # d4 declares "door_a -object" style glued separators
        assert cleaning_model.problem.objects["door_a"] == "door"

    def test_identifiers_lowercased(self):
        dom = parse_domain(
            "(define (domain D) (:requirements :strips) (:predicates (P ?x))"
            " (:action Go :parameters (?x) :precondition (P ?x) :effect (P ?x)))"
        )
        assert dom.name == "d"
        assert "p" in dom.predicates
        assert dom.actions[0].name == "go"

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(PddlSyntaxError):
            parse_sexpr("(define (domain d)")

    @pytest.mark.parametrize("text, line, column", [
        ("(a\n  ))", 2, 4),
        ("(a ; ) )\n ) b)", 2, 4),
        ("(a)\t\tb", 1, 6),
        ("(a\r\n\r\n  b) c", 3, 6),
    ], ids=["newline", "comment", "tab", "crlf"])
    def test_syntax_error_carries_position(self, text, line, column):
        """Columns count characters from 1, a tab or a carriage return as
        one; a comment runs to the end of its line."""
        with pytest.raises(PddlSyntaxError) as exc:
            parse_sexpr(text)
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("text", [
        "(define (domain d) (:requirements :strips :fluents))",
        "(define (domain d) (:requirements :strips :action-costs))",
        "(define (domain d) (:requirements :strips) (:functions (total-cost)))",
        "(define (domain d) (:requirements :strips) (:predicates (p))"
        " (:action a :parameters () :precondition (p)"
        " :effect (and (p) (increase (total-cost) 1))))",
    ], ids=["fluents", "action-costs", "functions", "increase"])
    def test_unsupported_requirement_rejected(self, text):
        """Every action costs one: no input can give an action a cost."""
        with pytest.raises(UnsupportedFeature):
            parse_domain(text)

    def test_negative_precondition_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_domain(
                "(define (domain d) (:requirements :strips) (:predicates (p ?x))"
                " (:action a :parameters (?x) :precondition (not (p ?x)) :effect (p ?x)))"
            )

    def test_disjunctive_goal_rejected(self, travel_model):
        text = fixture_text("d1_problem.pddl").replace(
            "(:goal (at city_c))", "(:goal (or (at city_c) (at city_d)))"
        )
        with pytest.raises(UnsupportedFeature):
            parse_problem(text, travel_model.domain)

    def test_unknown_predicate_in_init(self, travel_model):
        text = fixture_text("d1_problem.pddl").replace(
            "(at city_a)", "(located city_a)"
        )
        with pytest.raises(UnknownPredicate):
            parse_problem(text, travel_model.domain)

    def test_unknown_object_in_goal(self, travel_model):
        text = fixture_text("d1_problem.pddl").replace(
            "(:goal (at city_c))", "(:goal (at city_zz))"
        )
        with pytest.raises(UnknownObject):
            parse_problem(text, travel_model.domain)

    def test_plan_text_parsing(self):
        steps = parse_plan_text(fixture_text("d4_plan.txt"))
        assert steps == [
            ("open_door", ("door_a",)),
            ("go", ("room_a", "room_b", "door_a")),
            ("clean", ("room_b",)),
        ]

    def test_plan_text_ignores_cost_comment(self):
        steps = parse_plan_text(fixture_text("d5_plan.txt"))
        assert len(steps) == 3
        assert steps[-1] == ("use_taxi", ("city_c", "city_e"))

    @pytest.mark.parametrize("text, message, line, column", [
        ("(a b)\n; c\n(c d\n", "unbalanced '('", 3, 1),
        ("(a b)\n; c\n(c (d))\n", "expected an atom '(predicate args...)'", 3, 2),
        ("(a b)\r\n\t (c d) e\r\n", "trailing input after expression", 2, 9),
    ], ids=["unbalanced", "not-an-atom", "indented-crlf"])
    def test_plan_syntax_error_names_its_line(self, text, message, line, column):
        """A plan error names the line of the file, not line 1 of the step,
        and the column within that line, counting its indent."""
        with pytest.raises(PddlSyntaxError) as exc:
            parse_plan_text(text)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"{message} (line {line}, column {column})", line, column
        )

    @pytest.mark.parametrize("parse, text, message, line, column", [
        (parse_domain, "(define (domain d)\n  (:types a -))", "missing type after '-'", 2, 13),
        (parse_domain, "(define (domain d) (:predicates (p))\n (:action a :parameters ()\n"
         "   precondition (p)))", "expected an action keyword", 3, 4),
        (parse_problem, "(define (problem p) (:domain domaingotocity)\n (:init (at city_a)\n"
         "   q))", "expected an atom '(predicate args...)'", 3, 4),
    ], ids=["missing-type", "action-keyword", "init-atom"])
    def test_semantic_error_carries_position(
        self, parse, text, message, line, column, travel_model
    ):
        """Errors of the semantic pass, not the reader, name the token they
        concern."""
        args = (travel_model.domain,) if parse is parse_problem else ()
        with pytest.raises(PddlSyntaxError) as exc:
            parse(text, *args)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"{message} (line {line}, column {column})", line, column
        )


class _RefToken(str):
    line = 0
    column = 0


_REF_TOKEN_RE = re.compile(r"\n|[()]|;[^\n]*|[^ \t\r\n();]+")


def reference_tokenize(text):
    tokens = []
    line, line_start = 1, 0
    for match in _REF_TOKEN_RE.finditer(text):
        lexeme = match.group()
        if lexeme == "\n":
            line += 1
            line_start = match.end()
        elif lexeme[0] != ";":
            tok = _RefToken(lexeme.lower())
            tok.line, tok.column = line, match.start() - line_start + 1
            tokens.append(tok)
    return tokens


def reference_read_sexpr(tokens, pos):
    if pos >= len(tokens):
        raise PddlSyntaxError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = reference_read_sexpr(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise PddlSyntaxError("unbalanced '('", tok.line, tok.column)
        return items, pos + 1
    if tok == ")":
        raise PddlSyntaxError("unexpected ')'", tok.line, tok.column)
    return tok, pos + 1


def reference_parse_sexpr(text):
    """Reference for `parse_sexpr`: every token carries its line and column
    from the start, and the tree is read by one recursion per token."""
    tokens = reference_tokenize(text)
    if not tokens:
        raise PddlSyntaxError("empty input")
    tree, pos = reference_read_sexpr(tokens, 0)
    if pos != len(tokens):
        extra = tokens[pos]
        raise PddlSyntaxError("trailing input after expression", extra.line, extra.column)
    return tree


def read_outcome(parse, text):
    """The tree `parse` reads from `text`, or its error's type, message,
    line and column."""
    try:
        return parse(text)
    except PddlSyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.column


def plain_leaves(tree):
    """True when every token in `tree` is a plain `str`, not a subclass."""
    if isinstance(tree, list):
        return all(plain_leaves(item) for item in tree)
    return type(tree) is str


@pytest.fixture(scope="module")
def bench_corpora(tmp_path_factory):
    """The oracle benchmark's written seed-0 corpora of both workloads."""
    oraclebench = FIXTURES.parent.parent / "oraclebench"
    if str(oraclebench) not in sys.path:
        sys.path.insert(0, str(oraclebench))
    import run as bench

    root = tmp_path_factory.mktemp("corpora")
    for name, workload in bench.WORKLOADS.items():
        bench.set_up(workload, 0, root / name)
    return root


class TestReaderReference:
    """`parse_sexpr` against `reference_parse_sexpr`: equal trees of plain
    strings, or the same error type, message, line and column."""

    def check(self, text):
        got = read_outcome(parse_sexpr, text)
        assert got == read_outcome(reference_parse_sexpr, text)
        if isinstance(got, list):
            assert plain_leaves(got)
        return got

    def test_fixtures(self):
        for path in sorted(FIXTURES.iterdir()):
            self.check(path.read_text())

    def test_bench_corpora(self, bench_corpora):
        pddl = sorted(bench_corpora.rglob("*.pddl"))
        plans = sorted(bench_corpora.rglob("target_plan.txt"))
        assert len(pddl) == 3 * len(plans) > 0
        for path in pddl:
            self.check(path.read_text())
        for path in plans:
            for line in path.read_text().splitlines():
                self.check(line)

    def test_random_strings(self):
        """Strings over the characters the reader treats specially, the
        whitespace it does not (\\x0b, \\xa0) and letters whose lowercase
        depends on context (final sigma) or has two characters (dotted I)."""
        alphabet = "()();-? \t\r\n\x0b\xa0İΣaBz"
        rng = random.Random(0)
        trees = 0
        for _ in range(20_000):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
            trees += not isinstance(self.check(text), tuple)
        # both outcomes are exercised
        assert 1_000 < trees < 19_000


class TestRendering:
    @pytest.mark.parametrize(
        "domain_name,problem_name",
        [
            ("d1_domain.pddl", "d1_problem.pddl"),
            ("d3_domain.pddl", "d3_problem.pddl"),
            ("d4_domain.pddl", "d4_problem.pddl"),
        ],
    )
    def test_golden_render(self, domain_name, problem_name):
        model = load_model(domain_name, problem_name)
        assert render_domain(model.domain) == (GOLDEN / domain_name).read_text()
        assert render_problem(model.problem) == (GOLDEN / problem_name).read_text()

    def test_golden_plan_render(self):
        steps = parse_plan_text(fixture_text("d4_plan.txt"))
        assert render_plan(steps) == (GOLDEN / "d4_plan.txt").read_text()

    @pytest.mark.parametrize(
        "domain_name,problem_name",
        [
            ("d1_domain.pddl", "d1_problem.pddl"),
            ("d3_domain.pddl", "d3_problem.pddl"),
            ("d4_domain.pddl", "d4_problem.pddl"),
        ],
    )
    def test_round_trip_fixed_point(self, domain_name, problem_name):
        model = load_model(domain_name, problem_name)
        dom2 = parse_domain(render_domain(model.domain))
        prob2 = parse_problem(render_problem(model.problem), dom2)
        assert dom2 == model.domain
        assert prob2 == model.problem
        assert render_domain(dom2) == render_domain(model.domain)
        assert render_problem(prob2) == render_problem(model.problem)

    def test_init_rendered_sorted(self, t2):
        text = render_problem(t2.problem)
        init_block = text[text.index("(:init") : text.index("(:goal")]
        lines = [ln.strip() for ln in init_block.splitlines()[1:] if ln.strip().startswith("(")]
        assert lines == sorted(lines)


class TestGrounding:
    def test_travel_action_count(self, travel_model):
        # 2 schemas x 14 cities x 14 cities
        gt = ground_task(travel_model)
        names = {"use_taxi", "use_bus"}
        assert all(a.name in names for a in gt.actions)
        assert len(gt.actions) == 2 * 14 * 14

    def test_ground_atom_universe_count(self, t2):
        # at: 3, neighboring/has_taxi/has_bus: 9 each
        atoms = enumerate_ground_atoms(t2)
        assert len(atoms) == 3 + 3 * 9

    def test_ground_atom_subset_by_predicate(self, t2):
        atoms = enumerate_ground_atoms(t2, predicates=["at"])
        assert sorted(atoms) == [
            GroundAtom("at", ("a",)),
            GroundAtom("at", ("b",)),
            GroundAtom("at", ("c",)),
        ]

    def test_actions_deterministically_ordered(self, travel_model):
        gt = ground_task(travel_model)
        keys = [(a.name, a.args) for a in gt.actions]
        assert keys == sorted(keys)

    def test_typing_restricts_grounding(self, barman_model):
        gt = ground_task(barman_model)
        for act in gt.actions:
            if act.name == "shake":
                # ?s parameter is shaker-typed
                assert act.args[3].startswith("shaker")

    def test_grounding_cap_enforced(self, travel_model):
        with pytest.raises(GroundingBlowup):
            ground_task(travel_model, cap=10)

    def test_effects_reference_atom_indices(self, t2):
        gt = ground_task(t2)
        n = len(gt.atoms)
        for act in gt.actions:
            assert act.pre | act.add | act.dele < 1 << n


def reference_ground_task(model, cap=DEFAULT_GROUNDING_CAP):
    """Reference for `ground_task`: resolves every lifted atom of every
    binding through a fresh binding dict, with no per-schema compilation."""
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
    actions = []
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

            def inst(lifted):
                out = 0
                for atom in lifted:
                    args = []
                    for a, want in zip(atom.args, domain.predicates[atom.predicate]):
                        if a.startswith("?"):
                            args.append(binding[a])
                        elif a not in problem.objects:
                            raise UnknownObject(f"constant '{a}' in action '{schema.name}'")
                        elif not domain.is_subtype(problem.objects[a], want):
                            raise TypeMismatch(f"constant '{a}' in action '{schema.name}'")
                        else:
                            args.append(a)
                    out |= 1 << atom_index[GroundAtom(atom.predicate, tuple(args))]
                return out

            actions.append(GroundAction(
                schema.name, combo, pre=inst(schema.preconditions),
                add=inst(schema.add_effects), dele=inst(schema.del_effects),
            ))
    actions.sort(key=lambda a: (a.name, a.args))
    return GroundTask(
        atoms=tuple(atoms),
        atom_index=atom_index,
        actions=tuple(actions),
        init=_mask(atom_index[a] for a in problem.init),
        goal=_mask(atom_index[a] for a in problem.goal),
    )


# a constant in action atoms, a subtype-typed parameter, and a schema with a
# constant no problem names behind an empty parameter pool
DEPOT = """(define (domain depot) (:requirements :strips :typing)
  (:types vehicle crate - object truck - vehicle drone - vehicle)
  (:predicates (at ?v - vehicle ?c - crate) (home ?c - crate) (fuelled ?d - drone))
  (:action fetch :parameters (?t - truck ?c - crate)
    :precondition (and (home ?c) (home depot))
    :effect (and (at ?t ?c) (not (home ?c))))
  (:action park :parameters (?v - vehicle)
    :precondition (home depot) :effect (at ?v depot))
  (:action hover :parameters (?d - drone)
    :precondition (fuelled ?d) :effect (at ?d nowhere)))"""


def depot_model(objects="t1 t2 t3 - truck depot c1 - crate", init="(home c1) (home depot)"):
    domain = parse_domain(DEPOT)
    problem = parse_problem(
        f"(define (problem p) (:domain depot) (:objects {objects}) (:init {init})"
        " (:goal (at t1 c1)))",
        domain,
    )
    return Model(domain, problem)


class TestGroundingReference:
    """`ground_task` against `reference_ground_task`: equal `GroundTask`s,
    field for field, and the same errors."""

    def test_fixtures(self, travel_model, travel_exec_model, barman_model, cleaning_model, t2):
        for model in (travel_model, travel_exec_model, barman_model, cleaning_model, t2):
            assert ground_task(model) == reference_ground_task(model)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bench_corpora(self, kind, seed):
        """Twelve instances of `kind` at the oracle benchmark's size, drawn
        as its workload `seed` draws them."""
        for inst in generate_corpus([kind], 12, seed=seed * 1000, **SIZES[kind]):
            for model in (inst.solvable, inst.perturbed):
                assert ground_task(model) == reference_ground_task(model)

    def test_novel_corpus(self):
        for inst in generate_corpus(NOVEL_KINDS, 10, seed=0):
            for model in (inst.solvable, inst.perturbed):
                assert ground_task(model) == reference_ground_task(model)

    def test_constants_and_subtypes(self):
        """`depot` (a crate) resolves to itself in `fetch` and `park`, and
        `park`'s vehicle parameter ranges over the trucks; `hover`'s
        unknown constant raises nothing, as no drone binds it."""
        model = depot_model()
        gt = ground_task(model)
        assert gt == reference_ground_task(model)
        assert [(a.name, a.args) for a in gt.actions] == [
            ("fetch", ("t1", "c1")), ("fetch", ("t1", "depot")),
            ("fetch", ("t2", "c1")), ("fetch", ("t2", "depot")),
            ("fetch", ("t3", "c1")), ("fetch", ("t3", "depot")),
            ("park", ("t1",)), ("park", ("t2",)), ("park", ("t3",)),
        ]
        park = gt.actions[6]
        assert park.pre == 1 << gt.atom_index[GroundAtom("home", ("depot",))]
        assert park.add == 1 << gt.atom_index[GroundAtom("at", ("t1", "depot"))]

    def test_unknown_constant_of_a_bound_schema(self):
        model = depot_model(objects="t1 - truck d1 - drone depot c1 - crate")
        for ground in (ground_task, reference_ground_task):
            with pytest.raises(UnknownObject, match="constant 'nowhere' in action 'hover'"):
                ground(model)

    def test_ill_typed_constant_of_a_bound_schema(self):
        """`depot` declared a truck fills `home`'s crate place in `fetch`."""
        model = depot_model(objects="t1 depot - truck c1 - crate", init="(home c1)")
        with pytest.raises(TypeMismatch, match=re.escape(
            "atom (home depot) in action 'fetch': constant 'depot' has type"
            " 'truck', expected 'crate'"
        )):
            ground_task(model)
        with pytest.raises(TypeMismatch, match="constant 'depot' in action 'fetch'"):
            reference_ground_task(model)

    @pytest.mark.parametrize("cap, blowup", [
        (7, "ground atom universe exceeds cap of 7"),
        (8, "ground action universe exceeds cap of 8"),
        (9, None),
    ])
    def test_cap_checks(self, cap, blowup):
        """`depot_model` has 8 ground atoms (6 at, 2 home, no fuelled)
        and 9 ground actions (6 fetch, 3 park)."""
        model = depot_model()
        for ground in (ground_task, reference_ground_task):
            if blowup is None:
                assert len(ground(model, cap=cap).actions) == 9
            else:
                with pytest.raises(GroundingBlowup, match=blowup):
                    ground(model, cap=cap)


class TestModelOps:
    def test_with_init_replaces_only_init(self, t2):
        new_init = frozenset({GroundAtom("at", ("b",))})
        m2 = t2.with_init(new_init)
        assert m2.problem.init == new_init
        assert m2.problem.goal == t2.problem.goal
        assert m2.domain is t2.domain
        assert t2.problem.init != new_init

    def test_model_equality_is_structural(self, t2):
        other = Model(t2.domain, t2.problem)
        assert other == t2
        assert other != t2.with_init(frozenset())
