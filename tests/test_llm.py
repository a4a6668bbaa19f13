"""Prompt rendering, client arithmetic, mock providers, response parsing."""

import random
import string

import pytest

from conftest import fixture_text, load_plan
from modelspace.edits import ADD_INIT, RANK_CAP, REMOVE_INIT, ModelEdit
from modelspace.llm import (
    ALL_KINDS,
    DirectoryMockProvider,
    FunctionProvider,
    LLM_ONLY_EXECUTABILITY,
    LLM_ONLY_UNSOLVABILITY,
    MissingExtras,
    NoNumberFound,
    OutOfRange,
    POST_PROCESSOR_UNSOLVABILITY,
    PRE_PROCESSOR_UNSOLVABILITY,
    ProviderConfig,
    ProviderError,
    UnparseableResponse,
    check_context_fit,
    estimate_tokens,
    format_options,
    parse_edit_response,
    parse_option_choice,
    parse_ranked_list,
    prompt_key,
    render_prompt,
    template_for,
)
from modelspace.pddl import GroundAtom, PddlError


class TestPrompts:
    def test_all_kinds_have_templates(self):
        for kind in ALL_KINDS:
            assert template_for(kind)

    def test_rendered_prompt_matches_template_outside_slots(self, t2):
        """The text around the substituted slots is byte-exact."""
        template = template_for(LLM_ONLY_UNSOLVABILITY)
        prompt = render_prompt(LLM_ONLY_UNSOLVABILITY, t2)
        head = template.split("{domain}")[0]
        tail = template.rsplit("{problem}", 1)[1]
        assert prompt.startswith(head)
        assert prompt.endswith(tail)
        assert "(define (domain domaingotocity)" in prompt
        assert "(define (problem t2)" in prompt
        assert "{" not in prompt and "}" not in prompt

    def test_plan_slot_rendered(self, travel_exec_model):
        prompt = render_prompt(
            LLM_ONLY_EXECUTABILITY, travel_exec_model, plan=load_plan("d5_plan.txt")
        )
        assert "(use_taxi city_c city_e)" in prompt

    def test_missing_plan_rejected(self, travel_exec_model):
        with pytest.raises(MissingExtras):
            render_prompt(LLM_ONLY_EXECUTABILITY, travel_exec_model)

    def test_missing_options_rejected(self, t2):
        with pytest.raises(MissingExtras):
            render_prompt(POST_PROCESSOR_UNSOLVABILITY, t2)

    def test_options_formatting(self):
        sets = [
            {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))},
            {
                ModelEdit(ADD_INIT, GroundAtom("at", ("c",))),
                ModelEdit(REMOVE_INIT, GroundAtom("at", ("a",))),
            },
        ]
        text = format_options(sets)
        assert text.splitlines() == [
            "Option 1: (+ (has_bus b c))",
            "Option 2: (+ (at c)) (- (at a))",
        ]

    def test_options_embedded_in_prompt(self, t2):
        sets = [{ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}]
        prompt = render_prompt(POST_PROCESSOR_UNSOLVABILITY, t2, options=sets)
        assert "Option 1: (+ (has_bus b c))" in prompt

    def test_unknown_kind_rejected(self, t2):
        with pytest.raises(ValueError):
            render_prompt("nonsense", t2)

    def test_rendering_is_deterministic(self, t2):
        a = render_prompt(PRE_PROCESSOR_UNSOLVABILITY, t2)
        b = render_prompt(PRE_PROCESSOR_UNSOLVABILITY, t2)
        assert a == b


class TestClient:
    def test_token_estimate_is_ceiling(self):
        assert estimate_tokens("") == 0
        assert estimate_tokens("ab") == 1
        assert estimate_tokens("abc") == 1
        assert estimate_tokens("abcd") == 2

    def test_context_fit_boundary(self):
        cfg = ProviderConfig(context_limit=4096)
        # 30,000 chars -> 10,000 tokens + 512 reserve > 4096
        est, fits = check_context_fit(cfg, "x" * 30_000)
        assert est == 10_000 and not fits
        # 9,000 chars -> 3,000 tokens + 512 <= 8192
        est, fits = check_context_fit(ProviderConfig(context_limit=8192), "x" * 9_000)
        assert est == 3_000 and fits

    def test_exact_boundary_inclusive(self):
        cfg = ProviderConfig(context_limit=1000, reply_reserve=500)
        assert check_context_fit(cfg, "x" * 1500)[1]  # 500 + 500 == 1000
        assert not check_context_fit(cfg, "x" * 1501)[1]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ProviderConfig(context_limit=0)
        with pytest.raises(ValueError):
            ProviderConfig(max_retries=-1)

    def test_directory_mock_round_trip(self, tmp_path):
        DirectoryMockProvider.store(tmp_path, "hello", "world")
        provider = DirectoryMockProvider(tmp_path)
        assert provider.complete("hello").text == "world"
        assert provider.complete("hello").text == "world"  # deterministic

    def test_directory_mock_missing_prompt(self, tmp_path):
        with pytest.raises(ProviderError):
            DirectoryMockProvider(tmp_path).complete("never stored")

    def test_prompt_key_is_sha256(self):
        assert prompt_key("hello") == (
            "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
        )

    def test_function_provider(self):
        provider = FunctionProvider(lambda p: p.upper(), name="upper")
        assert provider.complete("abc").text == "ABC"
        assert provider.name == "upper"


class TestEditResponseParsing:
    def test_full_init_block_diff(self, travel_model):
        parsed = parse_edit_response(fixture_text("d1_output.txt"), travel_model)
        assert parsed.edits == frozenset(
            {
                ModelEdit(ADD_INIT, GroundAtom("at", ("city_o",))),
                ModelEdit(ADD_INIT, GroundAtom("at", ("city_x",))),
            }
        )

    def test_identical_init_yields_empty_edit_set(self, t2):
        atoms = " ".join(
            f"({a.predicate} {' '.join(a.args)})" for a in sorted(t2.problem.init)
        )
        parsed = parse_edit_response(f"(:init {atoms})", t2)
        assert parsed.edits == frozenset()

    def test_full_init_detects_removals(self, t2):
        kept = sorted(t2.problem.init)[1:]
        atoms = " ".join(f"({a.predicate} {' '.join(a.args)})" for a in kept)
        parsed = parse_edit_response(f"(:init {atoms})", t2)
        removed = sorted(t2.problem.init)[0]
        assert parsed.edits == frozenset({ModelEdit(REMOVE_INIT, removed)})

    def test_add_remove_lists(self, cleaning_model):
        parsed = parse_edit_response(fixture_text("d4_output.txt"), cleaning_model)
        adds = {e.atom for e in parsed.edits if e.kind == ADD_INIT}
        removes = {e.atom for e in parsed.edits if e.kind == REMOVE_INIT}
        assert adds == {
            GroundAtom("path_is_clear", ("cell_0_0", "cell_1_0")),
            GroundAtom("path_is_clear", ("cell_1_0", "cell_1_1")),
        }
        assert removes == {
            GroundAtom("chair_blocking_path_between", ("cell_0_0", "cell_1_0")),
            GroundAtom("chair_blocking_path_between", ("cell_1_0", "cell_1_1")),
        }

    def test_add_only_plain_list(self, t2):
        parsed = parse_edit_response("(has_bus b c)\n(has_taxi b c)\n", t2)
        assert all(e.kind == ADD_INIT for e in parsed.edits)
        assert len(parsed.edits) == 2

    def test_semantic_junk_kept_for_later_judging(self, t2):
        parsed = parse_edit_response("(warp_drive b c)", t2)
        assert parsed.edits == frozenset(
            {ModelEdit(ADD_INIT, GroundAtom("warp_drive", ("b", "c")))}
        )

    def test_prose_only_is_unparseable(self, t2):
        with pytest.raises(UnparseableResponse):
            parse_edit_response("I cannot help with that request.", t2)

    def test_fuzzed_corruptions_never_crash(self, t2):
        """Random mutations of a valid response either parse or raise a typed
        error; they never escape as an unrelated exception."""
        base = fixture_text("d1_output.txt")
        rng = random.Random(42)
        alphabet = string.printable
        for _ in range(20):
            text = list(base)
            for _ in range(rng.randint(1, 40)):
                op = rng.randrange(3)
                pos = rng.randrange(len(text))
                if op == 0:
                    text[pos] = rng.choice(alphabet)
                elif op == 1:
                    del text[pos]
                else:
                    text.insert(pos, rng.choice(alphabet))
            corrupted = "".join(text)
            try:
                parsed = parse_edit_response(corrupted, t2)
                assert isinstance(parsed.edits, frozenset)
            except PddlError:
                pass


class TestOptionChoiceParsing:
    def test_bare_number(self):
        assert parse_option_choice("4", 10) == 4

    def test_number_with_noise(self):
        assert parse_option_choice("Option 3.", 5) == 3
        assert parse_option_choice("\n 2 \n", 5) == 2

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            parse_option_choice("Option 21.", 20)
        with pytest.raises(OutOfRange):
            parse_option_choice("0", 5)

    def test_no_number(self):
        with pytest.raises(NoNumberFound):
            parse_option_choice("the first one looks right", 5)


class TestRankedListParsing:
    def test_barman_ranked_list(self, barman_model):
        edits, diagnostics = parse_ranked_list(fixture_text("d3_output.txt"), barman_model)
        assert edits[0] == ModelEdit(ADD_INIT, GroundAtom("empty", ("shaker_a",)))
        assert len(edits) <= 20
        atoms = [e.atom for e in edits]
        assert len(atoms) == len(set(atoms))
        for e in edits:
            assert e.atom not in barman_model.problem.init

    def test_all_atoms_unusable_raises(self, barman_model):
        # every line names undeclared objects or repeats the init
        with pytest.raises(UnparseableResponse):
            parse_ranked_list(fixture_text("d6_output.txt"), barman_model)

    def test_undeclared_objects_skipped_with_diagnostics(self, barman_model):
        text = "(empty shaker_b)\n(clean shot_a)\n(contains shot_a cocktail_b)"
        edits, diagnostics = parse_ranked_list(text, barman_model)
        assert [e.atom for e in edits] == [GroundAtom("clean", ("shot_a",))]
        assert sum("malformed" in d for d in diagnostics) == 2

    def test_duplicates_skipped(self, t2):
        edits, diagnostics = parse_ranked_list("(has_bus b c)\n(has_bus b c)", t2)
        assert len(edits) == 1
        assert any("duplicate" in d for d in diagnostics)

    def test_init_members_skipped(self, t2):
        edits, diagnostics = parse_ranked_list("(at a)\n(has_bus b c)", t2)
        assert [e.atom for e in edits] == [GroundAtom("has_bus", ("b", "c"))]
        assert any("already in init" in d for d in diagnostics)

    def test_order_preserved(self, t2):
        text = "(has_bus b c)\n(at c)\n(has_taxi b a)"
        edits, _ = parse_ranked_list(text, t2)
        assert [e.atom.predicate for e in edits] == ["has_bus", "at", "has_taxi"]

    def test_nothing_usable_raises(self, t2):
        with pytest.raises(UnparseableResponse):
            parse_ranked_list("(at a)", t2)  # sole atom already in init

    def test_list_capped_at_rank_cap(self, travel_model):
        cities = sorted(travel_model.problem.objects)
        atoms = [
            GroundAtom("has_bus", (x, y)) for x in cities for y in cities
            if GroundAtom("has_bus", (x, y)) not in travel_model.problem.init
        ][:RANK_CAP + 5]
        text = "\n".join(f"({a.predicate} {' '.join(a.args)})" for a in atoms)
        edits, diagnostics = parse_ranked_list(text, travel_model)
        assert (len(edits), len(diagnostics)) == (RANK_CAP, 5)
        assert [e.atom for e in edits] == atoms[:RANK_CAP]
        assert diagnostics == [f"over cap of {RANK_CAP}: {a}" for a in atoms[RANK_CAP:]]
