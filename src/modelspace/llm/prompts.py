"""Prompt templates for the three integration configurations.

Each template has fixed text around {domain}/{problem}/{plan}/{options}
substitution slots; rendered prompts are byte-exact to the template outside
those slots.
"""
from __future__ import annotations

from ..edits import format_edit_set
from ..pddl import Model, render_domain, render_plan, render_problem
from ..pddl.errors import PddlError
from ..planner import Plan

LLM_ONLY_UNSOLVABILITY = "llm_only_unsolvability"
LLM_ONLY_EXECUTABILITY = "llm_only_executability"
POST_PROCESSOR_UNSOLVABILITY = "post_processor_unsolvability"
POST_PROCESSOR_EXECUTABILITY = "post_processor_executability"
PRE_PROCESSOR_UNSOLVABILITY = "pre_processor_unsolvability"
PRE_PROCESSOR_EXECUTABILITY = "pre_processor_executability"
VERBOSE_VARIANT = "verbose_variant"

ALL_KINDS = (
    LLM_ONLY_UNSOLVABILITY,
    LLM_ONLY_EXECUTABILITY,
    POST_PROCESSOR_UNSOLVABILITY,
    POST_PROCESSOR_EXECUTABILITY,
    PRE_PROCESSOR_UNSOLVABILITY,
    PRE_PROCESSOR_EXECUTABILITY,
    VERBOSE_VARIANT,
)


class MissingExtras(PddlError):
    """The prompt kind needs an options list or a target plan."""


_TEMPLATES = {
    LLM_ONLY_UNSOLVABILITY: (
        "given the following problem and domain files:{domain},{problem}"
        "Come up with most reasonable set of additions that you can make to the "
        "initial state that will make it solvable. I want you to only list the "
        "predicates to be added to the initial states without any explanation "
        "or additional sentences in the beginning."
    ),
    LLM_ONLY_EXECUTABILITY: (
        "given the following problem and domain and plan files:{domain},"
        "{problem},{plan},Come up with most reasonable set of additions and "
        "deletes that you can make to the initial state to make the plan "
        "executable.I want you to list two sets of predicates 1) predicates to "
        "be added to the initial states 2) predicates to be removed from the "
        "initial states. Give me the predicates without any explanation or "
        "additional sentences in the beginning."
    ),
    POST_PROCESSOR_UNSOLVABILITY: (
        "Given the following problem, domain files, and options list:\n"
        "- Problem: {problem}\n"
        "- Domain: {domain}\n"
        "- Options: {options}\n"
        "Pick the most reasonable option from the list that you can apply to "
        "the initial state to make the problem solvable. Only provide the "
        "number of the option selected and no other information (exclude even "
        "the term option)."
    ),
    POST_PROCESSOR_EXECUTABILITY: (
        "Given the following problem, domain files, and options list:\n"
        "- Problem: {problem}\n"
        "- Domain: {domain}\n"
        "- Options: {options}\n"
        "Pick the most reasonable option from the list that you can apply to "
        "the initial state to make the following plan executable.\n"
        "- Plan: {plan}\n"
        "Only provide the number of the option selected and no other "
        "information (exclude even the term option)."
    ),
    PRE_PROCESSOR_UNSOLVABILITY: (
        "Given the following problem and domain file: Problem:{problem} "
        "Domain:\n{domain}\n"
        "Come up with a list of twenty predicates that are currently missing "
        "from the initial state. Order the predicates in such a way that the "
        "predicates in the top correspond to changes that are most reasonable "
        "to make (the predicate will added to the existing initial state). "
        "Only list the initial state predicate, one predicate in a line, and "
        "provide no other information. Do not include any number in the list "
        "and do not include any text before the list."
    ),
    PRE_PROCESSOR_EXECUTABILITY: (
        "Given the following problem, domain, and plan file: "
        "Problem: {problem} Domain: {domain} Plan: {plan} "
        "Come up with a list of twenty predicates that are currently missing "
        "from the initial state to make the plan executable. Order the "
        "predicates in such a way that the predicates in the top correspond "
        "to changes that are most reasonable to make (the predicate will "
        "added to the existing initial state). Only list the initial state "
        "predicate, one predicate in a line, and provide no other "
        "information. Do not include any number in the list and do not "
        "include any text before the list."
    ),
}

# More explicit phrasing variant of the unsolvability query; empirically it
# performed slightly worse, kept for completeness.
_TEMPLATES[VERBOSE_VARIANT] = (
    _TEMPLATES[LLM_ONLY_UNSOLVABILITY]
    + " Select the set of changes that would be the easiest to realize in the "
    "real world."
)


def template_for(kind: str) -> str:
    return _TEMPLATES[kind]


def format_options(option_sets) -> str:
    """One 'Option i: <edit set>' line per candidate, 1-based."""
    lines = [
        f"Option {i}: {format_edit_set(edits)}"
        for i, edits in enumerate(option_sets, start=1)
    ]
    return "\n".join(lines)


def render_prompt(kind: str, model: Model, options=None, plan: Plan | None = None) -> str:
    if kind not in _TEMPLATES:
        raise ValueError(f"unknown prompt kind '{kind}'")
    needs_plan = kind in (
        LLM_ONLY_EXECUTABILITY,
        POST_PROCESSOR_EXECUTABILITY,
        PRE_PROCESSOR_EXECUTABILITY,
    )
    needs_options = kind in (POST_PROCESSOR_UNSOLVABILITY, POST_PROCESSOR_EXECUTABILITY)
    if needs_plan and plan is None:
        raise MissingExtras(f"prompt kind '{kind}' requires a target plan")
    if needs_options and options is None:
        raise MissingExtras(f"prompt kind '{kind}' requires an options list")

    slots = {
        "domain": render_domain(model.domain),
        "problem": render_problem(model.problem),
    }
    if needs_plan:
        slots["plan"] = render_plan(plan.steps)
    if needs_options:
        slots["options"] = format_options(options)
    return _TEMPLATES[kind].format(**slots)
