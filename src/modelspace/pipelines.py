"""The three evaluated LLM integration configurations.

Every entry point returns a PipelineOutcome; failures are captured in the
outcome rather than raised. The post- and pre-processor configurations only
ever propose verified-sound edit sets or record a failure; one
`planner.Budget`, by default `repair.ENUM_BUDGET`, bounds their searches.
Searched answers carry the plan that solved them, which `judge` checks in
place of grounding and searching them again.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .edits import UNSOLVABILITY, RepairTask, assign_rank_costs, build_edit_space
from .llm import client as llm_client
from .llm import prompts, responses
from .pddl.errors import PddlError
from .planner import Budget
from .repair import (
    ENUM_BUDGET,
    INDETERMINATE,
    SOUND,
    UNSOUND,
    NoSolution,
    enumerate_solutions,
    judge,
    repair_min_cost,
)

LLM_ONLY = "llm_only"
POST_PROCESSOR = "post_processor"
PRE_PROCESSOR = "pre_processor"
PIPELINE_KINDS = (LLM_ONLY, POST_PROCESSOR, PRE_PROCESSOR)

FAIL_CONTEXT_OVERFLOW = "context_overflow"
FAIL_UNPARSEABLE = "unparseable_response"
FAIL_PROVIDER = "provider_error"
FAIL_NO_SOLUTION = "no_solution"


@dataclass
class PipelineOutcome:
    instance_id: str
    pipeline: str
    use_case: str
    provider: str = ""
    edits: frozenset | None = None
    sound: bool = False
    indeterminate: bool = False  # the soundness check ran out of budget
    failure: str | None = None  # e.g. "no_solution:budget_exhausted"
    prompt: str = ""
    response: str = ""
    timings: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)


def _ask(outcome: PipelineOutcome, provider, cfg, prompt: str) -> str | None:
    """Context check + provider call; returns the response text or records a
    failure on the outcome and returns None."""
    outcome.prompt = prompt
    _, fits = llm_client.check_context_fit(cfg, prompt)
    if not fits:
        outcome.failure = FAIL_CONTEXT_OVERFLOW
        return None
    t0 = time.monotonic()
    try:
        reply = provider.complete(prompt)
    except llm_client.ContextOverflow:
        outcome.failure = FAIL_CONTEXT_OVERFLOW
        return None
    except llm_client.LlmError as exc:
        outcome.failure = FAIL_PROVIDER
        outcome.diagnostics.append(str(exc))
        return None
    outcome.timings["llm"] = time.monotonic() - t0
    outcome.response = reply.text
    return reply.text


def run_llm_only(
    task: RepairTask,
    provider,
    cfg: llm_client.ProviderConfig,
    instance_id: str = "",
) -> PipelineOutcome:
    """Ask the LLM for the edit set directly, then validate it."""
    outcome = PipelineOutcome(
        instance_id, LLM_ONLY, task.use_case, getattr(provider, "name", "")
    )
    kind = (
        prompts.LLM_ONLY_UNSOLVABILITY
        if task.use_case == UNSOLVABILITY
        else prompts.LLM_ONLY_EXECUTABILITY
    )
    text = _ask(outcome, provider, cfg, prompts.render_prompt(kind, task.base, plan=task.target_plan))
    if text is None:
        return outcome
    try:
        parsed = responses.parse_edit_response(text, task.base)
    except responses.UnparseableResponse as exc:
        outcome.failure = FAIL_UNPARSEABLE
        outcome.diagnostics.append(str(exc))
        return outcome
    outcome.edits = parsed.edits
    outcome.diagnostics.extend(parsed.rejected)
    t0 = time.monotonic()
    try:
        verdict = judge(task, parsed.edits)
    except PddlError as exc:
        # inapplicable edits (hallucinated atoms, stale removals): not sound
        verdict = UNSOUND
        outcome.diagnostics.append(str(exc))
    outcome.sound = verdict == SOUND
    outcome.indeterminate = verdict == INDETERMINATE
    outcome.timings["verify"] = time.monotonic() - t0
    return outcome


def run_post_processor(
    task: RepairTask,
    provider,
    cfg: llm_client.ProviderConfig,
    budget: Budget | None = None,
    space=None,
    instance_id: str = "",
) -> PipelineOutcome:
    """Enumerate sound candidates with CS, then let the LLM pick one."""
    outcome = PipelineOutcome(
        instance_id, POST_PROCESSOR, task.use_case, getattr(provider, "name", "")
    )
    if space is None:
        space = build_edit_space(task.base)
    t0 = time.monotonic()
    options = enumerate_solutions(task, space, budget)
    outcome.timings["search"] = time.monotonic() - t0
    if isinstance(options, NoSolution):
        outcome.failure = f"{FAIL_NO_SOLUTION}:{options.reason}"
        return outcome
    kind = (
        prompts.POST_PROCESSOR_UNSOLVABILITY
        if task.use_case == UNSOLVABILITY
        else prompts.POST_PROCESSOR_EXECUTABILITY
    )
    prompt = prompts.render_prompt(
        kind, task.base, options=[o.edits for o in options], plan=task.target_plan
    )
    text = _ask(outcome, provider, cfg, prompt)
    if text is None:
        return outcome
    try:
        choice = responses.parse_option_choice(text, len(options))
    except (responses.NoNumberFound, responses.OutOfRange) as exc:
        outcome.failure = FAIL_UNPARSEABLE
        outcome.diagnostics.append(str(exc))
        return outcome
    option = options[choice - 1]
    if judge(task, option.edits, witness=option.witness) != SOUND:
        raise AssertionError("enumerated option failed re-verification")
    outcome.edits = option.edits
    outcome.sound = True
    return outcome


def run_pre_processor(
    task: RepairTask,
    provider,
    cfg: llm_client.ProviderConfig,
    budget: Budget | None = None,
    instance_id: str = "",
) -> PipelineOutcome:
    """Ask the LLM for a ranked edit list, then run value-ordered CS."""
    outcome = PipelineOutcome(
        instance_id, PRE_PROCESSOR, task.use_case, getattr(provider, "name", "")
    )
    kind = (
        prompts.PRE_PROCESSOR_UNSOLVABILITY
        if task.use_case == UNSOLVABILITY
        else prompts.PRE_PROCESSOR_EXECUTABILITY
    )
    text = _ask(outcome, provider, cfg, prompts.render_prompt(kind, task.base, plan=task.target_plan))
    if text is None:
        return outcome
    try:
        ranked, diagnostics = responses.parse_ranked_list(text, task.base)
    except responses.UnparseableResponse as exc:
        outcome.failure = FAIL_UNPARSEABLE
        outcome.diagnostics.append(str(exc))
        return outcome
    outcome.diagnostics.extend(diagnostics)
    space = assign_rank_costs(ranked)
    t0 = time.monotonic()
    solution = repair_min_cost(task, space, budget or ENUM_BUDGET)
    outcome.timings["search"] = time.monotonic() - t0
    if isinstance(solution, NoSolution):
        outcome.failure = f"{FAIL_NO_SOLUTION}:{solution.reason}"
        return outcome
    outcome.edits = solution.edits
    outcome.sound = True
    return outcome


def run_pipeline(pipeline: str, task: RepairTask, provider, cfg, **kwargs) -> PipelineOutcome:
    if pipeline == LLM_ONLY:
        kwargs.pop("budget", None)
        kwargs.pop("space", None)
        return run_llm_only(task, provider, cfg, **kwargs)
    if pipeline == POST_PROCESSOR:
        return run_post_processor(task, provider, cfg, **kwargs)
    if pipeline == PRE_PROCESSOR:
        kwargs.pop("space", None)
        return run_pre_processor(task, provider, cfg, **kwargs)
    raise ValueError(f"unknown pipeline '{pipeline}'")
