"""Batch execution of pipelines over benchmark instances, producing JSONL
outcome records."""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .benchgen import domains
from .benchgen.io import atomic_write
from .benchgen.perturb import BenchInstance
from .edits import (
    EXECUTABILITY,
    RepairTask,
    build_edit_space,
    edit_from_json,
    edit_to_json,
)
from .evalharness import judge_preferred
from .pipelines import POST_PROCESSOR, run_pipeline
from .planner import Budget

RECORD_SCHEMA = 1

# Per-domain candidate-edit predicates for the combinatorial stages. Each
# keeps the search small while still containing sound repairs (the family
# predicates plus, where needed, direct goal facts). The spaces hold
# additions only, the one edit kind the search uses.
_SPACE_PREDICATES = {
    domains.TRAVEL: {"has_taxi", "has_bus", "at"},
    domains.ROOMBA: {"is_clean", "path_is_clear"},
    domains.BARMAN_SIMPLE: {"clean", "empty"},
    domains.LOGISTICS_SIMPLE: {"ready"},
    domains.LOGISTICS: {"at_truck", "at_airplane"},
}


def default_edit_space(domain_kind: str, model):
    return build_edit_space(model, predicates=_SPACE_PREDICATES.get(domain_kind))


def task_for(inst: BenchInstance, use_case: str) -> RepairTask:
    plan = inst.target_plan if use_case == EXECUTABILITY else None
    return RepairTask(inst.perturbed, use_case, plan)


def run_instance(
    inst: BenchInstance,
    pipeline: str,
    use_case: str,
    provider,
    cfg,
    budget: Budget | None = None,
) -> dict:
    task = task_for(inst, use_case)
    kwargs = {"instance_id": inst.id, "budget": budget}
    if pipeline == POST_PROCESSOR:
        kwargs["space"] = default_edit_space(inst.domain_kind, inst.perturbed)
    outcome = run_pipeline(pipeline, task, provider, cfg, **kwargs)
    preferred = bool(
        outcome.sound
        and outcome.edits
        and judge_preferred(outcome.edits, inst.family, inst.perturbed)
    )
    return {
        "schema": RECORD_SCHEMA,
        "instance_id": inst.id,
        "domain": inst.domain_kind,
        "pipeline": pipeline,
        "use_case": use_case,
        "provider": outcome.provider,
        "edits": None if outcome.edits is None else [edit_to_json(e) for e in sorted(outcome.edits)],
        "sound": outcome.sound,
        "indeterminate": outcome.indeterminate,
        "preferred": preferred,
        "failure": outcome.failure,
        "edit_size": inst.k,
        "plan_size": len(inst.target_plan.steps) if inst.target_plan else 0,
        "timings": dict(outcome.timings),
    }


def run_bench(
    instances,
    pipelines,
    use_cases,
    provider_factory,
    cfg,
    budget: Budget | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Cross product of instances x pipelines x use cases; record order is
    deterministic regardless of worker count."""
    work = [
        (inst, pipeline, use_case)
        for inst in instances
        for use_case in use_cases
        for pipeline in pipelines
    ]

    def one(item):
        inst, pipeline, use_case = item
        return run_instance(inst, pipeline, use_case, provider_factory(inst), cfg, budget)

    if jobs <= 1:
        return [one(item) for item in work]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(one, work))


def write_records_jsonl(records, path: str | Path) -> None:
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    atomic_write(Path(path), text)


def read_records_jsonl(path: str | Path) -> list[dict]:
    """The records of a JSONL file, one per non-blank line; a line that is
    not JSON raises ValueError naming the file and the line."""
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc.msg}") from None
        out.append(record)
    return out


def record_edits(record: dict):
    if record.get("edits") is None:
        return None
    return frozenset(edit_from_json(e) for e in record["edits"])
