"""Judging and aggregation: preferred verdicts per outcome (soundness is
decided once, by `repair.judge`, inside each pipeline), per-domain
per-pipeline tallies, and the bar-chart CSV breakdown."""
from __future__ import annotations

import csv
import io

PIPELINE_ORDER = ("llm_only", "post_processor", "pre_processor")


class SchemaError(Exception):
    pass


class UnknownInstance(Exception):
    pass


def judge_preferred(edits, family, model, repair_needed: bool = True) -> bool:
    """True iff every edit belongs to the family; the empty set counts only
    when no repair was needed in the first place."""
    if not edits:
        return not repair_needed
    return family.is_member_set(edits, model)


_REQUIRED_KEYS = (
    "instance_id", "domain", "pipeline", "use_case", "sound", "preferred", "failure",
)


def _check_record(record: dict) -> None:
    for key in _REQUIRED_KEYS:
        if key not in record:
            raise SchemaError(f"record missing '{key}': {record}")


def _new_cell() -> dict:
    return {"attempted": 0, "sound": 0, "preferred": 0, "indeterminate": 0, "failures": {}}


def _finish_cell(cell: dict) -> dict:
    cell["sound_str"] = f"{cell['sound']}/{cell['attempted']}"
    cell["preferred_str"] = f"{cell['preferred']}/{cell['sound']}"
    cell["failures"] = dict(sorted(cell["failures"].items()))
    return cell


def _fold(cell: dict, record: dict) -> None:
    cell["attempted"] += 1
    if record["sound"]:
        cell["sound"] += 1
        if record["preferred"]:
            cell["preferred"] += 1
    if record.get("indeterminate"):
        cell["indeterminate"] += 1
    if record["failure"]:
        cell["failures"][record["failure"]] = cell["failures"].get(record["failure"], 0) + 1


def aggregate(records, metadata: dict | None = None) -> dict:
    """Pure fold over outcome records into per (use case, domain, pipeline)
    tallies plus an Overall row; independent of record order."""
    cells: dict = {}
    overall: dict = {}
    for record in records:
        _check_record(record)
        uc, dom, pipe = record["use_case"], record["domain"], record["pipeline"]
        cell = cells.setdefault(uc, {}).setdefault(dom, {}).setdefault(pipe, _new_cell())
        _fold(cell, record)
        _fold(overall.setdefault(uc, {}).setdefault(pipe, _new_cell()), record)

    report: dict = {"schema": 1, "use_cases": {}, "metadata": metadata or {}}
    for uc in sorted(cells):
        report["use_cases"][uc] = {
            "domains": {
                dom: {pipe: _finish_cell(cell) for pipe, cell in sorted(pipes.items())}
                for dom, pipes in sorted(cells[uc].items())
            },
            "overall": {pipe: _finish_cell(cell) for pipe, cell in sorted(overall[uc].items())},
        }
    return report


def render_report_md(report: dict) -> str:
    """Markdown tables, one per use case: domains x pipelines with
    Sound x/y and Preferred x/y columns."""
    lines = ["# Repair pipeline results", ""]
    for uc, data in report["use_cases"].items():
        pipelines = [p for p in PIPELINE_ORDER if p in data["overall"]]
        pipelines += [p for p in sorted(data["overall"]) if p not in pipelines]
        lines.append(f"## {uc.capitalize()}")
        lines.append("")
        header = ["Domain"]
        for pipe in pipelines:
            header += [f"{pipe} Sound", f"{pipe} Preferred"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        rows = list(data["domains"].items()) + [("Overall", data["overall"])]
        for name, pipes in rows:
            row = [name]
            for pipe in pipelines:
                cell = pipes.get(pipe)
                row += (
                    [cell["sound_str"], cell["preferred_str"]] if cell else ["-", "-"]
                )
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    return "\n".join(lines)


def emit_fig_data(records, index: dict | None = None) -> str:
    """CSV of per-record soundness bars: +1 sound, -1 otherwise. `index` maps
    instance_id -> {edit_size, plan_size} for records lacking those fields."""
    rows = []
    for record in records:
        _check_record(record)
        edit_size = record.get("edit_size")
        plan_size = record.get("plan_size")
        if edit_size is None or plan_size is None:
            info = (index or {}).get(record["instance_id"])
            if info is None:
                raise UnknownInstance(record["instance_id"])
            edit_size = info["edit_size"]
            plan_size = info["plan_size"]
        rows.append((
            record["domain"], edit_size, record["instance_id"], record["pipeline"],
            plan_size, 1 if record["sound"] else -1,
        ))
    rows.sort()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["instance_id", "domain", "pipeline", "edit_size", "plan_size", "value"])
    for dom, edit_size, iid, pipe, plan_size, value in rows:
        writer.writerow([iid, dom, pipe, edit_size, plan_size, value])
    return buf.getvalue()
