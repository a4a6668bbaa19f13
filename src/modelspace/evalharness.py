"""Judging and aggregation: preferred verdicts per outcome (soundness is
decided once, by `repair.judge`, inside each pipeline), per-domain
per-pipeline tallies, and the bar-chart CSV breakdown."""
from __future__ import annotations

import csv
import io

PIPELINE_ORDER = ("llm_only", "post_processor", "pre_processor")


class SchemaError(ValueError):
    """A record is not an object or lacks a key the report needs."""


def judge_preferred(edits, family, model) -> bool:
    """True iff the edits are not empty and all belong to the family."""
    return bool(edits) and family.is_member_set(edits, model)


_REQUIRED_KEYS = (
    "instance_id", "domain", "pipeline", "use_case", "sound", "preferred", "failure",
)
_FIG_KEYS = _REQUIRED_KEYS + ("edit_size", "plan_size")


def _check_record(record: dict, keys=_REQUIRED_KEYS) -> None:
    if not isinstance(record, dict):
        raise SchemaError(f"record is not an object: {record!r}")
    for key in keys:
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


def aggregate(records) -> dict:
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

    report: dict = {"schema": 1, "use_cases": {}, "metadata": {}}
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


def emit_fig_data(records) -> str:
    """CSV of per-record soundness bars: +1 sound, -1 otherwise."""
    rows = []
    for record in records:
        _check_record(record, _FIG_KEYS)
        rows.append((
            record["domain"], record["edit_size"], record["instance_id"],
            record["pipeline"], record["plan_size"], 1 if record["sound"] else -1,
        ))
    rows.sort()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["instance_id", "domain", "pipeline", "edit_size", "plan_size", "value"])
    for dom, edit_size, iid, pipe, plan_size, value in rows:
        writer.writerow([iid, dom, pipe, edit_size, plan_size, value])
    return buf.getvalue()
