"""The layers of modelspace the traced run records, the counters read at
each, and the per-layer metrics built from them.

Spans sit around public functions only. The enumeration counters that
``enumerate_solutions`` does not return (search statistics, the exhausted
flag, edits kept by the relevance filter) are read from the return values of
the private ``repair._search`` and ``repair._compile_edit_search``. If those
helpers are renamed or return something else, the counters they feed are
reported absent and the run goes on.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import ExitStack

from tracing import Tracer, patched, patched_method, self_times

# span name -> public functions it covers, as (module, attribute)
SPANS = {
    "benchgen.make_instance": [("modelspace.benchgen.corpus", "make_instance")],
    "benchgen.write_instance": [("modelspace.benchgen.io", "write_instance")],
    "benchgen.read_instance": [("modelspace.benchgen.io", "read_instance")],
    "pddl.parse": [
        ("modelspace.pddl.parser", "parse_domain"),
        ("modelspace.pddl.parser", "parse_problem"),
        ("modelspace.pddl.parser", "parse_plan_text"),
    ],
    "pddl.render": [
        ("modelspace.pddl.render", "render_domain"),
        ("modelspace.pddl.render", "render_problem"),
        ("modelspace.pddl.render", "render_plan"),
    ],
    "pddl.ground": [("modelspace.pddl.ground", "ground_task")],
    "planner.solve": [("modelspace.planner", "solve")],
    "planner.validate_plan": [("modelspace.planner", "validate_plan")],
    "compilation.compile_executability": [
        ("modelspace.compilation", "compile_executability")
    ],
    "repair.enumerate": [("modelspace.repair", "enumerate_solutions")],
    "repair.min_cost": [("modelspace.repair", "repair_min_cost")],
    "repair.verify_repair": [("modelspace.repair", "verify_repair")],
    "llm.render_prompt": [("modelspace.llm.prompts", "render_prompt")],
    "llm.parse": [
        ("modelspace.llm.responses", "parse_edit_response"),
        ("modelspace.llm.responses", "parse_option_choice"),
        ("modelspace.llm.responses", "parse_ranked_list"),
    ],
    "evalharness.judge": [
        ("modelspace.evalharness", "judge_soundness_detailed"),
        ("modelspace.evalharness", "judge_preferred"),
    ],
    "evalharness.report": [
        ("modelspace.evalharness", "aggregate"),
        ("modelspace.evalharness", "render_report_md"),
        ("modelspace.evalharness", "emit_fig_data"),
    ],
    "pipelines.run_pipeline": [("modelspace.pipelines", "run_pipeline")],
    "runner.run_bench": [("modelspace.runner", "run_bench")],
    "runner.run_instance": [("modelspace.runner", "run_instance")],
    "runner.write_records": [("modelspace.runner", "write_records_jsonl")],
}
# oracle answers go through the inherited FunctionProvider.complete
ORACLE_SPAN = "oracle.complete"

# spans measured in the set-up phase; every other span in the timed part
SETUP_SPANS = ("benchgen.make_instance", "benchgen.write_instance")

SEARCH_COUNTERS = (
    "repair.enumerate.expansions",
    "repair.enumerate.generated",
    "repair.enumerate.nodes_per_s",
    "repair.enumerate.complete_rate",
)
KEPT_COUNTERS = ("repair.enumerate.space_kept_mean",)

# every per-layer metric, with its unit, in report order
PER_LAYER = [
    ("repair.enumerate.calls", "count"),
    ("repair.enumerate.self_s", "s"),
    ("repair.enumerate.expansions", "count"),
    ("repair.enumerate.generated", "count"),
    ("repair.enumerate.nodes_per_s", "1/s"),
    ("repair.enumerate.complete_rate", "fraction"),
    ("repair.enumerate.options_mean", "count"),
    ("repair.enumerate.space_in_mean", "count"),
    ("repair.enumerate.space_kept_mean", "count"),
    ("repair.min_cost.calls", "count"),
    ("repair.min_cost.self_s", "s"),
    ("repair.min_cost.expansions", "count"),
    ("repair.min_cost.generated", "count"),
    ("repair.verify_repair.calls", "count"),
    ("repair.verify_repair.self_s", "s"),
    ("planner.solve.calls", "count"),
    ("planner.solve.self_s", "s"),
    ("planner.solve.expansions", "count"),
    ("planner.solve.generated", "count"),
    ("planner.solve.nodes_per_s", "1/s"),
    ("planner.solve.budget_exhausted", "count"),
    ("planner.validate_plan.calls", "count"),
    ("planner.validate_plan.self_s", "s"),
    ("pddl.ground.calls", "count"),
    ("pddl.ground.self_s", "s"),
    ("pddl.ground.atoms_mean", "count"),
    ("pddl.ground.actions_mean", "count"),
    ("pddl.ground.calls_per_record", "count"),
    ("pddl.render.calls", "count"),
    ("pddl.render.self_s", "s"),
    ("pddl.parse.calls", "count"),
    ("pddl.parse.self_s", "s"),
    ("compilation.compile_executability.calls", "count"),
    ("compilation.compile_executability.self_s", "s"),
    ("llm.render_prompt.calls", "count"),
    ("llm.render_prompt.self_s", "s"),
    ("llm.render_prompt.prompt_chars_mean", "chars"),
    ("llm.render_prompt.prompt_tokens_max", "tokens"),
    ("llm.parse.calls", "count"),
    ("llm.parse.self_s", "s"),
    ("llm.parse.failures", "count"),
    ("oracle.complete.calls", "count"),
    ("oracle.complete.self_s", "s"),
    ("evalharness.judge.calls", "count"),
    ("evalharness.judge.self_s", "s"),
    ("evalharness.judge.indeterminate", "count"),
    ("evalharness.report.calls", "count"),
    ("evalharness.report.self_s", "s"),
    ("pipelines.run_pipeline.calls", "count"),
    ("pipelines.run_pipeline.self_s", "s"),
    ("runner.run_bench.calls", "count"),
    ("runner.run_bench.self_s", "s"),
    ("runner.run_instance.calls", "count"),
    ("runner.run_instance.self_s", "s"),
    ("runner.write_records.calls", "count"),
    ("runner.write_records.self_s", "s"),
    ("runner.concurrency", "ratio"),
    ("runner.jobs_speedup", "ratio"),
    ("benchgen.make_instance.calls", "count"),
    ("benchgen.make_instance.self_s", "s"),
    ("benchgen.yield", "fraction"),
    ("benchgen.write_instance.calls", "count"),
    ("benchgen.write_instance.self_s", "s"),
    ("benchgen.read_instance.calls", "count"),
    ("benchgen.read_instance.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
]


def _record_id(args, kwargs) -> str:
    inst, pipeline, use_case = args[:3]
    return f"{inst.id}/{pipeline}/{use_case}"


def _count_ground(t: Tracer, args, kwargs, result) -> None:
    t.add("pddl.ground.atoms", len(result.atoms))
    t.add("pddl.ground.actions", len(result.actions))


def _count_solve(t: Tracer, args, kwargs, result) -> None:
    t.add("planner.solve.expansions", result.stats.expansions)
    t.add("planner.solve.generated", result.stats.generated)
    if result.status == "budget_exhausted":
        t.add("planner.solve.budget_exhausted")


def _count_enumerate(t: Tracer, args, kwargs, result) -> None:
    space = args[1] if len(args) > 1 else kwargs["space"]
    t.add("repair.enumerate.space_in", len(space))
    t.add("repair.enumerate.options", len(result) if isinstance(result, list) else 0)


def _count_min_cost(t: Tracer, args, kwargs, result) -> None:
    t.add("repair.min_cost.expansions", result.stats.expansions)
    t.add("repair.min_cost.generated", result.stats.generated)


def _count_prompt(t: Tracer, args, kwargs, result) -> None:
    from modelspace.llm.client import estimate_tokens

    t.add("llm.render_prompt.chars", len(result))
    t.maximum("llm.render_prompt.tokens_max", estimate_tokens(result))


def _count_judge(t: Tracer, args, kwargs, result) -> None:
    if isinstance(result, tuple) and result[1]:
        t.add("evalharness.judge.indeterminate")


COUNTERS = {
    "pddl.ground": _count_ground,
    "planner.solve": _count_solve,
    "repair.enumerate": _count_enumerate,
    "repair.min_cost": _count_min_cost,
    "llm.render_prompt": _count_prompt,
    "evalharness.judge": _count_judge,
}
# spans whose raised exceptions are counted as failures
FAILURE_COUNTERS = {
    "llm.parse": "llm.parse.failures",
    "benchgen.make_instance": "benchgen.make_instance.failures",
}


def _spanned(t: Tracer, name: str):
    count = COUNTERS.get(name)
    failures = FAILURE_COUNTERS.get(name)
    record = _record_id if name == "runner.run_instance" else None

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with t.span(name, record(args, kwargs) if record else None):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    if failures:
                        t.add(failures)
                    raise
            if count:
                count(t, args, kwargs, result)
            return result

        return wrapper

    return make


def _read_search(result) -> dict[str, float]:
    _solutions, exhausted, stats = result
    return {
        "repair.enumerate.searches": 1,
        "repair.enumerate.expansions": stats.expansions,
        "repair.enumerate.generated": stats.generated,
        "repair.enumerate.complete": bool(exhausted),
    }


def _read_compile(result) -> dict[str, float]:
    return {"repair.enumerate.compiled": 1, "repair.enumerate.space_kept": len(result.edits)}


# private helper -> (reader of its return value, metrics it feeds)
PRIVATE_TAPS = {
    "_search": (_read_search, SEARCH_COUNTERS),
    "_compile_edit_search": (_read_compile, KEPT_COUNTERS),
}


def _tap(t: Tracer, read, feeds):
    """Counts what `read` finds in the helper's return value when it runs
    inside an enumeration; a value of another shape marks `feeds` absent."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            current = t.current()
            if current is not None and current[1] == "repair.enumerate":
                try:
                    counts = read(result)
                except (TypeError, ValueError, AttributeError):
                    t.absent.update(feeds)
                else:
                    for name, value in counts.items():
                        t.add(name, value)
            return result

        return wrapper

    return make


def install(t: Tracer) -> ExitStack:
    """Wrap every traced function for `t`; closing the stack undoes it."""
    from modelspace import cli  # noqa: F401  (loads every layer module)
    from modelspace.oracle import OracleProvider

    stack = ExitStack()
    for name, targets in SPANS.items():
        found = [
            stack.enter_context(patched(module, attr, _spanned(t, name)))
            for module, attr in targets
        ]
        if not any(found):
            t.absent.update(m for m, _ in PER_LAYER if m.startswith(name + "."))
    stack.enter_context(patched_method(OracleProvider, "complete", _spanned(t, ORACLE_SPAN)))
    for helper, (read, feeds) in PRIVATE_TAPS.items():
        if not stack.enter_context(patched("modelspace.repair", helper, _tap(t, read, feeds))):
            t.absent.update(feeds)
    return stack


def span_totals(spans) -> dict[str, dict]:
    """name -> {calls, self_s, total_s} summed over the given spans."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += own[s.id]
        row["total_s"] += s.end - s.start
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    setup: Tracer, run: Tracer, passes: int, records: int,
    traced_s: float, untraced_s: float, jobs_speedup: float,
) -> dict[str, float]:
    """Per-layer metrics, per pass of the timed part. `traced_s` and
    `untraced_s` are median pass times with and without tracing."""
    setup_rows = span_totals(setup.spans)
    run_rows = span_totals(run.spans)
    c = defaultdict(float, run.counters)
    out: dict[str, float] = {}

    def rows_for(name):
        return setup_rows if name in SETUP_SPANS else run_rows

    for name in list(SPANS) + [ORACLE_SPAN]:
        row = rows_for(name).get(name, {"calls": 0, "self_s": 0.0})
        per = 1 if name in SETUP_SPANS else passes
        out[f"{name}.calls"] = row["calls"] / per
        out[f"{name}.self_s"] = row["self_s"] / per

    def total_s(name):
        return run_rows.get(name, {}).get("total_s", 0.0)

    enum_calls = run_rows.get("repair.enumerate", {}).get("calls", 0)
    out["repair.enumerate.expansions"] = c["repair.enumerate.expansions"] / passes
    out["repair.enumerate.generated"] = c["repair.enumerate.generated"] / passes
    out["repair.enumerate.nodes_per_s"] = _ratio(
        c["repair.enumerate.generated"], total_s("repair.enumerate"))
    out["repair.enumerate.complete_rate"] = _ratio(
        c["repair.enumerate.complete"], c["repair.enumerate.searches"])
    out["repair.enumerate.options_mean"] = _ratio(c["repair.enumerate.options"], enum_calls)
    out["repair.enumerate.space_in_mean"] = _ratio(c["repair.enumerate.space_in"], enum_calls)
    out["repair.enumerate.space_kept_mean"] = _ratio(
        c["repair.enumerate.space_kept"], c["repair.enumerate.compiled"])
    out["repair.min_cost.expansions"] = c["repair.min_cost.expansions"] / passes
    out["repair.min_cost.generated"] = c["repair.min_cost.generated"] / passes
    out["planner.solve.expansions"] = c["planner.solve.expansions"] / passes
    out["planner.solve.generated"] = c["planner.solve.generated"] / passes
    out["planner.solve.nodes_per_s"] = _ratio(
        c["planner.solve.generated"], total_s("planner.solve"))
    out["planner.solve.budget_exhausted"] = c["planner.solve.budget_exhausted"] / passes
    ground_calls = run_rows.get("pddl.ground", {}).get("calls", 0)
    out["pddl.ground.atoms_mean"] = _ratio(c["pddl.ground.atoms"], ground_calls)
    out["pddl.ground.actions_mean"] = _ratio(c["pddl.ground.actions"], ground_calls)
    out["pddl.ground.calls_per_record"] = _ratio(ground_calls, passes * records)
    prompt_calls = run_rows.get("llm.render_prompt", {}).get("calls", 0)
    out["llm.render_prompt.prompt_chars_mean"] = _ratio(
        c["llm.render_prompt.chars"], prompt_calls)
    out["llm.render_prompt.prompt_tokens_max"] = c["llm.render_prompt.tokens_max"]
    out["llm.parse.failures"] = c["llm.parse.failures"] / passes
    out["evalharness.judge.indeterminate"] = c["evalharness.judge.indeterminate"] / passes
    out["runner.concurrency"] = _ratio(total_s("runner.run_instance"), traced_s * passes)
    out["runner.jobs_speedup"] = jobs_speedup
    made = setup_rows.get("benchgen.make_instance", {}).get("calls", 0)
    out["benchgen.yield"] = _ratio(
        made - setup.counters.get("benchgen.make_instance.failures", 0), made)
    out["trace.run_s"] = traced_s
    out["trace.untraced_run_s"] = untraced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    for name in setup.absent | run.absent:
        out.pop(name, None)
    return {name: out[name] for name, _ in PER_LAYER if name in out}


def self_time_table(t: Tracer, passes: int, run_s: float) -> list[tuple[str, int, float, float]]:
    """(span, calls per pass, self seconds per pass, share of run_s), largest
    share first."""
    rows = [
        (name, row["calls"] / passes, row["self_s"] / passes,
         _ratio(row["self_s"] / passes, run_s))
        for name, row in span_totals(t.spans).items()
    ]
    return sorted(rows, key=lambda r: (-r[3], r[0]))
