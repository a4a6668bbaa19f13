"""Command-line entry point: gen / repair / run / report / validate."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import benchgen, evalharness, runner
from .benchgen.io import atomic_write
from .edits import (
    EXECUTABILITY,
    UNSOLVABILITY,
    RepairTask,
    build_edit_space,
    format_edit_set,
)
from .llm.client import DirectoryMockProvider, HttpProvider, ProviderConfig
from .oracle import OracleProvider
from .pddl import Model, parse_domain, parse_plan_text, parse_problem
from .pddl.errors import PddlError
from .pipelines import LLM_ONLY, POST_PROCESSOR, PRE_PROCESSOR, run_pipeline
from .planner import Budget, Plan, validate_plan
from .repair import ENUM_BUDGET, NoSolution, enumerate_solutions

_PIPELINE_ALIASES = {
    "llm": LLM_ONLY, "llm_only": LLM_ONLY,
    "post": POST_PROCESSOR, "post_processor": POST_PROCESSOR,
    "pre": PRE_PROCESSOR, "pre_processor": PRE_PROCESSOR,
}

# desk-scale wall clock default; the paper-scale preset restores 2 hours
DESK_SECONDS = 60.0
PRESETS = ("desk", "paper")


def read_config(path: str | Path) -> dict:
    """key=value lines; '#' comments; values kept as strings."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip().strip('"')
    return out


def _pick(args, config: dict, key: str, cast, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return cast(config[key])
    return default


def _provider_config(args, config: dict) -> ProviderConfig:
    return ProviderConfig(
        endpoint=_pick(args, config, "endpoint", str, ProviderConfig.endpoint),
        model=_pick(args, config, "model", str, ProviderConfig.model),
        context_limit=_pick(args, config, "context_limit", int, ProviderConfig.context_limit),
        temperature=_pick(args, config, "temperature", float, ProviderConfig.temperature),
    )


def _budget(args, config: dict) -> Budget:
    preset = _pick(args, config, "preset", str, "desk")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {', '.join(PRESETS)}")
    seconds = ENUM_BUDGET.max_seconds if preset == "paper" else DESK_SECONDS
    expansions = _pick(args, config, "uns_expansions", int, ENUM_BUDGET.max_expansions)
    seconds = _pick(args, config, "time_seconds", float, seconds)
    if expansions <= 0 or seconds <= 0:
        raise ValueError("budgets must be positive")
    return Budget(expansions, seconds)


def _parse_k(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    k = int(text)
    return k, k


def cmd_gen(args, config) -> int:
    lo, hi = _parse_k(args.k)
    instances = benchgen.generate_corpus(
        [args.domain], args.count, seed=args.seed, k_range=(lo, hi)
    )
    for inst in instances:
        benchgen.write_instance(inst, args.out)
    print(f"wrote {len(instances)} instances to {args.out}")
    return 0


def _load_task(args) -> RepairTask:
    domain = parse_domain(Path(args.domain).read_text())
    problem = parse_problem(Path(args.problem).read_text(), domain)
    model = Model(domain, problem)
    if args.plan:
        plan = Plan(tuple(parse_plan_text(Path(args.plan).read_text())))
        return RepairTask(model, EXECUTABILITY, plan)
    return RepairTask(model, UNSOLVABILITY)


def _make_provider(spec: str, cfg: ProviderConfig, inst=None):
    if spec == "mock-oracle":
        if inst is None:
            raise ValueError("mock-oracle needs benchmark instances with ground truth")
        return OracleProvider(inst)
    if spec.startswith("mock-dir:"):
        return DirectoryMockProvider(spec.split(":", 1)[1])
    if spec == "http":
        return HttpProvider(cfg)
    raise ValueError(f"unknown provider '{spec}'")


def cmd_repair(args, config) -> int:
    task = _load_task(args)
    budget = _budget(args, config)
    predicates = (
        {name.strip() for name in args.predicates.split(",")} if args.predicates else None
    )
    space = build_edit_space(task.base, predicates=predicates)
    if args.pipeline == "cs":
        options = enumerate_solutions(task, space, budget)
        if isinstance(options, NoSolution):
            print(f"no solution: {options.reason}", file=sys.stderr)
            return 1
        edits = options[0].edits
        print(format_edit_set(edits) if edits else "(no edits needed)")
        return 0
    pipeline = _PIPELINE_ALIASES[args.pipeline]
    cfg = _provider_config(args, config)
    provider = _make_provider(args.provider, cfg)
    outcome = run_pipeline(pipeline, task, provider, cfg, budget=budget, space=space)
    if outcome.failure:
        print(f"failed: {outcome.failure}", file=sys.stderr)
        return 1
    print(format_edit_set(outcome.edits))
    print(f"sound: {outcome.sound}")
    return 0


def cmd_run(args, config) -> int:
    if args.jobs <= 0:
        raise ValueError("--jobs must be positive")
    instances = [benchgen.read_instance(p) for p in benchgen.list_instances(args.bench)]
    if not instances:
        print(f"no instances under {args.bench}", file=sys.stderr)
        return 1
    pipelines = (
        [LLM_ONLY, POST_PROCESSOR, PRE_PROCESSOR]
        if args.pipeline == "all"
        else [_PIPELINE_ALIASES[args.pipeline]]
    )
    use_cases = (
        [UNSOLVABILITY, EXECUTABILITY]
        if args.use_case == "both"
        else [args.use_case]
    )
    cfg = _provider_config(args, config)
    budget = _budget(args, config)

    def factory(inst):
        return _make_provider(args.provider, cfg, inst)

    records = runner.run_bench(
        instances, pipelines, use_cases, factory, cfg, budget, jobs=args.jobs
    )
    runner.write_records_jsonl(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_report(args, config) -> int:
    records = runner.read_records_jsonl(args.records)
    report = evalharness.aggregate(records)
    # every output is built before any is written, so a bad record leaves none
    outputs = {
        "report.json": json.dumps(report, indent=2, sort_keys=True) + "\n",
        "report.md": evalharness.render_report_md(report),
        "figdata.csv": evalharness.emit_fig_data(records),
    }
    out_dir = Path(args.out_dir)
    for name, text in outputs.items():
        atomic_write(out_dir / name, text)
    print(f"wrote report.json, report.md, figdata.csv to {out_dir}")
    return 0


def cmd_validate(args, config) -> int:
    domain = parse_domain(Path(args.domain).read_text())
    problem = parse_problem(Path(args.problem).read_text(), domain)
    plan = Plan(tuple(parse_plan_text(Path(args.plan).read_text())))
    report = validate_plan(Model(domain, problem), plan)
    if report.valid:
        print("valid")
        return 0
    if report.failing_step is not None:
        unmet = " ".join(str(a) for a in sorted(report.unmet_preconditions))
        print(f"invalid: step {report.failing_step} unmet preconditions: {unmet}")
    else:
        print("invalid: goal not satisfied after final step")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modelspace")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate benchmark instances")
    gen.add_argument("--domain", required=True, choices=benchgen.ALL_KINDS)
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--k", default="1..4", help="deleted-fact count, e.g. 2 or 1..4")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_gen)

    repair = sub.add_parser("repair", help="repair one model (or model+plan)")
    repair.add_argument("--domain", required=True)
    repair.add_argument("--problem", required=True)
    repair.add_argument("--plan")
    repair.add_argument("--pipeline", default="cs", choices=["cs", *sorted(_PIPELINE_ALIASES)])
    repair.add_argument("--provider", default="http")
    repair.add_argument("--predicates", help="comma-separated candidate predicates")
    _budget_flags(repair)
    _provider_flags(repair)
    repair.set_defaults(fn=cmd_repair)

    run = sub.add_parser("run", help="run pipelines over an instance directory")
    run.add_argument("--bench", required=True)
    run.add_argument("--pipeline", default="all", choices=["all", *sorted(_PIPELINE_ALIASES)])
    run.add_argument("--use-case", dest="use_case", default="both",
                     choices=["both", UNSOLVABILITY, EXECUTABILITY])
    run.add_argument("--provider", default="mock-oracle")
    run.add_argument("--out", required=True)
    run.add_argument("--jobs", type=int, default=1)
    _budget_flags(run)
    _provider_flags(run)
    run.set_defaults(fn=cmd_run)

    report = sub.add_parser("report", help="aggregate outcome records")
    report.add_argument("--records", required=True)
    report.add_argument("--out-dir", dest="out_dir", required=True)
    report.set_defaults(fn=cmd_report)

    validate = sub.add_parser("validate", help="validate a plan")
    validate.add_argument("--domain", required=True)
    validate.add_argument("--problem", required=True)
    validate.add_argument("--plan", required=True)
    validate.set_defaults(fn=cmd_validate)
    return parser


def _budget_flags(sub) -> None:
    sub.add_argument("--uns-expansions", dest="uns_expansions", type=int)
    sub.add_argument("--time-seconds", dest="time_seconds", type=float)
    sub.add_argument("--preset", choices=PRESETS)


def _provider_flags(sub) -> None:
    sub.add_argument("--endpoint")
    sub.add_argument("--model")
    sub.add_argument("--context-limit", dest="context_limit", type=int)


def run_command(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    config = read_config(args.config) if args.config else {}
    try:
        return args.fn(args, config)
    except (PddlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
