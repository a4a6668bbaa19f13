"""Acceptance gate: twelve end-to-end criteria with pinned tolerances.

Each test prints a `CRITERION nn ... : PASS` line (or the assertion fails and
pytest reports it). Criteria touching the 200-instance corpus share
session-scoped fixtures, so this module takes several minutes in total.
Run with `-s` to see the status lines live.
"""

import itertools
import json
import os
import random
import time

import pytest

from conftest import GOLDEN, fixture_text, load_model, verify_instance
from modelspace.benchgen import (
    NOVEL_KINDS,
    ReasonableFamily,
    generate_corpus,
    perturb_unsolvable,
    select_target_plan,
)
from modelspace.benchgen.domains import generate_travel, travel_domain
from modelspace.compilation import compile_executability
from modelspace.edits import (
    ADD_INIT,
    REMOVE_INIT,
    UNSOLVABILITY,
    ModelEdit,
    RANK_CAP,
    RepairTask,
    apply_edits,
    assign_rank_costs,
)
from modelspace.evalharness import aggregate, emit_fig_data, render_report_md
from modelspace.llm import ProviderConfig, UnparseableResponse
from modelspace.llm.responses import (
    parse_edit_response,
    parse_option_choice,
    parse_ranked_list,
)
from modelspace.oracle import OracleProvider
from modelspace.pddl import (
    GroundAtom,
    Model,
    ProblemModel,
    ground_task,
    parse_domain,
    parse_plan_text,
    parse_problem,
    render_domain,
    render_plan,
    render_problem,
)
from modelspace.planner import solve, validate_plan
from modelspace.repair import enumerate_solutions, repair_min_cost, verify_repair
from modelspace.runner import default_edit_space, run_bench, run_instance

CFG = ProviderConfig(context_limit=10**6)


def report(number: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {number:02d} {label}: PASS{suffix}")


@pytest.fixture(scope="module")
def corpus():
    t0 = time.monotonic()
    instances = generate_corpus(NOVEL_KINDS, 50, seed=0)
    return instances, time.monotonic() - t0


@pytest.fixture(scope="module")
def oracle_records(corpus):
    instances, gen_seconds = corpus
    t0 = time.monotonic()
    records = run_bench(
        instances,
        ["llm_only", "post_processor", "pre_processor"],
        ["unsolvability", "executability"],
        OracleProvider,
        CFG,
    )
    return records, gen_seconds + (time.monotonic() - t0)


def test_criterion_01_parser_and_render_fidelity():
    t0 = time.monotonic()
    sets = {
        "d1": ("d1_domain.pddl", "d1_problem.pddl", None),
        "d3": ("d3_domain.pddl", "d3_problem.pddl", None),
        "d4": ("d4_domain.pddl", "d4_problem.pddl", "d4_plan.txt"),
        "d5": ("d1_domain.pddl", "d5_problem.pddl", "d5_plan.txt"),
        "d6": ("d3_domain.pddl", "d3_problem.pddl", "d6_plan.txt"),
    }
    for domain_name, problem_name, plan_name in sets.values():
        model = load_model(domain_name, problem_name)
        # round trip: parse(render(x)) is structurally equal to x
        dom2 = parse_domain(render_domain(model.domain))
        prob2 = parse_problem(render_problem(model.problem), dom2)
        assert dom2 == model.domain and prob2 == model.problem
        if plan_name:
            steps = parse_plan_text(fixture_text(plan_name))
            assert parse_plan_text(render_plan(steps)) == steps
    for name in ("d1_domain.pddl", "d1_problem.pddl", "d3_domain.pddl",
                 "d3_problem.pddl", "d4_domain.pddl", "d4_problem.pddl"):
        model_part = name.split("_", 1)[1].split(".")[0]
        parsed = (
            parse_domain(fixture_text(name))
            if model_part == "domain"
            else None
        )
        if parsed is not None:
            assert render_domain(parsed) == (GOLDEN / name).read_text()
        else:
            domain = parse_domain(fixture_text(name.split("_")[0] + "_domain.pddl"))
            problem = parse_problem(fixture_text(name), domain)
            assert render_problem(problem) == (GOLDEN / name).read_text()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, "parser/render fidelity", f"{elapsed:.2f}s")


def test_criterion_02_objective_metric_oracle(corpus):
    instances, gen_seconds = corpus
    t0 = time.monotonic()
    assert len(instances) == 200
    per_kind = {}
    for inst in instances:
        per_kind[inst.domain_kind] = per_kind.get(inst.domain_kind, 0) + 1
        assert verify_instance(inst), inst.id
    assert per_kind == {kind: 50 for kind in NOVEL_KINDS}
    elapsed = gen_seconds + (time.monotonic() - t0)
    assert elapsed < 300.0
    report(2, "objective-metric oracle 200/200", f"{elapsed:.1f}s")


def test_criterion_03_compilation_equivalence():
    t0 = time.monotonic()
    checked = 0
    for seed in range(20):
        model, family = generate_travel(n_cities=4, seed=seed)
        plan = solve(ground_task(model)).plan
        assert plan is not None
        candidates = []
        neighbors = [
            a.args for a in model.problem.init if a.predicate == "neighboring"
        ]
        for pred in ("has_taxi", "has_bus"):
            for args in neighbors:
                atom = GroundAtom(pred, args)
                if atom not in model.problem.init:
                    candidates.append(ModelEdit(ADD_INIT, atom))
        for atom in sorted(model.problem.init):
            if atom.predicate in ("has_taxi", "has_bus"):
                candidates.append(ModelEdit(REMOVE_INIT, atom))
        compiled = compile_executability(model, plan)
        for r in (0, 1, 2):
            for combo in itertools.combinations(candidates, r):
                edited = apply_edits(model, combo)
                edited_compiled = apply_edits(compiled, combo)
                lhs = solve(ground_task(edited_compiled)).solved
                rhs = validate_plan(edited, plan).valid
                assert lhs == rhs, (seed, combo)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(3, "compilation equivalence", f"{checked} subsets, {elapsed:.1f}s")


def test_criterion_04_min_cost_optimality():
    t0 = time.monotonic()
    for seed in range(20):
        model, family = generate_travel(n_cities=4, seed=seed)
        rng = random.Random(seed)
        victim = rng.choice(sorted(family.removable))
        broken = model.with_init(model.problem.init - {victim})
        task = RepairTask(broken, UNSOLVABILITY)
        space_edits = default_edit_space("travel", broken)[:12]
        restore = ModelEdit(ADD_INIT, victim)
        if restore not in space_edits:
            space_edits[-1] = restore
        costs = [float(rng.randint(1, 9)) for _ in space_edits]
        space = list(zip(space_edits, costs))

        best = None
        for r in range(len(space_edits) + 1):
            for combo in itertools.combinations(space, r):
                cost = sum(c for _, c in combo)
                if best is not None and cost >= best:
                    continue
                if verify_repair(task, frozenset(e for e, _ in combo)):
                    best = cost
        sol = repair_min_cost(task, space)
        assert best is not None
        assert sol.total_cost == best, seed
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(4, "min-cost repair optimality", f"20 instances, {elapsed:.1f}s")


def test_criterion_05_rank_cost_prefix_dominance():
    for length in range(1, RANK_CAP + 1):
        edits = [ModelEdit(ADD_INIT, GroundAtom("p", (str(i),))) for i in range(length)]
        costs = [c for _, c in assign_rank_costs(edits)]
        for k in range(length - 1):
            assert sum(costs[: k + 1]) < costs[k + 1], (length, k)
    report(5, "rank-cost prefix dominance", f"lengths 1..{RANK_CAP}")


def test_criterion_06_enumeration_contract(corpus):
    instances, _ = corpus
    by_kind = {}
    for inst in instances:
        by_kind.setdefault(inst.domain_kind, inst)
    total = 0
    for inst in by_kind.values():
        task = RepairTask(inst.perturbed, UNSOLVABILITY)
        space = default_edit_space(inst.domain_kind, inst.perturbed)
        solutions = enumerate_solutions(task, space)
        assert isinstance(solutions, list) and solutions, inst.id
        for s in solutions:
            assert verify_repair(task, s.edits), (inst.id, s.edits)
        for a in solutions:
            for b in solutions:
                assert a is b or not a.edits < b.edits, inst.id
        total += len(solutions)
    report(6, "enumeration contract", f"{total} edit sets across {len(by_kind)} domains")


def test_criterion_07_oracle_ceiling(oracle_records):
    records, elapsed = oracle_records
    tallies = {}
    for r in records:
        key = (r["use_case"], r["pipeline"])
        cell = tallies.setdefault(key, [0, 0, 0])
        cell[0] += 1
        cell[1] += r["sound"]
        cell[2] += r["preferred"]
    for uc in ("unsolvability", "executability"):
        for pipe in ("llm_only", "pre_processor"):
            attempted, sound, preferred = tallies[(uc, pipe)]
            assert attempted == 200, (uc, pipe)
            assert sound == 200, (uc, pipe, sound)
            assert preferred == 200, (uc, pipe, preferred)
        attempted, sound, _ = tallies[(uc, "post_processor")]
        assert attempted == sound == 200, (uc, sound)
    md = render_report_md(aggregate(records))
    assert "## Unsolvability" in md and "## Executability" in md
    assert "| Overall |" in md
    for kind in NOVEL_KINDS:
        assert f"| {kind} |" in md
    assert elapsed < 600.0
    report(7, "oracle ceiling 100% sound/preferred", f"{elapsed:.1f}s incl. generation")


def test_criterion_08_fixture_driven_parsing():
    travel = load_model("d1_domain.pddl", "d1_problem.pddl")
    parsed = parse_edit_response(fixture_text("d1_output.txt"), travel)
    assert parsed.edits == frozenset(
        {
            ModelEdit(ADD_INIT, GroundAtom("at", ("city_o",))),
            ModelEdit(ADD_INIT, GroundAtom("at", ("city_x",))),
        }
    )

    assert parse_option_choice("4", 20) == 4

    barman = load_model("d3_domain.pddl", "d3_problem.pddl")
    ranked, _ = parse_ranked_list(fixture_text("d3_output.txt"), barman)
    assert ranked[0] == ModelEdit(ADD_INIT, GroundAtom("empty", ("shaker_a",)))

    cleaning = load_model("d4_domain.pddl", "d4_problem.pddl")
    parsed = parse_edit_response(fixture_text("d4_output.txt"), cleaning)
    adds = [e for e in parsed.edits if e.kind == ADD_INIT]
    removes = [e for e in parsed.edits if e.kind == REMOVE_INIT]
    assert len(adds) == 2 and len(removes) == 2

    # the over-creative ranked list names only undeclared objects: unusable
    with pytest.raises(UnparseableResponse):
        parse_ranked_list(fixture_text("d6_output.txt"), barman)
    report(8, "fixture-driven response parsing")


def _oversized_instance():
    """A travel chain large enough that its prompt cannot fit 4,096 tokens."""
    n = 220
    cities = [f"city_{i:03d}" for i in range(n)]
    init = {GroundAtom("at", (cities[0],))}
    for a, b in zip(cities, cities[1:]):
        init.add(GroundAtom("neighboring", (a, b)))
        init.add(GroundAtom("has_taxi", (a, b)))
    model = Model(
        travel_domain(),
        ProblemModel(
            name="oversized",
            domain_name="domaingotocity",
            objects={c: "city" for c in cities},
            init=frozenset(init),
            goal=frozenset({GroundAtom("at", (cities[-1],))}),
        ),
    )
    fact = GroundAtom("has_taxi", (cities[0], cities[1]))
    family = ReasonableFamily("travel_services", (fact,))
    inst = perturb_unsolvable(
        model, family, k=1, seed=0, domain_kind="travel", instance_id="oversized_k1"
    )
    select_target_plan(inst)
    return inst


def test_criterion_09_context_limit_behavior():
    inst = _oversized_instance()
    cfg = ProviderConfig(context_limit=4096)
    record = run_instance(inst, "llm_only", "unsolvability", OracleProvider(inst), cfg)
    assert record["failure"] == "context_overflow"
    assert record["sound"] is False and record["preferred"] is False
    cell = aggregate([record])["use_cases"]["unsolvability"]["domains"]["travel"][
        "llm_only"
    ]
    assert cell["attempted"] == 1
    assert cell["sound"] == 0
    assert cell["failures"] == {"context_overflow": 1}
    report(9, "context-limit overflow recorded and excluded")


def test_criterion_10_figure_data_shape(oracle_records):
    records, _ = oracle_records
    subset = [
        r for r in records
        if r["pipeline"] == "llm_only" and r["use_case"] == "unsolvability"
    ]
    csv_text = emit_fig_data(subset)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "instance_id,domain,pipeline,edit_size,plan_size,value"
    assert len(lines) == 1 + 200  # one row per instance
    ids = set()
    for line in lines[1:]:
        iid, _dom, _pipe, edit_size, _plan, value = line.split(",")
        ids.add(iid)
        assert 1 <= int(edit_size) <= 4
        assert value == "1"
    assert len(ids) == 200

    corrupted = [dict(r) for r in subset]
    corrupted[7]["sound"] = False
    flipped = emit_fig_data(corrupted)
    assert flipped.count(",-1\n") == 1
    report(10, "figure data shape and corruption flip")


def test_criterion_11_determinism(corpus, oracle_records):
    instances, _ = corpus
    first_records, _ = oracle_records
    second_records = run_bench(
        instances,
        ["llm_only", "post_processor", "pre_processor"],
        ["unsolvability", "executability"],
        OracleProvider,
        CFG,
    )

    def freeze(records):
        report_obj = aggregate(
            [{k: v for k, v in r.items() if k != "timings"} for r in records]
        )
        return json.dumps(report_obj, indent=2, sort_keys=True).encode()

    assert freeze(first_records) == freeze(second_records)
    report(11, "byte-identical reports across runs")


@pytest.mark.skipif(
    not (os.environ.get("MODELSPACE_LIVE") and os.environ.get("MODELSPACE_API_KEY")),
    reason="live smoke needs MODELSPACE_LIVE=1 and MODELSPACE_API_KEY",
)
def test_criterion_12_live_smoke():
    from modelspace.llm import HttpProvider

    instances = [
        __import__("modelspace.benchgen", fromlist=["make_instance"]).make_instance(
            "travel", seed=s
        )
        for s in range(5)
    ]
    cfg = ProviderConfig()
    for inst in instances:
        for pipe in ("llm_only", "post_processor", "pre_processor"):
            record = run_instance(
                inst, pipe, "unsolvability", HttpProvider(cfg), cfg
            )
            assert "sound" in record  # completion without crashing is the bar
    report(12, "live provider smoke")
