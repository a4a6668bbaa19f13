"""Instance directory layout: domain.pddl, problem_solvable.pddl,
problem_perturbed.pddl, target_plan.txt, ground_truth.json."""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from ..pddl import GroundAtom, Model, parse_domain, parse_plan_text, parse_problem, render_domain, render_plan, render_problem
from ..planner import Plan
from .families import family_for
from .perturb import BenchInstance


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_instance(inst: BenchInstance, out_dir: str | Path) -> Path:
    directory = Path(out_dir) / inst.id
    atomic_write(directory / "domain.pddl", render_domain(inst.solvable.domain) + "\n")
    atomic_write(
        directory / "problem_solvable.pddl", render_problem(inst.solvable.problem) + "\n"
    )
    atomic_write(
        directory / "problem_perturbed.pddl", render_problem(inst.perturbed.problem) + "\n"
    )
    if inst.target_plan is not None:
        atomic_write(directory / "target_plan.txt", render_plan(inst.target_plan.steps) + "\n")
    truth = {
        "id": inst.id,
        "domain_kind": inst.domain_kind,
        "family_id": inst.family.family_id,
        "k": inst.k,
        "seed": inst.seed,
        "deleted_facts": [[a.predicate, *a.args] for a in sorted(inst.deleted_facts)],
    }
    atomic_write(
        directory / "ground_truth.json",
        json.dumps(truth, indent=2, sort_keys=True) + "\n",
    )
    return directory


def read_instance(directory: str | Path) -> BenchInstance:
    directory = Path(directory)
    domain = parse_domain((directory / "domain.pddl").read_text())
    solvable = Model(domain, parse_problem((directory / "problem_solvable.pddl").read_text(), domain))
    perturbed = Model(domain, parse_problem((directory / "problem_perturbed.pddl").read_text(), domain))
    truth = json.loads((directory / "ground_truth.json").read_text())
    plan = None
    plan_path = directory / "target_plan.txt"
    if plan_path.exists():
        plan = Plan(tuple(parse_plan_text(plan_path.read_text())))
    deleted = frozenset(GroundAtom(entry[0], tuple(entry[1:])) for entry in truth["deleted_facts"])
    return BenchInstance(
        id=truth["id"],
        domain_kind=truth["domain_kind"],
        solvable=solvable,
        perturbed=perturbed,
        deleted_facts=deleted,
        family=family_for(truth["family_id"]),
        k=truth["k"],
        seed=truth["seed"],
        target_plan=plan,
    )


def list_instances(bench_dir: str | Path) -> list[Path]:
    bench_dir = Path(bench_dir)
    return sorted(p for p in bench_dir.iterdir() if (p / "ground_truth.json").exists())
