import pathlib
import sys

import pytest

from modelspace.pddl import Model, ground_task, parse_domain, parse_plan_text, parse_problem
from modelspace.planner import Plan, solve, validate_plan

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

# the sizes the oracle benchmark generates at
SIZES = {
    "travel": {"n_cities": 6},
    "roomba": {"rows": 3, "cols": 3},
    "barman_simple": {"n_cocktails": 2},
    "logistics_simple": {"n_islands": 2},
    "logistics": {"n_cities": 2, "n_locations": 2},
}


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def load_model(domain_name: str, problem_name: str) -> Model:
    domain = parse_domain(fixture_text(domain_name))
    return Model(domain, parse_problem(fixture_text(problem_name), domain))


def load_plan(name: str) -> Plan:
    steps = tuple(parse_plan_text(fixture_text(name)))
    return Plan(steps)


def verify_instance(inst) -> bool:
    """Independent re-check of a benchmark instance's invariants by
    breadth-first search over each full task: the solvable model solves,
    the perturbed one is proven unsolvable, restoring the deleted facts
    solves it again, and the target plan is valid on the solvable model
    and broken by the perturbation."""
    if not solve(ground_task(inst.solvable)).solved:
        return False
    if not solve(ground_task(inst.perturbed)).proven_unsolvable:
        return False
    restored = inst.perturbed.with_init(inst.perturbed.problem.init | inst.deleted_facts)
    if not solve(ground_task(restored)).solved:
        return False
    if inst.target_plan is not None:
        if not validate_plan(inst.solvable, inst.target_plan).valid:
            return False
        if validate_plan(inst.perturbed, inst.target_plan).valid:
            return False
    return True


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(func)`` wraps every binding of `func` in the loaded
    `modelspace` modules and returns the list its calls are appended to."""

    def install(func):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "modelspace":
                for attr, value in list(vars(module).items()):
                    if value is func:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return install


@pytest.fixture(scope="session")
def travel_model():
    """Appendix-style 14-city travel task with goal (at city_c)."""
    return load_model("d1_domain.pddl", "d1_problem.pddl")


@pytest.fixture(scope="session")
def travel_exec_model():
    return load_model("d1_domain.pddl", "d5_problem.pddl")


@pytest.fixture(scope="session")
def barman_model():
    return load_model("d3_domain.pddl", "d3_problem.pddl")


@pytest.fixture(scope="session")
def cleaning_model():
    return load_model("d4_domain.pddl", "d4_problem.pddl")


@pytest.fixture(scope="session")
def t2():
    """Tiny three-city chain a -> b -> c with both services on both hops."""
    from modelspace.benchgen.domains import travel_domain
    from modelspace.pddl import GroundAtom, ProblemModel

    init = {
        GroundAtom("at", ("a",)),
        GroundAtom("neighboring", ("a", "b")),
        GroundAtom("neighboring", ("b", "c")),
        GroundAtom("has_taxi", ("a", "b")),
        GroundAtom("has_bus", ("a", "b")),
    }
    return Model(
        travel_domain(),
        ProblemModel(
            name="t2",
            domain_name="domaingotocity",
            objects={"a": "city", "b": "city", "c": "city"},
            init=frozenset(init),
            goal=frozenset({GroundAtom("at", ("c",))}),
        ),
    )
