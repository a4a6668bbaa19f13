"""Model-space repair toolkit: make planning tasks solvable and plans
executable via minimum-cost initial-state edits, optionally steered by an
LLM."""
from . import benchgen, evalharness, llm, oracle, pipelines, runner
from .compilation import compile_executability
from .edits import (
    ADD_INIT,
    EXECUTABILITY,
    REMOVE_INIT,
    UNSOLVABILITY,
    ModelEdit,
    RepairTask,
    apply_edits,
    assign_rank_costs,
    build_edit_space,
    format_edit_set,
)
from .pddl import (
    DomainModel,
    GroundAtom,
    Model,
    ProblemModel,
    ground_task,
    parse_domain,
    parse_problem,
    render_domain,
    render_model,
    render_problem,
)
from .planner import Budget, Plan, solve, validate_plan
from .repair import NoSolution, RepairSolution, enumerate_solutions, repair_min_cost, verify_repair

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
