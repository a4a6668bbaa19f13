from .corpus import generate_corpus, make_instance
from .domains import (
    ALL_KINDS,
    BARMAN_SIMPLE,
    LOGISTICS,
    LOGISTICS_SIMPLE,
    NOVEL_KINDS,
    ROOMBA,
    TRAVEL,
    GenerationFailed,
    barman_domain,
    generate_barman,
    generate_instance,
    generate_logistics,
    generate_logistics_simple,
    generate_roomba,
    generate_travel,
    logistics_domain,
    logistics_simple_domain,
    roomba_domain,
    travel_domain,
)
from .families import (
    BARMAN_FAMILY,
    LOGISTICS_FAMILY,
    LOGISTICS_SIMPLE_FAMILY,
    ROOMBA_FAMILY,
    TRAVEL_FAMILY,
    ReasonableFamily,
    family_for,
)
from .io import atomic_write, list_instances, read_instance, write_instance
from .perturb import (
    BenchInstance,
    InvariantViolation,
    PerturbationFailed,
    perturb_unsolvable,
    select_target_plan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
