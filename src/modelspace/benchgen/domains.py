"""Seeded generators for the five benchmark domains.

Each generate_* function returns a Model, solvable by construction (which
`perturb_unsolvable` verifies), plus its reasonable-change family, and is
deterministic in (kind, size params, seed). Sizes default to small values.
"""
from __future__ import annotations

import random

from ..pddl import ActionSchema, Atom, DomainModel, GroundAtom, Model, ProblemModel
from ..pddl.errors import PddlError
from .families import (
    BARMAN_FAMILY,
    LOGISTICS_FAMILY,
    LOGISTICS_SIMPLE_FAMILY,
    ROOMBA_FAMILY,
    TRAVEL_FAMILY,
    ReasonableFamily,
)

TRAVEL = "travel"
ROOMBA = "roomba"
BARMAN_SIMPLE = "barman_simple"
LOGISTICS_SIMPLE = "logistics_simple"
LOGISTICS = "logistics"
ALL_KINDS = (TRAVEL, ROOMBA, BARMAN_SIMPLE, LOGISTICS_SIMPLE, LOGISTICS)
# the four purpose-built domains; the IPC-style logistics is kept separate
NOVEL_KINDS = (TRAVEL, ROOMBA, BARMAN_SIMPLE, LOGISTICS_SIMPLE)


class GenerationFailed(PddlError):
    pass


def _name(prefix: str, i: int) -> str:
    if i < 26:
        return f"{prefix}_{chr(ord('a') + i)}"
    return f"{prefix}_{i}"


# --- Travel ---------------------------------------------------------------

def travel_domain() -> DomainModel:
    city = (("?from", "city"), ("?to", "city"))
    return DomainModel(
        name="domaingotocity",
        type_hierarchy={"object": None, "city": "object"},
        predicates={
            "at": ("city",),
            "has_taxi": ("city", "city"),
            "has_bus": ("city", "city"),
            "neighboring": ("city", "city"),
        },
        actions=(
            ActionSchema(
                "use_taxi", city,
                preconditions=frozenset({Atom("at", ("?from",)), Atom("has_taxi", ("?from", "?to"))}),
                add_effects=frozenset({Atom("at", ("?to",))}),
                del_effects=frozenset({Atom("at", ("?from",))}),
            ),
            ActionSchema(
                "use_bus", city,
                preconditions=frozenset({Atom("at", ("?from",)), Atom("has_bus", ("?from", "?to"))}),
                add_effects=frozenset({Atom("at", ("?to",))}),
                del_effects=frozenset({Atom("at", ("?from",))}),
            ),
        ),
    )


def generate_travel(n_cities: int | None = None, seed: int = 0):
    """Directed route of taxi/bus services from a start city to a goal city,
    with decorative back-edges and service-less neighbor links."""
    rng = random.Random(f"travel:{n_cities}:{seed}")
    n = n_cities if n_cities is not None else rng.randint(5, 10)
    if not 3 <= n <= 30:
        raise ValueError("travel size must be 3..30 cities")
    cities = [_name("city", i) for i in range(n)]
    order = cities[:]
    rng.shuffle(order)
    route_len = rng.randint(min(5, n), n)
    route = order[:route_len]

    init = {GroundAtom("at", (route[0],))}
    services = []
    for x, y in zip(route, route[1:]):
        init.add(GroundAtom("neighboring", (x, y)))
        svc = GroundAtom(rng.choice(["has_taxi", "has_bus"]), (x, y))
        init.add(svc)
        services.append(svc)
    # back-edges and extra neighbor links never create a new way forward
    for c in order[route_len:]:
        x = route[rng.randrange(route_len)]
        init.add(GroundAtom("neighboring", (x, c)))
    for _ in range(rng.randint(0, n // 2)):
        i = rng.randrange(1, route_len)
        j = rng.randrange(0, i)
        init.add(GroundAtom("neighboring", (route[i], route[j])))
        init.add(GroundAtom(rng.choice(["has_taxi", "has_bus"]), (route[i], route[j])))

    model = Model(
        travel_domain(),
        ProblemModel(
            name="problemgotocity",
            domain_name="domaingotocity",
            objects={c: "city" for c in cities},
            init=frozenset(init),
            goal=frozenset({GroundAtom("at", (route[-1],))}),
        ),
    )
    return model, ReasonableFamily(TRAVEL_FAMILY, tuple(services))


# --- Roomba ---------------------------------------------------------------

def roomba_domain() -> DomainModel:
    pair = (("?from", "cell"), ("?to", "cell"))
    return DomainModel(
        name="roomba",
        type_hierarchy={"object": None, "cell": "object"},
        predicates={
            "at": ("cell",),
            "path_is_clear": ("cell", "cell"),
            "chair_blocking_path_between": ("cell", "cell"),
            "table_blocking_path_between": ("cell", "cell"),
            "is_dirty": ("cell",),
            "is_clean": ("cell",),
        },
        actions=(
            ActionSchema(
                "move", pair,
                preconditions=frozenset(
                    {Atom("at", ("?from",)), Atom("path_is_clear", ("?from", "?to"))}
                ),
                add_effects=frozenset({Atom("at", ("?to",))}),
                del_effects=frozenset({Atom("at", ("?from",))}),
            ),
            ActionSchema(
                "clean", (("?c", "cell"),),
                preconditions=frozenset({Atom("at", ("?c",)), Atom("is_dirty", ("?c",))}),
                add_effects=frozenset({Atom("is_clean", ("?c",))}),
                del_effects=frozenset(),
            ),
        ),
    )


def _cell(r: int, c: int) -> str:
    return f"cell_{r}_{c}"


def generate_roomba(rows: int | None = None, cols: int | None = None, seed: int = 0):
    """Grid maze whose clear paths form a spanning tree (so the route between
    any two cells is unique); non-tree walls carry decorative obstacles."""
    rng = random.Random(f"roomba:{rows}:{cols}:{seed}")
    r = rows if rows is not None else rng.randint(3, 4)
    c = cols if cols is not None else rng.randint(3, 4)
    if not (3 <= r <= 8 and 3 <= c <= 8):
        raise ValueError("roomba grid must be 3x3..8x8")
    cells = [(i, j) for i in range(r) for j in range(c)]

    def neighbors(cell):
        i, j = cell
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if 0 <= i + di < r and 0 <= j + dj < c:
                yield (i + di, j + dj)

    start = rng.choice(cells)
    # randomized DFS spanning tree
    tree: set[frozenset] = set()
    parent = {start: None}
    stack = [start]
    while stack:
        cur = stack[-1]
        nxt = [x for x in neighbors(cur) if x not in parent]
        if not nxt:
            stack.pop()
            continue
        chosen = rng.choice(nxt)
        parent[chosen] = cur
        tree.add(frozenset({cur, chosen}))
        stack.append(chosen)

    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for cell in frontier:
            for other in neighbors(cell):
                if frozenset({cell, other}) in tree and other not in dist:
                    dist[other] = dist[cell] + 1
                    nxt.append(other)
        frontier = nxt
    target = max(cells, key=lambda x: (dist[x], x))

    # tree path start -> target, walked back through parents
    path = [target]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()

    init = {GroundAtom("at", (_cell(*start),)), GroundAtom("is_dirty", (_cell(*target),))}
    for edge in tree:
        a, b = sorted(edge)
        init.add(GroundAtom("path_is_clear", (_cell(*a), _cell(*b))))
        init.add(GroundAtom("path_is_clear", (_cell(*b), _cell(*a))))
    for cell in cells:
        for other in neighbors(cell):
            if cell < other and frozenset({cell, other}) not in tree:
                pred = rng.choice(
                    ["chair_blocking_path_between", "table_blocking_path_between"]
                )
                init.add(GroundAtom(pred, (_cell(*cell), _cell(*other))))
                init.add(GroundAtom(pred, (_cell(*other), _cell(*cell))))

    removable = tuple(
        GroundAtom("path_is_clear", (_cell(*x), _cell(*y)))
        for x, y in zip(path, path[1:])
    )
    model = Model(
        roomba_domain(),
        ProblemModel(
            name="problem_roomba",
            domain_name="roomba",
            objects={_cell(*x): "cell" for x in cells},
            init=frozenset(init),
            goal=frozenset({GroundAtom("is_clean", (_cell(*target),))}),
        ),
    )
    return model, ReasonableFamily(ROOMBA_FAMILY, removable)


# --- Barman-simple ---------------------------------------------------------

def barman_domain() -> DomainModel:
    return DomainModel(
        name="barman",
        type_hierarchy={
            "object": None,
            "beverage": "object",
            "container": "object",
            "ingredient": "beverage",
            "cocktail": "beverage",
            "shot": "container",
            "shaker": "container",
        },
        predicates={
            "empty": ("container",),
            "contains": ("container", "beverage"),
            "clean": ("container",),
            "unshaked": ("shaker",),
            "shaked": ("shaker",),
            "cocktail-part1": ("cocktail", "ingredient"),
            "cocktail-part2": ("cocktail", "ingredient"),
        },
        actions=(
            ActionSchema(
                "shake",
                (("?b", "cocktail"), ("?d1", "ingredient"), ("?d2", "ingredient"), ("?s", "shaker")),
                preconditions=frozenset({
                    Atom("contains", ("?s", "?d1")),
                    Atom("contains", ("?s", "?d2")),
                    Atom("unshaked", ("?s",)),
                }),
                # both cocktail parts are recorded against ?d1
                add_effects=frozenset({
                    Atom("shaked", ("?s",)),
                    Atom("cocktail-part1", ("?b", "?d1")),
                    Atom("cocktail-part2", ("?b", "?d1")),
                    Atom("contains", ("?s", "?b")),
                }),
                del_effects=frozenset({
                    Atom("unshaked", ("?s",)),
                    Atom("contains", ("?s", "?d1")),
                    Atom("contains", ("?s", "?d2")),
                }),
            ),
            ActionSchema(
                "pour-shaker-to-shot",
                (("?b", "cocktail"), ("?d", "shot"), ("?s", "shaker"),
                 ("?d1", "ingredient"), ("?d2", "ingredient")),
                preconditions=frozenset({
                    Atom("shaked", ("?s",)),
                    Atom("empty", ("?d",)),
                    Atom("clean", ("?d",)),
                    Atom("contains", ("?s", "?b")),
                    Atom("cocktail-part1", ("?b", "?d1")),
                    Atom("cocktail-part2", ("?b", "?d2")),
                }),
                add_effects=frozenset({Atom("contains", ("?d", "?b"))}),
                del_effects=frozenset({Atom("clean", ("?d",)), Atom("empty", ("?d",))}),
            ),
        ),
    )


def generate_barman(n_cocktails: int | None = None, seed: int = 0):
    """One shaker/shot pair per cocktail, each shaker pre-loaded with the
    cocktail's two ingredients."""
    rng = random.Random(f"barman:{n_cocktails}:{seed}")
    n = n_cocktails if n_cocktails is not None else rng.randint(1, 2)
    if not 1 <= n <= 5:
        raise ValueError("barman size must be 1..5 cocktails")
    objects: dict[str, str] = {}
    init: set[GroundAtom] = set()
    goal: set[GroundAtom] = set()
    removable = []
    for i in range(n):
        cocktail = _name("cocktail", i)
        ing1 = _name("ingredient", 2 * i)
        ing2 = _name("ingredient", 2 * i + 1)
        shaker = _name("shaker", i)
        shot = _name("shot", i)
        objects.update({cocktail: "cocktail", ing1: "ingredient", ing2: "ingredient",
                        shaker: "shaker", shot: "shot"})
        init |= {
            GroundAtom("cocktail-part1", (cocktail, ing1)),
            GroundAtom("cocktail-part2", (cocktail, ing2)),
            GroundAtom("contains", (shaker, ing1)),
            GroundAtom("contains", (shaker, ing2)),
            GroundAtom("unshaked", (shaker,)),
            GroundAtom("empty", (shot,)),
            GroundAtom("clean", (shot,)),
        }
        goal.add(GroundAtom("contains", (shot, cocktail)))
        removable.append(GroundAtom("clean", (shot,)))
    model = Model(
        barman_domain(),
        ProblemModel(
            name="problem_barman",
            domain_name="barman",
            objects=objects,
            init=frozenset(init),
            goal=frozenset(goal),
        ),
    )
    return model, ReasonableFamily(BARMAN_FAMILY, tuple(removable))


# --- Logistics-simple -------------------------------------------------------

def logistics_simple_domain() -> DomainModel:
    return DomainModel(
        name="logistics_simple",
        type_hierarchy={"object": None, "station": "object", "truck": "object",
                        "package": "object"},
        predicates={
            "at_truck": ("truck", "station"),
            "at_package": ("package", "station"),
            "in": ("package", "truck"),
            "ready": ("truck",),
            "connected": ("station", "station"),
        },
        actions=(
            ActionSchema(
                "drive", (("?t", "truck"), ("?from", "station"), ("?to", "station")),
                preconditions=frozenset({
                    Atom("at_truck", ("?t", "?from")),
                    Atom("connected", ("?from", "?to")),
                    Atom("ready", ("?t",)),
                }),
                add_effects=frozenset({Atom("at_truck", ("?t", "?to"))}),
                del_effects=frozenset({Atom("at_truck", ("?t", "?from"))}),
            ),
            ActionSchema(
                "load", (("?p", "package"), ("?t", "truck"), ("?s", "station")),
                preconditions=frozenset({
                    Atom("at_package", ("?p", "?s")),
                    Atom("at_truck", ("?t", "?s")),
                }),
                add_effects=frozenset({Atom("in", ("?p", "?t"))}),
                del_effects=frozenset({Atom("at_package", ("?p", "?s"))}),
            ),
            ActionSchema(
                "unload", (("?p", "package"), ("?t", "truck"), ("?s", "station")),
                preconditions=frozenset({
                    Atom("in", ("?p", "?t")),
                    Atom("at_truck", ("?t", "?s")),
                }),
                add_effects=frozenset({Atom("at_package", ("?p", "?s"))}),
                del_effects=frozenset({Atom("in", ("?p", "?t"))}),
            ),
        ),
    )


def generate_logistics_simple(n_islands: int | None = None, island_len: int | None = None,
                              seed: int = 0):
    """Disjoint station chains, one truck and one package per chain; every
    truck is individually necessary."""
    rng = random.Random(f"logistics_simple:{n_islands}:{island_len}:{seed}")
    # Defaults stay small: repair search cost grows with the product of the
    # per-island state spaces, so larger sizes need a bigger search budget.
    m = n_islands if n_islands is not None else rng.randint(2, 3)
    length = island_len if island_len is not None else 2
    if not (1 <= m <= 10 and 2 <= length <= 5):
        raise ValueError("logistics_simple size out of range")
    objects: dict[str, str] = {}
    init: set[GroundAtom] = set()
    goal: set[GroundAtom] = set()
    removable = []
    sid = 0
    for i in range(m):
        stations = []
        for _ in range(length):
            s = _name("station", sid)
            sid += 1
            stations.append(s)
            objects[s] = "station"
        for x, y in zip(stations, stations[1:]):
            init.add(GroundAtom("connected", (x, y)))
            init.add(GroundAtom("connected", (y, x)))
        truck = _name("truck", i)
        pkg = _name("package", i)
        objects[truck] = "truck"
        objects[pkg] = "package"
        src = rng.choice(stations)
        dst = rng.choice([s for s in stations if s != src])
        init |= {
            GroundAtom("at_truck", (truck, rng.choice(stations))),
            GroundAtom("ready", (truck,)),
            GroundAtom("at_package", (pkg, src)),
        }
        goal.add(GroundAtom("at_package", (pkg, dst)))
        removable.append(GroundAtom("ready", (truck,)))
    model = Model(
        logistics_simple_domain(),
        ProblemModel(
            name="problem_logistics_simple",
            domain_name="logistics_simple",
            objects=objects,
            init=frozenset(init),
            goal=frozenset(goal),
        ),
    )
    return model, ReasonableFamily(LOGISTICS_SIMPLE_FAMILY, tuple(removable))


# --- Logistics (IPC-style) --------------------------------------------------

def logistics_domain() -> DomainModel:
    return DomainModel(
        name="logistics",
        type_hierarchy={"object": None, "city": "object", "place": "object",
                        "truck": "object", "airplane": "object", "package": "object"},
        predicates={
            "at_truck": ("truck", "place"),
            "at_airplane": ("airplane", "place"),
            "at_package": ("package", "place"),
            "in_truck": ("package", "truck"),
            "in_airplane": ("package", "airplane"),
            "in_city": ("place", "city"),
            "airport": ("place",),
        },
        actions=(
            ActionSchema(
                "drive_truck",
                (("?t", "truck"), ("?from", "place"), ("?to", "place"), ("?c", "city")),
                preconditions=frozenset({
                    Atom("at_truck", ("?t", "?from")),
                    Atom("in_city", ("?from", "?c")),
                    Atom("in_city", ("?to", "?c")),
                }),
                add_effects=frozenset({Atom("at_truck", ("?t", "?to"))}),
                del_effects=frozenset({Atom("at_truck", ("?t", "?from"))}),
            ),
            ActionSchema(
                "fly_airplane", (("?a", "airplane"), ("?from", "place"), ("?to", "place")),
                preconditions=frozenset({
                    Atom("at_airplane", ("?a", "?from")),
                    Atom("airport", ("?from",)),
                    Atom("airport", ("?to",)),
                }),
                add_effects=frozenset({Atom("at_airplane", ("?a", "?to"))}),
                del_effects=frozenset({Atom("at_airplane", ("?a", "?from"))}),
            ),
            ActionSchema(
                "load_truck", (("?p", "package"), ("?t", "truck"), ("?l", "place")),
                preconditions=frozenset({
                    Atom("at_package", ("?p", "?l")),
                    Atom("at_truck", ("?t", "?l")),
                }),
                add_effects=frozenset({Atom("in_truck", ("?p", "?t"))}),
                del_effects=frozenset({Atom("at_package", ("?p", "?l"))}),
            ),
            ActionSchema(
                "unload_truck", (("?p", "package"), ("?t", "truck"), ("?l", "place")),
                preconditions=frozenset({
                    Atom("in_truck", ("?p", "?t")),
                    Atom("at_truck", ("?t", "?l")),
                }),
                add_effects=frozenset({Atom("at_package", ("?p", "?l"))}),
                del_effects=frozenset({Atom("in_truck", ("?p", "?t"))}),
            ),
            ActionSchema(
                "load_airplane", (("?p", "package"), ("?a", "airplane"), ("?l", "place")),
                preconditions=frozenset({
                    Atom("at_package", ("?p", "?l")),
                    Atom("at_airplane", ("?a", "?l")),
                }),
                add_effects=frozenset({Atom("in_airplane", ("?p", "?a"))}),
                del_effects=frozenset({Atom("at_package", ("?p", "?l"))}),
            ),
            ActionSchema(
                "unload_airplane", (("?p", "package"), ("?a", "airplane"), ("?l", "place")),
                preconditions=frozenset({
                    Atom("in_airplane", ("?p", "?a")),
                    Atom("at_airplane", ("?a", "?l")),
                }),
                add_effects=frozenset({Atom("at_package", ("?p", "?l"))}),
                del_effects=frozenset({Atom("in_airplane", ("?p", "?a"))}),
            ),
        ),
    )


def generate_logistics(n_cities: int | None = None, n_locations: int | None = None,
                       seed: int = 0):
    """Cities with one airport each, one truck per city, one airplane; one
    intra-city package per city plus one inter-city package, so every vehicle
    position fact is load-bearing."""
    rng = random.Random(f"logistics:{n_cities}:{n_locations}:{seed}")
    m = n_cities if n_cities is not None else 2
    length = n_locations if n_locations is not None else 2
    if not (2 <= m <= 5 and 2 <= length <= 4):
        raise ValueError("logistics size out of range")
    objects: dict[str, str] = {}
    init: set[GroundAtom] = set()
    goal: set[GroundAtom] = set()
    removable = []
    airports = []
    for i in range(m):
        city = _name("city", i)
        objects[city] = "city"
        locs = [f"loc_{i}_{j}" for j in range(length)]
        for loc in locs:
            objects[loc] = "place"
            init.add(GroundAtom("in_city", (loc, city)))
        init.add(GroundAtom("airport", (locs[0],)))
        airports.append(locs[0])
        truck = _name("truck", i)
        objects[truck] = "truck"
        truck_at = GroundAtom("at_truck", (truck, rng.choice(locs)))
        init.add(truck_at)
        removable.append(truck_at)
        # intra-city package; non-airport endpoint forces the truck
        pkg = _name("package", i)
        objects[pkg] = "package"
        src = rng.choice(locs)
        dst = rng.choice([x for x in locs if x != src])
        init.add(GroundAtom("at_package", (pkg, src)))
        goal.add(GroundAtom("at_package", (pkg, dst)))
    plane = "airplane_a"
    objects[plane] = "airplane"
    plane_at = GroundAtom("at_airplane", (plane, airports[0]))
    init.add(plane_at)
    removable.append(plane_at)
    inter = _name("package", m)
    objects[inter] = "package"
    init.add(GroundAtom("at_package", (inter, airports[0])))
    goal.add(GroundAtom("at_package", (inter, airports[-1])))

    model = Model(
        logistics_domain(),
        ProblemModel(
            name="problem_logistics",
            domain_name="logistics",
            objects=objects,
            init=frozenset(init),
            goal=frozenset(goal),
        ),
    )
    return model, ReasonableFamily(LOGISTICS_FAMILY, tuple(removable))


_GENERATORS = {
    TRAVEL: generate_travel,
    ROOMBA: generate_roomba,
    BARMAN_SIMPLE: generate_barman,
    LOGISTICS_SIMPLE: generate_logistics_simple,
    LOGISTICS: generate_logistics,
}


def generate_instance(kind: str, seed: int = 0, **size):
    """Dispatch to the domain generator; returns (Model, ReasonableFamily)."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown domain kind '{kind}'")
    return _GENERATORS[kind](seed=seed, **size)
