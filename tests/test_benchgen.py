"""Benchmark generation: domain builders, perturbation invariants,
reasonable-edit families, disk format, and corpus determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modelspace
from conftest import verify_instance
from modelspace.benchgen import (
    ALL_KINDS,
    BARMAN_SIMPLE,
    LOGISTICS,
    LOGISTICS_SIMPLE,
    NOVEL_KINDS,
    ROOMBA,
    TRAVEL,
    family_for,
    generate_corpus,
    generate_instance,
    list_instances,
    make_instance,
    perturb_unsolvable,
    read_instance,
    select_target_plan,
    write_instance,
)
from modelspace.benchgen.domains import (
    generate_barman,
    generate_logistics,
    generate_logistics_simple,
    generate_roomba,
    generate_travel,
)
from modelspace.edits import ADD_INIT, REMOVE_INIT, ModelEdit
from modelspace.pddl import DomainModel, GroundAtom, ground_task, render_model
from modelspace.planner import SolvabilityCheck, solve, validate_plan


class TestDomainGenerators:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_generated_models_solvable(self, kind):
        model, family = generate_instance(kind, seed=3)
        assert solve(ground_task(model)).solved
        assert family.removable
        assert set(family.removable) <= model.problem.init

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_generation_deterministic(self, kind):
        a, fam_a = generate_instance(kind, seed=11)
        b, fam_b = generate_instance(kind, seed=11)
        assert render_model(a) == render_model(b)
        assert fam_a.removable == fam_b.removable

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_seeds_vary_output(self, kind):
        renders = {render_model(generate_instance(kind, seed=s)[0]) for s in range(4)}
        assert len(renders) > 1

    def test_travel_size_parameter(self):
        model, _ = generate_travel(n_cities=8, seed=0)
        cities = [o for o, t in model.problem.objects.items() if t == "city"]
        assert len(cities) == 8

    def test_travel_every_removable_breaks_it(self):
        model, family = generate_travel(n_cities=6, seed=2)
        for fact in family.removable:
            broken = model.with_init(model.problem.init - {fact})
            assert solve(ground_task(broken)).proven_unsolvable, fact

    def test_roomba_unique_path_structure(self):
        model, family = generate_roomba(seed=5)
        # spanning-tree maze: deleting any forward path fact breaks it
        for fact in family.removable:
            broken = model.with_init(model.problem.init - {fact})
            assert solve(ground_task(broken)).proven_unsolvable, fact

    def test_barman_removables_are_clean_facts(self):
        model, family = generate_barman(seed=1)
        assert all(f.predicate == "clean" for f in family.removable)

    def test_logistics_simple_removables_are_ready_facts(self):
        model, family = generate_logistics_simple(seed=1)
        assert all(f.predicate == "ready" for f in family.removable)
        for fact in family.removable:
            broken = model.with_init(model.problem.init - {fact})
            assert solve(ground_task(broken)).proven_unsolvable, fact

    def test_logistics_vehicle_positions_removable(self):
        model, family = generate_logistics(seed=1)
        assert all(
            f.predicate in ("at_truck", "at_airplane") for f in family.removable
        )

    def test_size_bounds_enforced(self):
        with pytest.raises(ValueError):
            generate_travel(n_cities=1, seed=0)
        with pytest.raises(ValueError):
            generate_logistics_simple(n_islands=99, seed=0)


class TestPerturbation:
    def test_invariants_hold(self):
        model, family = generate_travel(n_cities=6, seed=4)
        inst = perturb_unsolvable(model, family, k=2, seed=4, domain_kind=TRAVEL,
                                  instance_id="t")
        select_target_plan(inst)
        assert verify_instance(inst)
        assert len(inst.deleted_facts) == 2
        assert inst.deleted_facts <= set(family.removable)
        assert inst.deleted_facts.isdisjoint(inst.perturbed.problem.init)

    def test_k_out_of_range(self):
        model, family = generate_travel(n_cities=6, seed=4)
        with pytest.raises(ValueError):
            perturb_unsolvable(model, family, k=0)
        with pytest.raises(ValueError):
            perturb_unsolvable(model, family, k=5)

    def test_target_plan_broken_by_perturbation(self):
        model, family = generate_roomba(seed=7)
        inst = perturb_unsolvable(model, family, k=1, seed=7, domain_kind=ROOMBA,
                                  instance_id="r")
        plan = select_target_plan(inst)
        assert validate_plan(inst.solvable, plan).valid
        assert not validate_plan(inst.perturbed, plan).valid

    def test_roomba_perturbation_adds_obstacle(self):
        model, family = generate_roomba(seed=9)
        inst = perturb_unsolvable(model, family, k=1, seed=9, domain_kind=ROOMBA,
                                  instance_id="r2")
        added = inst.perturbed.problem.init - model.problem.init
        assert added, "an obstacle should decorate the removed path"
        assert all(
            a.predicate in ("chair_blocking_path_between", "table_blocking_path_between")
            for a in added
        )


class TestFamilies:
    def test_travel_membership(self, t2):
        fam = family_for("travel_services")
        restore = {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("b", "c")))}
        assert fam.is_member_set(restore, t2)
        # direct goal teleport is sound but not a reasonable travel fix
        assert not fam.is_member_set(
            {ModelEdit(ADD_INIT, GroundAtom("at", ("c",)))}, t2
        )
        # service between non-neighboring cities is not reasonable either
        assert not fam.is_member_set(
            {ModelEdit(ADD_INIT, GroundAtom("has_bus", ("a", "c")))}, t2
        )

    def test_empty_set_is_member(self, t2):
        assert family_for("travel_services").is_member_set(set(), t2)

    def test_barman_membership(self, barman_model):
        fam = family_for("barman_clean_containers")
        assert fam.is_member_set(
            {ModelEdit(ADD_INIT, GroundAtom("clean", ("shot_a",)))}, barman_model
        )
        assert not fam.is_member_set(
            {ModelEdit(ADD_INIT, GroundAtom("contains", ("shot_a", "cocktail_a")))},
            barman_model,
        )

    def test_roomba_membership_pairs_removals_with_adds(self):
        model, _ = generate_roomba(seed=3)
        fam = family_for("roomba_clear_paths")
        clear = ModelEdit(ADD_INIT, GroundAtom("path_is_clear", ("cell_0_0", "cell_0_1")))
        chair = ModelEdit(
            REMOVE_INIT, GroundAtom("chair_blocking_path_between", ("cell_0_0", "cell_0_1"))
        )
        assert fam.is_member_set({clear}, model)
        assert fam.is_member_set({clear, chair}, model)
        # an obstacle removal with no matching path addition is unjustified
        assert not fam.is_member_set({chair}, model)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            family_for("no_such_family")


class TestDiskFormat:
    def test_write_read_round_trip(self, tmp_path):
        inst = make_instance(TRAVEL, seed=8)
        out = write_instance(inst, tmp_path)
        names = {p.name for p in out.iterdir()}
        assert names == {
            "domain.pddl",
            "problem_solvable.pddl",
            "problem_perturbed.pddl",
            "target_plan.txt",
            "ground_truth.json",
        }
        loaded = read_instance(out)
        assert loaded.id == inst.id
        assert loaded.deleted_facts == inst.deleted_facts
        assert loaded.solvable == inst.solvable
        assert loaded.perturbed == inst.perturbed
        assert loaded.target_plan.steps == inst.target_plan.steps
        assert verify_instance(loaded)

    def test_read_validates_the_domain_once(self, tmp_path, monkeypatch):
        """Both problems are checked against the domain `parse_domain`
        validated, not validated with it again."""
        out = write_instance(make_instance(TRAVEL, seed=8), tmp_path)
        calls = []
        validate = DomainModel.validate

        def counted(domain):
            calls.append(domain.name)
            validate(domain)

        monkeypatch.setattr(DomainModel, "validate", counted)
        read_instance(out)
        assert len(calls) == 1

    def test_ground_truth_schema(self, tmp_path):
        inst = make_instance(BARMAN_SIMPLE, seed=2)
        out = write_instance(inst, tmp_path)
        gt = json.loads((out / "ground_truth.json").read_text())
        assert gt["id"] == inst.id
        assert gt["domain_kind"] == BARMAN_SIMPLE
        assert gt["family_id"] == "barman_clean_containers"
        assert gt["k"] == inst.k == len(gt["deleted_facts"])

    def test_list_instances_sorted(self, tmp_path):
        for seed in (3, 1, 2):
            write_instance(make_instance(LOGISTICS_SIMPLE, seed=seed), tmp_path)
        paths = list_instances(tmp_path)
        assert [p.name for p in paths] == sorted(p.name for p in paths)
        assert len(paths) == 3

    def test_byte_identical_across_writes(self, tmp_path):
        a = write_instance(make_instance(ROOMBA, seed=6), tmp_path / "a")
        b = write_instance(make_instance(ROOMBA, seed=6), tmp_path / "b")
        for name in ("domain.pddl", "problem_perturbed.pddl", "ground_truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCorpus:
    def test_instance_ids_encode_kind_seed_k(self):
        inst = make_instance(LOGISTICS, seed=12, k=2)
        assert inst.id == "logistics_00012_k2"
        assert inst.k == 2

    def test_small_corpus_contract(self):
        insts = generate_corpus(NOVEL_KINDS, 3, seed=0)
        assert len(insts) == 3 * len(NOVEL_KINDS)
        assert len({i.id for i in insts}) == len(insts)
        by_kind = {}
        for i in insts:
            by_kind.setdefault(i.domain_kind, []).append(i)
            assert verify_instance(i)
        assert all(len(v) == 3 for v in by_kind.values())

    def test_corpus_deterministic(self):
        a = generate_corpus([TRAVEL], 2, seed=5)
        b = generate_corpus([TRAVEL], 2, seed=5)
        assert [i.id for i in a] == [i.id for i in b]
        assert [render_model(i.perturbed) for i in a] == [
            render_model(i.perturbed) for i in b
        ]

    def test_roomba_corpus_independent_of_hash_seed(self):
        """The obstacles that block a roomba instance's cleared paths do not
        follow the string-hash order of the process that generates it."""
        script = (
            "from modelspace.benchgen import generate_corpus\n"
            "for inst in generate_corpus(['roomba'], 5, seed=0):\n"
            "    print(sorted(map(str, inst.perturbed.problem.init)))\n"
        )
        src = str(Path(modelspace.__file__).resolve().parents[1])
        inits = {
            subprocess.run(
                [sys.executable, "-c", script], check=True, capture_output=True,
                text=True, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2", "3", "4")
        }
        assert len(inits) == 1

    def test_instance_setup_solve_count(self, count_calls):
        """One grounding of the model on this seed's first try, one solve of
        it, `perturb_unsolvable`'s plan (the restore witness and the target
        plan), and one solvability check of that grounding from the
        perturbed init, which needs no solve: its goal is delete-relaxed
        unreachable."""
        grounded = count_calls(ground_task)
        solved, checked = count_calls(solve), count_calls(SolvabilityCheck)
        inst = make_instance(TRAVEL, seed=8)
        assert (len(grounded), len(solved), len(checked)) == (1, 1, 1)
        assert verify_instance(inst)

    def test_instance_setup_solves_the_restricted_task(self, count_calls):
        """The target plan's search runs over the relevant actions the
        check reaches from init, fewer than the grounding holds."""
        solved = count_calls(solve)
        inst = make_instance(BARMAN_SIMPLE, seed=2)
        [(task,)] = solved
        assert len(task.actions) < len(ground_task(inst.solvable).actions)

    def test_fixed_k_respected(self):
        insts = generate_corpus([TRAVEL], 3, seed=1, k=2)
        assert all(i.k == 2 for i in insts)
