"""Command-line interface contract, exercised in-process via run_command."""

import json

import pytest

from modelspace.cli import read_config, run_command
from modelspace.runner import read_records_jsonl


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def t2_files(tmp_path_factory):
    """T2-style three-city task written to disk for repair/validate calls."""
    from modelspace.pddl import render_domain, render_problem
    from modelspace.benchgen.domains import travel_domain
    from modelspace.pddl import GroundAtom, ProblemModel

    d = tmp_path_factory.mktemp("t2")
    domain = travel_domain()
    problem = ProblemModel(
        name="t2",
        domain_name="domaingotocity",
        objects={"a": "city", "b": "city", "c": "city"},
        init=frozenset(
            {
                GroundAtom("at", ("a",)),
                GroundAtom("neighboring", ("a", "b")),
                GroundAtom("neighboring", ("b", "c")),
                GroundAtom("has_taxi", ("a", "b")),
            }
        ),
        goal=frozenset({GroundAtom("at", ("c",))}),
    )
    (d / "domain.pddl").write_text(render_domain(domain))
    (d / "problem.pddl").write_text(render_problem(problem))
    (d / "plan.txt").write_text("(use_taxi a b)\n(use_taxi b c)\n")
    return d


class TestGen:
    def test_count_and_layout(self, capsys, tmp_path):
        out = tmp_path / "bench"
        code, stdout, _ = run(
            capsys, "gen", "--domain", "travel", "--count", "2",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        assert "wrote 2 instances" in stdout
        dirs = sorted(p for p in out.iterdir() if p.is_dir())
        assert len(dirs) == 2
        for d in dirs:
            assert (d / "ground_truth.json").exists()
            assert (d / "problem_perturbed.pddl").exists()

    def test_fixed_k(self, capsys, tmp_path):
        out = tmp_path / "bench"
        code, *_ = run(
            capsys, "gen", "--domain", "roomba", "--count", "1",
            "--k", "2", "--out", str(out),
        )
        assert code == 0
        gt = json.loads(next(out.glob("*/ground_truth.json")).read_text())
        assert gt["k"] == 2


class TestRepair:
    def test_cs_prints_min_cardinality_fix(self, capsys, t2_files):
        code, stdout, _ = run(
            capsys, "repair",
            "--domain", str(t2_files / "domain.pddl"),
            "--problem", str(t2_files / "problem.pddl"),
            "--predicates", "has_taxi,has_bus,at",
        )
        assert code == 0
        # all minimal fixes are single edits; the first option is printed
        line = stdout.strip()
        assert line.startswith("(+ (") and line.count("(+") == 1

    def test_executability_repair(self, capsys, t2_files):
        code, stdout, _ = run(
            capsys, "repair",
            "--domain", str(t2_files / "domain.pddl"),
            "--problem", str(t2_files / "problem.pddl"),
            "--plan", str(t2_files / "plan.txt"),
            "--predicates", "has_taxi",
        )
        assert code == 0
        assert stdout.strip() == "(+ (has_taxi b c))"

    def test_already_valid_plan(self, capsys, t2_files, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("(use_taxi a b)\n")
        problem = tmp_path / "problem.pddl"
        text = (t2_files / "problem.pddl").read_text()
        problem.write_text(text.replace("(:goal (at c))", "(:goal (at b))"))
        code, stdout, _ = run(
            capsys, "repair",
            "--domain", str(t2_files / "domain.pddl"),
            "--problem", str(problem),
            "--plan", str(plan),
            "--predicates", "has_taxi",
        )
        assert code == 0
        assert stdout.strip() == "(no edits needed)"

    def test_predicate_names_are_stripped(self, capsys, t2_files):
        """A space after the comma keeps `has_bus` in the space: its one fix
        comes first, as without the space."""
        code, stdout, _ = run(
            capsys, "repair",
            "--domain", str(t2_files / "domain.pddl"),
            "--problem", str(t2_files / "problem.pddl"),
            "--predicates", "has_taxi, has_bus",
        )
        assert code == 0
        assert stdout == "(+ (has_bus a c))\n"

    def test_unknown_predicate_rejected(self, capsys, t2_files):
        code, stdout, stderr = run(
            capsys, "repair",
            "--domain", str(t2_files / "domain.pddl"),
            "--problem", str(t2_files / "problem.pddl"),
            "--predicates", "has_taxi,has_buss",
        )
        assert code == 1
        assert stdout == ""
        assert stderr == "error: unknown predicate 'has_buss' in the edit space\n"

    @pytest.mark.parametrize("flag", ["--uns-expansions", "--time-seconds"])
    def test_zero_budget_rejected(self, capsys, t2_files, flag):
        code, _, stderr = run(
            capsys, "repair",
            "--domain", str(t2_files / "domain.pddl"),
            "--problem", str(t2_files / "problem.pddl"),
            flag, "0",
        )
        assert code == 1
        assert "error: budgets must be positive" in stderr

    def test_no_solution_exit_code(self, capsys, t2_files):
        code, _, stderr = run(
            capsys, "repair",
            "--domain", str(t2_files / "domain.pddl"),
            "--problem", str(t2_files / "problem.pddl"),
            "--predicates", "neighboring",
        )
        assert code == 1
        assert "no solution: proven_insufficient" in stderr


class TestRunAndReport:
    def test_oracle_run_then_report(self, capsys, tmp_path):
        bench = tmp_path / "bench"
        run(capsys, "gen", "--domain", "travel", "--count", "2", "--out", str(bench))
        records_path = tmp_path / "records.jsonl"
        code, stdout, _ = run(
            capsys, "run", "--bench", str(bench), "--pipeline", "llm",
            "--use-case", "unsolvability", "--provider", "mock-oracle",
            "--out", str(records_path),
        )
        assert code == 0
        records = read_records_jsonl(records_path)
        assert len(records) == 2
        assert all(r["sound"] for r in records)

        out_dir = tmp_path / "report"
        code, stdout, _ = run(
            capsys, "report", "--records", str(records_path),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        cell = report["use_cases"]["unsolvability"]["domains"]["travel"]["llm_only"]
        assert cell["sound_str"] == "2/2"
        assert (out_dir / "report.md").read_text().startswith("# Repair pipeline results")
        fig = (out_dir / "figdata.csv").read_text().splitlines()
        assert fig[0] == "instance_id,domain,pipeline,edit_size,plan_size,value"
        assert len(fig) == 3

    @pytest.mark.parametrize("missing, message", [
        ("sound", "record missing 'sound'"),
        ("edit_size", "record missing 'edit_size'"),
        (None, "record is not an object"),
    ], ids=["sound", "edit_size", "not_an_object"])
    def test_report_on_malformed_record_writes_nothing(
        self, capsys, tmp_path, missing, message
    ):
        """A malformed record is one error line, exit 1, and no output
        file, even when only the figure data needs the missing key."""
        record = {
            "instance_id": "i1", "domain": "travel", "pipeline": "llm_only",
            "use_case": "unsolvability", "sound": True, "preferred": True,
            "failure": None, "edit_size": 1, "plan_size": 3,
        }
        if missing is None:
            record = [record]
        else:
            del record[missing]
        records_path = tmp_path / "records.jsonl"
        records_path.write_text(json.dumps(record) + "\n")
        out_dir = tmp_path / "report"
        code, stdout, stderr = run(
            capsys, "report", "--records", str(records_path), "--out-dir", str(out_dir),
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: {message}")
        assert len(stderr.splitlines()) == 1
        assert not out_dir.exists()

    def test_report_on_malformed_json_names_file_and_line(self, capsys, tmp_path):
        record = {
            "instance_id": "i1", "domain": "travel", "pipeline": "llm_only",
            "use_case": "unsolvability", "sound": True, "preferred": True,
            "failure": None, "edit_size": 1, "plan_size": 3,
        }
        records_path = tmp_path / "records.jsonl"
        records_path.write_text(json.dumps(record) + "\n\n{oops\n")
        out_dir = tmp_path / "report"
        code, stdout, stderr = run(
            capsys, "report", "--records", str(records_path), "--out-dir", str(out_dir),
        )
        assert code == 1
        assert stdout == ""
        assert stderr == (
            f"error: {records_path}:3: Expecting property name enclosed in double quotes\n"
        )
        assert not out_dir.exists()

    def test_empty_bench_dir_errors(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "run", "--bench", str(tmp_path), "--out",
            str(tmp_path / "r.jsonl"),
        )
        assert code == 1
        assert "no instances" in stderr

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_rejected(self, capsys, tmp_path, jobs):
        bench = tmp_path / "bench"
        run(capsys, "gen", "--domain", "travel", "--count", "1", "--out", str(bench))
        out = tmp_path / "r.jsonl"
        code, _, stderr = run(
            capsys, "run", "--bench", str(bench), "--jobs", jobs, "--out", str(out),
        )
        assert code == 1
        assert "error: --jobs must be positive" in stderr
        assert not out.exists()


class TestValidate:
    def test_invalid_plan_exit_1(self, capsys, t2_files):
        code, stdout, _ = run(
            capsys, "validate",
            "--domain", str(t2_files / "domain.pddl"),
            "--problem", str(t2_files / "problem.pddl"),
            "--plan", str(t2_files / "plan.txt"),
        )
        assert code == 1
        assert "unmet preconditions" in stdout
        assert "(has_taxi b c)" in stdout

    def test_valid_plan_exit_0(self, capsys, t2_files, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("(use_taxi a b)\n")
        problem = tmp_path / "problem.pddl"
        text = (t2_files / "problem.pddl").read_text()
        problem.write_text(text.replace("(:goal (at c))", "(:goal (at b))"))
        code, stdout, _ = run(
            capsys, "validate",
            "--domain", str(t2_files / "domain.pddl"),
            "--problem", str(problem),
            "--plan", str(plan),
        )
        assert code == 0
        assert stdout.strip() == "valid"


class TestErrorHandling:
    def test_usage_error_exit_2(self, capsys):
        code, *_ = run(capsys, "gen", "--domain", "not_a_domain", "--out", "/tmp/x")
        assert code == 2

    def test_missing_file_exit_1(self, capsys):
        code, _, stderr = run(
            capsys, "validate", "--domain", "/nonexistent.pddl",
            "--problem", "/nonexistent.pddl", "--plan", "/nonexistent.txt",
        )
        assert code == 1
        assert "error:" in stderr

    def test_bad_pddl_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.pddl"
        bad.write_text("(define (domain broken")
        code, _, stderr = run(
            capsys, "validate", "--domain", str(bad),
            "--problem", str(bad), "--plan", str(bad),
        )
        assert code == 1

    def test_ill_typed_action_atom_exit_1(self, capsys, tmp_path):
        """`go`'s truck parameter fills `home`'s crate place: one error line
        naming the action, the atom and the variable, not a traceback."""
        domain = tmp_path / "domain.pddl"
        domain.write_text(
            "(define (domain depot) (:requirements :strips :typing)"
            " (:types truck crate)"
            " (:predicates (home ?c - crate) (moved ?t - truck))"
            " (:action go :parameters (?t - truck)"
            " :precondition (home ?t) :effect (moved ?t)))"
        )
        problem = tmp_path / "problem.pddl"
        problem.write_text(
            "(define (problem p) (:domain depot) (:objects t1 - truck c1 - crate)"
            " (:init (home c1)) (:goal (moved t1)))"
        )
        code, stdout, stderr = run(
            capsys, "repair", "--domain", str(domain), "--problem", str(problem),
        )
        assert code == 1
        assert stdout == ""
        assert stderr == (
            "error: atom (home ?t) in action 'go': ?t has type 'truck',"
            " expected 'crate'\n"
        )

    def test_ill_typed_action_constant_exit_1(self, capsys, tmp_path):
        """The truck `t2` fills `home`'s crate place as a constant of `go`:
        one error line naming the action, the atom and the constant."""
        domain = tmp_path / "domain.pddl"
        domain.write_text(
            "(define (domain depot) (:requirements :strips :typing)"
            " (:types truck crate)"
            " (:predicates (home ?c - crate) (moved ?t - truck))"
            " (:action go :parameters (?t - truck)"
            " :precondition (home t2) :effect (moved ?t)))"
        )
        problem = tmp_path / "problem.pddl"
        problem.write_text(
            "(define (problem p) (:domain depot) (:objects t1 t2 - truck c1 - crate)"
            " (:init (home c1)) (:goal (moved t1)))"
        )
        code, stdout, stderr = run(
            capsys, "repair", "--domain", str(domain), "--problem", str(problem),
        )
        assert code == 1
        assert stdout == ""
        assert stderr == (
            "error: atom (home t2) in action 'go': constant 't2' has type 'truck',"
            " expected 'crate'\n"
        )


class TestConfig:
    def test_read_config(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(
            "# comment\n"
            "endpoint = http://localhost:8000/v1/chat/completions\n"
            'model = "local-llama"\n'
            "\n"
            "context_limit=4096  # inline comment\n"
        )
        parsed = read_config(cfg)
        assert parsed == {
            "endpoint": "http://localhost:8000/v1/chat/completions",
            "model": "local-llama",
            "context_limit": "4096",
        }

    def test_malformed_line_reports_position(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("model x\n")
        with pytest.raises(ValueError, match="1"):
            read_config(cfg)

    def test_unknown_config_preset_rejected(self, capsys, t2_files, tmp_path):
        """A misspelt preset in a config file is an error, as it is on the
        command line, not a silent desk-scale budget."""
        cfg = tmp_path / "cfg"
        cfg.write_text("preset = papr\n")
        code, stdout, stderr = run(
            capsys, "--config", str(cfg), "repair",
            "--domain", str(t2_files / "domain.pddl"),
            "--problem", str(t2_files / "problem.pddl"),
        )
        assert code == 1
        assert stdout == ""
        assert "error: unknown preset 'papr'" in stderr
