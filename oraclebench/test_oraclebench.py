"""Tests of the benchmark's own arithmetic: the tail-percentile rule, self
time of nested, overlapping and cross-thread spans, the records digest, and
counters reported absent when a private helper is gone.

    PYTHONPATH=src python -m pytest -q oraclebench
"""
from __future__ import annotations

import json
import random
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run as bench  # noqa: E402
from tracing import Span, Tracer, self_times, union_length  # noqa: E402


# --- tail percentile --------------------------------------------------------

@pytest.mark.parametrize("n, p", [(20, 50), (30, 66), (60, 83), (96, 89), (400, 97), (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert bench.tail_percentile(n) == p
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    beyond = sum(v > bench.percentile(values, p) for v in values)
    assert beyond >= 10
    assert sum(v > bench.percentile(values, p + 1) for v in values) < 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        bench.tail_percentile(19)


def test_nearest_rank_percentile():
    assert bench.percentile([5, 1, 3, 2, 4], 50) == 3
    assert bench.percentile([5, 1, 3, 2, 4], 100) == 5
    assert bench.percentile([7], 99) == 7


# --- self time --------------------------------------------------------------

def test_union_length_counts_overlap_once():
    assert union_length([]) == 0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(1, 6), (2, 3)]) == 5


def test_self_time_nested_spans():
    spans = [
        Span(1, "a", 0.0, 10.0, None, None),
        Span(2, "b", 2.0, 5.0, 1, None),
        Span(3, "c", 3.0, 4.0, 2, None),
        Span(4, "d", 6.0, 7.0, 1, None),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_overlapping_children_and_clipping():
    spans = [
        Span(1, "pool", 0.0, 10.0, None, None),
        Span(2, "job", 1.0, 6.0, 1, None),
        Span(3, "job", 4.0, 8.0, 1, None),
        Span(4, "late", 9.0, 12.0, 1, None),  # outlives its parent
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert (own[2], own[3], own[4]) == (5.0, 4.0, 3.0)


def test_self_time_two_worker_threads():
    """Two record spans on worker threads overlap under the span that
    started them on the main thread, as runner.run_bench does with jobs=2."""
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    opened = [threading.Event(), threading.Event()]
    release = [threading.Event(), threading.Event()]
    closed = [threading.Event(), threading.Event()]

    def worker(i):
        with tracer.span("runner.run_instance", record=f"r{i}"):
            with tracer.span("planner.solve"):
                opened[i].set()
                release[i].wait(5)
        closed[i].set()

    with tracer.span("runner.run_bench"):
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for i, when_open in enumerate((1.0, 2.0)):
            now[0] = when_open
            threads[i].start()
            assert opened[i].wait(5)
        for i, when_close in enumerate((6.0, 8.0)):
            now[0] = when_close
            release[i].set()
            assert closed[i].wait(5)
        for t in threads:
            t.join(5)
            assert not t.is_alive()
        now[0] = 10.0

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (pool,) = by_name["runner.run_bench"]
    records = by_name["runner.run_instance"]
    assert all(s.parent == pool.id for s in records)
    assert sorted(s.record for s in records) == ["r0", "r1"]
    assert all(s.record in ("r0", "r1") for s in by_name["planner.solve"])
    own = self_times(tracer.spans)
    # records cover [1, 8] together: the pool waited 3 s with no record running
    assert own[pool.id] == pytest.approx(3.0)
    # each record's time is spent in its nested solve
    assert all(own[s.id] == pytest.approx(0.0) for s in records)


# --- digest -----------------------------------------------------------------

def _records():
    return [
        {"instance_id": f"i{i}", "pipeline": "llm_only", "use_case": "unsolvability",
         "sound": True, "preferred": i % 2 == 0, "failure": None, "edits": [],
         "timings": {"llm": 0.001 * i}}
        for i in range(5)
    ]


def test_digest_ignores_order_and_timings():
    records = _records()
    shuffled = list(reversed(records))
    retimed = [dict(r, timings={"llm": 9.0, "verify": 1.0}) for r in records]
    assert bench.records_digest(records) == bench.records_digest(shuffled)
    assert bench.records_digest(records) == bench.records_digest(retimed)
    changed = [dict(r) for r in records]
    changed[3]["preferred"] = not changed[3]["preferred"]
    assert bench.records_digest(changed) != bench.records_digest(records)


def test_digest_state_catches_a_changed_answer(tmp_path):
    wl = bench.WORKLOADS["verify-pre"]
    state = tmp_path / "digests.json"
    assert bench.check_digests(["a", "a"], wl, 0, state) == []
    assert bench.check_digests(["a"], wl, 0, state) == []
    assert bench.check_digests(["a"], wl, 1, state) == []
    assert len(bench.check_digests(["b"], wl, 0, state)) == 1
    assert len(bench.check_digests(["a", "b"], wl, 2, state)) == 1


# --- absent counters --------------------------------------------------------

def test_missing_search_helper_reports_counters_absent(monkeypatch):
    from modelspace import repair

    monkeypatch.delattr(repair, "_search")
    tracer = Tracer()
    with layers.install(tracer):
        pass
    assert not hasattr(repair, "_search")
    metrics = layers.layer_metrics(Tracer(), tracer, 1, 1, 1.0, 1.0, 1.0)
    for name in layers.SEARCH_COUNTERS:
        assert name not in metrics
    assert "repair.enumerate.calls" in metrics
    assert "repair.enumerate.space_kept_mean" in metrics


def test_search_result_of_another_shape_reports_counters_absent():
    tracer = Tracer()
    read, feeds = layers.PRIVATE_TAPS["_search"]
    tapped = layers._tap(tracer, read, feeds)(lambda: "another shape")
    with tracer.span("repair.enumerate"):
        assert tapped() == "another shape"
    assert set(layers.SEARCH_COUNTERS) <= tracer.absent


def test_install_counts_an_enumeration_and_restores_the_program():
    from modelspace import benchgen, pipelines, repair, runner
    from modelspace.llm.client import ProviderConfig
    from modelspace.oracle import OracleProvider

    originals = (repair._search, pipelines.enumerate_solutions, runner.run_instance)
    inst = benchgen.make_instance("barman_simple", seed=0)
    tracer = Tracer()
    with layers.install(tracer):
        record = runner.run_instance(
            inst, "post_processor", "unsolvability", OracleProvider(inst), ProviderConfig())
    assert (repair._search, pipelines.enumerate_solutions, runner.run_instance) == originals
    assert "complete" not in vars(OracleProvider)
    assert record["sound"]
    metrics = layers.layer_metrics(Tracer(), tracer, 1, 1, 1.0, 1.0, 1.0)
    assert metrics["repair.enumerate.calls"] == 1
    assert metrics["repair.enumerate.expansions"] > 0
    assert 0 < metrics["repair.enumerate.space_kept_mean"] <= metrics["repair.enumerate.space_in_mean"]
    assert metrics["runner.run_instance.calls"] == 1
    assert metrics["oracle.complete.calls"] == 1
    assert tracer.absent == set()


# --- BENCHMARK.json matches the code ---------------------------------------

def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


# --- correctness gate ---------------------------------------------------------

def test_gate_flags_unsound_out_of_family_and_overlong_records(tmp_path):
    from modelspace import benchgen

    inst = benchgen.make_instance("barman_simple", seed=0)
    benchgen.write_instance(inst, tmp_path)
    wrong = {"kind": "add", "atom": ["clean", "no_such_object"]}
    base = {"instance_id": inst.id, "pipeline": "llm_only", "use_case": "unsolvability",
            "failure": None, "timings": {}}
    records = [
        dict(base, edits=[wrong], sound=True, preferred=False),
        dict(base, edits=[wrong], sound=False, preferred=True),
        dict(base, edits=None, sound=False, preferred=False, timings={"search": 7201.0}),
    ]
    problems = bench.check_records(records, tmp_path)
    assert len(problems) == 3
    assert "fails the re-check" in problems[0]
    assert "outside the family" in problems[1]
    assert "wall clock" in problems[2]
