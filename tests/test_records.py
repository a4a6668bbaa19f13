"""The oracle benchmark's records at workload seeds 0 and 1, and its
written seed-0 corpora, pinned by digest.

Builds each workload's corpus and runs one pass through the benchmark's own
`set_up`, `one_pass` and `records_digest`, so a change that alters any
answer the benchmark records fails here, not only in the benchmark's
pass-to-pass gate. Records carry only a target plan's length, so the
corpus digest, over every written file, is what pins the plans themselves.
"""
import hashlib
import json
import pathlib
import sys

import pytest

from conftest import SIZES
from modelspace.benchgen import ALL_KINDS
from modelspace.benchgen.corpus import generate_corpus
from modelspace.pddl import ground_task
from modelspace.planner import solve

ORACLEBENCH = pathlib.Path(__file__).resolve().parent.parent / "oraclebench"
if str(ORACLEBENCH) not in sys.path:
    sys.path.insert(0, str(ORACLEBENCH))

import run as bench  # noqa: E402

SEED0_DIGESTS = {
    "enum-uns": "026c3500eeed69241e050487824a05fd0f01f3338e378f190fbfa56a8d70e31b",
    "verify-pre": "3299fda9994b5d56dd7b8079434f39e5a1bf3b39a2e894406ae863265522cc12",
}

SEED1_DIGESTS = {
    "enum-uns": "aebf270a1a3e16516ab16d625b4fb80e54958d94665be0bbd0d35ff9c7fa1671",
    "verify-pre": "17c27102966b480e235210dbdb01b7a01662748220bdf8c2e0d52aab495726e4",
}

SEED0_CORPUS_DIGESTS = {
    "enum-uns": "ea45e48d17ebd5f24e735ee7ba5e37858e325622c1b928fadbf20b753123ea2c",
    "verify-pre": "9f9e4e94da21781717ed40115f4fc95002f93320d014b2275761a887a2a3cc1b",
}


def corpus_digest(root):
    """sha256 over each file under `root`, in path order: its relative
    path, its length and its bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def pass_digest(workload, seed, tmp_path):
    """The records digest of one pass over the workload's corpus at `seed`."""
    wl = bench.WORKLOADS[workload]
    bench.set_up(wl, seed, tmp_path / "bench")
    path = bench.one_pass(wl, tmp_path / "bench", tmp_path / "out")
    records = [json.loads(line) for line in path.read_text().splitlines() if line]
    return bench.records_digest(records)


@pytest.mark.parametrize("workload", sorted(SEED0_DIGESTS))
def test_seed0_records_digest(workload, tmp_path):
    assert pass_digest(workload, 0, tmp_path) == SEED0_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(SEED1_DIGESTS))
def test_seed1_records_digest(workload, tmp_path):
    assert pass_digest(workload, 1, tmp_path) == SEED1_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(SEED0_CORPUS_DIGESTS))
def test_seed0_corpus_digest(workload, tmp_path):
    bench.set_up(bench.WORKLOADS[workload], 0, tmp_path)
    assert corpus_digest(tmp_path) == SEED0_CORPUS_DIGESTS[workload]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_target_plan_is_full_search_plan(kind):
    """Set-up searches only the relevant actions its check reaches; its
    plan is the one breadth-first search finds over the whole task."""
    for inst in generate_corpus([kind], 4, seed=0, **SIZES[kind]):
        assert inst.target_plan == solve(ground_task(inst.solvable)).plan
